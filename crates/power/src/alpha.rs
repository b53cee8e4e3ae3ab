//! The α-power law linking maximum frequency, supply voltage and threshold
//! voltage (§3.3 of the paper).

/// α-power delay model:
/// `f_max = β · (V_dd − V_th)^α / (C_L · V_dd)`.
///
/// The technology constants `β` and `C_L` never appear explicitly: the model
/// is anchored at the paper's reference operating point (1 GHz at
/// `V_dd = 1 V`, `V_th = 0.25 V`), so only ratios matter:
///
/// ```text
/// f / f₀ = (V_dd₀ / V_dd) · ((V_dd − V_th) / (V_dd₀ − V_th₀))^α
/// ```
///
/// Given a target frequency and a supply, [`AlphaPowerModel::threshold_for`]
/// inverts this for the *highest* threshold voltage that still meets the
/// frequency (higher `V_th` leaks exponentially less, so it is always the
/// preferred solution), and applies the reliability constraints.
///
/// ### Note on the paper's constraint
///
/// The paper's metastability/process-variation inequality is typeset
/// corruptly (a literal reading rejects the paper's own 1 V / 0.25 V
/// baseline). We implement the standard reliability guards it gestures at:
/// a noise margin `V_dd − V_th ≥ 0.1 · V_dd` and a process-variation guard
/// band `V_th ≥ 0.1 V`. See DESIGN.md §3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaPowerModel {
    alpha: f64,
    vdd_ref: f64,
    vth_ref: f64,
    freq_ref_ghz: f64,
}

impl AlphaPowerModel {
    /// Delay exponent used throughout the evaluation. The α-power model
    /// admits α between ~1.2 (fully velocity-saturated devices) and 2
    /// (classic long-channel); we calibrate at `α = 1.36`, the value at
    /// which — with the 100 mV/decade subthreshold swing — the ED²-optimal
    /// *homogeneous* design coincides with the paper's 1 GHz / 1 V
    /// reference point, as the paper's own baseline discussion implies
    /// (see EXPERIMENTS.md).
    pub const DEFAULT_ALPHA: f64 = 1.36;

    /// The paper's reference operating point: 1 GHz at 1 V supply and
    /// 0.25 V threshold (§5).
    #[must_use]
    pub fn paper_reference() -> Self {
        Self::new(Self::DEFAULT_ALPHA, 1.0, 0.25, 1.0)
    }

    /// Builds a model anchored at (`vdd_ref`, `vth_ref`, `freq_ref_ghz`).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive/non-finite, if
    /// `vth_ref >= vdd_ref`, or if `alpha < 1`.
    #[must_use]
    pub fn new(alpha: f64, vdd_ref: f64, vth_ref: f64, freq_ref_ghz: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 1.0,
            "alpha must be >= 1, got {alpha}"
        );
        assert!(
            vdd_ref.is_finite() && vdd_ref > 0.0,
            "vdd_ref must be positive"
        );
        assert!(
            vth_ref.is_finite() && vth_ref > 0.0,
            "vth_ref must be positive"
        );
        assert!(
            vth_ref < vdd_ref,
            "reference threshold must be below reference supply"
        );
        assert!(
            freq_ref_ghz.is_finite() && freq_ref_ghz > 0.0,
            "freq_ref must be positive"
        );
        Self {
            alpha,
            vdd_ref,
            vth_ref,
            freq_ref_ghz,
        }
    }

    /// The delay exponent α.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The reference frequency (GHz) reached at the reference operating
    /// point.
    #[must_use]
    pub fn freq_ref_ghz(&self) -> f64 {
        self.freq_ref_ghz
    }

    /// The reference threshold voltage (0.25 V for the paper's model).
    #[must_use]
    pub fn vth_ref(&self) -> f64 {
        self.vth_ref
    }

    /// The reference supply voltage.
    #[must_use]
    pub fn vdd_ref(&self) -> f64 {
        self.vdd_ref
    }

    /// Maximum frequency (GHz) at supply `vdd` and threshold `vth`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd <= 0` or `vth >= vdd`.
    #[must_use]
    pub fn max_freq_ghz(&self, vdd: f64, vth: f64) -> f64 {
        assert!(vdd.is_finite() && vdd > 0.0, "vdd must be positive");
        assert!(vth < vdd, "threshold must be below supply");
        let overdrive = (vdd - vth) / (self.vdd_ref - self.vth_ref);
        self.freq_ref_ghz * (self.vdd_ref / vdd) * overdrive.powf(self.alpha)
    }

    /// The highest threshold voltage at which a component supplied with
    /// `vdd` still reaches `freq_ghz`, if any.
    ///
    /// Returns `None` when the requested frequency is unreachable at this
    /// supply or the resulting threshold violates the reliability guards
    /// (`V_th ≥ 0.1 V` and `V_dd − V_th ≥ 0.1 · V_dd`).
    ///
    /// # Panics
    ///
    /// Panics if `freq_ghz` or `vdd` is not positive and finite.
    #[must_use]
    pub fn threshold_for(&self, freq_ghz: f64, vdd: f64) -> Option<f64> {
        assert!(
            freq_ghz.is_finite() && freq_ghz > 0.0,
            "frequency must be positive"
        );
        assert!(vdd.is_finite() && vdd > 0.0, "vdd must be positive");
        // Invert f/f0 = (vdd0/vdd) * ((vdd - vth)/(vdd0 - vth0))^alpha.
        let ratio = freq_ghz / self.freq_ref_ghz * (vdd / self.vdd_ref);
        let overdrive = ratio.powf(1.0 / self.alpha) * (self.vdd_ref - self.vth_ref);
        let vth = vdd - overdrive;
        let noise_margin_ok = vdd - vth >= 0.1 * vdd - 1e-12;
        let guard_band_ok = vth >= 0.1 - 1e-12;
        (noise_margin_ok && guard_band_ok).then_some(vth)
    }
}

impl Default for AlphaPowerModel {
    fn default() -> Self {
        Self::paper_reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reference_point_round_trips() {
        let m = AlphaPowerModel::paper_reference();
        let vth = m.threshold_for(1.0, 1.0).unwrap();
        assert!(
            (vth - 0.25).abs() < 1e-9,
            "reference solve returns reference vth, got {vth}"
        );
        assert!((m.max_freq_ghz(1.0, 0.25) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lower_frequency_allows_higher_threshold() {
        let m = AlphaPowerModel::paper_reference();
        let slow = m.threshold_for(0.66, 1.0).unwrap();
        let fast = m.threshold_for(1.05, 1.0).unwrap();
        assert!(slow > 0.25);
        assert!(fast < 0.25);
    }

    #[test]
    fn higher_supply_allows_higher_threshold_at_same_freq() {
        let m = AlphaPowerModel::paper_reference();
        let low = m.threshold_for(1.0, 0.9).unwrap();
        let high = m.threshold_for(1.0, 1.2).unwrap();
        assert!(high > low);
    }

    #[test]
    fn unreachable_frequency_is_rejected() {
        let m = AlphaPowerModel::paper_reference();
        // At 0.7 V the machine cannot hit very high frequency: the solve
        // would need vth < 0.1 V guard band (or even negative).
        assert!(m.threshold_for(3.0, 0.7).is_none());
    }

    #[test]
    fn guard_band_rejects_tiny_threshold() {
        let m = AlphaPowerModel::paper_reference();
        // Find a frequency whose solve lands just under 0.1 V.
        let f_at_guard = m.max_freq_ghz(1.0, 0.1);
        assert!(m.threshold_for(f_at_guard * 1.05, 1.0).is_none());
        assert!(m.threshold_for(f_at_guard * 0.95, 1.0).is_some());
    }

    #[test]
    fn noise_margin_rejects_threshold_too_close_to_vdd() {
        let m = AlphaPowerModel::paper_reference();
        // Extremely low frequencies push vth → vdd; the margin must kick in.
        assert!(m.threshold_for(1e-6, 1.0).is_none());
    }

    proptest! {
        #[test]
        fn solve_inverts_forward_model(
            f in 0.3f64..1.4,
            vdd in 0.7f64..1.4,
        ) {
            let m = AlphaPowerModel::paper_reference();
            if let Some(vth) = m.threshold_for(f, vdd) {
                let back = m.max_freq_ghz(vdd, vth);
                prop_assert!((back - f).abs() < 1e-9 * f.max(1.0));
            }
        }

        #[test]
        fn threshold_monotone_in_frequency(vdd in 0.7f64..1.4) {
            let m = AlphaPowerModel::paper_reference();
            let mut prev: Option<f64> = None;
            for i in 1..20 {
                let f = 0.2 + 0.05 * f64::from(i);
                if let Some(vth) = m.threshold_for(f, vdd) {
                    if let Some(p) = prev {
                        prop_assert!(vth <= p + 1e-12);
                    }
                    prev = Some(vth);
                }
            }
        }
    }
}
