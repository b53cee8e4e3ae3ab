//! The α-power law linking maximum frequency, supply voltage and threshold
//! voltage (§3.3 of the paper), anchored at the paper's one reference
//! operating point.
//!
//! α-power delay model:
//! `f_max = β · (V_dd − V_th)^α / (C_L · V_dd)`.
//!
//! The technology constants `β` and `C_L` never appear explicitly: the
//! model is anchored at the paper's reference operating point
//! ([`FREQ_REF_GHZ`] at [`VDD_REF`], [`VTH_REF`]), so only ratios matter:
//!
//! ```text
//! f / f₀ = (V_dd₀ / V_dd) · ((V_dd − V_th) / (V_dd₀ − V_th₀))^α
//! ```
//!
//! Given a target frequency and a supply, [`threshold_for`] inverts this
//! for the *highest* threshold voltage that still meets the frequency
//! (higher `V_th` leaks exponentially less, so it is always the preferred
//! solution), and applies the reliability constraints.
//!
//! ### Note on the paper's constraint
//!
//! The paper's metastability/process-variation inequality is typeset
//! corruptly: a literal reading rejects the paper's own 1 V / 0.25 V
//! baseline. We implement the standard reliability guards it gestures at
//! instead: a noise margin `V_dd − V_th ≥ 0.1 · V_dd` and a
//! process-variation guard band `V_th ≥ 0.1 V`.

/// Delay exponent α. The α-power model admits α between ~1.2 (fully
/// velocity-saturated devices) and 2 (classic long-channel); 1.36 is the
/// value at which, with the 100 mV/decade subthreshold swing, the
/// ED²-optimal *homogeneous* design coincides with the paper's 1 GHz / 1 V
/// reference point, as the paper's own baseline discussion implies.
pub const ALPHA: f64 = 1.36;

/// Supply voltage of the reference operating point (V, §5).
pub const VDD_REF: f64 = 1.0;

/// Threshold voltage of the reference operating point (V, §5).
pub const VTH_REF: f64 = 0.25;

/// Frequency of the reference operating point (GHz, §5).
pub const FREQ_REF_GHZ: f64 = 1.0;

/// The highest threshold voltage at which a component supplied with `vdd`
/// still reaches `freq_ghz`, if any.
///
/// Returns `None` when the requested frequency is unreachable at this
/// supply or the resulting threshold violates the reliability guards
/// (`V_th ≥ 0.1 V` and `V_dd − V_th ≥ 0.1 · V_dd`).
///
/// # Panics
///
/// Panics if `freq_ghz` or `vdd` is not positive and finite.
#[must_use]
pub fn threshold_for(freq_ghz: f64, vdd: f64) -> Option<f64> {
    assert!(
        freq_ghz.is_finite() && freq_ghz > 0.0,
        "frequency must be positive"
    );
    assert!(vdd.is_finite() && vdd > 0.0, "vdd must be positive");
    // Invert f/f0 = (vdd0/vdd) * ((vdd - vth)/(vdd0 - vth0))^alpha.
    let ratio = freq_ghz / FREQ_REF_GHZ * (vdd / VDD_REF);
    let overdrive = ratio.powf(1.0 / ALPHA) * (VDD_REF - VTH_REF);
    let vth = vdd - overdrive;
    let noise_margin_ok = vdd - vth >= 0.1 * vdd - 1e-12;
    let guard_band_ok = vth >= 0.1 - 1e-12;
    (noise_margin_ok && guard_band_ok).then_some(vth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The forward α-power law: the maximum frequency (GHz) at supply
    /// `vdd` and threshold `vth`, the oracle [`threshold_for`] inverts.
    fn max_freq_ghz(vdd: f64, vth: f64) -> f64 {
        assert!(vth < vdd, "threshold must be below supply");
        let overdrive = (vdd - vth) / (VDD_REF - VTH_REF);
        FREQ_REF_GHZ * (VDD_REF / vdd) * overdrive.powf(ALPHA)
    }

    #[test]
    fn reference_point_round_trips() {
        let vth = threshold_for(1.0, 1.0).unwrap();
        assert!(
            (vth - 0.25).abs() < 1e-9,
            "reference solve returns reference vth, got {vth}"
        );
        assert!((max_freq_ghz(1.0, 0.25) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lower_frequency_allows_higher_threshold() {
        let slow = threshold_for(0.66, 1.0).unwrap();
        let fast = threshold_for(1.05, 1.0).unwrap();
        assert!(slow > 0.25);
        assert!(fast < 0.25);
    }

    #[test]
    fn higher_supply_allows_higher_threshold_at_same_freq() {
        let low = threshold_for(1.0, 0.9).unwrap();
        let high = threshold_for(1.0, 1.2).unwrap();
        assert!(high > low);
    }

    #[test]
    fn unreachable_frequency_is_rejected() {
        // At 0.7 V the machine cannot hit very high frequency: the solve
        // would need vth < 0.1 V guard band (or even negative).
        assert!(threshold_for(3.0, 0.7).is_none());
    }

    #[test]
    fn guard_band_rejects_tiny_threshold() {
        // Find a frequency whose solve lands just under 0.1 V.
        let f_at_guard = max_freq_ghz(1.0, 0.1);
        assert!(threshold_for(f_at_guard * 1.05, 1.0).is_none());
        assert!(threshold_for(f_at_guard * 0.95, 1.0).is_some());
    }

    #[test]
    fn noise_margin_rejects_threshold_too_close_to_vdd() {
        // Extremely low frequencies push vth → vdd; the margin must kick in.
        assert!(threshold_for(1e-6, 1.0).is_none());
    }

    proptest! {
        #[test]
        fn solve_inverts_forward_model(
            f in 0.3f64..1.4,
            vdd in 0.7f64..1.4,
        ) {
            if let Some(vth) = threshold_for(f, vdd) {
                let back = max_freq_ghz(vdd, vth);
                prop_assert!((back - f).abs() < 1e-9 * f.max(1.0));
            }
        }

        #[test]
        fn threshold_monotone_in_frequency(vdd in 0.7f64..1.4) {
            let mut prev: Option<f64> = None;
            for i in 1..20 {
                let f = 0.2 + 0.05 * f64::from(i);
                if let Some(vth) = threshold_for(f, vdd) {
                    if let Some(p) = prev {
                        prop_assert!(vth <= p + 1e-12);
                    }
                    prev = Some(vth);
                }
            }
        }
    }
}
