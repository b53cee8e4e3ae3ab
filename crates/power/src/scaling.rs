//! Voltage/frequency scaling laws for dynamic and static energy (§3.1.1,
//! §3.1.2 of the paper), relative to the reference operating point
//! ([`VDD_REF`], [`VTH_REF`]).

use vliw_machine::Time;

use crate::alpha::{threshold_for, VDD_REF, VTH_REF};
use crate::estimate::DomainScaling;

/// Subthreshold swing `S`: volts of threshold-voltage reduction per decade
/// of leakage-current increase.
///
/// 100 mV/decade, the standard value for the paper's technology
/// generation. Together with `α = 1.36` this places the ED²-optimal
/// homogeneous design exactly at the paper's 1 GHz / 1 V reference point.
pub const SUBTHRESHOLD_SWING_V: f64 = 0.10;

/// Dynamic-energy scaling factor δ (§3.1.1).
///
/// Two identically designed components executing the same instruction burn
/// charge `p_t · C_L · V_dd²` per cycle, so at equal cycle counts
/// `E / E₀ = (V_dd / V_dd₀)²` — frequency cancels out of per-event energy.
///
/// # Panics
///
/// Panics if `vdd` is not positive and finite.
///
/// # Example
///
/// ```
/// // Dropping from 1.0 V to 0.8 V saves 36 % of dynamic energy.
/// let delta = vliw_power::dynamic_scale(0.8);
/// assert!((delta - 0.64).abs() < 1e-12);
/// ```
#[must_use]
pub fn dynamic_scale(vdd: f64) -> f64 {
    check_voltage(vdd, "vdd");
    let r = vdd / VDD_REF;
    r * r
}

/// Static-energy scaling factor σ (§3.1.2).
///
/// Leakage power is `P_stat = I_leak · V_dd` with
/// `I_leak ∝ W · 10^(−V_th / S)`, so for two components of identical design
/// the per-second static energy ratio is
/// `σ = 10^((V_th₀ − V_th) / S) · (V_dd / V_dd₀)`.
///
/// # Panics
///
/// Panics if `vdd` is not positive/finite or `vth` is not finite.
///
/// # Example
///
/// ```
/// use vliw_power::{static_scale, SUBTHRESHOLD_SWING_V, VTH_REF};
/// // Raising Vth by one subthreshold swing cuts leakage 10×.
/// let sigma = static_scale(1.0, VTH_REF + SUBTHRESHOLD_SWING_V);
/// assert!((sigma - 0.1).abs() < 1e-12);
/// ```
#[must_use]
pub fn static_scale(vdd: f64, vth: f64) -> f64 {
    check_voltage(vdd, "vdd");
    assert!(vth.is_finite(), "threshold must be finite");
    10f64.powf((VTH_REF - vth) / SUBTHRESHOLD_SWING_V) * (vdd / VDD_REF)
}

/// Scaling factors of a clock domain with cycle time `cycle` supplied
/// with `vdd`, or `None` when that frequency is unreachable at that
/// supply (no valid threshold exists).
///
/// Nothing else enters a domain's δ/σ — neither the rest of its
/// configuration nor the calibrated power model — so a caller pricing
/// many configurations over a fixed set of (cycle, supply) pairs can
/// tabulate this once per pair and share the table across models.
///
/// # Example
///
/// ```
/// use vliw_machine::Time;
///
/// // The reference point: 1 ns at 1 V scales nothing.
/// let s = vliw_power::scaling(Time::from_ns(1.0), 1.0).unwrap();
/// assert_eq!(s.delta, 1.0);
/// // 0.5 ns cycles (2 GHz) are out of reach at 0.7 V.
/// assert!(vliw_power::scaling(Time::from_ns(0.5), 0.7).is_none());
/// ```
#[must_use]
pub fn scaling(cycle: Time, vdd: f64) -> Option<DomainScaling> {
    let vth = threshold_for(cycle.freq_ghz(), vdd)?;
    Some(DomainScaling {
        delta: dynamic_scale(vdd),
        sigma: static_scale(vdd, vth),
        vth,
    })
}

fn check_voltage(v: f64, name: &str) {
    assert!(
        v.is_finite() && v > 0.0,
        "{name} must be positive and finite, got {v}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reference_point_scales_to_one() {
        assert_eq!(dynamic_scale(1.0), 1.0);
        assert_eq!(static_scale(1.0, 0.25), 1.0);
    }

    #[test]
    fn dynamic_is_quadratic() {
        assert!((dynamic_scale(1.2) - 1.44).abs() < 1e-12);
        assert!((dynamic_scale(0.7) - 0.49).abs() < 1e-12);
    }

    #[test]
    fn lower_vth_leaks_exponentially_more() {
        let one_decade = static_scale(1.0, 0.15);
        assert!((one_decade - 10.0).abs() < 1e-9);
        let two_decades = static_scale(1.0, 0.05);
        assert!((two_decades - 100.0).abs() < 1e-7);
    }

    #[test]
    fn static_scale_is_linear_in_vdd() {
        let a = static_scale(0.8, 0.25);
        assert!((a - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_voltage_panics() {
        let _ = dynamic_scale(0.0);
    }

    proptest! {
        #[test]
        fn dynamic_monotone_in_vdd(v1 in 0.5f64..2.0, v2 in 0.5f64..2.0) {
            prop_assume!(v1 < v2);
            prop_assert!(dynamic_scale(v1) < dynamic_scale(v2));
        }

        #[test]
        fn static_monotone_decreasing_in_vth(t1 in 0.05f64..0.5, t2 in 0.05f64..0.5) {
            prop_assume!(t1 < t2);
            prop_assert!(static_scale(1.0, t1) > static_scale(1.0, t2));
        }
    }
}
