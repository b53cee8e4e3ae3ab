//! Compile-time energy model for heterogeneous clustered VLIW machines.
//!
//! Implements §3 of the CGO 2007 paper *"Heterogeneous Clustered VLIW
//! Microarchitectures"*: the energy consumption of any clocked
//! configuration is expressed **relative to a reference homogeneous
//! machine** whose total energy is decomposed into six components —
//! {clusters, interconnect, cache} × {dynamic, static} — using the paper's
//! published shares (one third of all energy in the memory hierarchy, 10 %
//! in the interconnect; leakage is one third of cluster energy, 10 % of ICN
//! energy and two thirds of cache energy).
//!
//! From those shares and a profile of the reference machine
//! ([`ReferenceProfile`]) we calibrate per-event unit energies
//! ([`EnergyUnits`]). Scaling laws then map voltage/frequency choices to
//! energy ratios:
//!
//! * dynamic: `δ = (Vdd / Vdd₀)²` ([`dynamic_scale`]),
//! * static: `σ = 10^((Vth₀ − Vth)/S) · (Vdd / Vdd₀)` ([`static_scale`]),
//! * the α-power law relating maximum frequency, supply and threshold
//!   voltage ([`threshold_for`]).
//!
//! A domain's δ and σ together are [`scaling`], a function of its cycle
//! time and supply alone.
//!
//! The reference point of all three is the paper's one operating point,
//! held in constants: 1 GHz ([`FREQ_REF_GHZ`]) at 1 V ([`VDD_REF`]) with a
//! 0.25 V threshold ([`VTH_REF`]), α = 1.36 ([`ALPHA`]) and a 100 mV/decade
//! subthreshold swing ([`SUBTHRESHOLD_SWING_V`]).
//!
//! The headline metric is the energy–delay² product ([`ed2`]).
//!
//! # Example
//!
//! ```
//! use vliw_machine::{ClockedConfig, MachineDesign, Time};
//! use vliw_power::{EnergyShares, PowerModel, ReferenceProfile, UsageProfile};
//!
//! let design = MachineDesign::paper_machine(1);
//! let reference_run = ReferenceProfile {
//!     weighted_ins: 1_000_000.0,
//!     comms: 120_000,
//!     mem_accesses: 300_000,
//!     exec_time: Time::from_ns(500_000.0),
//! };
//! let model = PowerModel::calibrate(design, EnergyShares::PAPER, &reference_run);
//!
//! // Re-estimating the reference run on the reference machine returns the
//! // normalisation point: total energy 1.
//! let config = ClockedConfig::reference(design);
//! let usage = UsageProfile::homogeneous(&reference_run, &config).unwrap();
//! let energy = model.estimate_energy(&config, &usage).unwrap();
//! assert!((energy - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alpha;
mod estimate;
mod reference;
mod scaling;

pub use alpha::{threshold_for, ALPHA, FREQ_REF_GHZ, VDD_REF, VTH_REF};
pub use estimate::{ConfigScaling, DomainScaling, PowerModel, UsageProfile};
pub use reference::{EnergyShares, EnergyUnits, ReferenceProfile};
pub use scaling::{dynamic_scale, scaling, static_scale, SUBTHRESHOLD_SWING_V};

/// The energy–delay² product: the paper's figure of merit for simultaneously
/// rewarding speed and energy savings.
///
/// # Example
///
/// ```
/// // Halving the delay at equal energy improves ED² by 4×.
/// assert_eq!(vliw_power::ed2(1.0, 0.5) * 4.0, vliw_power::ed2(1.0, 1.0));
/// ```
#[must_use]
pub fn ed2(energy: f64, delay_s: f64) -> f64 {
    energy * delay_s * delay_s
}

// Power models are shared by reference with the exploration worker pool.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<PowerModel>();
    _assert_send_sync::<EnergyShares>();
    _assert_send_sync::<EnergyUnits>();
    _assert_send_sync::<ReferenceProfile>();
    _assert_send_sync::<UsageProfile>();
    _assert_send_sync::<ConfigScaling>();
};
