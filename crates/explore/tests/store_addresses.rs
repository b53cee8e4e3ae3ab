//! The persistent store's content addresses, pinned to literals.
//!
//! A store on disk stays warm only while every digest that files a record
//! repeats bit for bit. These three cover each kind of address: a
//! reference-profile key, a heterogeneous measurement key under a
//! restricted menu, and the paper space's evaluation fingerprint. The
//! literals were captured when the scheduler's eject budget and IT-retry
//! cap were still options; both are hashed ahead of the menu, so a change
//! to either constant, to the menu hashing or to the power-model hashing
//! fails here before it silently re-addresses a store.

use vliw_exec::Executor;
use vliw_explore::experiments::profile_suite;
use vliw_explore::{config_fingerprint, SearchContext, SpaceKind};
use vliw_machine::{ClockedConfig, FrequencyMenu, MachineDesign, MenuKind, Time};
use vliw_power::{EnergyShares, PowerModel, ReferenceProfile};
use vliw_workloads::{generate, spec_fp2000};

#[test]
fn store_addresses_are_pinned() {
    let design = MachineDesign::paper_machine(1);

    // The key every reference profile is filed under.
    let reference = ClockedConfig::reference(design);
    let profile_key = config_fingerprint(&reference, None, &FrequencyMenu::unrestricted());
    assert_eq!(profile_key, 0x4c2b_846b_ac0b_b87c, "profile key");

    // A Figure 7 measurement: heterogeneous clocks, a calibrated model
    // and the 8-frequency menu.
    let hetero = ClockedConfig::heterogeneous(design, Time::from_ns(0.9), 1, Time::from_ns(1.2));
    let power = PowerModel::calibrate(
        design,
        EnergyShares::PAPER,
        &ReferenceProfile {
            weighted_ins: 1000.0,
            comms: 10,
            mem_accesses: 20,
            exec_time: Time::from_ns(1000.0),
        },
    );
    let menu8 = FrequencyMenu::from_kind(MenuKind::Uniform(8));
    let measure_key = config_fingerprint(&hetero, Some(&power), &menu8);
    assert_eq!(measure_key, 0xd662_9927_2f4d_ed61, "measurement key");

    // The paper space's evaluation fingerprint over a profiled suite.
    let suite = [
        generate(&spec_fp2000()[8], 2),
        generate(&spec_fp2000()[1], 2),
    ];
    let profiled = profile_suite(&suite, 1, &Executor::serial(), None).unwrap();
    let ctx = SearchContext::new(SpaceKind::Paper, &[&profiled]);
    assert_eq!(
        ctx.space_fingerprint(),
        0xe7ef_5776_dd1c_d1f3,
        "space fingerprint"
    );
}
