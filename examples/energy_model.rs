//! The §3 energy model in isolation: how voltage/frequency choices move
//! the six energy components, and what the α-power law permits.
//!
//! ```sh
//! cargo run --example energy_model
//! ```

use heterovliw::machine::{ClockedConfig, DomainId, MachineDesign, Time, Voltages};
use heterovliw::power::{threshold_for, EnergyShares, PowerModel, ReferenceProfile, UsageProfile};

fn main() {
    let design = MachineDesign::paper_machine(1);
    let reference = ReferenceProfile {
        weighted_ins: 1_000_000.0,
        comms: 80_000,
        mem_accesses: 250_000,
        exec_time: Time::from_ns(400_000.0),
    };
    let power = PowerModel::calibrate(design, EnergyShares::PAPER, &reference);
    let usage = UsageProfile::homogeneous(&reference, &ClockedConfig::reference(design))
        .expect("the reference machine has one clock");

    // The α-power law: what threshold voltage does each (f, Vdd) pair get?
    println!("α-power thresholds (f in GHz, Vdd in V):");
    for (f, vdd) in [(1.0, 1.0), (1.111, 1.1), (0.8, 0.85), (0.667, 0.75)] {
        match threshold_for(f, vdd) {
            Some(vth) => println!("  f={f:.3}, Vdd={vdd:.2} -> Vth={vth:.3} V"),
            None => println!("  f={f:.3}, Vdd={vdd:.2} -> infeasible"),
        }
    }

    // Energy of a few configurations for the same work.
    println!("\nenergy for identical work (reference units):");
    let configs = [
        ("reference 1.0 ns / 1.0 V", ClockedConfig::reference(design)),
        (
            "uniform 1.25 ns / 0.85 V",
            ClockedConfig::homogeneous(design, Time::from_ns(1.25)).with_voltages(Voltages {
                clusters: vec![0.85; 4],
                icn: 0.85,
                cache: 1.0,
            }),
        ),
        (
            "hetero 0.95/1.25 ns, hot fast cluster",
            ClockedConfig::heterogeneous(design, Time::from_ns(0.95), 1, Time::from_ns(1.25))
                .with_voltages(Voltages {
                    clusters: vec![1.1, 0.8, 0.8, 0.8],
                    icn: 1.0,
                    cache: 1.1,
                }),
        ),
    ];
    for (name, config) in &configs {
        match power.estimate_energy(config, &usage) {
            Some(e) => {
                println!("  {name:<38} E = {e:.4}");
                for d in [DomainId::Cluster(0.into()), DomainId::Icn, DomainId::Cache] {
                    let s = power.domain_scaling(config, d).expect("feasible");
                    println!(
                        "      {d:<6} delta = {:.3}, sigma = {:.3}, Vth = {:.3} V",
                        s.delta, s.sigma, s.vth
                    );
                }
            }
            None => println!("  {name:<38} infeasible"),
        }
    }
}
