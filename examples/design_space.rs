//! End-to-end design-space exploration on one benchmark: profile the
//! reference machine, calibrate the energy model, pick the optimum
//! homogeneous baseline and the best heterogeneous configuration, then
//! measure the heterogeneous machine for real.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use heterovliw::exec::Executor;
use heterovliw::explore::experiments::{profile_suite, run_benchmark, ExperimentOptions};
use heterovliw::explore::{optimum_homogeneous_suite, select_heterogeneous, suite_reference};
use heterovliw::machine::FrequencyMenu;
use heterovliw::power::{EnergyShares, PowerModel};
use heterovliw::workloads::{generate, spec_fp2000};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 200.sixtrack: the paper's biggest winner (~99.9 % of its time in
    // recurrence-constrained loops, small critical recurrences).
    let spec = spec_fp2000()[8];
    let bench = generate(&spec, 16);
    println!(
        "benchmark {} with {} synthetic loops",
        bench.name,
        bench.loops.len()
    );

    // A one-benchmark suite on the 1-bus machine, run serially.
    let serial = Executor::serial();
    let profiled = profile_suite(&[bench], 1, &serial, None)?;
    let (design, profile) = (profiled.design, &profiled.profiles[0]);
    println!(
        "reference run: {:.0} weighted instructions, {} comms, {} memory accesses",
        profile.reference.weighted_ins, profile.reference.comms, profile.reference.mem_accesses
    );

    let power = PowerModel::calibrate(
        design,
        EnergyShares::PAPER,
        &suite_reference(&profiled.profiles),
    );

    let baseline = optimum_homogeneous_suite(&profiled.profiles, design, &power, &serial);
    println!(
        "optimum homogeneous: {} per cluster, cluster Vdd {:.2} V",
        baseline.config.fastest_cluster_cycle(),
        baseline.config.voltages().clusters[0]
    );

    let menu = FrequencyMenu::unrestricted();
    let het = select_heterogeneous(profile, design, &power, &menu, &serial)
        .expect("selection space is feasible");
    println!(
        "selected heterogeneous: fast {} @ {:.2} V, slow {} @ {:.2} V",
        het.config.fastest_cluster_cycle(),
        het.config.voltages().clusters[0],
        het.config.slowest_cluster_cycle(),
        het.config.voltages().clusters[1],
    );
    println!(
        "model estimate: T = {:.3} ms, E = {:.4} reference units",
        het.estimate.exec_time.as_ns() / 1e6,
        het.estimate.energy
    );

    let result = run_benchmark(
        &profiled,
        0,
        &baseline.per_benchmark[0],
        &power,
        &ExperimentOptions::default(),
        &serial,
    )?;
    println!(
        "\nmeasured: ED2(hetero) / ED2(homogeneous optimum) = {:.3}",
        result.ed2_normalized
    );
    println!(
        "  time {:.3} ms vs {:.3} ms; energy {:.4} vs {:.4}",
        result.exec_time_het_ns / 1e6,
        result.exec_time_hom_ns / 1e6,
        result.energy_het,
        result.energy_hom
    );
    Ok(())
}
