//! Cross-crate integration tests: the full pipeline from workload
//! generation through scheduling, simulation and the experiment runners.

use heterovliw::exec::Executor;
use heterovliw::explore::experiments::{
    figure6, mean_normalized, profile_suite, table2, ExperimentOptions,
};
use heterovliw::ir::{DdgBuilder, OpClass};
use heterovliw::machine::{ClockedConfig, ClusterId, MachineDesign, Time};
use heterovliw::power::{EnergyShares, PowerModel, ReferenceProfile};
use heterovliw::sched::{schedule_loop, ScheduleOptions};
use heterovliw::sim::{simulate, validate};
use heterovliw::workloads::{generate, spec_fp2000, suite};

/// Every loop of every benchmark schedules and validates on the reference
/// machine and on a heterogeneous machine.
#[test]
fn whole_suite_schedules_and_validates() {
    let design = MachineDesign::paper_machine(1);
    let reference = ClockedConfig::reference(design);
    let hetero = ClockedConfig::heterogeneous(design, Time::from_ns(0.95), 1, Time::from_ns(1.25));
    let mut opts = ScheduleOptions::default();
    for bench in suite(6) {
        for l in &bench.loops {
            opts.trip_count = l.trip_count();
            for config in [&reference, &hetero] {
                let s = schedule_loop(l.ddg(), config, None, &opts)
                    .unwrap_or_else(|e| panic!("{}: {e}", l.ddg().name()));
                validate(l.ddg(), config, &s).unwrap_or_else(|v| {
                    panic!(
                        "{}: {} violations, first: {}",
                        l.ddg().name(),
                        v.len(),
                        v[0]
                    )
                });
                let r = simulate(l.ddg(), config, &s, l.trip_count());
                assert_eq!(r.exec_time, s.exec_time(l.trip_count()));
            }
        }
    }
}

/// The headline result holds on a reduced suite: heterogeneity lowers mean
/// ED², with the strongest benefit on a recurrence-bound benchmark.
#[test]
fn figure6_shape_holds_on_reduced_suite() {
    let benches = vec![
        generate(&spec_fp2000()[8], 8),
        generate(&spec_fp2000()[5], 8),
        generate(&spec_fp2000()[1], 8),
    ];
    let serial = Executor::serial();
    let profiled = profile_suite(&benches, 1, &serial, None).unwrap();
    let rows = figure6(&profiled, &ExperimentOptions::default(), &serial).unwrap();
    assert_eq!(rows.len(), 3);
    let sixtrack = rows.iter().find(|r| r.benchmark == "200.sixtrack").unwrap();
    let swim = rows.iter().find(|r| r.benchmark == "171.swim").unwrap();
    assert!(
        sixtrack.ed2_normalized < 0.95,
        "sixtrack must clearly win: {}",
        sixtrack.ed2_normalized
    );
    assert!(
        sixtrack.ed2_normalized < swim.ed2_normalized,
        "recurrence-bound beats resource-bound ({} vs {})",
        sixtrack.ed2_normalized,
        swim.ed2_normalized
    );
    let mean = mean_normalized(&rows);
    assert!(mean < 1.0, "heterogeneity wins on average: {mean}");
}

/// Table 2's class mix is exact by construction.
#[test]
fn table2_matches_paper_rows() {
    let rows = table2(&suite(12), &Executor::serial());
    let find = |name: &str| rows.iter().find(|r| r.benchmark == name).unwrap();
    assert!((find("171.swim").resource_pct - 100.0).abs() < 1e-6);
    assert!((find("200.sixtrack").recurrence_pct - 99.92).abs() < 1e-6);
    assert!((find("168.wupwise").borderline_pct - 68.76).abs() < 1e-6);
    assert!((find("187.facerec").recurrence_pct - 83.41).abs() < 1e-6);
}

/// Scheduling a hand-built loop across crates: the energy accounting the
/// simulator reports matches what the power model expects.
#[test]
fn energy_accounting_is_consistent() {
    let mut b = DdgBuilder::new("kernel");
    let l0 = b.op("ld", OpClass::FpMemory);
    let m = b.op("mul", OpClass::FpMul);
    let a = b.op("add", OpClass::FpArith);
    let st = b.op("st", OpClass::FpMemory);
    b.flow(l0, m);
    b.flow(m, a);
    b.flow_carried(a, a, 1);
    b.flow(a, st);
    let ddg = b.build().unwrap();

    let design = MachineDesign::paper_machine(1);
    let config = ClockedConfig::reference(design);
    let s = schedule_loop(&ddg, &config, None, &ScheduleOptions::default()).unwrap();
    let report = simulate(&ddg, &config, &s, 200);

    let reference = ReferenceProfile {
        weighted_ins: report.total_weighted_ins(),
        comms: report.comms,
        mem_accesses: report.mem_accesses,
        exec_time: report.exec_time,
    };
    let power = PowerModel::calibrate(design, EnergyShares::PAPER, &reference);
    let usage = s.usage(200);
    let energy = power.estimate_energy(&config, &usage).unwrap();
    assert!(
        (energy - 1.0).abs() < 1e-9,
        "self-calibration returns unity, got {energy}"
    );
}

/// A deliberately bad fixed partition is either scheduled correctly or
/// rejected — never silently wrong.
#[test]
fn pathological_partition_stays_sound() {
    let mut b = DdgBuilder::new("zigzag");
    let ids: Vec<_> = (0..8)
        .map(|i| b.op(format!("n{i}"), OpClass::IntArith))
        .collect();
    for w in ids.windows(2) {
        b.flow(w[0], w[1]);
    }
    let ddg = b.build().unwrap();
    let design = MachineDesign::paper_machine(1);
    let config = ClockedConfig::reference(design);
    // Alternate clusters on a tight chain: maximum communication pressure.
    let partition = heterovliw::sched::Partition {
        assignment: (0..8).map(|i| ClusterId((i % 4) as u8)).collect(),
    };
    let s = heterovliw::sched::schedule_loop_with_partition(
        &ddg,
        &config,
        &partition,
        &ScheduleOptions::default(),
    )
    .unwrap();
    validate(&ddg, &config, &s).unwrap();
    assert!(s.comms_per_iter() >= 7, "every edge crosses clusters");
}
