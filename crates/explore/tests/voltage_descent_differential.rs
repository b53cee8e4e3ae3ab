//! Differential test of the table-driven voltage descent.
//!
//! The oracle is the closure-driven coordinate descent: every candidate
//! supply vector is range-checked, turned into a configuration and priced
//! with one `PowerModel::estimate_energy` call per usage. Over three suite
//! seeds and both bus counts, every §5.1 homogeneous cycle factor and
//! every §3.3 candidate of every benchmark must get bit-identical voltages
//! and energies from `optimise_voltages_grouped`, and the public
//! `optimum_homogeneous_suite` and `select_heterogeneous` must pick the
//! oracle's winners with the oracle's numbers.

use vliw_exec::Executor;
use vliw_explore::experiments::{profile_suite, ProfiledSuite};
use vliw_explore::{
    candidate_grid, estimate_usage, optimise_voltages_grouped, optimum_homogeneous_suite,
    price_usage, reference_usage_scaled, select_heterogeneous, suite_reference, BenchmarkProfile,
    HOMOG_CYCLE_FACTORS,
};
use vliw_machine::{ClockedConfig, FrequencyMenu, MachineDesign, Time, Voltages};
use vliw_power::{EnergyShares, PowerModel, UsageProfile};
use vliw_workloads::suite_seeded;

const LOOPS: usize = 2;
const SEEDS: [u64; 3] = [0, 1, 2];

/// Voltage-grid step of the descent (volts).
const V_STEP: f64 = 0.025;

/// The coordinate descent priced through a closure, one call per
/// candidate supply vector.
fn oracle_descent(
    design: MachineDesign,
    cluster_groups: &[Vec<usize>],
    evaluate: impl Fn(Voltages) -> Option<f64>,
) -> Option<Voltages> {
    let grid = |(lo, hi): (f64, f64)| -> Vec<f64> {
        let mut v = Vec::new();
        let mut x = lo;
        while x <= hi + 1e-9 {
            v.push(x);
            x += V_STEP;
        }
        v
    };
    let mut current = Voltages::reference(design.num_clusters);
    let mut current_e = evaluate(current.clone());
    if current_e.is_none() {
        let mut v = Voltages::reference(design.num_clusters);
        for c in &mut v.clusters {
            *c = Voltages::CLUSTER_RANGE.1;
        }
        v.icn = Voltages::ICN_RANGE.1;
        v.cache = Voltages::CACHE_RANGE.1;
        current_e = evaluate(v.clone());
        current = v;
    }
    current_e?;
    for _ in 0..2 {
        for group in cluster_groups {
            for vdd in grid(Voltages::CLUSTER_RANGE) {
                let mut cand = current.clone();
                for &c in group {
                    cand.clusters[c] = vdd;
                }
                if let Some(e) = evaluate(cand.clone()) {
                    if current_e.is_none_or(|c| e < c) {
                        current = cand;
                        current_e = Some(e);
                    }
                }
            }
        }
        for vdd in grid(Voltages::ICN_RANGE) {
            let mut cand = current.clone();
            cand.icn = vdd;
            if let Some(e) = evaluate(cand.clone()) {
                if current_e.is_none_or(|c| e < c) {
                    current = cand;
                    current_e = Some(e);
                }
            }
        }
        for vdd in grid(Voltages::CACHE_RANGE) {
            let mut cand = current.clone();
            cand.cache = vdd;
            if let Some(e) = evaluate(cand.clone()) {
                if current_e.is_none_or(|c| e < c) {
                    current = cand;
                    current_e = Some(e);
                }
            }
        }
    }
    current_e.map(|_| current)
}

/// The oracle's pricing: the summed energy of `usages` on `base` at the
/// candidate supplies, `None` when out of range or infeasible.
fn oracle_pricing<'a>(
    base: &'a ClockedConfig,
    power: &'a PowerModel,
    usages: &'a [UsageProfile],
) -> impl Fn(Voltages) -> Option<f64> + 'a {
    move |voltages| {
        if !voltages.in_range() {
            return None;
        }
        let config = base.clone().with_voltages(voltages);
        let mut total = 0.0;
        for usage in usages {
            total += power.estimate_energy(&config, usage)?;
        }
        Some(total)
    }
}

fn voltage_bits(v: &Voltages) -> Vec<u64> {
    v.clusters
        .iter()
        .chain([&v.icn, &v.cache])
        .map(|x| x.to_bits())
        .collect()
}

/// Runs both descents on one problem and asserts they agree bit for bit.
fn descend_both(
    base: &ClockedConfig,
    groups: &[Vec<usize>],
    power: &PowerModel,
    usages: &[UsageProfile],
    what: &str,
) -> Option<Voltages> {
    let tabled = optimise_voltages_grouped(base, groups, power, usages);
    let oracle = oracle_descent(base.design(), groups, oracle_pricing(base, power, usages));
    assert_eq!(
        tabled.as_ref().map(voltage_bits),
        oracle.as_ref().map(voltage_bits),
        "{what}: voltages differ"
    );
    oracle
}

fn all_clusters(design: MachineDesign) -> Vec<Vec<usize>> {
    vec![(0..usize::from(design.num_clusters)).collect()]
}

fn profiled(seed: u64, buses: u32) -> ProfiledSuite {
    profile_suite(&suite_seeded(LOOPS, seed), buses, &Executor::serial(), None)
        .expect("generated suites schedule")
}

/// Every homogeneous cycle factor's descent, and the suite baseline the
/// public search picks from them.
fn check_homogeneous(suite: &ProfiledSuite, power: &PowerModel, tag: &str) {
    let design = suite.design;
    let mut best: Option<(f64, ClockedConfig, Vec<u64>)> = None;
    for &factor in &HOMOG_CYCLE_FACTORS {
        let what = format!("{tag} homogeneous factor {factor}");
        let base = ClockedConfig::homogeneous(
            design,
            Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * factor),
        );
        let usages: Vec<UsageProfile> = suite
            .profiles
            .iter()
            .map(|p| reference_usage_scaled(p, design.num_clusters, factor))
            .collect();
        let Some(voltages) = descend_both(&base, &all_clusters(design), power, &usages, &what)
        else {
            continue;
        };
        let config = base.with_voltages(voltages);
        let mut suite_ed2 = 0.0;
        let mut energies = Vec::new();
        for usage in &usages {
            let energy = power.estimate_energy(&config, usage).expect("feasible");
            let secs = usage.exec_time.as_secs();
            suite_ed2 += energy * secs * secs;
            energies.push(energy.to_bits());
        }
        if best.as_ref().is_none_or(|b| suite_ed2 < b.0) {
            best = Some((suite_ed2, config, energies));
        }
    }
    let (suite_ed2, config, energies) = best.expect("a feasible factor");
    let baseline = optimum_homogeneous_suite(&suite.profiles, design, power, &Executor::serial());
    assert_eq!(baseline.config, config, "{tag}: baseline configuration");
    assert_eq!(baseline.suite_ed2.to_bits(), suite_ed2.to_bits(), "{tag}");
    let got: Vec<u64> = baseline
        .per_benchmark
        .iter()
        .map(|c| c.energy.to_bits())
        .collect();
    assert_eq!(got, energies, "{tag}: per-benchmark baseline energies");
}

/// Every §3.3 candidate's descent for one benchmark, and the selection
/// the public sweep makes from them.
fn check_selection(
    profile: &BenchmarkProfile,
    design: MachineDesign,
    power: &PowerModel,
    tag: &str,
) {
    let menu = FrequencyMenu::unrestricted();
    let mut best: Option<(ClockedConfig, [u64; 3])> = None;
    let mut best_ed2 = f64::INFINITY;
    for (fast_factor, slow_ratio) in candidate_grid() {
        let what = format!(
            "{tag} {} candidate ({fast_factor}, {slow_ratio})",
            profile.name
        );
        let fast = Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * fast_factor);
        let slow = Time::from_ns(fast.as_ns() * slow_ratio);
        let base = ClockedConfig::heterogeneous(design, fast, 1, slow);
        let nc = usize::from(design.num_clusters);
        let groups = if slow_ratio > 1.0 {
            vec![vec![0], (1..nc).collect()]
        } else {
            all_clusters(design)
        };
        let usage = if slow_ratio == 1.0 {
            let factor = fast.as_ns() / ClockedConfig::REFERENCE_CYCLE.as_ns();
            reference_usage_scaled(profile, design.num_clusters, factor)
        } else {
            match estimate_usage(profile, &base, &menu) {
                Some(u) => u,
                None => continue,
            }
        };
        let usages = std::slice::from_ref(&usage);
        let Some(voltages) = descend_both(&base, &groups, power, usages, &what) else {
            continue;
        };
        let config = base.with_voltages(voltages);
        let estimate = price_usage(&usage, &config, power).expect("feasible");
        if best.is_none() || estimate.ed2 < best_ed2 {
            best_ed2 = estimate.ed2;
            best = Some((
                config,
                [
                    estimate.exec_time.as_ns().to_bits(),
                    estimate.energy.to_bits(),
                    estimate.ed2.to_bits(),
                ],
            ));
        }
    }
    let (config, numbers) = best.expect("a feasible candidate");
    let choice = select_heterogeneous(profile, design, power, &menu, &Executor::serial())
        .expect("a feasible candidate");
    assert_eq!(choice.config, config, "{tag} {}: selection", profile.name);
    let got = [
        choice.estimate.exec_time.as_ns().to_bits(),
        choice.estimate.energy.to_bits(),
        choice.estimate.ed2.to_bits(),
    ];
    assert_eq!(got, numbers, "{tag} {}: selected estimate", profile.name);
}

#[test]
fn table_driven_descent_matches_the_closure_oracle() {
    for seed in SEEDS {
        for buses in [1, 2] {
            let tag = format!("seed {seed}, {buses} bus(es)");
            let suite = profiled(seed, buses);
            let power = PowerModel::calibrate(
                suite.design,
                EnergyShares::PAPER,
                &suite_reference(&suite.profiles),
            );
            check_homogeneous(&suite, &power, &tag);
            for profile in &suite.profiles {
                check_selection(profile, suite.design, &power, &tag);
            }
        }
    }
}

/// A cycle time too fast for 1 V starts the descent from the range
/// maxima; both descents take that fallback identically.
#[test]
fn range_maximum_fallback_matches_the_oracle() {
    let suite = profiled(0, 1);
    let design = suite.design;
    let power = PowerModel::calibrate(
        design,
        EnergyShares::PAPER,
        &suite_reference(&suite.profiles),
    );
    let (mut fell_back, mut infeasible) = (0, 0);
    for factor in [0.70, 0.72, 0.75, 0.77] {
        let base = ClockedConfig::homogeneous(
            design,
            Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * factor),
        );
        let usages: Vec<UsageProfile> = suite
            .profiles
            .iter()
            .map(|p| reference_usage_scaled(p, design.num_clusters, factor))
            .collect();
        let what = format!("fallback factor {factor}");
        let chosen = descend_both(&base, &all_clusters(design), &power, &usages, &what);
        match chosen {
            None => infeasible += 1,
            Some(_) if power.estimate_energy(&base, &usages[0]).is_none() => fell_back += 1,
            Some(_) => {}
        }
    }
    assert!(fell_back > 0, "some factor starts from the range maxima");
    assert!(infeasible > 0, "some factor is infeasible even there");
}
