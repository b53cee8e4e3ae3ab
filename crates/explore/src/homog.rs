//! The optimum homogeneous baseline (§5.1 of the paper).
//!
//! Before crediting heterogeneity, the paper normalises against the *best*
//! homogeneous design: the frequency and per-component voltages that
//! minimise ED² for the same workload. For homogeneous machines the model
//! is exact — every loop's schedule is identical at any frequency, so the
//! cycle count is invariant and execution time scales linearly with the
//! cycle time, while energy follows §3.1 directly.

use vliw_exec::Executor;
use vliw_machine::{ClockedConfig, MachineDesign, Time, Voltages};
use vliw_power::PowerModel;

use crate::profile::BenchmarkProfile;

/// The chosen homogeneous baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct HomogChoice {
    /// The winning configuration (cycle time + voltages).
    pub config: ClockedConfig,
    /// Its (exact) execution time.
    pub exec_time: Time,
    /// Its (exact) energy in reference units.
    pub energy: f64,
    /// Its ED².
    pub ed2: f64,
}

/// Cycle-time grid explored for the homogeneous baseline, as multiples of
/// the reference cycle.
const CYCLE_FACTORS: [f64; 17] = [
    0.80, 0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20, 1.25, 1.30, 1.35, 1.40, 1.45, 1.50, 1.55,
    1.60,
];

/// Voltage-grid step (volts).
const V_STEP: f64 = 0.025;

/// A suite-wide homogeneous baseline: one configuration for the whole
/// workload (§5.1 picks a single optimum homogeneous design per machine
/// shape), with its exact per-benchmark time/energy/ED².
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteBaseline {
    /// The chosen configuration.
    pub config: ClockedConfig,
    /// Per-benchmark baselines at that configuration (same order as the
    /// input profiles).
    pub per_benchmark: Vec<HomogChoice>,
    /// Suite-level ED² (sum over benchmarks).
    pub suite_ed2: f64,
}

/// Searches one homogeneous configuration minimising the *suite's* total
/// ED² — the paper's baseline is global, while heterogeneous selection is
/// per program, which is precisely where part of heterogeneity's advantage
/// comes from.
///
/// The cycle-time grid fans out across `exec`'s worker pool; the
/// minimiser is reduced in grid order, so the result is identical for
/// every worker count.
///
/// # Panics
///
/// Panics if `profiles` is empty or no configuration is feasible (cannot
/// happen for the paper's reference machine, whose own operating point is
/// always a candidate).
#[must_use]
pub fn optimum_homogeneous_suite(
    profiles: &[BenchmarkProfile],
    design: MachineDesign,
    power: &PowerModel,
    exec: &Executor,
) -> SuiteBaseline {
    assert!(!profiles.is_empty(), "empty suite");
    let candidates = exec.map(&CYCLE_FACTORS, |_, &factor| {
        suite_candidate(profiles, design, power, factor)
    });
    let mut best: Option<SuiteBaseline> = None;
    for choice in candidates.into_iter().flatten() {
        if best.as_ref().is_none_or(|b| choice.suite_ed2 < b.suite_ed2) {
            best = Some(choice);
        }
    }
    best.expect("the reference operating point is always feasible")
}

/// Evaluates one suite-wide homogeneous cycle factor.
fn suite_candidate(
    profiles: &[BenchmarkProfile],
    design: MachineDesign,
    power: &PowerModel,
    factor: f64,
) -> Option<SuiteBaseline> {
    let cycle = Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * factor);
    let usages: Vec<_> = profiles
        .iter()
        .map(|p| crate::profile::reference_usage_scaled(p, design.num_clusters, factor))
        .collect();
    let evaluate = |voltages: Voltages| -> Option<f64> {
        if !voltages.in_range() {
            return None;
        }
        let config = ClockedConfig::homogeneous(design, cycle).with_voltages(voltages);
        let mut total = 0.0;
        for usage in &usages {
            total += power.estimate_energy(&config, usage)?;
        }
        Some(total)
    };
    let voltages = optimise_voltages(design, evaluate)?;
    let config = ClockedConfig::homogeneous(design, cycle).with_voltages(voltages);
    let mut per_benchmark = Vec::with_capacity(profiles.len());
    let mut suite_ed2 = 0.0;
    for usage in &usages {
        let energy = power.estimate_energy(&config, usage)?;
        let secs = usage.exec_time.as_secs();
        let ed2 = energy * secs * secs;
        suite_ed2 += ed2;
        per_benchmark.push(HomogChoice {
            config: config.clone(),
            exec_time: usage.exec_time,
            energy,
            ed2,
        });
    }
    Some(SuiteBaseline {
        config,
        per_benchmark,
        suite_ed2,
    })
}

/// Coordinate-descent voltage optimisation for a *homogeneous* machine:
/// all clusters share one frequency, hence one optimal supply.
pub(crate) fn optimise_voltages(
    design: MachineDesign,
    evaluate: impl Fn(Voltages) -> Option<f64>,
) -> Option<Voltages> {
    let all: Vec<usize> = (0..usize::from(design.num_clusters)).collect();
    optimise_voltages_grouped(design, &[all], evaluate)
}

/// Coordinate-descent voltage optimisation with independent supplies per
/// cluster *speed group* (fast clusters want high voltage, slow clusters
/// low voltage — the heterogeneous design's central lever). Energy is
/// separable per clock domain, so sweeping each group, the ICN and the
/// cache independently is exact.
pub(crate) fn optimise_voltages_grouped(
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
    // Ensure a feasible starting point exists at all.
    let mut current_e = evaluate(current.clone());
    // Fall back to the highest supplies if the reference point is
    // infeasible (very fast cycle times need more voltage).
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

    // One pass per component family is exact by separability; a second
    // pass guards the (non-separable) corner cases defensively.
    for _ in 0..2 {
        // Clusters within one speed group share a frequency, hence one
        // optimal supply; different groups are swept independently.
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

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_power::EnergyShares;
    use vliw_sched::{SchedWorkspace, ScheduleOptions};
    use vliw_workloads::{generate, spec_fp2000};

    use crate::profile::profile_benchmark;

    /// The suite baseline of a one-benchmark suite: that benchmark's own
    /// optimum homogeneous design.
    fn single(spec: usize) -> (BenchmarkProfile, SuiteBaseline) {
        let design = MachineDesign::paper_machine(1);
        let bench = generate(&spec_fp2000()[spec], 6);
        let mut ws = SchedWorkspace::new();
        let p = profile_benchmark(&bench, design, &ScheduleOptions::default(), &mut ws).unwrap();
        let power = PowerModel::calibrate(design, EnergyShares::PAPER, &p.reference);
        let baseline = optimum_homogeneous_suite(
            std::slice::from_ref(&p),
            design,
            &power,
            &Executor::serial(),
        );
        (p, baseline)
    }

    #[test]
    fn optimum_beats_or_matches_the_reference_design() {
        let (p, baseline) = single(2); // mgrid
        let choice = &baseline.per_benchmark[0];

        // The raw reference machine: energy 1, time T_TOTAL.
        let secs = p.reference.exec_time.as_secs();
        let reference_ed2 = 1.0 * secs * secs;
        assert!(
            choice.ed2 <= reference_ed2 * (1.0 + 1e-9),
            "optimum {} vs reference {reference_ed2}",
            choice.ed2
        );
        assert_eq!(baseline.suite_ed2, choice.ed2, "one benchmark, one term");
        assert!(choice.config.is_homogeneous());
        assert!(choice.config.voltages().in_range());
    }

    #[test]
    fn choice_is_on_the_grid_and_feasible() {
        let (_, baseline) = single(5); // facerec
        let choice = &baseline.per_benchmark[0];
        let factor = choice.config.fastest_cluster_cycle().as_ns();
        assert!(
            CYCLE_FACTORS.iter().any(|f| (f - factor).abs() < 1e-9),
            "cycle factor {factor} comes from the grid"
        );
        assert!(choice.energy > 0.0);
    }
}
