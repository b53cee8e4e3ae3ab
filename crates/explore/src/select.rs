//! Heterogeneous configuration selection (§3.3 of the paper).
//!
//! Explores the paper's design alternatives — fast-cluster cycle times of
//! {0.9, 0.95, 1, 1.05, 1.1}× the reference, slow/fast ratios of
//! {1, 1.25, 1.33, 1.5}, one fast cluster — and per-component supply
//! voltages, estimating every candidate's ED² with the §3 models and
//! returning the minimiser.

use vliw_exec::Executor;
use vliw_machine::{ClockedConfig, FrequencyMenu, MachineDesign, Time};
use vliw_power::{PowerModel, UsageProfile};

use crate::estimate::{estimate_usage, price_usage, HetEstimate};
use crate::homog::optimise_voltages_grouped;
use crate::profile::BenchmarkProfile;

/// The fast-cluster cycle-time factors explored (×reference cycle), §5.
pub const FAST_FACTORS: [f64; 5] = [0.90, 0.95, 1.00, 1.05, 1.10];

/// The slow/fast cycle-time ratios explored, §5. Ratio 1 covers the
/// "all clusters at the same frequency" outcome the paper reports for
/// register- and resource-constrained programs.
pub const SLOW_RATIOS: [f64; 4] = [1.0, 1.25, 1.33, 1.5];

/// The configuration the §3.3 selection scheme picked, with its model
/// estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroChoice {
    /// The chosen clocked configuration (cycle times + voltages).
    pub config: ClockedConfig,
    /// Model-estimated time/energy/ED².
    pub estimate: HetEstimate,
}

/// The `(fast cycle factor, slow/fast ratio)` grid of §5, in the
/// deterministic order every caller (serial or parallel) evaluates it.
#[must_use]
pub fn candidate_grid() -> Vec<(f64, f64)> {
    let mut grid = Vec::with_capacity(FAST_FACTORS.len() * SLOW_RATIOS.len());
    for fast_factor in FAST_FACTORS {
        for slow_ratio in SLOW_RATIOS {
            grid.push((fast_factor, slow_ratio));
        }
    }
    grid
}

/// Selects frequencies and voltages for the heterogeneous machine: the
/// candidate minimising *estimated* ED², with the candidate grid fanned
/// out across `exec`'s worker pool.
///
/// Each of the 20 `(fast factor, slow ratio)` candidates is evaluated
/// independently — usage estimation once, then voltage coordinate descent
/// on energy alone — and the minimiser is reduced in grid order, so the
/// result is identical for every worker count.
///
/// Returns `None` only if no candidate is feasible (cannot happen for the
/// paper's ranges, where the all-reference candidate always qualifies).
#[must_use]
pub fn select_heterogeneous(
    profile: &BenchmarkProfile,
    design: MachineDesign,
    power: &PowerModel,
    menu: &FrequencyMenu,
    exec: &Executor,
) -> Option<HeteroChoice> {
    let grid = candidate_grid();
    let evaluated = exec.map(&grid, |_, &(fast_factor, slow_ratio)| {
        evaluate_candidate(profile, design, power, menu, fast_factor, slow_ratio)
    });
    // Reduce in input order with a strict `<`: the first minimum wins,
    // exactly as the original nested loops behaved.
    let mut best: Option<HeteroChoice> = None;
    for choice in evaluated.into_iter().flatten() {
        if best
            .as_ref()
            .is_none_or(|b| choice.estimate.ed2 < b.estimate.ed2)
        {
            best = Some(choice);
        }
    }
    best
}

/// Evaluates one `(fast factor, slow ratio)` candidate: usage estimate,
/// voltage coordinate descent, final pricing.
fn evaluate_candidate(
    profile: &BenchmarkProfile,
    design: MachineDesign,
    power: &PowerModel,
    menu: &FrequencyMenu,
    fast_factor: f64,
    slow_ratio: f64,
) -> Option<HeteroChoice> {
    let fast = Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * fast_factor);
    let slow = Time::from_ns(fast.as_ns() * slow_ratio);
    let base = ClockedConfig::heterogeneous(design, fast, 1, slow);
    // Voltages do not change the time estimate, only energy — so the usage
    // profile is computed once per candidate and the coordinate descent
    // below prices voltages against it, with independent supplies for the
    // fast and slow groups.
    let groups = speed_groups(design, slow_ratio);
    // Homogeneous candidates are evaluated with the *exact* model (§5.1:
    // the schedule is the reference schedule, so counts are known);
    // heterogeneous ones use the §3.2 estimators.
    let usage: UsageProfile = if slow_ratio == 1.0 {
        let factor = fast.as_ns() / ClockedConfig::REFERENCE_CYCLE.as_ns();
        crate::profile::reference_usage_scaled(profile, design.num_clusters, factor)
    } else {
        estimate_usage(profile, &base, menu)?
    };
    let voltages = optimise_voltages_grouped(&base, &groups, power, std::slice::from_ref(&usage))?;
    let config = base.with_voltages(voltages);
    let estimate = price_usage(&usage, &config, power)?;
    Some(HeteroChoice { config, estimate })
}

/// The cluster speed groups of a §3.3 candidate, each swept with one
/// supply: the fast cluster 0 and the slow rest when `slow_ratio > 1`,
/// otherwise every cluster together.
pub(crate) fn speed_groups(design: MachineDesign, slow_ratio: f64) -> Vec<Vec<usize>> {
    let nc = usize::from(design.num_clusters);
    if slow_ratio > 1.0 {
        vec![vec![0], (1..nc).collect()]
    } else {
        vec![(0..nc).collect()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_power::EnergyShares;
    use vliw_sched::SchedWorkspace;
    use vliw_workloads::{generate, spec_fp2000};

    use crate::profile::profile_benchmark;

    fn setup(idx: usize, n: usize) -> (BenchmarkProfile, MachineDesign, PowerModel) {
        let design = MachineDesign::paper_machine(1);
        let bench = generate(&spec_fp2000()[idx], n);
        let mut ws = SchedWorkspace::new();
        let p = profile_benchmark(&bench, design, &mut ws).unwrap();
        let power = PowerModel::calibrate(design, EnergyShares::PAPER, &p.reference);
        (p, design, power)
    }

    fn select(p: &BenchmarkProfile, design: MachineDesign, power: &PowerModel) -> HeteroChoice {
        let menu = FrequencyMenu::unrestricted();
        select_heterogeneous(p, design, power, &menu, &Executor::serial()).unwrap()
    }

    #[test]
    fn recurrence_benchmark_gets_a_speed_gap() {
        // sixtrack: the selection should pick a fast cluster strictly
        // faster than the slow ones (big recurrence wins, §5.2).
        let (p, design, power) = setup(8, 8);
        let choice = select(&p, design, &power);
        let fast = choice.config.fastest_cluster_cycle();
        let slow = choice.config.slowest_cluster_cycle();
        assert!(
            slow > fast,
            "sixtrack wants heterogeneity: fast {fast}, slow {slow}"
        );
        assert!(choice.config.voltages().in_range());
    }

    #[test]
    fn estimated_ed2_beats_reference_homogeneous() {
        let (p, design, power) = setup(6, 6); // lucas
        let choice = select(&p, design, &power);
        let secs = p.reference.exec_time.as_secs();
        let reference_ed2 = secs * secs; // energy 1 by calibration
        assert!(
            choice.estimate.ed2 < reference_ed2,
            "selection must not regress the reference point"
        );
    }

    #[test]
    fn resource_benchmark_prefers_uniform_frequencies() {
        // swim: 100 % resource constrained — slowing 3 clusters shrinks
        // slot capacity and hurts time, so the model should keep the
        // frequency gap small (ratio 1) and save energy with voltage.
        let (p, design, power) = setup(1, 8);
        let choice = select(&p, design, &power);
        let ratio = choice.config.slowest_cluster_cycle().as_ns()
            / choice.config.fastest_cluster_cycle().as_ns();
        assert!(
            ratio < 1.26,
            "swim should avoid large frequency gaps, got ratio {ratio}"
        );
    }
}
