//! Heterogeneous configuration selection (§3.3 of the paper).
//!
//! Explores the paper's design alternatives — fast-cluster cycle times of
//! {0.9, 0.95, 1, 1.05, 1.1}× the reference, slow/fast ratios of
//! {1, 1.25, 1.33, 1.5}, one fast cluster — and per-component supply
//! voltages, estimating every candidate's ED² with the §3 models and
//! returning the minimiser.
//!
//! Neither a candidate's §3.2 usage estimate nor its domains' supply rows
//! read the power model, so both come from the profiled suite's tables
//! ([`ProfiledSuite::estimate_memoised`], [`ProfiledSuite::supply_rows`]):
//! a selection repeated on one suite under one menu estimates nothing,
//! whatever the energy shares.

use vliw_exec::Executor;
use vliw_machine::{ClockedConfig, FrequencyMenu, Time};
use vliw_power::PowerModel;

use crate::estimate::{price_usage, HetEstimate};
use crate::experiments::ProfiledSuite;

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

/// Selects frequencies and voltages for benchmark `index` of `suite` on
/// the heterogeneous machine: the candidate minimising *estimated* ED²,
/// with the candidate grid fanned out across `exec`'s worker pool.
///
/// Each of the 20 `(fast factor, slow ratio)` candidates is evaluated
/// independently — the suite's memoised usage estimate, then voltage
/// coordinate descent on energy alone over the suite's supply rows, then
/// the final pricing — and the minimiser is reduced in grid order, so the
/// result is identical for every worker count.
///
/// Returns `None` only if no candidate is feasible (cannot happen for the
/// paper's ranges, where the all-reference candidate always qualifies).
///
/// # Panics
///
/// Panics if `index` is not a benchmark of `suite`.
#[must_use]
pub fn select_heterogeneous(
    suite: &ProfiledSuite,
    index: usize,
    power: &PowerModel,
    menu: &FrequencyMenu,
    exec: &Executor,
) -> Option<HeteroChoice> {
    let grid = candidate_grid();
    let evaluated = exec.map(&grid, |_, &(fast_factor, slow_ratio)| {
        let fast = Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * fast_factor);
        let slow = Time::from_ns(fast.as_ns() * slow_ratio);
        let base = ClockedConfig::heterogeneous(suite.design, fast, 1, slow);
        // Voltages do not change the time estimate, only energy — so one
        // usage (exact, §5.1, when the ratio is 1) serves the whole
        // descent, with independent supplies for the fast and slow groups.
        let usage = suite.estimate_memoised(index, &base, menu)?;
        let voltages = suite.descend_voltages(&base, power, std::slice::from_ref(&usage))?;
        let config = base.with_voltages(voltages);
        let estimate = price_usage(&usage, &config, power)?;
        Some(HeteroChoice { config, estimate })
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

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_power::EnergyShares;
    use vliw_workloads::{generate, spec_fp2000};

    use crate::experiments::profile_suite;

    /// A one-benchmark suite with a power model calibrated on it.
    fn setup(idx: usize, n: usize) -> (ProfiledSuite, PowerModel) {
        let bench = generate(&spec_fp2000()[idx], n);
        let suite = profile_suite(&[bench], 1, &Executor::serial(), None).unwrap();
        let power = PowerModel::calibrate(
            suite.design,
            EnergyShares::PAPER,
            &suite.profiles[0].reference,
        );
        (suite, power)
    }

    fn select(suite: &ProfiledSuite, power: &PowerModel) -> HeteroChoice {
        let menu = FrequencyMenu::unrestricted();
        select_heterogeneous(suite, 0, power, &menu, &Executor::serial()).unwrap()
    }

    #[test]
    fn recurrence_benchmark_gets_a_speed_gap() {
        // sixtrack: the selection should pick a fast cluster strictly
        // faster than the slow ones (big recurrence wins, §5.2).
        let (suite, power) = setup(8, 8);
        let choice = select(&suite, &power);
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
        let (suite, power) = setup(6, 6); // lucas
        let choice = select(&suite, &power);
        let secs = suite.profiles[0].reference.exec_time.as_secs();
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
        let (suite, power) = setup(1, 8);
        let choice = select(&suite, &power);
        let ratio = choice.config.slowest_cluster_cycle().as_ns()
            / choice.config.fastest_cluster_cycle().as_ns();
        assert!(
            ratio < 1.26,
            "swim should avoid large frequency gaps, got ratio {ratio}"
        );
    }
}
