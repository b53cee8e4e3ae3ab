//! The optimum homogeneous baseline (§5.1 of the paper).
//!
//! Before crediting heterogeneity, the paper normalises against the *best*
//! homogeneous design: the frequency and per-component voltages that
//! minimise ED² for the same workload. For homogeneous machines the model
//! is exact — every loop's schedule is identical at any frequency, so the
//! cycle count is invariant and execution time scales linearly with the
//! cycle time, while energy follows §3.1 directly.

use vliw_exec::Executor;
use vliw_machine::{ClockedConfig, DomainId, MachineDesign, Time, Voltages};
use vliw_power::{ConfigScaling, DomainScaling, PowerModel, UsageProfile};

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
pub const HOMOG_CYCLE_FACTORS: [f64; 17] = [
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
    let candidates = exec.map(&HOMOG_CYCLE_FACTORS, |_, &factor| {
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
    // All clusters share one frequency, hence one optimal supply.
    let base = ClockedConfig::homogeneous(design, cycle);
    let all: Vec<usize> = (0..usize::from(design.num_clusters)).collect();
    let voltages = optimise_voltages_grouped(&base, &[all], power, &usages)?;
    let config = base.with_voltages(voltages);
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

/// Coordinate-descent voltage optimisation with independent supplies per
/// cluster *speed group* (fast clusters want high voltage, slow clusters
/// low voltage — the heterogeneous design's central lever), minimising
/// the summed energy of `usages` at `base`'s cycle times. Energy is
/// separable per clock domain, so sweeping each group, the ICN and the
/// cache independently is exact.
///
/// A domain's δ/σ depend only on its cycle time and supply, and the
/// descent never changes a cycle time, so every supply grid is tabulated
/// once per descent — one row per cluster, one for the ICN, one for the
/// cache — and each candidate is priced from those rows without
/// allocating. The 1 V start point and the range-maximum fallback are
/// priced directly.
///
/// Returns `None` when neither start point is electrically feasible.
///
/// # Panics
///
/// Panics if a usage or a group names a cluster count or index the
/// design does not have.
#[must_use]
pub fn optimise_voltages_grouped(
    base: &ClockedConfig,
    cluster_groups: &[Vec<usize>],
    power: &PowerModel,
    usages: &[UsageProfile],
) -> Option<Voltages> {
    let design = base.design();
    // Start at 1 V everywhere; fall back to the highest supplies if that
    // is infeasible (very fast cycle times need more voltage).
    let mut descent = Descent::start(
        base,
        power,
        usages,
        Voltages::reference(design.num_clusters),
    )
    .or_else(|| {
        let mut v = Voltages::reference(design.num_clusters);
        for c in &mut v.clusters {
            *c = Voltages::CLUSTER_RANGE.1;
        }
        v.icn = Voltages::ICN_RANGE.1;
        v.cache = Voltages::CACHE_RANGE.1;
        Descent::start(base, power, usages, v)
    })?;

    // The `hi + 1e-9` bound is `Voltages::in_range`'s own tolerance, so
    // every grid point is in range and candidates need no range check.
    let grid = |(lo, hi): (f64, f64)| -> Vec<f64> {
        let mut v = Vec::new();
        let mut x = lo;
        while x <= hi + 1e-9 {
            v.push(x);
            x += V_STEP;
        }
        v
    };
    let row = |domain: DomainId, grid: &[f64]| -> Row {
        let cycle = base.domain_cycle(domain);
        let row = grid.iter().map(|&vdd| power.scaling(cycle, vdd)).collect();
        (domain, row)
    };
    let cluster_grid = grid(Voltages::CLUSTER_RANGE);
    let icn_grid = grid(Voltages::ICN_RANGE);
    let cache_grid = grid(Voltages::CACHE_RANGE);
    let cluster_rows: Vec<_> = design
        .clusters()
        .map(|c| row(DomainId::Cluster(c), &cluster_grid))
        .collect();
    let icn_row = row(DomainId::Icn, &icn_grid);
    let cache_row = row(DomainId::Cache, &cache_grid);

    // The coordinates in sweep order. Clusters within one speed group
    // share a frequency, hence one optimal supply; different groups are
    // swept independently, then the ICN, then the cache.
    let mut coordinates: Vec<(&[f64], Vec<&Row>)> = cluster_groups
        .iter()
        .map(|group| {
            let members = group.iter().map(|&c| &cluster_rows[c]).collect();
            (&cluster_grid[..], members)
        })
        .collect();
    coordinates.push((&icn_grid, vec![&icn_row]));
    coordinates.push((&cache_grid, vec![&cache_row]));

    // One pass per coordinate is exact by separability; a second pass
    // guards the (non-separable) corner cases defensively.
    for _ in 0..2 {
        for (grid, members) in &coordinates {
            descent.sweep(grid, members);
        }
    }
    Some(descent.voltages)
}

/// A domain with its tabulated scaling at every supply of its grid
/// (`None` where the supply cannot sustain the domain's frequency).
type Row = (DomainId, Vec<Option<DomainScaling>>);

/// One voltage descent's state: the current supplies with their domain
/// scalings and priced energy, plus a candidate buffer every move reuses.
struct Descent<'a> {
    power: &'a PowerModel,
    usages: &'a [UsageProfile],
    voltages: Voltages,
    scaling: ConfigScaling,
    energy: f64,
    candidate: ConfigScaling,
}

impl<'a> Descent<'a> {
    /// Starts at `voltages` on `base`'s cycle times, priced directly, or
    /// `None` when some domain cannot sustain its frequency there.
    fn start(
        base: &ClockedConfig,
        power: &'a PowerModel,
        usages: &'a [UsageProfile],
        voltages: Voltages,
    ) -> Option<Self> {
        let mut scaling = ConfigScaling::default();
        let config = base.clone().with_voltages(voltages.clone());
        if !power.scale_config(&config, &mut scaling) {
            return None;
        }
        let energy = total_energy(power, usages, &scaling);
        Some(Descent {
            power,
            usages,
            voltages,
            candidate: scaling.clone(),
            scaling,
            energy,
        })
    }

    /// Moves every domain of `members` together through each supply of
    /// `grid`, keeping a move when it strictly lowers the energy.
    fn sweep(&mut self, grid: &[f64], members: &[&Row]) {
        // Only the members' entries differ between candidates, and every
        // feasible candidate overwrites all of them.
        self.candidate.clone_from(&self.scaling);
        for (k, &vdd) in grid.iter().enumerate() {
            let mut feasible = true;
            for &(domain, row) in members {
                let Some(s) = row[k] else {
                    feasible = false;
                    break;
                };
                *self.candidate.domain_mut(*domain) = s;
            }
            if !feasible {
                continue;
            }
            let e = total_energy(self.power, self.usages, &self.candidate);
            if e < self.energy {
                for &(domain, _) in members {
                    *self.voltages.domain_mut(*domain) = vdd;
                }
                self.scaling.clone_from(&self.candidate);
                self.energy = e;
            }
        }
    }
}

/// The energy of every usage at `scaling`, summed in usage order.
fn total_energy(power: &PowerModel, usages: &[UsageProfile], scaling: &ConfigScaling) -> f64 {
    let mut total = 0.0;
    for usage in usages {
        total += power.price(scaling, usage);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_power::EnergyShares;
    use vliw_sched::SchedWorkspace;
    use vliw_workloads::{generate, spec_fp2000};

    use crate::profile::profile_benchmark;

    /// The suite baseline of a one-benchmark suite: that benchmark's own
    /// optimum homogeneous design.
    fn single(spec: usize) -> (BenchmarkProfile, SuiteBaseline) {
        let design = MachineDesign::paper_machine(1);
        let bench = generate(&spec_fp2000()[spec], 6);
        let mut ws = SchedWorkspace::new();
        let p = profile_benchmark(&bench, design, &mut ws).unwrap();
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
            HOMOG_CYCLE_FACTORS
                .iter()
                .any(|f| (f - factor).abs() < 1e-9),
            "cycle factor {factor} comes from the grid"
        );
        assert!(choice.energy > 0.0);
    }
}
