//! The optimum homogeneous baseline (§5.1 of the paper), and the grouped
//! voltage descent it shares with the §3.3 selection and the paper-space
//! search.
//!
//! Before crediting heterogeneity, the paper normalises against the *best*
//! homogeneous design: the frequency and per-component voltages that
//! minimise ED² for the same workload. For homogeneous machines the model
//! is exact — every loop's schedule is identical at any frequency, so the
//! cycle count is invariant and execution time scales linearly with the
//! cycle time, while energy follows §3.1 directly.
//!
//! The descent prices supplies from [`SupplyRows`]: each domain's δ/σ at
//! every supply of its grid. Those depend on the domain's cycle time
//! alone, so a [`ProfiledSuite`] tabulates each (grid, cycle time) once
//! and every descent on the suite reads the same rows.

use std::sync::{Arc, OnceLock};

use vliw_exec::Executor;
use vliw_machine::{ClockedConfig, DomainId, Time, Voltages};
use vliw_power::{ConfigScaling, DomainScaling, PowerModel, UsageProfile};

use crate::experiments::ProfiledSuite;

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
/// every worker count. Each candidate's descent reads its supply rows
/// from `suite`'s table ([`ProfiledSuite::supply_rows`]).
///
/// # Panics
///
/// Panics if the suite is empty or no configuration is feasible (cannot
/// happen for the paper's reference machine, whose own operating point is
/// always a candidate).
#[must_use]
pub fn optimum_homogeneous_suite(
    suite: &ProfiledSuite,
    power: &PowerModel,
    exec: &Executor,
) -> SuiteBaseline {
    assert!(!suite.profiles.is_empty(), "empty suite");
    let candidates = exec.map(&HOMOG_CYCLE_FACTORS, |_, &factor| {
        suite_candidate(suite, power, factor)
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
    suite: &ProfiledSuite,
    power: &PowerModel,
    factor: f64,
) -> Option<SuiteBaseline> {
    let cycle = Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * factor);
    let base = ClockedConfig::homogeneous(suite.design, cycle);
    let usages = suite
        .profiles
        .iter()
        .map(|p| UsageProfile::homogeneous(&p.reference, &base))
        .collect::<Option<Vec<_>>>()?;
    // All clusters share one frequency, hence one optimal supply.
    let voltages = suite.descend_voltages(&base, power, &usages)?;
    let config = base.with_voltages(voltages);
    let mut per_benchmark = Vec::with_capacity(suite.profiles.len());
    let mut suite_ed2 = 0.0;
    for usage in &usages {
        let energy = power.estimate_energy(&config, usage)?;
        let ed2 = vliw_power::ed2(energy, usage.exec_time.as_secs());
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

/// The cluster speed groups of `config`, each swept with one supply by
/// [`optimise_voltages_grouped`]: the clusters at the fastest cycle time,
/// then the rest when there are any (fast clusters want high voltage,
/// slow clusters low voltage).
pub(crate) fn speed_groups(config: &ClockedConfig) -> Vec<Vec<usize>> {
    let fastest = config.fastest_cluster_cycle();
    let mut groups = vec![Vec::new(), Vec::new()];
    for c in config.design().clusters() {
        let slow = config.cluster_cycle(c) != fastest;
        groups[usize::from(slow)].push(c.index());
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// The supply grid one clock domain's voltage is swept over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SupplyGrid {
    /// [`Voltages::CLUSTER_RANGE`].
    Cluster,
    /// [`Voltages::ICN_RANGE`].
    Icn,
    /// [`Voltages::CACHE_RANGE`].
    Cache,
}

impl SupplyGrid {
    fn of(domain: DomainId) -> Self {
        match domain {
            DomainId::Cluster(_) => SupplyGrid::Cluster,
            DomainId::Icn => SupplyGrid::Icn,
            DomainId::Cache => SupplyGrid::Cache,
        }
    }

    /// Every supply of the grid: its range, accumulated in [`V_STEP`]s
    /// from the lower bound. The `hi + 1e-9` bound is
    /// `Voltages::in_range`'s own tolerance, so every grid point is in
    /// range and candidates need no range check.
    fn supplies(self) -> &'static [f64] {
        static GRIDS: OnceLock<[Vec<f64>; 3]> = OnceLock::new();
        let grids = GRIDS.get_or_init(|| {
            [
                Voltages::CLUSTER_RANGE,
                Voltages::ICN_RANGE,
                Voltages::CACHE_RANGE,
            ]
            .map(|(lo, hi)| {
                let mut v = Vec::new();
                let mut x = lo;
                while x <= hi + 1e-9 {
                    v.push(x);
                    x += V_STEP;
                }
                v
            })
        });
        &grids[self as usize]
    }

    /// The row of a domain of this grid at cycle time `cycle`: its
    /// [`vliw_power::scaling`] at every supply of the grid.
    pub(crate) fn tabulate(self, cycle: Time) -> SupplyRow {
        self.supplies()
            .iter()
            .map(|&vdd| vliw_power::scaling(cycle, vdd))
            .collect()
    }
}

/// A domain's δ/σ at every supply of its grid (`None` where the supply
/// cannot sustain the domain's cycle time).
pub(crate) type SupplyRow = Arc<[Option<DomainScaling>]>;

/// One domain of a [`SupplyRows`].
#[derive(Debug, Clone)]
struct DomainRow {
    domain: DomainId,
    cycle: Time,
    row: SupplyRow,
}

/// The tabulated supply rows of every clock domain of one configuration's
/// cycle times, in [`ClockedConfig::domains`] order: what
/// [`optimise_voltages_grouped`] prices its candidates from. A suite
/// hands them out from its table ([`ProfiledSuite::supply_rows`]).
#[derive(Debug, Clone)]
pub struct SupplyRows(Vec<DomainRow>);

impl SupplyRows {
    /// `base`'s rows, fetching each domain's from `row(grid, cycle)`.
    pub(crate) fn collect(
        base: &ClockedConfig,
        mut row: impl FnMut(SupplyGrid, Time) -> SupplyRow,
    ) -> Self {
        SupplyRows(
            base.domains()
                .into_iter()
                .map(|domain| {
                    let cycle = base.domain_cycle(domain);
                    DomainRow {
                        domain,
                        cycle,
                        row: row(SupplyGrid::of(domain), cycle),
                    }
                })
                .collect(),
        )
    }

    /// Whether these are the rows of `base`'s cycle times.
    fn fit(&self, base: &ClockedConfig) -> bool {
        let domains = base.domains();
        self.0.len() == domains.len()
            && self
                .0
                .iter()
                .zip(domains)
                .all(|(r, d)| r.domain == d && r.cycle == base.domain_cycle(d))
    }
}

/// Coordinate-descent voltage optimisation with independent supplies per
/// cluster *speed group* (fast clusters want high voltage, slow clusters
/// low voltage — the heterogeneous design's central lever), minimising
/// the summed energy of `usages` at `base`'s cycle times. Energy is
/// separable per clock domain, so sweeping each group, the ICN and the
/// cache independently is exact.
///
/// A domain's δ/σ depend only on its cycle time and supply, and the
/// descent never changes a cycle time, so every candidate is priced from
/// `rows` — `base`'s tabulated supply rows — without allocating. The 1 V
/// start point and the range-maximum fallback are priced directly.
///
/// Returns `None` when neither start point is electrically feasible.
///
/// # Panics
///
/// Panics if `rows` were tabulated for other cycle times than `base`'s,
/// or if a usage or a group names a cluster count or index the design
/// does not have.
#[must_use]
pub fn optimise_voltages_grouped(
    base: &ClockedConfig,
    cluster_groups: &[Vec<usize>],
    power: &PowerModel,
    usages: &[UsageProfile],
    rows: &SupplyRows,
) -> Option<Voltages> {
    assert!(rows.fit(base), "supply rows of other cycle times");
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

    // The coordinates in sweep order. Clusters within one speed group
    // share a frequency, hence one optimal supply; different groups are
    // swept independently, then the ICN, then the cache. `rows` holds the
    // clusters in order, then the ICN, then the cache.
    let nc = usize::from(design.num_clusters);
    let mut coordinates: Vec<(&[f64], Vec<&DomainRow>)> = cluster_groups
        .iter()
        .map(|group| {
            let members = group.iter().map(|&c| &rows.0[c]).collect();
            (SupplyGrid::Cluster.supplies(), members)
        })
        .collect();
    coordinates.push((SupplyGrid::Icn.supplies(), vec![&rows.0[nc]]));
    coordinates.push((SupplyGrid::Cache.supplies(), vec![&rows.0[nc + 1]]));

    // One pass per coordinate is exact by separability; a second pass
    // guards the (non-separable) corner cases defensively.
    for _ in 0..2 {
        for (grid, members) in &coordinates {
            descent.sweep(grid, members);
        }
    }
    Some(descent.voltages)
}

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
    fn sweep(&mut self, grid: &[f64], members: &[&DomainRow]) {
        // Only the members' entries differ between candidates, and every
        // feasible candidate overwrites all of them.
        self.candidate.clone_from(&self.scaling);
        for (k, &vdd) in grid.iter().enumerate() {
            let mut feasible = true;
            for member in members {
                let Some(s) = member.row[k] else {
                    feasible = false;
                    break;
                };
                *self.candidate.domain_mut(member.domain) = s;
            }
            if !feasible {
                continue;
            }
            let e = total_energy(self.power, self.usages, &self.candidate);
            if e < self.energy {
                for member in members {
                    *self.voltages.domain_mut(member.domain) = vdd;
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
    use vliw_workloads::{generate, spec_fp2000};

    use crate::experiments::profile_suite;
    use crate::profile::BenchmarkProfile;

    /// The suite baseline of a one-benchmark suite: that benchmark's own
    /// optimum homogeneous design.
    fn single(spec: usize) -> (BenchmarkProfile, SuiteBaseline) {
        let bench = generate(&spec_fp2000()[spec], 6);
        let serial = Executor::serial();
        let suite = profile_suite(std::slice::from_ref(&bench), 1, &serial, None).unwrap();
        let p = suite.profiles[0].clone();
        let power = PowerModel::calibrate(suite.design, EnergyShares::PAPER, &p.reference);
        let baseline = optimum_homogeneous_suite(&suite, &power, &serial);
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
