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
//! every supply of its grid and at the descent's two start supplies. Those
//! depend on the domain's cycle time alone, so a [`ProfiledSuite`]
//! tabulates each (grid, cycle time) once and every descent on the suite
//! reads the same rows; a descent solves no α-power equation. It prices a
//! sweep's candidates with a [`PriceFold`] that resumes
//! [`PowerModel::price`]'s fold at the swept group's first domain, and in
//! its second pass it skips a coordinate that no other coordinate has
//! moved since its last sweep. Both keep every bit: the fold makes
//! `price`'s operations in `price`'s order, and a skipped sweep could only
//! re-price the candidates it priced last time, none of which beat the
//! energy it left behind.

use std::sync::{Arc, OnceLock};

use vliw_exec::Executor;
use vliw_machine::{ClockedConfig, DomainId, Time, Voltages};
use vliw_power::{ConfigScaling, DomainScaling, PowerModel, PriceFold, UsageProfile};

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
    let mut pricings = 0;
    for (choice, priced) in candidates.into_iter().flatten() {
        pricings += priced;
        if best.as_ref().is_none_or(|b| choice.suite_ed2 < b.suite_ed2) {
            best = Some(choice);
        }
    }
    count_pricings(pricings);
    best.expect("the reference operating point is always feasible")
}

/// Evaluates one suite-wide homogeneous cycle factor, with the
/// candidates its descent priced.
fn suite_candidate(
    suite: &ProfiledSuite,
    power: &PowerModel,
    factor: f64,
) -> Option<(SuiteBaseline, u64)> {
    let cycle = Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * factor);
    let base = ClockedConfig::homogeneous(suite.design, cycle);
    let usages = suite
        .profiles
        .iter()
        .map(|p| UsageProfile::homogeneous(&p.reference, &base))
        .collect::<Option<Vec<_>>>()?;
    // All clusters share one frequency, hence one optimal supply.
    let descent = suite.descend_voltages(&base, power, &usages)?;
    let config = base.with_voltages(descent.voltages);
    let mut per_benchmark = Vec::with_capacity(suite.profiles.len());
    let mut suite_ed2 = 0.0;
    for usage in &usages {
        let energy = power.price(&descent.scaling, usage);
        let ed2 = vliw_power::ed2(energy, usage.exec_time.as_secs());
        suite_ed2 += ed2;
        per_benchmark.push(HomogChoice {
            config: config.clone(),
            exec_time: usage.exec_time,
            energy,
            ed2,
        });
    }
    let baseline = SuiteBaseline {
        config,
        per_benchmark,
        suite_ed2,
    };
    Some((baseline, descent.pricings))
}

/// Adds `n` candidates priced by voltage descents to
/// `explore_descent_pricings_total`. Callers total their descents and
/// add once, since each registry lookup takes a lock.
pub(crate) fn count_pricings(n: u64) {
    vliw_obs::counter("explore_descent_pricings_total").add(n);
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

    fn range(self) -> (f64, f64) {
        match self {
            SupplyGrid::Cluster => Voltages::CLUSTER_RANGE,
            SupplyGrid::Icn => Voltages::ICN_RANGE,
            SupplyGrid::Cache => Voltages::CACHE_RANGE,
        }
    }

    /// Every supply of the grid: its range, accumulated in [`V_STEP`]s
    /// from the lower bound. The `hi + 1e-9` bound is
    /// `Voltages::in_range`'s own tolerance, so every grid point is in
    /// range and candidates need no range check.
    fn supplies(self) -> &'static [f64] {
        static GRIDS: OnceLock<[Vec<f64>; 3]> = OnceLock::new();
        let grids = GRIDS.get_or_init(|| {
            [SupplyGrid::Cluster, SupplyGrid::Icn, SupplyGrid::Cache].map(|grid| {
                let (lo, hi) = grid.range();
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

    /// The descent's start supplies for a domain of this grid, in the
    /// order it tries them: 1 V ([`Voltages::reference`]), then the top
    /// of the range (very fast cycle times need more voltage). Neither is
    /// a grid point, because the grid adds up [`V_STEP`]s: the cluster
    /// and ICN grids pass 1.0000000000000002, not 1, and the cluster grid
    /// ends at 1.1999999999999995, not 1.2.
    fn starts(self) -> [f64; 2] {
        [1.0, self.range().1]
    }

    /// The row of a domain of this grid at cycle time `cycle`: its
    /// [`vliw_power::scaling`] at every supply of the grid and at both
    /// start supplies.
    pub(crate) fn tabulate(self, cycle: Time) -> Arc<SupplyRow> {
        Arc::new(SupplyRow {
            grid: self
                .supplies()
                .iter()
                .map(|&vdd| vliw_power::scaling(cycle, vdd))
                .collect(),
            starts: self.starts().map(|vdd| vliw_power::scaling(cycle, vdd)),
        })
    }
}

/// A domain's δ/σ at every supply of its grid and at the descent's start
/// supplies (`None` where the supply cannot sustain the domain's cycle
/// time).
#[derive(Debug)]
pub(crate) struct SupplyRow {
    /// At each supply of [`SupplyGrid::supplies`], in order.
    grid: Box<[Option<DomainScaling>]>,
    /// At each supply of [`SupplyGrid::starts`], in order.
    starts: [Option<DomainScaling>; 2],
}

/// One domain of a [`SupplyRows`].
#[derive(Debug, Clone)]
struct DomainRow {
    domain: DomainId,
    cycle: Time,
    row: Arc<SupplyRow>,
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
        mut row: impl FnMut(SupplyGrid, Time) -> Arc<SupplyRow>,
    ) -> Self {
        SupplyRows(
            base.design()
                .domains()
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
        let design = base.design();
        self.0.len() == usize::from(design.num_clusters) + 2
            && self
                .0
                .iter()
                .zip(design.domains())
                .all(|(r, d)| r.domain == d && r.cycle == base.domain_cycle(d))
    }
}

/// What a voltage descent settled on.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageDescent {
    /// The supplies it kept.
    pub voltages: Voltages,
    /// Every domain's δ/σ at those supplies, read from the supply rows:
    /// the winner's [`PowerModel::scale_config`], without the α-power
    /// solve, to price its usages from with [`PowerModel::price`].
    pub scaling: ConfigScaling,
    /// The candidate supply vectors it priced.
    pub pricings: u64,
}

/// Coordinate-descent voltage optimisation with independent supplies per
/// cluster *speed group* (fast clusters want high voltage, slow clusters
/// low voltage — the heterogeneous design's central lever), minimising
/// the summed energy of `usages` at `base`'s cycle times. Energy is
/// separable per clock domain, so sweeping each group, the ICN and the
/// cache independently is exact.
///
/// The descent starts at 1 V everywhere, or at the top of every range
/// when that is infeasible, then sweeps each group, the ICN and the cache
/// through their grids twice, keeping a move only when it strictly lowers
/// the energy. A domain's δ/σ depend only on its cycle time and supply,
/// and the descent never changes a cycle time, so both starts and every
/// candidate are priced from `rows` — `base`'s tabulated supply rows —
/// with no α-power solve and no allocation after set-up.
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
) -> Option<VoltageDescent> {
    assert!(rows.fit(base), "supply rows of other cycle times");
    let nc = usize::from(base.design().num_clusters);
    assert!(
        cluster_groups.iter().flatten().all(|&c| c < nc),
        "a speed group names a cluster the design does not have"
    );
    let mut descent = Descent::start(&rows.0, power, usages)?;

    // The coordinates in sweep order: each speed group (clusters within
    // one share a frequency, hence one optimal supply) with the cluster
    // grid, then the ICN, then the cache. `rows` holds the clusters in
    // order, then the ICN, then the cache.
    let (icn, cache) = ([nc], [nc + 1]);
    let coordinates = cluster_groups
        .iter()
        .map(|group| (SupplyGrid::Cluster, group.as_slice()))
        .chain([(SupplyGrid::Icn, &icn[..]), (SupplyGrid::Cache, &cache[..])]);
    let count = cluster_groups.len() + 2;

    // One pass per coordinate is exact by separability; a second pass
    // guards the (non-separable) corner cases defensively. It skips a
    // coordinate whose last sweep no other coordinate has moved since:
    // that sweep would price each candidate at the same scalings as last
    // time, so get the same bits, and the energy it left behind is at
    // most every one of them, so the strict `<` would keep nothing.
    let mut last_move = None;
    for pass in 0..2 {
        for (i, (grid, members)) in coordinates.clone().enumerate() {
            if pass == 1 && last_move.is_none_or(|sweep| sweep <= i) {
                continue;
            }
            if descent.sweep(grid.supplies(), members) {
                last_move = Some(pass * count + i);
            }
        }
    }
    Some(descent.finish())
}

/// One voltage descent's state: the current supplies, their priced
/// energy, and the usages' [`PriceFold`], which keeps the current
/// supplies' scalings and holds the candidate being priced.
struct Descent<'a> {
    rows: &'a [DomainRow],
    fold: PriceFold<'a>,
    voltages: Voltages,
    energy: f64,
    /// Candidates priced so far.
    pricings: u64,
}

impl<'a> Descent<'a> {
    /// Starts at the first [`SupplyGrid::starts`] supply every domain of
    /// `rows` can sustain together, read from the rows, or `None` when
    /// there is none.
    fn start(
        rows: &'a [DomainRow],
        power: &'a PowerModel,
        usages: &'a [UsageProfile],
    ) -> Option<Self> {
        let start = (0..2).find(|&s| rows.iter().all(|r| r.row.starts[s].is_some()))?;
        let mut voltages = Voltages {
            clusters: vec![0.0; rows.len() - 2],
            icn: 0.0,
            cache: 0.0,
        };
        for r in rows {
            *voltages.domain_mut(r.domain) = SupplyGrid::of(r.domain).starts()[start];
        }
        let scalings = rows
            .iter()
            .map(|r| r.row.starts[start].expect("a feasible start"));
        let mut fold = power.fold(usages, scalings);
        let energy = fold.price();
        Some(Descent {
            rows,
            fold,
            voltages,
            energy,
            pricings: 0,
        })
    }

    /// Moves every domain of `members` together through each supply of
    /// `grid`, keeping a move when it strictly lowers the energy. Returns
    /// whether it kept one.
    fn sweep(&mut self, grid: &[f64], members: &[usize]) -> bool {
        // Only the members differ between candidates, and every feasible
        // candidate overwrites all of them, so the fold resumes at the
        // first member.
        let first = members.iter().copied().min().unwrap_or(self.rows.len());
        self.fold.resume_at(first);
        let mut moved = false;
        for (k, &vdd) in grid.iter().enumerate() {
            let feasible = members.iter().all(|&m| {
                self.rows[m].row.grid[k]
                    .map(|s| self.fold.set(m, s))
                    .is_some()
            });
            if !feasible {
                continue;
            }
            let e = self.fold.price();
            self.pricings += 1;
            if e < self.energy {
                self.fold.keep();
                for &m in members {
                    *self.voltages.domain_mut(self.rows[m].domain) = vdd;
                }
                self.energy = e;
                moved = true;
            }
        }
        moved
    }

    /// The supplies and scaling the descent settled on.
    fn finish(mut self) -> VoltageDescent {
        debug_assert_eq!(
            self.energy.to_bits(),
            self.fold.reference().to_bits(),
            "the descent's winner prices as `PowerModel::price` does"
        );
        VoltageDescent {
            voltages: self.voltages,
            scaling: self.fold.into_scaling(),
            pricings: self.pricings,
        }
    }
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
