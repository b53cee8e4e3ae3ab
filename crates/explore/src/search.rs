//! Metaheuristic design-space search over machine configurations.
//!
//! The §3.3/§5 selection scheme sweeps a 20-point `(cycle factor,
//! slow/fast ratio)` grid exhaustively. This module plugs the
//! `vliw-search` optimizers into the exploration pipeline so much larger
//! spaces stay tractable:
//!
//! * [`SpaceKind::Paper`] — exactly the paper's grid
//!   ([`candidate_grid`](crate::candidate_grid) order), with per-group
//!   supply voltages derived by the same coordinate descent the §3.3
//!   selection uses. Small enough to enumerate, which is what the
//!   validation leans on: every strategy with budget ≥ 20 must recover
//!   the [`Exhaustive`](vliw_search::Strategy::Exhaustive) winner.
//! * [`SpaceKind::Extended`] — a much larger gene space: wider cycle
//!   factor and slow/fast ratio menus, the fast/slow *split* (1–3 fast
//!   clusters), the bus width, and explicit per-speed-group, ICN and
//!   cache supply voltages (the GA crosses over these genes directly).
//!
//! Every candidate is **measured, not estimated**: the selected
//! configuration re-schedules every loop of every benchmark through the
//! §4 heterogeneous modulo scheduler, routed through the suite's
//! [`MeasureCache`](crate::experiments::MeasureCache) so repeated
//! configurations (and repeated runs on one suite) cost nothing.
//! Candidates that fail to schedule or cannot sustain their frequencies
//! electrically are infeasible, not errors.
//!
//! Objectives are suite totals — `Σ exec time`, `Σ energy`,
//! `Σ energy·time²` over the benchmarks — so the Pareto archive trades
//! whole-workload time against whole-workload energy with the paper's
//! ED² as the scalar tie-breaker.

use serde::Serialize;

use vliw_exec::Executor;
use vliw_machine::{ClockedConfig, FrequencyMenu, Time, Voltages};
use vliw_power::{ed2, ConfigScaling, EnergyShares, PowerModel};
use vliw_search::{ArchiveEntry, GridSpace, Objectives, SearchSpace};

use crate::experiments::ProfiledSuite;
use crate::homog::{count_pricings, VoltageDescent};
use crate::profile::suite_reference;
use crate::select::{FAST_FACTORS, SLOW_RATIOS};

/// Extended fast-cluster cycle-time factors (×reference cycle).
pub const EXT_FAST_FACTORS: [f64; 7] = [0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15];

/// Extended slow/fast cycle-time ratios.
pub const EXT_SLOW_RATIOS: [f64; 6] = [1.0, 1.1, 1.25, 1.33, 1.5, 1.75];

/// Extended fast-cluster counts (the speed-group split; the paper fixes
/// this at 1).
pub const EXT_NUM_FAST: [u8; 3] = [1, 2, 3];

/// Extended per-speed-group cluster supply menu (spans the paper's legal
/// 0.7–1.2 V cluster range).
pub const EXT_CLUSTER_VDDS: [f64; 6] = [0.7, 0.8, 0.9, 1.0, 1.1, 1.2];

/// Extended ICN supply menu (0.8–1.1 V).
pub const EXT_ICN_VDDS: [f64; 4] = [0.8, 0.9, 1.0, 1.1];

/// Extended cache supply menu (1.0–1.4 V).
pub const EXT_CACHE_VDDS: [f64; 5] = [1.0, 1.1, 1.2, 1.3, 1.4];

/// Which configuration space a search explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpaceKind {
    /// The paper's own 20-point §3.3 grid (voltages derived by descent).
    Paper,
    /// The enlarged gene space (frequencies × split × buses × explicit
    /// voltages).
    Extended,
}

impl SpaceKind {
    /// The stable CLI/JSON name (`paper` | `extended`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            SpaceKind::Paper => "paper",
            SpaceKind::Extended => "extended",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(SpaceKind::Paper),
            "extended" => Some(SpaceKind::Extended),
            _ => None,
        }
    }
}

/// The machine-configuration search space: a mixed-radix gene grid plus
/// the menus the genes index into.
///
/// Gene layout (dimension 0 fastest in the canonical index):
///
/// * paper: `[fast factor, slow/fast ratio]`;
/// * extended: `[fast factor, slow/fast ratio, num_fast, bus slot,
///   fast-group Vdd, slow-group Vdd, ICN Vdd, cache Vdd]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpace {
    kind: SpaceKind,
    grid: GridSpace,
    fast_factors: Vec<f64>,
    slow_ratios: Vec<f64>,
    num_fast: Vec<u8>,
}

impl ConfigSpace {
    /// The paper's §3.3 grid over one machine shape.
    #[must_use]
    pub fn paper() -> Self {
        ConfigSpace {
            kind: SpaceKind::Paper,
            grid: GridSpace::new(vec![FAST_FACTORS.len() as u32, SLOW_RATIOS.len() as u32]),
            fast_factors: FAST_FACTORS.to_vec(),
            slow_ratios: SLOW_RATIOS.to_vec(),
            num_fast: vec![1],
        }
    }

    /// The extended gene space over `bus_slots` machine shapes (one per
    /// profiled bus count).
    ///
    /// # Panics
    ///
    /// Panics if `bus_slots == 0`.
    #[must_use]
    pub fn extended(bus_slots: usize) -> Self {
        assert!(bus_slots > 0, "the space needs at least one bus slot");
        ConfigSpace {
            kind: SpaceKind::Extended,
            grid: GridSpace::new(vec![
                EXT_FAST_FACTORS.len() as u32,
                EXT_SLOW_RATIOS.len() as u32,
                EXT_NUM_FAST.len() as u32,
                u32::try_from(bus_slots).expect("bus slots fit in u32"),
                EXT_CLUSTER_VDDS.len() as u32,
                EXT_CLUSTER_VDDS.len() as u32,
                EXT_ICN_VDDS.len() as u32,
                EXT_CACHE_VDDS.len() as u32,
            ]),
            fast_factors: EXT_FAST_FACTORS.to_vec(),
            slow_ratios: EXT_SLOW_RATIOS.to_vec(),
            num_fast: EXT_NUM_FAST.to_vec(),
        }
    }

    /// The space kind.
    #[must_use]
    pub fn kind(&self) -> SpaceKind {
        self.kind
    }

    /// Decodes the frequency-shape genes shared by both kinds.
    fn decode_shape(&self, genes: &[u32]) -> (f64, f64, u8, usize) {
        let fast_factor = self.fast_factors[genes[0] as usize];
        let slow_ratio = self.slow_ratios[genes[1] as usize];
        let (num_fast, bus_slot) = match self.kind {
            SpaceKind::Paper => (self.num_fast[0], 0),
            SpaceKind::Extended => (self.num_fast[genes[2] as usize], genes[3] as usize),
        };
        (fast_factor, slow_ratio, num_fast, bus_slot)
    }

    /// Decodes the extended space's explicit voltage genes.
    fn decode_voltages(&self, genes: &[u32], num_clusters: u8, num_fast: u8) -> Voltages {
        debug_assert_eq!(self.kind, SpaceKind::Extended);
        let fast_vdd = EXT_CLUSTER_VDDS[genes[4] as usize];
        let slow_vdd = EXT_CLUSTER_VDDS[genes[5] as usize];
        let mut voltages = Voltages::reference(num_clusters);
        for (c, vdd) in voltages.clusters.iter_mut().enumerate() {
            *vdd = if c < usize::from(num_fast) {
                fast_vdd
            } else {
                slow_vdd
            };
        }
        voltages.icn = EXT_ICN_VDDS[genes[6] as usize];
        voltages.cache = EXT_CACHE_VDDS[genes[7] as usize];
        voltages
    }
}

impl SearchSpace for ConfigSpace {
    type Point = Vec<u32>;

    fn size(&self) -> u64 {
        self.grid.size()
    }

    fn point(&self, index: u64) -> Vec<u32> {
        self.grid.point(index)
    }

    fn index(&self, point: &Vec<u32>) -> u64 {
        self.grid.index(point)
    }

    fn neighbors(&self, point: &Vec<u32>, out: &mut Vec<Vec<u32>>) {
        self.grid.neighbors(point, out);
    }

    fn mutate(&self, point: &Vec<u32>, rng: &mut rand::rngs::SmallRng) -> Vec<u32> {
        self.grid.mutate(point, rng)
    }

    fn crossover(&self, a: &Vec<u32>, b: &Vec<u32>, rng: &mut rand::rngs::SmallRng) -> Vec<u32> {
        self.grid.crossover(a, b, rng)
    }
}

/// One profiled machine shape the search can place candidates on.
struct BusContext<'a> {
    suite: &'a ProfiledSuite,
    power: PowerModel,
}

/// Everything a candidate evaluation needs: the space, one calibrated
/// power model per profiled bus count, and the frequency menu.
pub struct SearchContext<'a> {
    space: ConfigSpace,
    buses: Vec<BusContext<'a>>,
    menu: FrequencyMenu,
}

impl std::fmt::Debug for SearchContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchContext")
            .field("space", &self.space)
            .field("buses", &self.buses.len())
            .finish_non_exhaustive()
    }
}

impl<'a> SearchContext<'a> {
    /// Builds the evaluation context for `kind` over the profiled suites
    /// (one per bus count; the paper space uses only the first).
    ///
    /// The power model is calibrated per suite with the paper's energy
    /// shares, as [`figure6`](crate::experiments::figure6) does at its
    /// defaults, and estimation and measurement both use the
    /// unrestricted frequency menu.
    ///
    /// # Panics
    ///
    /// Panics if `suites` is empty.
    #[must_use]
    pub fn new(kind: SpaceKind, suites: &[&'a ProfiledSuite]) -> Self {
        assert!(!suites.is_empty(), "the search needs a profiled suite");
        let used = match kind {
            SpaceKind::Paper => &suites[..1],
            SpaceKind::Extended => suites,
        };
        let buses = used
            .iter()
            .map(|suite| BusContext {
                suite,
                power: PowerModel::calibrate(
                    suite.design,
                    EnergyShares::PAPER,
                    &suite_reference(&suite.profiles),
                ),
            })
            .collect::<Vec<_>>();
        let space = match kind {
            SpaceKind::Paper => ConfigSpace::paper(),
            SpaceKind::Extended => ConfigSpace::extended(buses.len()),
        };
        SearchContext {
            space,
            buses,
            menu: FrequencyMenu::unrestricted(),
        }
    }

    /// The candidate space.
    #[must_use]
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// Decodes a gene vector into its machine shape, its fully clocked
    /// configuration (paper-space voltages run the §3.3 coordinate
    /// descent) and every domain's δ/σ in that configuration: the
    /// descent's in the paper space, one `scale_config` in the extended
    /// space. `None` when the candidate is infeasible; the scaling is the
    /// feasibility test, since a descent keeps only supplies its domains
    /// can sustain and `scale_config` fails on any other.
    #[must_use]
    pub fn decode(&self, genes: &[u32]) -> Option<(u32, ClockedConfig, ConfigScaling)> {
        let (fast_factor, slow_ratio, num_fast, bus_slot) = self.space.decode_shape(genes);
        let bus = &self.buses[bus_slot];
        let design = bus.suite.design;
        let fast = Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * fast_factor);
        let slow = Time::from_ns(fast.as_ns() * slow_ratio);
        let (config, scaling) = match self.space.kind {
            SpaceKind::Paper => {
                let base = ClockedConfig::heterogeneous(design, fast, num_fast, slow);
                let descent = self.descend_voltages(bus, &base)?;
                count_pricings(descent.pricings);
                (base.with_voltages(descent.voltages), descent.scaling)
            }
            SpaceKind::Extended => {
                // A ratio of 1 collapses the speed groups: the split and
                // the slow-group supply are meaningless, so they are
                // canonicalised away (the archive keeps the lowest index
                // among gene vectors that alias to one configuration).
                let base = if slow_ratio == 1.0 {
                    ClockedConfig::homogeneous(design, fast)
                } else {
                    ClockedConfig::heterogeneous(design, fast, num_fast, slow)
                };
                let effective_fast = if slow_ratio == 1.0 {
                    design.num_clusters
                } else {
                    num_fast
                };
                let voltages =
                    self.space
                        .decode_voltages(genes, design.num_clusters, effective_fast);
                if !voltages.in_range() {
                    return None;
                }
                let config = base.with_voltages(voltages);
                let mut scaling = ConfigScaling::default();
                if !bus.power.scale_config(&config, &mut scaling) {
                    return None;
                }
                (config, scaling)
            }
        };
        Some((design.buses, config, scaling))
    }

    /// Evaluates one candidate: decode, (derive voltages,) measure every
    /// benchmark through the suite's memo cache, and total the
    /// objectives. `None` for infeasible candidates — voltages out of
    /// range, frequencies a supply cannot sustain, estimation or
    /// scheduling failure.
    ///
    /// The per-loop measurement fans out across `exec` — the search
    /// engine passes the run's pool here whenever candidates are
    /// evaluated one at a time (annealing proposals, hill-climb starts),
    /// so sequential strategies still parallelise. Results are identical
    /// for every worker count.
    #[must_use]
    pub fn evaluate(&self, genes: &[u32], exec: &Executor) -> Option<Objectives> {
        let (_, config, scaling) = self.decode(genes)?;
        let bus_slot = match self.space.kind {
            SpaceKind::Paper => 0,
            SpaceKind::Extended => genes[3] as usize,
        };
        self.measure_config(&self.buses[bus_slot], &config, &scaling, exec)
    }

    /// The paper space's voltage rule: the §3.3/§5.1 grouped coordinate
    /// descent minimising the model's *suite* energy over every
    /// benchmark's usage ([`ProfiledSuite::estimate_memoised`]: exact for
    /// frequency-homogeneous candidates, §3.2 estimates otherwise), read
    /// from the same suite tables as the §3.3 selection.
    fn descend_voltages(
        &self,
        bus: &BusContext<'a>,
        base: &ClockedConfig,
    ) -> Option<VoltageDescent> {
        let suite = bus.suite;
        let usages = (0..suite.profiles.len())
            .map(|i| suite.estimate_memoised(i, base, &self.menu))
            .collect::<Option<Vec<_>>>()?;
        suite.descend_voltages(base, &bus.power, &usages)
    }

    /// Measures `config` on every benchmark of `bus`'s suite through the
    /// suite's memo cache ([`ProfiledSuite::measure_memoised`], exact for
    /// frequency-homogeneous configurations), prices each usage at
    /// `config`'s domain scalings `scaling`, and totals time, energy and
    /// ED².
    fn measure_config(
        &self,
        bus: &BusContext<'a>,
        config: &ClockedConfig,
        scaling: &ConfigScaling,
        exec: &Executor,
    ) -> Option<Objectives> {
        let mut total_time_ns = 0.0f64;
        let mut total_energy = 0.0f64;
        let mut total_ed2 = 0.0f64;
        for i in 0..bus.suite.profiles.len() {
            let usage = bus
                .suite
                .measure_memoised(i, config, &bus.power, &self.menu, exec)
                .ok()?;
            let energy = bus.power.price(scaling, &usage);
            total_time_ns += usage.exec_time.as_ns();
            total_energy += energy;
            total_ed2 += ed2(energy, usage.exec_time.as_secs());
        }
        Some(Objectives {
            exec_time_ns: total_time_ns,
            energy: total_energy,
            ed2: total_ed2,
        })
    }

    /// Stable content address of this search's *evaluation function*:
    /// everything that determines `evaluate(point(i))` for a canonical
    /// index `i` — the space kind, its menus and gene grid, every
    /// profiled machine shape with its benchmark content hashes and
    /// calibrated power model, and the scheduler's constants and
    /// frequency menu.
    ///
    /// Two contexts with equal fingerprints agree on every candidate's
    /// objectives, so persisted evaluations keyed by
    /// `(fingerprint, index)` are shareable across processes, shards,
    /// strategies and seeds. Anything that changes a measurement — suite
    /// scale or seed, bus counts, menus, energy shares (via the
    /// calibrated model), the scheduler's constants — changes the
    /// fingerprint.
    #[must_use]
    pub fn space_fingerprint(&self) -> u64 {
        let mut h = vliw_store::StableHasher::new();
        h.write_str(self.space.kind.name());
        h.write_u64(self.space.grid.size());
        h.write_u64(self.space.fast_factors.len() as u64);
        for &v in &self.space.fast_factors {
            h.write_f64(v);
        }
        h.write_u64(self.space.slow_ratios.len() as u64);
        for &v in &self.space.slow_ratios {
            h.write_f64(v);
        }
        h.write_u64(self.space.num_fast.len() as u64);
        for &n in &self.space.num_fast {
            h.write_u8(n);
        }
        if self.space.kind == SpaceKind::Extended {
            for menu in [
                &EXT_CLUSTER_VDDS[..],
                &EXT_ICN_VDDS[..],
                &EXT_CACHE_VDDS[..],
            ] {
                h.write_u64(menu.len() as u64);
                for &v in menu {
                    h.write_f64(v);
                }
            }
        }
        h.write_u64(self.buses.len() as u64);
        for bus in &self.buses {
            let design = bus.suite.design;
            h.write_u8(design.num_clusters);
            h.write_u32(design.buses);
            h.write_u32(design.cluster.int_fus);
            h.write_u32(design.cluster.fp_fus);
            h.write_u32(design.cluster.mem_ports);
            h.write_u32(design.cluster.registers);
            h.write_u64(bus.suite.content().len() as u64);
            for &c in bus.suite.content() {
                h.write_u64(c);
            }
            crate::store_keys::hash_power(&mut h, &bus.power);
        }
        crate::store_keys::hash_scheduler(&mut h, &self.menu);
        h.finish()
    }

    pub(crate) fn frontier_row(&self, entry: &ArchiveEntry<Vec<u32>>) -> FrontierRow {
        let (buses, config, _) = self
            .decode(&entry.point)
            .expect("archived candidates are feasible by construction");
        let fast = config.fastest_cluster_cycle();
        let slow = config.slowest_cluster_cycle();
        let design = config.design();
        let num_fast = design
            .clusters()
            .filter(|&c| config.cluster_cycle(c) == fast)
            .count() as u8;
        let vdd_fast = config.voltages().clusters[0];
        let vdd_slow = *config
            .voltages()
            .clusters
            .last()
            .expect("designs have clusters");
        FrontierRow {
            index: entry.index,
            buses,
            num_fast,
            fast_cycle_ns: fast.as_ns(),
            slow_cycle_ns: slow.as_ns(),
            vdd_fast,
            vdd_slow,
            vdd_icn: config.voltages().icn,
            vdd_cache: config.voltages().cache,
            exec_time_ns: entry.objectives.exec_time_ns,
            energy: entry.objectives.energy,
            ed2: entry.objectives.ed2,
        }
    }
}

/// One Pareto-frontier row of a search report: the decoded configuration
/// plus its measured suite-level objectives.
#[derive(Debug, Clone, Serialize)]
pub struct FrontierRow {
    /// Canonical index in the search space.
    pub index: u64,
    /// Buses on the machine.
    pub buses: u32,
    /// Clusters running at the fastest cycle time.
    pub num_fast: u8,
    /// Fast-cluster cycle time (ns).
    pub fast_cycle_ns: f64,
    /// Slow-cluster cycle time (ns).
    pub slow_cycle_ns: f64,
    /// Supply of the fast cluster group (V).
    pub vdd_fast: f64,
    /// Supply of the slow cluster group (V).
    pub vdd_slow: f64,
    /// ICN supply (V).
    pub vdd_icn: f64,
    /// Cache supply (V).
    pub vdd_cache: f64,
    /// Measured suite execution time (ns, summed over benchmarks).
    pub exec_time_ns: f64,
    /// Measured suite energy (reference units, summed).
    pub energy: f64,
    /// Measured suite ED² (summed per-benchmark `energy · time²`).
    pub ed2: f64,
}

/// One convergence-trace row: the best ED² improved at this evaluation.
#[derive(Debug, Clone, Serialize)]
pub struct TraceRow {
    /// Distinct candidate evaluations spent when the improvement landed.
    pub evaluations: u64,
    /// Canonical index of the new best candidate.
    pub index: u64,
    /// Its suite ED².
    pub ed2: f64,
}

/// The byte-stable JSON artefact of one search run: the frontier, the
/// scalar winner and the convergence trace. Contains no wall-clock
/// measurements, so it is identical across machines and `--jobs` counts.
#[derive(Debug, Clone, Serialize)]
pub struct SearchReport {
    /// Strategy name (`hillclimb` | `anneal` | `ga` | `exhaustive`).
    pub strategy: String,
    /// Space name (`paper` | `extended`).
    pub space: String,
    /// Requested distinct-evaluation budget.
    pub budget: u64,
    /// Search seed.
    pub seed: u64,
    /// Size of the candidate space.
    pub space_size: u64,
    /// Distinct candidate evaluations actually spent.
    pub evaluations: u64,
    /// The scalar (minimum-ED²) winner, if any candidate was feasible.
    pub best: Option<FrontierRow>,
    /// The non-dominated `(time, energy, ED²)` frontier, sorted by
    /// execution time.
    pub frontier: Vec<FrontierRow>,
    /// Every improvement of the best ED².
    pub trace: Vec<TraceRow>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_search::Strategy;
    use vliw_workloads::{generate, spec_fp2000, Benchmark};

    use crate::experiments::profile_suite;
    use crate::scale::run_search;

    fn small_suite() -> Vec<Benchmark> {
        // One recurrence-bound and one resource-bound benchmark, as the
        // experiment tests use.
        vec![
            generate(&spec_fp2000()[8], 4),
            generate(&spec_fp2000()[1], 4),
        ]
    }

    fn profiled() -> ProfiledSuite {
        profile_suite(&small_suite(), 1, &Executor::serial(), None).unwrap()
    }

    /// One plain (non-racing, unsharded) search over `suite`.
    fn search(
        kind: SpaceKind,
        strategy: Strategy,
        budget: u64,
        seed: u64,
        suite: &ProfiledSuite,
        exec: &Executor,
    ) -> SearchReport {
        run_search(kind, strategy, budget, seed, &[suite], exec, false, (1, 1))
            .unwrap()
            .into()
    }

    /// Satellite: grid-equivalence regression. On the paper's own §3.3
    /// menu, every metaheuristic with budget ≥ the grid size recovers
    /// the exhaustive sweep's ED² winner exactly.
    #[test]
    fn every_strategy_recovers_the_exhaustive_optimum_on_the_paper_grid() {
        let suite = profiled();
        let serial = Executor::serial();
        let truth = search(
            SpaceKind::Paper,
            Strategy::Exhaustive,
            u64::MAX,
            0,
            &suite,
            &serial,
        );
        assert_eq!(truth.evaluations, truth.space_size, "full sweep");
        let best = truth.best.as_ref().expect("feasible grid");
        for strategy in Strategy::METAHEURISTICS {
            let budget = truth.space_size + 12;
            let report = search(SpaceKind::Paper, strategy, budget, 3, &suite, &serial);
            let got = report.best.as_ref().expect("feasible");
            assert_eq!(got.index, best.index, "{strategy}");
            assert_eq!(got.ed2.to_bits(), best.ed2.to_bits(), "{strategy}");
            assert_eq!(
                serde_json::to_string(&report.frontier).unwrap(),
                serde_json::to_string(&truth.frontier).unwrap(),
                "{strategy}: full coverage implies the exhaustive frontier"
            );
        }
    }

    /// Satellite: seeded determinism. Each strategy's report serialises
    /// byte-identically at one worker and at four.
    #[test]
    fn search_reports_are_byte_identical_across_worker_counts() {
        let suite = profiled();
        for strategy in Strategy::ALL {
            let serial = search(
                SpaceKind::Paper,
                strategy,
                12,
                42,
                &suite,
                &Executor::serial(),
            );
            let parallel = search(
                SpaceKind::Paper,
                strategy,
                12,
                42,
                &suite,
                &Executor::new(4),
            );
            assert_eq!(
                serde_json::to_string_pretty(&serial).unwrap(),
                serde_json::to_string_pretty(&parallel).unwrap(),
                "{strategy}: --jobs must not change the report"
            );
        }
    }

    /// The extended space runs end to end: candidates decode, infeasible
    /// voltage corners are skipped, and the frontier is mutually
    /// non-dominated with finite objectives.
    #[test]
    fn extended_space_search_produces_a_clean_frontier() {
        let suite = profiled();
        let report = search(
            SpaceKind::Extended,
            Strategy::Genetic,
            24,
            7,
            &suite,
            &Executor::serial(),
        );
        assert_eq!(report.space, "extended");
        // 7 factors × 6 ratios × 3 splits × 1 bus × 6² cluster supplies
        // × 4 ICN × 5 cache supplies = 90 720 candidates.
        assert_eq!(report.space_size, 90_720, "extended space is large");
        assert!(report.evaluations > 0 && report.evaluations <= 24);
        let frontier = &report.frontier;
        assert!(!frontier.is_empty(), "some candidate must be feasible");
        for row in frontier {
            assert!(row.ed2.is_finite() && row.ed2 > 0.0);
            assert!(row.exec_time_ns.is_finite() && row.exec_time_ns > 0.0);
            assert!(row.energy.is_finite() && row.energy > 0.0);
            assert!((1..=4).contains(&row.num_fast));
            assert!(row.vdd_fast >= 0.7 && row.vdd_fast <= 1.2);
        }
        for (i, a) in frontier.iter().enumerate() {
            for (j, b) in frontier.iter().enumerate() {
                if i != j {
                    let dominates = a.exec_time_ns <= b.exec_time_ns
                        && a.energy <= b.energy
                        && a.ed2 <= b.ed2
                        && (a.exec_time_ns < b.exec_time_ns
                            || a.energy < b.energy
                            || a.ed2 < b.ed2);
                    assert!(!dominates, "frontier rows {i} and {j} are ordered");
                }
            }
        }
        // The convergence trace improves monotonically.
        for w in report.trace.windows(2) {
            assert!(w[0].ed2 >= w[1].ed2);
        }
    }

    /// The paper space's evaluation agrees with the section-3.3 pipeline
    /// shape: the all-reference candidate (factor 1.0, ratio 1.0) is
    /// feasible and homogeneous.
    #[test]
    fn paper_space_reference_point_is_feasible_and_homogeneous() {
        let suite = profiled();
        let suites = [&suite];
        let ctx = SearchContext::new(SpaceKind::Paper, &suites);
        // FAST_FACTORS[2] = 1.00, SLOW_RATIOS[0] = 1.0.
        let genes = vec![2u32, 0u32];
        let (buses, config, _) = ctx.decode(&genes).expect("reference point is feasible");
        assert_eq!(buses, 1);
        assert!(config.is_homogeneous());
        let obj = ctx
            .evaluate(&genes, &Executor::serial())
            .expect("reference point evaluates");
        assert!(obj.ed2 > 0.0 && obj.ed2.is_finite());
    }
}
