//! Runners regenerating every table and figure of the paper's evaluation
//! (§5): Table 2 and Figures 6, 7, 8, 9.
//!
//! The pipeline for each benchmark mirrors the paper end to end:
//!
//! 1. schedule every loop on the **reference homogeneous** machine and
//!    profile it;
//! 2. calibrate the §3.1 energy model on that profile;
//! 3. find the **optimum homogeneous** baseline (§5.1);
//! 4. **select** the heterogeneous frequencies/voltages with the §3 models
//!    (§3.3);
//! 5. **re-schedule every loop** on the selected configuration with the
//!    heterogeneous modulo scheduler (§4) and *measure* ED²;
//! 6. report `ED²(hetero, measured) / ED²(homogeneous optimum)`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use serde::Serialize;

use vliw_exec::{Executor, MemoCache};
use vliw_machine::{ClockedConfig, FrequencyMenu, MachineDesign, MenuKind, Time};
use vliw_power::{ed2, EnergyShares, PowerModel, UsageProfile};
use vliw_sched::{schedule_loop_ws, SchedError, SchedWorkspace, ScheduleOptions};
use vliw_store::{MeasureStore, StoreKey};
use vliw_workloads::{class_shares, Benchmark};

use crate::estimate::estimate_usage;
use crate::homog::{
    optimise_voltages_grouped, optimum_homogeneous_suite, speed_groups, HomogChoice, SupplyGrid,
    SupplyRow, SupplyRows, VoltageDescent,
};
use crate::profile::{profile_benchmark, reference_aggregate, suite_reference, BenchmarkProfile};
use crate::select::select_heterogeneous;
use crate::store_keys::{
    benchmark_content_hash, config_fingerprint, profile_to_record, record_to_profile,
    record_to_usage, usage_to_record,
};

/// The inputs [`figure6`] and [`run_benchmark`] take; Figures 7–9 and
/// [`familysweep`] each vary one of them from the default.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Frequency menu for heterogeneous selection *and* scheduling
    /// (Figure 7 varies this; everything else uses unrestricted).
    pub menu: FrequencyMenu,
    /// Energy shares calibrating the reference model (Figures 8/9 vary
    /// these).
    pub shares: EnergyShares,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            menu: FrequencyMenu::unrestricted(),
            shares: EnergyShares::PAPER,
        }
    }
}

/// Memoisation table mapping a measurement's content address — the
/// [`StoreKey`] the persistent store files it under — to the measured
/// usage profile of that configuration (the expensive part:
/// re-scheduling every loop with the heterogeneous modulo scheduler).
/// Scheduling errors are memoised too — they are just as deterministic
/// as successes.
///
/// Hits require the *whole* address to repeat — benchmark content,
/// configuration, frequency menu and power model —
/// because any of those can change the schedules. That happens when the
/// same sweep runs twice on one [`ProfiledSuite`], and across
/// experiments sharing one suite under identical options (the `paper`
/// binary reuses one suite per bus count, so Figure 7's
/// unrestricted-menu variant reuses Figure 6's measurements outright).
/// Figure 8/9 variants recalibrate the power model, which can change
/// partitions, so they correctly miss.
pub type MeasureCache = MemoCache<StoreKey, Result<UsageProfile, SchedError>>;

/// What a §3.2 usage estimate reads besides its suite: the benchmark,
/// every domain's cycle time and the frequency menu. Voltages and the
/// power model stay out of the key because the estimate reads neither.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EstimateKey {
    bench: usize,
    cycles: Vec<Time>,
    menu: FrequencyMenu,
}

/// A reference-profiled suite for one bus count; reusable across variant
/// sweeps (profiling is share- and menu-independent).
///
/// Besides the measurement memo, a suite tabulates the power-independent
/// inputs of the §3.3 selection, each on first use and shared by every
/// request on the suite:
///
/// * **supply rows** ([`supply_rows`](Self::supply_rows)): a domain's
///   δ/σ at every supply of its grid and at the descent's two start
///   supplies, one row per (grid, cycle time);
/// * **§3.2 estimates** ([`estimate_memoised`](Self::estimate_memoised)):
///   one usage per (benchmark, domain cycle times, frequency menu).
///
/// Both are exact: a row holds the same `vliw_power::scaling` calls and
/// an estimate the same [`estimate_usage`] call that the selection would
/// make, only made once. Recalibrating the power model (Figures 8 and 9)
/// reuses both, since neither reads it.
#[derive(Debug)]
pub struct ProfiledSuite {
    /// The machine shape (4 clusters, `buses` buses).
    pub design: MachineDesign,
    /// Per-benchmark reference profiles.
    pub profiles: Vec<BenchmarkProfile>,
    /// The benchmarks themselves (needed to re-schedule loops).
    pub benches: Vec<Benchmark>,
    /// Measured-configuration memoisation shared by every experiment run
    /// on this suite (the key embeds the power model and frequency
    /// menu, so cross-variant reuse is sound).
    cache: MeasureCache,
    /// The persistent store behind the memo cache, when attached
    /// ([`profile_suite`] with a store). Checked only on memo misses.
    store: Option<Arc<MeasureStore>>,
    /// Per-benchmark structural content hashes (the first half of every
    /// store key), computed once at profiling time.
    content: Vec<u64>,
    /// Configurations this suite actually re-scheduled: memo misses the
    /// store could not answer either.
    measured: AtomicU64,
    /// Supply rows, one per (grid, cycle time).
    supply_table: MemoCache<(SupplyGrid, Time), Arc<SupplyRow>>,
    /// §3.2 usage estimates (`None` where a loop cannot synchronise).
    estimates: MemoCache<EstimateKey, Option<UsageProfile>>,
    /// The racing screening suite, built on first use
    /// ([`screen_subset`](Self::screen_subset)).
    screen: OnceLock<Box<ProfiledSuite>>,
}

impl ProfiledSuite {
    /// The measurement memoisation cache (for hit/miss statistics).
    #[must_use]
    pub fn cache(&self) -> &MeasureCache {
        &self.cache
    }

    /// The attached persistent store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<MeasureStore>> {
        self.store.as_ref()
    }

    /// Configurations measured by re-scheduling every loop — the memo
    /// lookups that neither the cache nor the store answered. Each one is
    /// counted after the memo miss that led to it, so a read of
    /// `cache().misses()` made after this one is never smaller.
    #[must_use]
    pub fn measured(&self) -> u64 {
        self.measured.load(Ordering::Acquire)
    }

    /// Measures benchmark `index` on `config` under `menu`, memoised in
    /// this suite's cache and — on memo misses — in the attached
    /// persistent store, both under the same [`StoreKey`]. The expensive
    /// path (re-scheduling every loop) only runs when both layers miss;
    /// the freshly measured profile is then persisted.
    ///
    /// A frequency-homogeneous `config` is answered by
    /// [`UsageProfile::homogeneous`] before the memo is consulted (§5.1:
    /// its schedules are the reference schedules), so it counts as
    /// neither a hit nor a miss and reads nothing from the store.
    ///
    /// Results are identical with and without a store: stored records
    /// round-trip bit-exactly and measurements are deterministic.
    ///
    /// # Errors
    ///
    /// Propagates heterogeneous scheduling failures (memoised, but never
    /// persisted — errors are cheap to reproduce and builds may fix
    /// them).
    pub fn measure_memoised(
        &self,
        index: usize,
        config: &ClockedConfig,
        power: &PowerModel,
        menu: &FrequencyMenu,
        exec: &Executor,
    ) -> Result<UsageProfile, SchedError> {
        if let Some(usage) = UsageProfile::homogeneous(&self.profiles[index].reference, config) {
            return Ok(usage);
        }
        let key = StoreKey {
            content: self.content[index],
            config: config_fingerprint(config, Some(power), menu),
        };
        self.cache.get_or_compute(key, || {
            if let Some(rec) = self.store.as_ref().and_then(|s| s.get_measure(key)) {
                return Ok(record_to_usage(&rec));
            }
            // Release pairs with the Acquire in `measured`: the memo
            // miss counted before this closure ran is published with it.
            self.measured.fetch_add(1, Ordering::Release);
            let usage = measure_usage(
                &self.benches[index],
                &self.profiles[index],
                config,
                power,
                menu,
                self.design,
                exec,
            )?;
            if let Some(store) = &self.store {
                if let Err(e) = store.put_measure(key, usage_to_record(&usage)) {
                    eprintln!("[store] warning: failed to persist measurement: {e}");
                }
            }
            Ok(usage)
        })
    }

    /// The supply rows of every domain of `base`'s cycle times, each
    /// tabulated on first use and shared by every later descent on this
    /// suite, whatever its power model. Each row added counts in
    /// `explore_supply_rows_total`.
    #[must_use]
    pub fn supply_rows(&self, base: &ClockedConfig) -> SupplyRows {
        SupplyRows::collect(base, |grid, cycle| {
            let (row, added) = self
                .supply_table
                .get_or_insert((grid, cycle), || grid.tabulate(cycle));
            if added {
                vliw_obs::counter("explore_supply_rows_total").inc();
            }
            row
        })
    }

    /// The usage of benchmark `index` on `config` under `menu`: the §5.1
    /// usage when `config` is frequency-homogeneous, otherwise the §3.2
    /// [`estimate_usage`], memoised in this suite on first use. As in
    /// [`measure_memoised`](Self::measure_memoised), the homogeneous
    /// shortcut comes first and never reaches the memo. Each estimate
    /// added counts in `explore_estimates_total`.
    ///
    /// Returns `None` when some loop cannot synchronise within the
    /// estimator's horizon.
    #[must_use]
    pub fn estimate_memoised(
        &self,
        index: usize,
        config: &ClockedConfig,
        menu: &FrequencyMenu,
    ) -> Option<UsageProfile> {
        let profile = &self.profiles[index];
        if let Some(usage) = UsageProfile::homogeneous(&profile.reference, config) {
            return Some(usage);
        }
        let key = EstimateKey {
            bench: index,
            cycles: config
                .domains()
                .into_iter()
                .map(|d| config.domain_cycle(d))
                .collect(),
            menu: menu.clone(),
        };
        let (usage, added) = self
            .estimates
            .get_or_insert(key, || estimate_usage(profile, config, menu));
        if added {
            vliw_obs::counter("explore_estimates_total").inc();
        }
        usage
    }

    /// Entries in this suite's supply table and estimate memo.
    #[must_use]
    pub fn table_entries(&self) -> (usize, usize) {
        (self.supply_table.len(), self.estimates.len())
    }

    /// The grouped voltage descent (§3.3, §5.1) of `usages` on `base`'s
    /// cycle times over its [`speed_groups`], priced from this suite's
    /// supply rows.
    pub(crate) fn descend_voltages(
        &self,
        base: &ClockedConfig,
        power: &PowerModel,
        usages: &[UsageProfile],
    ) -> Option<VoltageDescent> {
        let rows = self.supply_rows(base);
        optimise_voltages_grouped(base, &speed_groups(base), power, usages, &rows)
    }

    /// Per-benchmark structural content hashes, in suite order (the first
    /// half of every store key).
    pub(crate) fn content(&self) -> &[u64] {
        &self.content
    }

    /// The cheap *screening* copy of this suite for racing, built on
    /// first use and kept for the suite's life, so a racing search
    /// repeated on this suite measures no screen twice: every benchmark
    /// keeps only its first `max(1, n / SCREEN_LOOPS_DIVISOR)` loops, with
    /// the kept loops' weights renormalised to sum to 1.
    ///
    /// Renormalising keeps the truncated suite on the same scale as the
    /// full one: invocation counts still reconstruct the nominal 1 ms per
    /// benchmark, so the recomputed per-benchmark
    /// [`vliw_power::ReferenceProfile`]s —
    /// and the power model calibrated on them — stay commensurable with
    /// the full-suite pipeline, and homogeneous candidates (measured off
    /// the reference profile, not by re-scheduling) rank consistently
    /// against heterogeneous ones.
    ///
    /// The screening suite shares the attached persistent store but owns
    /// its memo cache, its selection tables and *distinct* content
    /// hashes (truncated benchmarks hash differently), so screening
    /// measurements never pollute full-fidelity records.
    #[must_use]
    pub fn screen_subset(&self) -> &ProfiledSuite {
        self.screen.get_or_init(|| Box::new(self.screening_copy()))
    }

    /// Builds [`screen_subset`](Self::screen_subset)'s suite.
    fn screening_copy(&self) -> ProfiledSuite {
        let mut benches = Vec::with_capacity(self.benches.len());
        let mut profiles = Vec::with_capacity(self.profiles.len());
        for (bench, profile) in self.benches.iter().zip(&self.profiles) {
            let keep = (bench.loops.len() / SCREEN_LOOPS_DIVISOR).max(1);
            let kept_weight: f64 = bench.loops[..keep].iter().map(vliw_ir::Loop::weight).sum();
            benches.push(Benchmark {
                name: bench.name.clone(),
                loops: bench.loops[..keep]
                    .iter()
                    .map(|l| {
                        vliw_ir::Loop::new(
                            l.ddg().clone(),
                            l.trip_count(),
                            l.weight() / kept_weight,
                        )
                    })
                    .collect(),
            });
            let mut loops: Vec<_> = profile.loops[..keep].to_vec();
            for lp in &mut loops {
                lp.weight /= kept_weight;
                lp.invocations /= kept_weight;
            }
            profiles.push(BenchmarkProfile {
                name: profile.name.clone(),
                reference: reference_aggregate(&loops),
                loops,
            });
        }
        let content = benches.iter().map(benchmark_content_hash).collect();
        ProfiledSuite {
            design: self.design,
            profiles,
            benches,
            cache: MeasureCache::new(),
            store: self.store.clone(),
            content,
            measured: AtomicU64::new(0),
            supply_table: MemoCache::new(),
            estimates: MemoCache::new(),
            screen: OnceLock::new(),
        }
    }
}

/// Loop-count divisor for [`ProfiledSuite::screen_subset`]: screening
/// suites keep the first `max(1, n / SCREEN_LOOPS_DIVISOR)` loops of each
/// benchmark.
pub const SCREEN_LOOPS_DIVISOR: usize = 8;

/// Profiles `suite` on the paper's machine with `buses` buses, fanning
/// per-benchmark profiling out across `exec`'s worker pool (profiles come
/// back in suite order). Each worker thread owns one [`SchedWorkspace`]
/// reused across every benchmark it profiles.
///
/// With a persistent `store`, reference profiles already on disk are
/// loaded instead of re-scheduled, fresh ones are persisted, and the
/// resulting suite keeps the store attached so
/// [`ProfiledSuite::measure_memoised`] checks it on every memo miss.
/// Profile records are keyed by (benchmark content hash, fingerprint of
/// the reference configuration under the unrestricted menu); the power
/// model is not part of the profile key because profiling precedes
/// calibration and does not depend on it.
///
/// # Errors
///
/// Propagates scheduling failures from the reference runs (the
/// lowest-indexed failing benchmark, whatever the worker count). Store
/// *write* failures are downgraded to warnings — persistence is an
/// optimisation, never a correctness requirement.
pub fn profile_suite(
    suite: &[Benchmark],
    buses: u32,
    exec: &Executor,
    store: Option<Arc<MeasureStore>>,
) -> Result<ProfiledSuite, SchedError> {
    let design = MachineDesign::paper_machine(buses);
    let content: Vec<u64> = suite.iter().map(benchmark_content_hash).collect();
    let profile_keys: Option<Vec<StoreKey>> = store.as_ref().map(|_| {
        let reference = ClockedConfig::reference(design);
        let config = config_fingerprint(&reference, None, &FrequencyMenu::unrestricted());
        content
            .iter()
            .map(|&c| StoreKey { content: c, config })
            .collect()
    });

    // Resolve from disk first, then schedule only the missing ones (in
    // parallel, preserving suite order and the serial error order).
    let mut profiles: Vec<Option<BenchmarkProfile>> = match (&store, &profile_keys) {
        (Some(store), Some(keys)) => keys
            .iter()
            .map(|&k| store.get_profile(k).map(|r| record_to_profile(&r)))
            .collect(),
        _ => vec![None; suite.len()],
    };
    let missing: Vec<usize> = (0..suite.len())
        .filter(|&i| profiles[i].is_none())
        .collect();
    let jobs: Vec<&Benchmark> = missing.iter().map(|&i| &suite[i]).collect();
    let fresh = exec.try_map_init(&jobs, SchedWorkspace::new, |ws, _, bench| {
        profile_benchmark(bench, design, ws)
    })?;
    for (&i, profile) in missing.iter().zip(fresh) {
        if let (Some(store), Some(keys)) = (&store, &profile_keys) {
            if let Err(e) = store.put_profile(keys[i], profile_to_record(&profile)) {
                eprintln!("[store] warning: failed to persist profile: {e}");
            }
        }
        profiles[i] = Some(profile);
    }
    Ok(ProfiledSuite {
        design,
        profiles: profiles
            .into_iter()
            .map(|p| p.expect("all filled"))
            .collect(),
        benches: suite.to_vec(),
        cache: MeasureCache::new(),
        store,
        content,
        measured: AtomicU64::new(0),
        supply_table: MemoCache::new(),
        estimates: MemoCache::new(),
        screen: OnceLock::new(),
    })
}

/// One Figure 6 bar: a benchmark's heterogeneous ED², measured and
/// normalised to the optimum homogeneous baseline.
#[derive(Debug, Clone, Serialize)]
pub struct BenchmarkResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Buses on the machine.
    pub buses: u32,
    /// `ED²(hetero) / ED²(homogeneous optimum)` — the paper's y-axis.
    pub ed2_normalized: f64,
    /// Measured heterogeneous ED² (absolute, reference units × s²).
    pub ed2_hetero: f64,
    /// Optimum homogeneous ED².
    pub ed2_homog_opt: f64,
    /// Measured heterogeneous execution time (ns).
    pub exec_time_het_ns: f64,
    /// Optimum homogeneous execution time (ns).
    pub exec_time_hom_ns: f64,
    /// Measured heterogeneous energy (reference units).
    pub energy_het: f64,
    /// Optimum homogeneous energy.
    pub energy_hom: f64,
    /// Chosen fast-cluster cycle time (ns).
    pub fast_cycle_ns: f64,
    /// Chosen slow-cluster cycle time (ns).
    pub slow_cycle_ns: f64,
}

/// Runs the measurement pipeline for benchmark `index` of `profiled`
/// against a suite-level baseline: the §3.3 candidate sweep (over the
/// suite's selection tables) and the per-loop measurement fan out across
/// `exec`'s worker pool, and the measured usage is memoised through the
/// suite ([`ProfiledSuite::measure_memoised`]).
///
/// The result is identical for every worker count and with or without a
/// store: candidates are reduced in grid order and per-loop
/// contributions are folded in loop order.
///
/// # Errors
///
/// Propagates heterogeneous scheduling failures.
pub fn run_benchmark(
    profiled: &ProfiledSuite,
    index: usize,
    hom: &HomogChoice,
    power: &PowerModel,
    opts: &ExperimentOptions,
    exec: &Executor,
) -> Result<BenchmarkResult, SchedError> {
    let design = profiled.design;
    let het = select_heterogeneous(profiled, index, power, &opts.menu, exec)
        .expect("the selection space contains feasible points");

    // §5.1 answers a homogeneous selection exactly; any other is measured
    // by scheduling every loop, and priced at the selection's scalings.
    let usage = profiled.measure_memoised(index, &het.config, power, &opts.menu, exec)?;
    let energy_het = power.price(&het.scaling, &usage);
    let ed2_hetero = ed2(energy_het, usage.exec_time.as_secs());

    Ok(BenchmarkResult {
        benchmark: profiled.benches[index].name.clone(),
        buses: design.buses,
        ed2_normalized: ed2_hetero / hom.ed2,
        ed2_hetero,
        ed2_homog_opt: hom.ed2,
        exec_time_het_ns: usage.exec_time.as_ns(),
        exec_time_hom_ns: hom.exec_time.as_ns(),
        energy_het,
        energy_hom: hom.energy,
        fast_cycle_ns: het.config.fastest_cluster_cycle().as_ns(),
        slow_cycle_ns: het.config.slowest_cluster_cycle().as_ns(),
    })
}

/// Schedules every loop of `bench` on `config` and aggregates the
/// invocation-weighted usage profile. Per-loop scheduling fans out across
/// `exec` with one [`SchedWorkspace`] per worker thread; contributions are
/// folded in loop order, so the result is bit-identical for every worker
/// count.
fn measure_usage(
    bench: &Benchmark,
    profile: &BenchmarkProfile,
    config: &ClockedConfig,
    power: &PowerModel,
    menu: &FrequencyMenu,
    design: MachineDesign,
    exec: &Executor,
) -> Result<UsageProfile, SchedError> {
    let per_loop = exec.try_map_init(&bench.loops, SchedWorkspace::new, |ws, _, l| {
        let opts = ScheduleOptions {
            menu: menu.clone(),
            trip_count: l.trip_count(),
        };
        let s = schedule_loop_ws(l.ddg(), config, Some(power), &opts, ws)?;
        Ok(s.usage(l.trip_count()))
    })?;
    let mut total_ns = 0.0f64;
    let mut weighted = vec![0.0f64; usize::from(design.num_clusters)];
    let mut comms = 0.0f64;
    let mut mems = 0.0f64;
    for (usage, lp) in per_loop.iter().zip(&profile.loops) {
        total_ns += lp.invocations * usage.exec_time.as_ns();
        for (w, u) in weighted.iter_mut().zip(&usage.weighted_ins_per_cluster) {
            *w += lp.invocations * u;
        }
        comms += lp.invocations * usage.comms as f64;
        mems += lp.invocations * usage.mem_accesses as f64;
    }
    Ok(UsageProfile {
        weighted_ins_per_cluster: weighted,
        comms: comms.round() as u64,
        mem_accesses: mems.round() as u64,
        exec_time: Time::from_ns(total_ns),
    })
}

/// Figure 6: per-benchmark normalised ED² of the heterogeneous approach,
/// with the per-benchmark measurement pipeline fanned out across `exec`'s
/// worker pool.
///
/// Calibrates the energy model once on the whole suite's reference run and
/// normalises every benchmark against one suite-wide optimum homogeneous
/// baseline, exactly as the paper's §5 does.
///
/// Each benchmark (selection + heterogeneous re-scheduling) is one job;
/// the homogeneous baseline search fans its cycle-time grid out first.
/// Rows come back in suite order and measured configurations are memoised
/// in the suite's [`MeasureCache`], so repeated calls (Figures 7–9's
/// variant sweeps) skip re-measuring configurations they have seen; the
/// baseline and the selection read the suite's supply rows and §3.2
/// estimates ([`ProfiledSuite`]), so a repeated call under one menu
/// tabulates and estimates nothing either.
///
/// # Errors
///
/// Propagates scheduling failures (the lowest-indexed failing benchmark,
/// whatever the worker count).
pub fn figure6(
    profiled: &ProfiledSuite,
    opts: &ExperimentOptions,
    exec: &Executor,
) -> Result<Vec<BenchmarkResult>, SchedError> {
    let power = PowerModel::calibrate(
        profiled.design,
        opts.shares,
        &suite_reference(&profiled.profiles),
    );
    let baseline = optimum_homogeneous_suite(profiled, &power, exec);
    let jobs: Vec<(usize, &HomogChoice)> = baseline.per_benchmark.iter().enumerate().collect();
    // One worker per benchmark; the per-candidate/per-loop fan-out inside
    // run_benchmark stays serial to avoid oversubscribing the pool.
    exec.try_map(&jobs, |_, &(i, hom)| {
        run_benchmark(profiled, i, hom, &power, opts, &Executor::serial())
    })
}

/// Arithmetic mean of the normalised ED² column.
#[must_use]
pub fn mean_normalized(rows: &[BenchmarkResult]) -> f64 {
    if rows.is_empty() {
        return f64::NAN;
    }
    rows.iter().map(|r| r.ed2_normalized).sum::<f64>() / rows.len() as f64
}

/// One Table 2 row: where a benchmark's execution time goes.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// % time in loops with `recMII < resMII`.
    pub resource_pct: f64,
    /// % time in loops with `resMII ≤ recMII < 1.3·resMII`.
    pub borderline_pct: f64,
    /// % time in loops with `1.3·resMII ≤ recMII`.
    pub recurrence_pct: f64,
}

/// Table 2: classifies every loop of the suite and aggregates execution-
/// time weights per constraint class, one benchmark per job on `exec`'s
/// worker pool (rows come back in suite order).
#[must_use]
pub fn table2(suite: &[Benchmark], exec: &Executor) -> Vec<Table2Row> {
    let design = MachineDesign::paper_machine(1);
    exec.map(suite, |_, bench| {
        let shares = class_shares(&bench.loops, design);
        Table2Row {
            benchmark: bench.name.clone(),
            resource_pct: shares[0] * 100.0,
            borderline_pct: shares[1] * 100.0,
            recurrence_pct: shares[2] * 100.0,
        }
    })
}

/// One Figure 7 bar: mean normalised ED² for a frequency-menu size.
#[derive(Debug, Clone, Serialize)]
pub struct Figure7Row {
    /// Menu description ("any freq", "16 freqs", …).
    pub menu: String,
    /// Buses on the machine.
    pub buses: u32,
    /// Mean normalised ED² across benchmarks.
    pub mean_ed2_normalized: f64,
}

/// The menu variants of Figure 7.
#[must_use]
pub fn figure7_menus() -> Vec<(String, FrequencyMenu)> {
    vec![
        ("any freq".to_owned(), FrequencyMenu::unrestricted()),
        (
            "16 freqs".to_owned(),
            FrequencyMenu::from_kind(MenuKind::Uniform(16)),
        ),
        (
            "8 freqs".to_owned(),
            FrequencyMenu::from_kind(MenuKind::Uniform(8)),
        ),
        (
            "4 freqs".to_owned(),
            FrequencyMenu::from_kind(MenuKind::Uniform(4)),
        ),
    ]
}

/// Figure 7: sensitivity to the number of supported frequencies. The
/// menu variants run in sequence; each fans out across benchmarks on
/// `exec` and shares the suite's measurement cache.
///
/// # Errors
///
/// Propagates scheduling failures.
pub fn figure7(profiled: &ProfiledSuite, exec: &Executor) -> Result<Vec<Figure7Row>, SchedError> {
    let mut rows = Vec::new();
    for (name, menu) in figure7_menus() {
        let opts = ExperimentOptions {
            menu,
            ..ExperimentOptions::default()
        };
        let results = figure6(profiled, &opts, exec)?;
        rows.push(Figure7Row {
            menu: name,
            buses: profiled.design.buses,
            mean_ed2_normalized: mean_normalized(&results),
        });
    }
    Ok(rows)
}

/// One Figure 8 bar: mean normalised ED² for an ICN/cache energy-share
/// assumption.
#[derive(Debug, Clone, Serialize)]
pub struct Figure8Row {
    /// ICN share of total reference energy.
    pub icn_share: f64,
    /// Cache share of total reference energy.
    pub cache_share: f64,
    /// Buses on the machine.
    pub buses: u32,
    /// Mean normalised ED² across benchmarks.
    pub mean_ed2_normalized: f64,
}

/// The (ICN, cache) share variants of Figure 8.
pub const FIGURE8_SHARES: [(f64, f64); 5] = [
    (0.10, 0.25),
    (0.10, 1.0 / 3.0),
    (0.15, 0.30),
    (0.20, 0.25),
    (0.20, 0.30),
];

/// Figure 8: sensitivity to the ICN/cache energy shares of the reference
/// machine. A fresh optimum homogeneous baseline is computed per variant,
/// as in the paper; each variant's benchmark sweep fans out across
/// `exec`.
///
/// # Errors
///
/// Propagates scheduling failures.
pub fn figure8(profiled: &ProfiledSuite, exec: &Executor) -> Result<Vec<Figure8Row>, SchedError> {
    let mut rows = Vec::new();
    for (icn, cache) in FIGURE8_SHARES {
        let opts = ExperimentOptions {
            shares: EnergyShares::with_component_shares(icn, cache),
            ..ExperimentOptions::default()
        };
        let results = figure6(profiled, &opts, exec)?;
        rows.push(Figure8Row {
            icn_share: icn,
            cache_share: cache,
            buses: profiled.design.buses,
            mean_ed2_normalized: mean_normalized(&results),
        });
    }
    Ok(rows)
}

/// One Figure 9 bar: mean normalised ED² for a leakage-share assumption.
#[derive(Debug, Clone, Serialize)]
pub struct Figure9Row {
    /// Cluster leakage fraction.
    pub leak_cluster: f64,
    /// ICN leakage fraction.
    pub leak_icn: f64,
    /// Cache leakage fraction.
    pub leak_cache: f64,
    /// Buses on the machine.
    pub buses: u32,
    /// Mean normalised ED² across benchmarks.
    pub mean_ed2_normalized: f64,
}

/// The (cluster, ICN, cache) leakage variants of Figure 9.
pub const FIGURE9_LEAKS: [(f64, f64, f64); 4] = [
    (0.25, 0.05, 0.60),
    (1.0 / 3.0, 0.10, 2.0 / 3.0),
    (0.40, 0.15, 0.70),
    (0.20, 0.10, 0.75),
];

/// Figure 9: sensitivity to the leakage fractions of the reference
/// machine; each variant's benchmark sweep fans out across `exec`.
///
/// # Errors
///
/// Propagates scheduling failures.
pub fn figure9(profiled: &ProfiledSuite, exec: &Executor) -> Result<Vec<Figure9Row>, SchedError> {
    let mut rows = Vec::new();
    for (lc, li, lca) in FIGURE9_LEAKS {
        let opts = ExperimentOptions {
            shares: EnergyShares::with_leakage(lc, li, lca),
            ..ExperimentOptions::default()
        };
        let results = figure6(profiled, &opts, exec)?;
        rows.push(Figure9Row {
            leak_cluster: lc,
            leak_icn: li,
            leak_cache: lca,
            buses: profiled.design.buses,
            mean_ed2_normalized: mean_normalized(&results),
        });
    }
    Ok(rows)
}

/// One `familysweep` row: a generator family's measured, normalised ED²
/// under one figure-6/7 configuration (bus count × frequency menu).
#[derive(Debug, Clone, Serialize)]
pub struct FamilyRow {
    /// Generator family name (`membound`, `ilpwide`, `multirec`, `stress`).
    pub family: String,
    /// Frequency-menu description ("any freq", "16 freqs", …).
    pub menu: String,
    /// Buses on the machine.
    pub buses: u32,
    /// `ED²(hetero) / ED²(homogeneous optimum)` for this family.
    pub ed2_normalized: f64,
    /// Measured heterogeneous execution time (ns).
    pub exec_time_het_ns: f64,
    /// Measured heterogeneous energy (reference units).
    pub energy_het: f64,
    /// Chosen fast-cluster cycle time (ns).
    pub fast_cycle_ns: f64,
    /// Chosen slow-cluster cycle time (ns).
    pub slow_cycle_ns: f64,
}

/// Sweeps the paper's figure-6/7 configurations over a profiled *family*
/// suite (see `vliw_workloads::family_suite`): for every Figure 7
/// frequency menu, the full Figure 6 measurement pipeline (calibrate →
/// homogeneous baseline → select → re-schedule → measure) runs across the
/// family benchmarks, one row per `(family, menu)`.
///
/// `profiled` is a family suite profiled with [`profile_suite`]; the
/// caller sweeps bus counts by profiling one suite per bus count, exactly
/// as the `paper` binary does for Figures 6–9. Rows come back in
/// menu-major, family-minor order and are identical for every worker
/// count.
///
/// # Errors
///
/// Propagates scheduling failures.
pub fn familysweep(
    profiled: &ProfiledSuite,
    exec: &Executor,
) -> Result<Vec<FamilyRow>, SchedError> {
    let mut rows = Vec::new();
    for (menu_name, menu) in figure7_menus() {
        let opts = ExperimentOptions {
            menu,
            ..ExperimentOptions::default()
        };
        let results = figure6(profiled, &opts, exec)?;
        rows.extend(results.into_iter().map(|r| FamilyRow {
            family: r.benchmark,
            menu: menu_name.clone(),
            buses: r.buses,
            ed2_normalized: r.ed2_normalized,
            exec_time_het_ns: r.exec_time_het_ns,
            energy_het: r.energy_het,
            fast_cycle_ns: r.fast_cycle_ns,
            slow_cycle_ns: r.slow_cycle_ns,
        }));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_workloads::{generate, spec_fp2000};

    fn small_suite() -> Vec<Benchmark> {
        // One strongly recurrence-bound and one resource-bound benchmark.
        vec![
            generate(&spec_fp2000()[8], 6),
            generate(&spec_fp2000()[1], 6),
        ]
    }

    fn profiled(suite: &[Benchmark]) -> ProfiledSuite {
        profile_suite(suite, 1, &Executor::serial(), None).unwrap()
    }

    #[test]
    fn figure6_pipeline_runs_and_hetero_wins_on_sixtrack() {
        let profiled = profiled(&small_suite());
        let rows = figure6(
            &profiled,
            &ExperimentOptions::default(),
            &Executor::serial(),
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        let sixtrack = &rows[0];
        assert_eq!(sixtrack.benchmark, "200.sixtrack");
        assert!(
            sixtrack.ed2_normalized < 1.0,
            "heterogeneity must win on sixtrack, got {}",
            sixtrack.ed2_normalized
        );
        for r in &rows {
            assert!(r.ed2_normalized > 0.0 && r.ed2_normalized.is_finite());
            assert!(r.ed2_hetero > 0.0 && r.ed2_homog_opt > 0.0);
        }
        let mean = mean_normalized(&rows);
        assert!(mean > 0.0 && mean < 1.2);
    }

    #[test]
    fn table2_matches_generation_targets() {
        let suite = small_suite();
        let rows = table2(&suite, &Executor::serial());
        assert!((rows[0].recurrence_pct - 99.92).abs() < 1e-6);
        assert!((rows[1].resource_pct - 100.0).abs() < 1e-6);
    }

    #[test]
    fn table2_rows_sum_to_one_hundred_percent() {
        let rows = table2(&vliw_workloads::suite(6), &Executor::serial());
        assert_eq!(rows.len(), 10);
        let sum: f64 = rows
            .iter()
            .map(|r| r.resource_pct + r.borderline_pct + r.recurrence_pct)
            .sum();
        assert!((sum - 1000.0).abs() < 1e-6, "each row sums to 100%");
    }

    #[test]
    fn serde_rows_serialize() {
        let suite = small_suite();
        let rows = table2(&suite, &Executor::serial());
        let json = serde_json::to_string(&rows).unwrap();
        assert!(json.contains("200.sixtrack"));
    }

    /// The acceptance property of the parallel engine: fanning the whole
    /// pipeline (profiling, baseline search, selection, measurement)
    /// across a worker pool produces **byte-identical JSON** to the serial
    /// path.
    #[test]
    fn parallel_pipeline_is_byte_identical_to_serial() {
        let suite = small_suite();
        let opts = ExperimentOptions::default();

        let serial_profiled = profiled(&suite);
        let serial7 = figure7(&serial_profiled, &Executor::serial()).unwrap();
        let serial6 = figure6(&serial_profiled, &opts, &Executor::serial()).unwrap();

        let pool = Executor::new(4);
        let par_profiled = profile_suite(&suite, 1, &pool, None).unwrap();
        let par7 = figure7(&par_profiled, &pool).unwrap();
        let par6 = figure6(&par_profiled, &opts, &pool).unwrap();

        assert_eq!(
            serde_json::to_string(&serial7).unwrap(),
            serde_json::to_string(&par7).unwrap(),
            "figure7 must not depend on the worker count"
        );
        assert_eq!(
            serde_json::to_string(&serial6).unwrap(),
            serde_json::to_string(&par6).unwrap(),
            "figure6 must not depend on the worker count"
        );
    }

    /// The acceptance criterion of the corpus/family subsystem: the
    /// sensitivity sweep emits rows for **all four** generator families,
    /// under every Figure 7 menu, with finite positive ED².
    #[test]
    fn familysweep_emits_rows_for_all_four_families() {
        let profiled = profiled(&vliw_workloads::family_suite(3));
        let rows = familysweep(&profiled, &Executor::serial()).unwrap();
        let menus = figure7_menus().len();
        assert_eq!(rows.len(), 4 * menus);
        for family in ["membound", "ilpwide", "multirec", "stress"] {
            let family_rows: Vec<_> = rows.iter().filter(|r| r.family == family).collect();
            assert_eq!(family_rows.len(), menus, "{family}");
            for r in family_rows {
                assert!(
                    r.ed2_normalized.is_finite() && r.ed2_normalized > 0.0,
                    "{family}/{}: ED² {}",
                    r.menu,
                    r.ed2_normalized
                );
            }
        }
    }

    /// A second process (simulated by a fresh suite over the same store
    /// directory) performs zero measurements and zero reference
    /// profiling runs: everything comes from disk, and the rows are
    /// byte-identical.
    #[test]
    fn warm_store_eliminates_measurements_and_preserves_bytes() {
        let dir =
            std::env::temp_dir().join(format!("vliw-explore-warm-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let suite = small_suite();
        let opts = ExperimentOptions::default();
        let serial = Executor::serial();

        let cold_store = Arc::new(MeasureStore::open(&dir).unwrap());
        let cold = profile_suite(&suite, 1, &serial, Some(cold_store)).unwrap();
        let first = figure6(&cold, &opts, &serial).unwrap();
        assert!(cold.measured() > 0, "the cold run must actually measure");
        drop(cold); // close the writer log

        let warm_store = Arc::new(MeasureStore::open(&dir).unwrap());
        let warm = profile_suite(&suite, 1, &serial, Some(warm_store.clone())).unwrap();
        assert_eq!(
            warm_store.stats().unwrap().misses,
            0,
            "profiles must come from disk on the warm run"
        );
        let second = figure6(&warm, &opts, &serial).unwrap();
        assert_eq!(warm.measured(), 0, "the warm run must not measure anything");
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
            "store hits must reproduce the rows byte for byte"
        );
        drop(warm);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Repeating a sweep on the same profiled suite hits the measurement
    /// cache instead of re-scheduling, without changing the rows.
    #[test]
    fn measurement_cache_collapses_repeated_sweeps() {
        let opts = ExperimentOptions::default();
        let serial = Executor::serial();
        let profiled = profiled(&small_suite());

        let first = figure6(&profiled, &opts, &serial).unwrap();
        let measured_after_first = profiled.measured();
        assert_eq!(
            measured_after_first,
            profiled.cache().misses(),
            "without a store every memo miss is a measurement"
        );
        let second = figure6(&profiled, &opts, &serial).unwrap();

        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
            "cache hits must not change results"
        );
        assert_eq!(
            profiled.measured(),
            measured_after_first,
            "the second sweep must be served from the cache"
        );
        assert!(
            profiled.cache().hits() > 0,
            "repeated configurations must hit"
        );
    }
}
