//! The shared [`Engine`]: one executor plus process-lifetime caches,
//! executing [`Request`]s into [`Response`]s.
//!
//! The engine owns what the one-shot CLI used to rebuild on every
//! invocation: the [`Executor`] worker pool and the reference-profiled
//! suites (with their measurement memo caches). Each distinct
//! suite scale × seed × bus count × family selection × store is profiled
//! **at most once per process** — the suite cache's lock is held across
//! profiling, so concurrent requests for the same suite block on the
//! first profile instead of duplicating it — and every response carries
//! a [`CacheStats`] snapshot so that reuse is observable.
//!
//! Beneath the in-memory caches sits the persistent measurement store
//! (`vliw-store`): a request carrying a `store` directory — or any
//! request, when the engine was given a default store
//! ([`Engine::with_default_store`], the daemon's `--store`) — loads
//! reference profiles and candidate measurements from disk instead of
//! re-scheduling them, and persists whatever it had to compute. Stores
//! are opened once per engine and shared across requests; the
//! `store_stats` / `store_compact` admin requests inspect and compact
//! them.
//!
//! Rendering is ported line-for-line from the historical `paper` CLI:
//! [`Response::text`] is byte-identical to the CLI's stdout and
//! [`Response::body`] / [`Response::meta`] to its JSON artefacts, for
//! every request kind. The two deliberate exceptions to caching:
//!
//! * `searchbench` profiles a **fresh** suite outside the cache — it
//!   measures cold-cache candidate-evaluation throughput, and a warm
//!   memo cache would inflate the metric;
//! * `schedbench` does not profile a suite at all (it times the
//!   scheduler directly); with the `profile` knob it additionally turns
//!   on the workspace's per-phase timers and re-validates every
//!   schedule through `vliw-sim`, reporting the phase breakdown in the
//!   JSON record.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use std::collections::HashMap;
use std::fmt::Write as _;

use vliw_exec::Executor;
use vliw_explore::experiments::{self, ExperimentOptions, ProfiledSuite};
use vliw_explore::{run_search_scaled, run_search_shard, SpaceKind};
use vliw_ir::OpClass;
use vliw_machine::{ClockedConfig, MachineDesign, Time};
use vliw_sched::{schedule_loop_ws, Phase, SchedWorkspace, ScheduleOptions};
use vliw_sim::validate;
use vliw_store::{MeasureStore, StoreConfig};
use vliw_workloads::{classify, family_suite_seeded, suite_seeded, Benchmark, Corpus, LoopClass};

use crate::artifacts::format_bar;
use crate::request::{Request, RunParams, SearchParams};
use crate::response::{CacheStats, Response};

/// `(body, meta)` artefacts of a successful run; the human-readable text
/// accumulates in the caller's buffer (so failures keep partial output).
type Artifacts = (Option<String>, Option<String>);

/// Identity of a cached reference-profiled suite.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SuiteKey {
    /// `false` for the SPEC-calibrated suite, `true` for the generator
    /// families (`familysweep`).
    family: bool,
    loops: usize,
    seed: u64,
    buses: u32,
    /// The persistent store the suite is wired to, if any: a suite
    /// profiled without a store must not shadow one that checks disk.
    store: Option<PathBuf>,
}

/// The shared request executor: worker pool plus suite/measurement
/// caches with process lifetime.
#[derive(Debug)]
pub struct Engine {
    exec: Executor,
    suites: Mutex<HashMap<SuiteKey, Arc<ProfiledSuite>>>,
    /// Every persistent store this engine has opened, by directory. A
    /// store is opened at most once per engine so all requests share
    /// one writer log and one set of counters.
    stores: Mutex<HashMap<PathBuf, Arc<MeasureStore>>>,
    /// Store applied to requests that do not carry one (the daemon's
    /// `--store`); disabled by default.
    default_store: StoreConfig,
}

impl Engine {
    /// An engine fanning out over `jobs` worker threads (`0` = the
    /// machine's available parallelism). Results are byte-identical for
    /// every job count.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Engine {
            exec: Executor::new(jobs),
            suites: Mutex::new(HashMap::new()),
            stores: Mutex::new(HashMap::new()),
            default_store: StoreConfig::none(),
        }
    }

    /// Gives the engine a default persistent store: requests that carry
    /// no `store` of their own run against it (the daemon's `--store`).
    #[must_use]
    pub fn with_default_store(mut self, store: StoreConfig) -> Self {
        self.default_store = store;
        self
    }

    /// The store applied to requests that do not carry one.
    #[must_use]
    pub fn default_store(&self) -> &StoreConfig {
        &self.default_store
    }

    /// The executor requests fan out across.
    #[must_use]
    pub fn executor(&self) -> Executor {
        self.exec
    }

    /// Resolves and opens the store a request runs against: the
    /// request's own when enabled, else the engine default, else none.
    /// Each directory is opened once and shared across requests.
    fn store_for(&self, cfg: &StoreConfig) -> Result<Option<Arc<MeasureStore>>, String> {
        let effective = if cfg.is_enabled() {
            cfg
        } else {
            &self.default_store
        };
        let Some(dir) = effective.dir.clone() else {
            return Ok(None);
        };
        let mut stores = self.stores.lock().expect("engine store registry poisoned");
        if let Some(s) = stores.get(&dir) {
            return Ok(Some(Arc::clone(s)));
        }
        let store = Arc::new(MeasureStore::open(&dir).map_err(|e| e.to_string())?);
        stores.insert(dir, Arc::clone(&store));
        Ok(Some(store))
    }

    /// Like [`store_for`](Self::store_for), but an admin request with no
    /// store to operate on is an error instead of a silent no-op.
    fn admin_store(&self, cfg: &StoreConfig) -> Result<Arc<MeasureStore>, String> {
        self.store_for(cfg)?.ok_or_else(|| {
            "no store configured: give \"store\" in the request or start the daemon with --store"
                .to_owned()
        })
    }

    /// A snapshot of the engine's caches (profiled suites plus the
    /// measurement memo caches they carry).
    ///
    /// # Panics
    ///
    /// Panics if the suite cache lock was poisoned by a panicking
    /// request.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let suites = self.suites.lock().expect("engine suite cache poisoned");
        let mut stats = CacheStats {
            profiled_suites: suites.len(),
            ..CacheStats::default()
        };
        for s in suites.values() {
            // Read before the lookup counters: every measurement was a
            // memo miss first (see `ProfiledSuite::measured`), so the
            // difference below cannot underflow.
            let measured = s.measured();
            stats.measure_entries += s.cache().len();
            stats.measure_hits += s.cache().hits() + s.cache().misses() - measured;
            stats.measure_misses += measured;
        }
        let stores = self.stores.lock().expect("engine store registry poisoned");
        for store in stores.values() {
            if let Ok(s) = store.stats() {
                stats.store_hits += s.hits;
                stats.store_misses += s.misses;
                stats.store_entries += s.entries() as u64;
                stats.store_bytes += s.bytes;
                stats.store_skipped_lines += s.skipped_lines;
            }
        }
        stats
    }

    /// Runs one request to completion. Failures become error responses
    /// (with any partially rendered text preserved), never a panic or a
    /// process exit.
    #[must_use]
    pub fn run(&self, req: &Request) -> Response {
        let kind = req.kind();
        vliw_obs::counter_with("engine_requests_total", "kind", kind).inc();
        let _span = vliw_obs::span_kv("engine.run", "kind", kind);
        let start = vliw_obs::timer_start();
        let mut text = String::new();
        let result = self.run_inner(req, &mut text);
        if let Some(s) = start {
            vliw_obs::histogram_with("engine_request_nanos", "kind", kind)
                .record(vliw_obs::elapsed_nanos(s));
        }
        match result {
            Ok((body, meta)) => Response::success(req, text, body, meta, self.cache_stats()),
            Err(e) => {
                vliw_obs::counter_with("engine_request_errors_total", "kind", kind).inc();
                Response::failure(req, text, e, self.cache_stats())
            }
        }
    }

    /// Runs a batch of requests through the shared caches, fanning out
    /// across the engine's worker pool. Responses come back in request
    /// order regardless of completion order.
    #[must_use]
    pub fn run_batch(&self, reqs: &[Request]) -> Vec<Response> {
        vliw_obs::histogram("engine_batch_size").record(reqs.len() as u64);
        if reqs.len() <= 1 {
            return reqs.iter().map(|r| self.run(r)).collect();
        }
        self.exec.map(reqs, |_, req| self.run(req))
    }

    /// The reference-profiled suite for one configuration, profiling it
    /// on first use and caching it for the life of the process. The lock
    /// is held across profiling so each configuration is profiled at
    /// most once even under concurrent requests.
    fn profiled(
        &self,
        family: bool,
        p: &RunParams,
        buses: u32,
    ) -> Result<Arc<ProfiledSuite>, String> {
        let store = self.store_for(&p.store)?;
        let key = SuiteKey {
            family,
            loops: p.loops,
            seed: p.seed,
            buses,
            store: store.as_ref().map(|s| s.dir().to_path_buf()),
        };
        let mut suites = self.suites.lock().expect("engine suite cache poisoned");
        if let Some(s) = suites.get(&key) {
            vliw_obs::counter("engine_suite_cache_hits_total").inc();
            return Ok(Arc::clone(s));
        }
        vliw_obs::counter("engine_suite_cache_misses_total").inc();
        let suite = if family {
            family_suite_seeded(p.loops, p.seed)
        } else {
            suite_seeded(p.loops, p.seed)
        };
        let sched = ExperimentOptions::default().sched;
        let profiled = experiments::profile_suite(&suite, buses, &sched, &self.exec, store)
            .map_err(|e| e.to_string())?;
        let arc = Arc::new(profiled);
        suites.insert(key, Arc::clone(&arc));
        Ok(arc)
    }

    fn run_inner(&self, req: &Request, text: &mut String) -> Result<Artifacts, String> {
        match req {
            Request::Ping => {
                let _ = writeln!(text, "pong");
                Ok((None, None))
            }
            Request::Shutdown => {
                let _ = writeln!(text, "daemon shutting down");
                Ok((None, None))
            }
            Request::Table1 => Self::table1(text),
            Request::Table2(p) => self.table2(p, text),
            Request::Figure6(p) => self.figure6(p, text),
            Request::Figure7(p) => self.figure7(p, text),
            Request::Figure8(p) => self.figure8(p, text),
            Request::Figure9(p) => self.figure9(p, text),
            Request::SchedBench(p) => self.schedbench(p, text),
            Request::FamilySweep(p) => self.familysweep(p, text),
            Request::Search { params, search } => self.search(params, *search, text),
            Request::SearchBench(p) => self.searchbench(p, text),
            Request::CorpusSchedule { params, input } => {
                self.corpus_schedule(params, input.as_deref(), text)
            }
            Request::CorpusStats { params, input } => {
                self.corpus_stats(params, input.as_deref(), text)
            }
            Request::StoreStats { store } => self.store_stats(store, text),
            Request::StoreCompact { store } => self.store_compact(store, text),
            Request::Metrics => self.metrics(text),
        }
    }

    /// Folds the engine's cache snapshot into gauges, then renders the
    /// process-wide registry as Prometheus-style text exposition. The
    /// response text *is* the exposition (no banner), so a scraper can
    /// consume it untouched.
    fn metrics(&self, text: &mut String) -> Result<Artifacts, String> {
        let stats = self.cache_stats();
        let clamped = |n: u64| i64::try_from(n).unwrap_or(i64::MAX);
        let counted = |n: usize| i64::try_from(n).unwrap_or(i64::MAX);
        vliw_obs::gauge("engine_profiled_suites").set(counted(stats.profiled_suites));
        vliw_obs::gauge("engine_measure_cache_entries").set(counted(stats.measure_entries));
        vliw_obs::gauge("engine_measure_cache_hits").set(clamped(stats.measure_hits));
        vliw_obs::gauge("engine_measure_cache_misses").set(clamped(stats.measure_misses));
        vliw_obs::gauge("engine_store_entries").set(clamped(stats.store_entries));
        vliw_obs::gauge("engine_store_hits").set(clamped(stats.store_hits));
        vliw_obs::gauge("engine_store_misses").set(clamped(stats.store_misses));
        vliw_obs::gauge("engine_store_bytes").set(clamped(stats.store_bytes));
        text.push_str(&vliw_obs::render());
        Ok((None, None))
    }

    fn store_stats(&self, cfg: &StoreConfig, text: &mut String) -> Result<Artifacts, String> {
        let store = self.admin_store(cfg)?;
        let stats = store.stats().map_err(|e| e.to_string())?;
        let _ = writeln!(text, "\n== store stats: {} ==", store.dir().display());
        let _ = writeln!(
            text,
            "{} measurements + {} profiles + {} evals in {} log file(s), {} bytes",
            stats.measure_records,
            stats.profile_records,
            stats.eval_records,
            stats.log_files,
            stats.bytes
        );
        let _ = writeln!(
            text,
            "this process: {} hits, {} misses, {} truncated line(s) skipped",
            stats.hits, stats.misses, stats.skipped_lines
        );
        let _ = writeln!(
            text,
            "this process: {} bytes read, {} bytes written, {} lock takeover(s)",
            stats.bytes_read, stats.bytes_written, stats.lock_takeovers
        );
        let record = StoreStatsRecord {
            experiment: "store_stats".to_owned(),
            dir: store.dir().display().to_string(),
            measure_records: stats.measure_records,
            profile_records: stats.profile_records,
            eval_records: stats.eval_records,
            log_files: stats.log_files,
            bytes: stats.bytes,
            hits: stats.hits,
            misses: stats.misses,
            skipped_lines: stats.skipped_lines,
            bytes_read: stats.bytes_read,
            bytes_written: stats.bytes_written,
            lock_takeovers: stats.lock_takeovers,
        };
        Ok((Some(pretty(&record)), None))
    }

    fn store_compact(&self, cfg: &StoreConfig, text: &mut String) -> Result<Artifacts, String> {
        let store = self.admin_store(cfg)?;
        let report = store.compact().map_err(|e| e.to_string())?;
        let _ = writeln!(text, "\n== store compact: {} ==", store.dir().display());
        let _ = writeln!(
            text,
            "merged {} log(s) into compact.jsonl: {} records, {} bytes ({} live writer log(s) left alone)",
            report.merged_logs, report.records, report.bytes, report.skipped_live_logs
        );
        let record = StoreCompactRecord {
            experiment: "store_compact".to_owned(),
            dir: store.dir().display().to_string(),
            records: report.records,
            merged_logs: report.merged_logs,
            skipped_live_logs: report.skipped_live_logs,
            bytes: report.bytes,
        };
        Ok((Some(pretty(&record)), None))
    }

    fn table1(text: &mut String) -> Result<Artifacts, String> {
        let _ = writeln!(
            text,
            "\n== Table 1: latency and relative energy per instruction class =="
        );
        let _ = writeln!(text, "{:<24} {:>7} {:>7}", "class", "latency", "energy");
        let mut rows = Vec::new();
        for class in OpClass::SOURCE_CLASSES {
            let _ = writeln!(
                text,
                "{:<24} {:>7} {:>7.1}",
                class.to_string(),
                class.latency(),
                class.relative_energy()
            );
            rows.push(Table1Row {
                class: class.to_string(),
                latency: class.latency(),
                relative_energy: class.relative_energy(),
            });
        }
        Ok((Some(pretty(&rows)), None))
    }

    fn table2(&self, p: &RunParams, text: &mut String) -> Result<Artifacts, String> {
        let _ = writeln!(
            text,
            "\n== Table 2: % execution time per constraint class =="
        );
        let rows = experiments::table2(&suite_seeded(p.loops, p.seed), &self.exec);
        let _ = writeln!(
            text,
            "{:<14} {:>14} {:>26} {:>18}",
            "benchmark", "recMII<resMII", "resMII<=recMII<1.3resMII", "1.3resMII<=recMII"
        );
        for r in &rows {
            let _ = writeln!(
                text,
                "{:<14} {:>13.2}% {:>25.2}% {:>17.2}%",
                r.benchmark, r.resource_pct, r.borderline_pct, r.recurrence_pct
            );
        }
        Ok((Some(pretty(&rows)), Some(run_meta("table2", p))))
    }

    fn figure6(&self, p: &RunParams, text: &mut String) -> Result<Artifacts, String> {
        let _ = writeln!(
            text,
            "\n== Figure 6: ED2 of heterogeneous, normalised to optimum homogeneous =="
        );
        let opts = ExperimentOptions::default();
        let mut all = Vec::new();
        for &buses in p.buses.list() {
            let _ = writeln!(text, "-- {buses} bus(es) --");
            let profiled = self.profiled(false, p, buses)?;
            let rows =
                experiments::figure6(&profiled, &opts, &self.exec).map_err(|e| e.to_string())?;
            for r in &rows {
                let _ = writeln!(text, "{}", format_bar(&r.benchmark, r.ed2_normalized));
            }
            let _ = writeln!(
                text,
                "{}",
                format_bar("mean", experiments::mean_normalized(&rows))
            );
            all.extend(rows);
        }
        Ok((Some(pretty(&all)), Some(run_meta("figure6", p))))
    }

    fn figure7(&self, p: &RunParams, text: &mut String) -> Result<Artifacts, String> {
        let _ = writeln!(
            text,
            "\n== Figure 7: ED2 vs number of supported frequencies =="
        );
        let opts = ExperimentOptions::default();
        let mut all = Vec::new();
        for &buses in p.buses.list() {
            let _ = writeln!(text, "-- {buses} bus(es) --");
            let profiled = self.profiled(false, p, buses)?;
            let rows =
                experiments::figure7(&profiled, &opts, &self.exec).map_err(|e| e.to_string())?;
            for r in &rows {
                let _ = writeln!(text, "{}", format_bar(&r.menu, r.mean_ed2_normalized));
            }
            all.extend(rows);
        }
        Ok((Some(pretty(&all)), Some(run_meta("figure7", p))))
    }

    fn figure8(&self, p: &RunParams, text: &mut String) -> Result<Artifacts, String> {
        let _ = writeln!(text, "\n== Figure 8: ED2 vs ICN/cache energy shares ==");
        let opts = ExperimentOptions::default();
        let mut all = Vec::new();
        for &buses in p.buses.list() {
            let _ = writeln!(text, "-- {buses} bus(es) --");
            let profiled = self.profiled(false, p, buses)?;
            let rows =
                experiments::figure8(&profiled, &opts, &self.exec).map_err(|e| e.to_string())?;
            for r in &rows {
                let label = format!(
                    ".{:<2} / {:.2}",
                    (r.icn_share * 100.0) as u32,
                    r.cache_share
                );
                let _ = writeln!(text, "{}", format_bar(&label, r.mean_ed2_normalized));
            }
            all.extend(rows);
        }
        Ok((Some(pretty(&all)), Some(run_meta("figure8", p))))
    }

    fn figure9(&self, p: &RunParams, text: &mut String) -> Result<Artifacts, String> {
        let _ = writeln!(
            text,
            "\n== Figure 9: ED2 vs leakage shares (cluster/ICN/cache) =="
        );
        let opts = ExperimentOptions::default();
        let mut all = Vec::new();
        for &buses in p.buses.list() {
            let _ = writeln!(text, "-- {buses} bus(es) --");
            let profiled = self.profiled(false, p, buses)?;
            let rows =
                experiments::figure9(&profiled, &opts, &self.exec).map_err(|e| e.to_string())?;
            for r in &rows {
                let label = format!(
                    "{:.2}/{:.2}/{:.2}",
                    r.leak_cluster, r.leak_icn, r.leak_cache
                );
                let _ = writeln!(text, "{}", format_bar(&label, r.mean_ed2_normalized));
            }
            all.extend(rows);
        }
        Ok((Some(pretty(&all)), Some(run_meta("figure9", p))))
    }

    fn schedbench(&self, p: &RunParams, text: &mut String) -> Result<Artifacts, String> {
        let _ = writeln!(
            text,
            "\n== schedbench: scheduler throughput (loops/second) =="
        );
        let suite = suite_seeded(p.loops, p.seed);
        let design = MachineDesign::paper_machine(1);
        let configs = [
            ClockedConfig::reference(design),
            ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.5)),
        ];
        let base_opts = ScheduleOptions::default();
        // One workspace for the whole run, exactly as the exploration
        // pipeline holds one per worker thread.
        let mut ws = SchedWorkspace::new();
        if p.profile {
            ws.enable_profiling();
        }
        let mut scheduled = 0u64;
        let start = Instant::now();
        for bench in &suite {
            for l in &bench.loops {
                let mut opts = base_opts.clone();
                opts.trip_count = l.trip_count();
                for config in &configs {
                    let sched = schedule_loop_ws(l.ddg(), config, None, &opts, &mut ws)
                        .map_err(|e| format!("schedbench: {e}"))?;
                    scheduled += 1;
                    // The profiled variant also re-validates each
                    // schedule through `vliw-sim`, timed as the
                    // `validate` phase — the one pipeline phase the
                    // scheduler itself never runs.
                    if p.profile {
                        let t0 = Instant::now();
                        validate(l.ddg(), config, &sched)
                            .map_err(|v| format!("schedbench: validation failed: {v:?}"))?;
                        let elapsed = t0.elapsed();
                        if let Some(prof) = ws.profile_mut() {
                            prof.add(Phase::Validate, elapsed);
                        }
                    }
                }
            }
        }
        let wall = start.elapsed().as_secs_f64();
        let lps = if wall > 0.0 {
            scheduled as f64 / wall
        } else {
            f64::INFINITY
        };
        let _ = writeln!(
            text,
            "scheduled {scheduled} loops in {wall:.3} s => {lps:.1} loops/s"
        );
        let phases = ws.profile().map(|prof| {
            let mut rows = Vec::with_capacity(Phase::ALL.len());
            for ph in Phase::ALL {
                // Mirror the profile into the process-wide registry so a
                // scrape sees the phase breakdown as histograms. The
                // profile only carries per-phase totals, so each phase
                // is folded in at its mean entry cost.
                vliw_obs::histogram_with("sched_phase_nanos", "phase", ph.name())
                    .record_aggregate(prof.nanos(ph), prof.count(ph));
                let row = PhaseRow {
                    phase: ph.name().to_owned(),
                    nanos: prof.nanos(ph),
                    entries: prof.count(ph),
                    share_of_wall: if wall > 0.0 {
                        prof.seconds(ph) / wall
                    } else {
                        0.0
                    },
                };
                let _ = writeln!(
                    text,
                    "  phase {:<9} {:>9.3} ms  ({:>5.1}% of wall, {} entries)",
                    row.phase,
                    row.nanos as f64 / 1e6,
                    row.share_of_wall * 100.0,
                    row.entries
                );
                rows.push(row);
            }
            let accounted = prof.total_nanos();
            let _ = writeln!(
                text,
                "  phases account for {:.3} ms of {:.3} ms wall",
                accounted as f64 / 1e6,
                wall * 1e3
            );
            rows
        });
        let body = match phases {
            Some(phases) => pretty(&SchedBenchProfiledRecord {
                experiment: "schedbench".to_owned(),
                loops_per_benchmark: p.loops,
                loops_scheduled: scheduled,
                wall_time_s: wall,
                loops_per_second: lps,
                phases,
            }),
            None => pretty(&SchedBenchRecord {
                experiment: "schedbench".to_owned(),
                loops_per_benchmark: p.loops,
                loops_scheduled: scheduled,
                wall_time_s: wall,
                loops_per_second: lps,
            }),
        };
        Ok((Some(body), None))
    }

    fn familysweep(&self, p: &RunParams, text: &mut String) -> Result<Artifacts, String> {
        let _ = writeln!(
            text,
            "\n== familysweep: ED2 of generator families across figure-6/7 configs =="
        );
        let opts = ExperimentOptions::default();
        let mut all = Vec::new();
        for &buses in p.buses.list() {
            let _ = writeln!(text, "-- {buses} bus(es) --");
            let profiled = self.profiled(true, p, buses)?;
            let rows = experiments::familysweep(&profiled, &opts, &self.exec)
                .map_err(|e| e.to_string())?;
            for r in &rows {
                let label = format!("{}/{}", r.family, r.menu);
                let _ = writeln!(text, "{}", format_bar(&label, r.ed2_normalized));
            }
            all.extend(rows);
        }
        Ok((Some(pretty(&all)), Some(run_meta("familysweep", p))))
    }

    fn search(
        &self,
        p: &RunParams,
        sp: SearchParams,
        text: &mut String,
    ) -> Result<Artifacts, String> {
        let _ = writeln!(
            text,
            "\n== search: {} over the {} space ==",
            sp.strategy,
            sp.space.name()
        );
        let buses: Vec<u32> = match sp.space {
            SpaceKind::Paper => vec![p.buses.list()[0]],
            SpaceKind::Extended => p.buses.list().to_vec(),
        };
        let suites: Vec<Arc<ProfiledSuite>> = buses
            .iter()
            .map(|&b| self.profiled(false, p, b))
            .collect::<Result<_, _>>()?;
        let suite_refs: Vec<&ProfiledSuite> = suites.iter().map(Arc::as_ref).collect();
        let opts = ExperimentOptions::default();
        if let Some((shard, shard_count)) = sp.shard {
            let result = run_search_shard(
                sp.space,
                sp.strategy,
                sp.budget,
                p.seed,
                &suite_refs,
                &opts,
                &self.exec,
                sp.racing,
                shard,
                shard_count,
            );
            let report = &result.report;
            let _ = writeln!(
                text,
                "shard {}/{}: {} of {} candidates, budget {}, seed {}: {} evaluations, \
                 {} frontier points",
                report.shard,
                report.shard_count,
                report.shard_size,
                report.space_size,
                report.budget,
                report.seed,
                report.evaluations,
                report.frontier.len()
            );
            if sp.racing {
                let _ = writeln!(
                    text,
                    "racing: {} candidates screened on the subsample suite",
                    result.stats.screened
                );
            }
            render_frontier(text, report.best.as_ref(), &report.frontier);
            let meta = pretty(&ShardSearchMeta {
                experiment: "search_shard".to_owned(),
                strategy: sp.strategy.name().to_owned(),
                space: sp.space.name().to_owned(),
                budget: sp.budget,
                seed: p.seed,
                loops_per_benchmark: p.loops,
                buses,
                racing: sp.racing,
                screened: result.stats.screened,
                shard,
                shard_count,
            });
            return Ok((Some(pretty(report)), Some(meta)));
        }
        let result = run_search_scaled(
            sp.space,
            sp.strategy,
            sp.budget,
            p.seed,
            &suite_refs,
            &opts,
            &self.exec,
            sp.racing,
        );
        let report = &result.report;
        let _ = writeln!(
            text,
            "space {} ({} candidates), budget {}, seed {}: {} evaluations, {} frontier points",
            report.space,
            report.space_size,
            report.budget,
            report.seed,
            report.evaluations,
            report.frontier.len()
        );
        if sp.racing {
            let _ = writeln!(
                text,
                "racing: {} candidates screened on the subsample suite",
                result.stats.screened
            );
        }
        render_frontier(text, report.best.as_ref(), &report.frontier);
        let meta = pretty(&SearchMeta {
            experiment: "search".to_owned(),
            strategy: sp.strategy.name().to_owned(),
            space: sp.space.name().to_owned(),
            budget: sp.budget,
            seed: p.seed,
            loops_per_benchmark: p.loops,
            buses,
            racing: sp.racing,
            screened: result.stats.screened,
        });
        Ok((Some(pretty(report)), Some(meta)))
    }

    fn searchbench(&self, p: &RunParams, text: &mut String) -> Result<Artifacts, String> {
        use vliw_search::Strategy;

        let _ = writeln!(
            text,
            "\n== searchbench: candidate evaluations/second (paper grid) =="
        );
        let opts = ExperimentOptions::default();
        // Deliberately cold: a fresh profile outside the engine's suite
        // cache AND outside any configured disk store, so the
        // evals/second metric is comparable across runs instead of
        // inflated by a warm memo cache or a pre-populated store.
        let suite = suite_seeded(p.loops, p.seed);
        let profiled = experiments::profile_suite(&suite, 1, &opts.sched, &self.exec, None)
            .map_err(|e| e.to_string())?;
        let budget = 64; // > grid size, so every run spends exactly 20 evals
        let start = Instant::now();
        // Racing is on: the bench measures the throughput of the search
        // as it actually runs at scale, screens included.
        let result = run_search_scaled(
            SpaceKind::Paper,
            Strategy::HillClimb,
            budget,
            p.seed,
            &[&profiled],
            &opts,
            &self.exec,
            true,
        );
        let wall = start.elapsed().as_secs_f64();
        let report = &result.report;
        let screened = result.stats.screened;
        let eps = if wall > 0.0 {
            report.evaluations as f64 / wall
        } else {
            f64::INFINITY
        };
        // A screened candidate is a disposed candidate too: the search
        // learned its subsample rank without paying a full-suite
        // measurement for it.
        let effective = if wall > 0.0 {
            (report.evaluations + screened) as f64 / wall
        } else {
            f64::INFINITY
        };
        let _ = writeln!(
            text,
            "evaluated {} candidates (+{screened} screened) in {wall:.3} s => {eps:.2} evals/s \
             ({effective:.2} effective)",
            report.evaluations
        );
        let measure_misses = profiled.measured();
        let _ = writeln!(
            text,
            "{measure_misses} measurements executed cold (disk store bypassed)"
        );
        let record = SearchBenchRecord {
            experiment: "searchbench".to_owned(),
            loops_per_benchmark: p.loops,
            budget,
            evaluations: report.evaluations,
            screened,
            measure_misses,
            wall_time_s: wall,
            search_evals_per_second: eps,
            effective_evals_per_second: effective,
        };
        Ok((Some(pretty(&record)), None))
    }

    fn corpus_schedule(
        &self,
        p: &RunParams,
        input: Option<&Path>,
        text: &mut String,
    ) -> Result<Artifacts, String> {
        let _ = writeln!(
            text,
            "\n== corpus schedule: per-loop modulo schedules (validated) =="
        );
        let (benches, source) = match input {
            Some(path) => (
                Corpus::load(path).map_err(|e| e.to_string())?.benchmarks,
                path.display().to_string(),
            ),
            None => (
                corpus_benchmarks(p.loops, p.seed),
                "in-memory suite".to_owned(),
            ),
        };
        let design = MachineDesign::paper_machine(1);
        let configs = [
            ("reference", ClockedConfig::reference(design)),
            (
                "heterogeneous",
                ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.5)),
            ),
        ];
        let jobs: Vec<(&str, &vliw_ir::Loop)> = benches
            .iter()
            .flat_map(|b| b.loops.iter().map(move |l| (b.name.as_str(), l)))
            .collect();
        let per_loop = self.exec.try_map_init(
            &jobs,
            SchedWorkspace::new,
            |ws, _, &(bench, l)| -> Result<Vec<CorpusScheduleRow>, String> {
                let mut rows = Vec::with_capacity(configs.len());
                for (config_name, config) in &configs {
                    let opts = ScheduleOptions {
                        trip_count: l.trip_count(),
                        ..ScheduleOptions::default()
                    };
                    let s = schedule_loop_ws(l.ddg(), config, None, &opts, ws)
                        .map_err(|e| format!("{bench}/{}: {e}", l.ddg().name()))?;
                    validate(l.ddg(), config, &s).map_err(|violations| {
                        format!(
                            "{bench}/{}: schedule failed validation: {}",
                            l.ddg().name(),
                            violations
                                .first()
                                .map_or_else(|| "unknown violation".to_owned(), |v| v.to_string())
                        )
                    })?;
                    rows.push(CorpusScheduleRow {
                        benchmark: bench.to_owned(),
                        loop_name: l.ddg().name().to_owned(),
                        ops: l.ddg().num_ops(),
                        edges: l.ddg().num_edges(),
                        config: (*config_name).to_owned(),
                        it_ns: s.it().as_ns(),
                        exec_time_ns: s.exec_time(l.trip_count()).as_ns(),
                        comms_per_iter: s.comms_per_iter(),
                        mem_accesses_per_iter: s.mem_accesses_per_iter(),
                    });
                }
                Ok(rows)
            },
        )?;
        let rows: Vec<CorpusScheduleRow> = per_loop.into_iter().flatten().collect();
        let _ = writeln!(
            text,
            "scheduled and validated {} loops x {} configs from {source}",
            jobs.len(),
            configs.len()
        );
        let meta = pretty(&CorpusMeta::new("schedule", p.loops, input));
        Ok((Some(pretty(&rows)), Some(meta)))
    }

    fn corpus_stats(
        &self,
        p: &RunParams,
        input: Option<&Path>,
        text: &mut String,
    ) -> Result<Artifacts, String> {
        let _ = writeln!(text, "\n== corpus stats: per-benchmark structure ==");
        let benches = match input {
            Some(path) => Corpus::load(path).map_err(|e| e.to_string())?.benchmarks,
            None => corpus_benchmarks(p.loops, p.seed),
        };
        let design = MachineDesign::paper_machine(1);
        let mut rows = Vec::with_capacity(benches.len());
        let _ = writeln!(
            text,
            "{:<14} {:>5} {:>6} {:>6} {:>7} {:>7} {:>7} {:>8} {:>7}",
            "benchmark", "loops", "ops", "edges", "res%", "bord%", "rec%", "recMII~", "recMII^"
        );
        for b in &benches {
            let mut shares = [0.0f64; 3];
            let mut rec_sum = 0u64;
            let mut rec_max = 0u32;
            for l in &b.loops {
                let class = classify(l.ddg(), design);
                let idx = LoopClass::ALL
                    .iter()
                    .position(|&c| c == class)
                    .expect("3 classes");
                shares[idx] += l.weight();
                let rm = l.ddg().rec_mii();
                rec_sum += u64::from(rm);
                rec_max = rec_max.max(rm);
            }
            let row = CorpusStatsRow {
                benchmark: b.name.clone(),
                loops: b.loops.len(),
                total_ops: b.loops.iter().map(|l| l.ddg().num_ops()).sum(),
                total_edges: b.loops.iter().map(|l| l.ddg().num_edges()).sum(),
                resource_pct: shares[0] * 100.0,
                borderline_pct: shares[1] * 100.0,
                recurrence_pct: shares[2] * 100.0,
                mean_rec_mii: rec_sum as f64 / b.loops.len() as f64,
                max_rec_mii: rec_max,
            };
            let _ = writeln!(
                text,
                "{:<14} {:>5} {:>6} {:>6} {:>6.1}% {:>6.1}% {:>6.1}% {:>8.2} {:>7}",
                row.benchmark,
                row.loops,
                row.total_ops,
                row.total_edges,
                row.resource_pct,
                row.borderline_pct,
                row.recurrence_pct,
                row.mean_rec_mii,
                row.max_rec_mii
            );
            rows.push(row);
        }
        let meta = pretty(&CorpusMeta::new("stats", p.loops, input));
        Ok((Some(pretty(&rows)), Some(meta)))
    }
}

/// The corpus composition shared by `corpus dump` and the in-memory path
/// of `corpus schedule`/`corpus stats`: the ten SPEC-calibrated
/// benchmarks plus the four generator families, all at the same
/// per-benchmark scale.
#[must_use]
pub fn corpus_benchmarks(loops: usize, seed: u64) -> Vec<Benchmark> {
    let mut benches = suite_seeded(loops, seed);
    benches.extend(family_suite_seeded(loops, seed));
    benches
}

/// Sidecar metadata for the corpus requests. Unlike the experiment
/// sidecars it records where the loops actually came from: the
/// generation scale is only meaningful for generated (in-memory)
/// corpora — rows computed from an input file inherit that file's
/// scale, whatever it was — and the bus selection is not a corpus knob
/// at all.
#[derive(Debug, serde::Serialize)]
pub struct CorpusMeta {
    /// Which corpus subcommand produced the artefact.
    pub subcommand: String,
    /// `"generated"` for in-memory suites, else the input file path.
    pub source: String,
    /// Scale of a generated corpus; `None` when loops came from a file.
    pub loops_per_benchmark: Option<usize>,
}

impl CorpusMeta {
    /// Sidecar for `subcommand` describing a generated (`input: None`)
    /// or loaded corpus.
    #[must_use]
    pub fn new(subcommand: &str, loops: usize, input: Option<&Path>) -> Self {
        CorpusMeta {
            subcommand: subcommand.to_owned(),
            source: input.map_or_else(|| "generated".to_owned(), |p| p.display().to_string()),
            loops_per_benchmark: input.is_none().then_some(loops),
        }
    }
}

/// Renders the best line and the frontier rows of a search (or search
/// shard) run. Shared so the shard path prints candidates exactly as
/// the unsharded path does — the labels carry global indices either
/// way.
fn render_frontier(
    text: &mut String,
    best: Option<&vliw_explore::search::FrontierRow>,
    frontier: &[vliw_explore::search::FrontierRow],
) {
    match best {
        Some(best) => {
            let _ = writeln!(
                text,
                "best: index {} | {} bus(es), {} fast, fast {:.2} ns, slow {:.2} ns, \
                 Vdd {:.2}/{:.2}/{:.2}/{:.2} V | ED2 {:.6e}",
                best.index,
                best.buses,
                best.num_fast,
                best.fast_cycle_ns,
                best.slow_cycle_ns,
                best.vdd_fast,
                best.vdd_slow,
                best.vdd_icn,
                best.vdd_cache,
                best.ed2
            );
        }
        None => {
            let _ = writeln!(text, "best: no feasible candidate found within the budget");
        }
    }
    for row in frontier {
        let label = format!(
            "#{} {}b {}f {:.2}/{:.2}ns",
            row.index, row.buses, row.num_fast, row.fast_cycle_ns, row.slow_cycle_ns
        );
        let _ = writeln!(
            text,
            "{label:<28} time {:>12.1} ns  energy {:>8.4}  ED2 {:.6e}",
            row.exec_time_ns, row.energy, row.ed2
        );
    }
}

/// Serialises `rows` exactly as the artefact files store them.
fn pretty<T: serde::Serialize>(rows: &T) -> String {
    serde_json::to_string_pretty(rows).expect("serialise rows")
}

/// Sidecar metadata describing which suite scale a row dump came from.
#[derive(serde::Serialize)]
struct DumpMeta {
    experiment: String,
    loops_per_benchmark: usize,
    buses: Vec<u32>,
    seed: u64,
}

/// The `<name>.meta.json` sidecar body for a suite-scale experiment.
fn run_meta(name: &str, p: &RunParams) -> String {
    pretty(&DumpMeta {
        experiment: name.to_owned(),
        loops_per_benchmark: p.loops,
        buses: p.buses.list().to_vec(),
        seed: p.seed,
    })
}

/// One row of Table 1, serialised alongside the printed table.
#[derive(serde::Serialize)]
struct Table1Row {
    class: String,
    latency: u32,
    relative_energy: f64,
}

/// One `schedbench` record: raw scheduler throughput on the synthetic
/// suite (wall-clock; not byte-stable — it feeds the CI perf gate).
#[derive(serde::Serialize)]
struct SchedBenchRecord {
    experiment: String,
    loops_per_benchmark: usize,
    loops_scheduled: u64,
    wall_time_s: f64,
    loops_per_second: f64,
}

/// The `schedbench --profile` record: the throughput fields of
/// [`SchedBenchRecord`] plus the per-phase breakdown. A separate shape
/// (rather than an optional field) so unprofiled records stay
/// byte-compatible with their historical form.
#[derive(serde::Serialize)]
struct SchedBenchProfiledRecord {
    experiment: String,
    loops_per_benchmark: usize,
    loops_scheduled: u64,
    wall_time_s: f64,
    loops_per_second: f64,
    phases: Vec<PhaseRow>,
}

/// One phase of the profiled `schedbench` breakdown.
#[derive(serde::Serialize)]
struct PhaseRow {
    phase: String,
    nanos: u64,
    entries: u64,
    share_of_wall: f64,
}

/// One `searchbench` record: candidate-evaluation throughput
/// (wall-clock; not byte-stable — it feeds the CI perf gate).
#[derive(serde::Serialize)]
struct SearchBenchRecord {
    experiment: String,
    loops_per_benchmark: usize,
    budget: u64,
    evaluations: u64,
    /// Candidates ranked on the subsample suite by the racing screen
    /// (the bench always races).
    screened: u64,
    /// Configurations actually measured (scheduler executions). Equal
    /// whether or not a warm store exists on disk — the bench bypasses
    /// it by design.
    measure_misses: u64,
    wall_time_s: f64,
    search_evals_per_second: f64,
    /// Candidates disposed of per second: full measurements plus
    /// subsample screens, over the same wall clock.
    effective_evals_per_second: f64,
}

/// The `store_stats` admin record (disk state; not byte-stable).
#[derive(serde::Serialize)]
struct StoreStatsRecord {
    experiment: String,
    dir: String,
    measure_records: usize,
    profile_records: usize,
    eval_records: usize,
    log_files: usize,
    bytes: u64,
    hits: u64,
    misses: u64,
    skipped_lines: u64,
    /// Log bytes this process read back, across every store it opened.
    bytes_read: u64,
    /// Log bytes this process appended, across every store it opened.
    bytes_written: u64,
    /// Stale writer-log locks this process broke and took over.
    lock_takeovers: u64,
}

/// The `store_compact` admin record (disk state; not byte-stable).
#[derive(serde::Serialize)]
struct StoreCompactRecord {
    experiment: String,
    dir: String,
    records: usize,
    merged_logs: usize,
    skipped_live_logs: usize,
    bytes: u64,
}

/// Sidecar for the `search` experiment: every knob that shaped the run.
///
/// `screened` is derived, not a knob, but it is a pure function of the
/// knobs (racing screens a deterministic candidate set), so recording
/// it here keeps the sidecar byte-stable across cold and store-warmed
/// replays of the same request.
#[derive(serde::Serialize)]
struct SearchMeta {
    experiment: String,
    strategy: String,
    space: String,
    budget: u64,
    seed: u64,
    loops_per_benchmark: usize,
    buses: Vec<u32>,
    racing: bool,
    screened: u64,
}

/// Sidecar for a sharded `search` run: [`SearchMeta`]'s knobs plus the
/// shard coordinates. A separate shape (rather than always-present
/// shard fields on [`SearchMeta`]) so unsharded sidecars stay free of
/// placeholder coordinates.
#[derive(serde::Serialize)]
struct ShardSearchMeta {
    experiment: String,
    strategy: String,
    space: String,
    budget: u64,
    seed: u64,
    loops_per_benchmark: usize,
    buses: Vec<u32>,
    racing: bool,
    screened: u64,
    shard: u32,
    shard_count: u32,
}

/// One `corpus schedule` row: one loop modulo-scheduled (and validated)
/// on one configuration.
#[derive(serde::Serialize)]
struct CorpusScheduleRow {
    benchmark: String,
    loop_name: String,
    ops: usize,
    edges: usize,
    config: String,
    it_ns: f64,
    exec_time_ns: f64,
    comms_per_iter: u64,
    mem_accesses_per_iter: u64,
}

/// One `corpus stats` row: a benchmark summarised.
#[derive(serde::Serialize)]
struct CorpusStatsRow {
    benchmark: String,
    loops: usize,
    total_ops: usize,
    total_edges: usize,
    resource_pct: f64,
    borderline_pct: f64,
    recurrence_pct: f64,
    mean_rec_mii: f64,
    max_rec_mii: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{BusSel, SearchParams};

    fn small() -> RunParams {
        RunParams {
            loops: 2,
            buses: BusSel::One,
            seed: 0,
            store: StoreConfig::none(),
            profile: false,
        }
    }

    /// A unique, cleaned-up temp directory for a store test.
    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vliw-api-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn runs_are_deterministic_and_cached() {
        let engine = Engine::new(1);
        let req = Request::Figure6(small());
        let first = engine.run(&req);
        assert!(first.ok, "first run failed: {:?}", first.error);
        let misses_after_first = first.cache.measure_misses;
        assert_eq!(first.cache.profiled_suites, 1);
        let second = engine.run(&req);
        assert_eq!(second.text, first.text, "stdout rendering is byte-stable");
        assert_eq!(second.body, first.body, "artefact body is byte-stable");
        assert_eq!(second.meta, first.meta, "sidecar is byte-stable");
        assert_eq!(
            second.cache.measure_misses, misses_after_first,
            "a warm second request does no re-measurements"
        );
        assert!(
            second.cache.measure_hits > first.cache.measure_hits,
            "the warm run was served from the memo cache"
        );
    }

    #[test]
    fn batches_preserve_request_order() {
        let engine = Engine::new(2);
        let reqs = vec![
            Request::Ping,
            Request::Table1,
            Request::Table2(small()),
            Request::Figure6(small()),
        ];
        let resps = engine.run_batch(&reqs);
        assert_eq!(resps.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&resps) {
            assert!(resp.ok, "{} failed: {:?}", req.kind(), resp.error);
            assert_eq!(resp.kind, req.kind());
        }
    }

    #[test]
    fn failures_become_error_responses() {
        let engine = Engine::new(1);
        let resp = engine.run(&Request::CorpusStats {
            params: small(),
            input: Some(std::path::PathBuf::from("/no/such/corpus.json")),
        });
        assert!(!resp.ok);
        assert!(resp.error.is_some());
        assert!(
            resp.text.contains("corpus stats"),
            "partial text is preserved: {:?}",
            resp.text
        );
    }

    #[test]
    fn search_runs_through_the_shared_suite_cache() {
        let engine = Engine::new(1);
        let f6 = engine.run(&Request::Figure6(small()));
        assert!(f6.ok);
        let suites_before = f6.cache.profiled_suites;
        let resp = engine.run(&Request::Search {
            params: small(),
            search: SearchParams {
                budget: 4,
                ..SearchParams::default()
            },
        });
        assert!(resp.ok, "{:?}", resp.error);
        assert_eq!(
            resp.cache.profiled_suites, suites_before,
            "search reused the profiled suite instead of re-profiling"
        );
    }

    #[test]
    fn warm_store_spans_engines_and_preserves_bytes() {
        let dir = temp_store("warm");
        let stored = RunParams {
            store: StoreConfig::at(&dir),
            ..small()
        };
        let req = Request::Figure6(stored);

        let cold = Engine::new(1).run(&req);
        assert!(cold.ok, "cold run failed: {:?}", cold.error);
        assert!(cold.cache.measure_misses > 0, "the cold run measured");
        assert!(cold.cache.store_entries > 0, "the cold run persisted");

        // A brand-new engine (fresh memo caches, same directory) must
        // resolve every profile and measurement from disk.
        let warm = Engine::new(1).run(&req);
        assert!(warm.ok, "warm run failed: {:?}", warm.error);
        assert_eq!(
            warm.cache.measure_misses, 0,
            "a warm store leaves nothing to re-schedule: {:?}",
            warm.cache
        );
        assert!(warm.cache.store_hits > 0, "served from disk");
        assert_eq!(warm.text, cold.text, "stdout rendering is byte-stable");
        assert_eq!(warm.body, cold.body, "artefact body is byte-stable");
        assert_eq!(warm.meta, cold.meta, "sidecar is byte-stable");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The memo and the store share one content address: a cold run
    /// leaves exactly one measure record per memo entry, and a fresh
    /// engine on the same directory answers every lookup from disk.
    #[test]
    fn memo_and_store_share_one_content_address() {
        let dir = temp_store("one-address");
        let req = Request::Figure6(RunParams {
            store: StoreConfig::at(&dir),
            ..small()
        });

        let cold = Engine::new(1).run(&req);
        assert!(cold.ok, "cold run failed: {:?}", cold.error);
        let stats = MeasureStore::open(&dir).unwrap().stats().unwrap();
        assert_eq!(
            stats.measure_records, cold.cache.measure_entries,
            "one store record per memo entry: {:?}",
            cold.cache
        );

        let warm = Engine::new(1).run(&req);
        assert!(warm.ok, "warm run failed: {:?}", warm.error);
        assert_eq!(warm.cache.measure_misses, 0, "{:?}", warm.cache);
        assert_eq!(warm.cache.measure_entries, cold.cache.measure_entries);
        assert_eq!(
            warm.cache.measure_hits,
            cold.cache.measure_hits + cold.cache.measure_misses,
            "every lookup of the cold run is a hit on the warm one"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn searchbench_bypasses_the_warm_store() {
        let dir = temp_store("searchbench");
        let stored = RunParams {
            store: StoreConfig::at(&dir),
            ..small()
        };
        // Warm the store with exactly the measurements searchbench's
        // internal run performs (paper grid, hillclimb, budget 64, same
        // loops/seed, 1 bus).
        let warmup = Engine::new(1).run(&Request::Search {
            params: stored.clone(),
            search: SearchParams::default(),
        });
        assert!(warmup.ok, "{:?}", warmup.error);

        let misses = |resp: &Response| -> u64 {
            let body: serde_json::Value =
                serde_json::from_str(resp.body.as_deref().expect("record body")).expect("json");
            body.get("measure_misses")
                .and_then(serde_json::Value::as_u64)
                .expect("measure_misses field")
        };
        let with_store = Engine::new(1).run(&Request::SearchBench(stored));
        assert!(with_store.ok, "{:?}", with_store.error);
        let without_store = Engine::new(1).run(&Request::SearchBench(small()));
        assert!(without_store.ok, "{:?}", without_store.error);

        // Cold-path honesty: the warm store on disk changed nothing —
        // every candidate measurement was executed, not loaded.
        assert!(misses(&with_store) > 0, "the bench measured something");
        assert_eq!(
            misses(&with_store),
            misses(&without_store),
            "a warm store must not shortcut the throughput bench"
        );
        assert_eq!(
            with_store.cache.store_hits, 0,
            "the bench never touched the store"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_admin_requests_inspect_and_compact() {
        let dir = temp_store("admin");

        // Without any store configured, admin requests fail loudly.
        let none = Engine::new(1).run(&Request::StoreStats {
            store: StoreConfig::none(),
        });
        assert!(!none.ok);
        assert!(
            none.error
                .as_deref()
                .unwrap_or("")
                .contains("no store configured"),
            "{:?}",
            none.error
        );

        // Populate, then inspect through the engine's default store
        // (the daemon's --store path: requests carry no store of their
        // own).
        let engine = Engine::new(1).with_default_store(StoreConfig::at(&dir));
        let run = engine.run(&Request::Figure6(small()));
        assert!(run.ok, "{:?}", run.error);
        assert!(
            run.cache.store_entries > 0,
            "the default store captured the run: {:?}",
            run.cache
        );
        let stats = engine.run(&Request::StoreStats {
            store: StoreConfig::none(),
        });
        assert!(stats.ok, "{:?}", stats.error);
        assert!(stats.text.contains("store stats"), "{}", stats.text);

        let compact = engine.run(&Request::StoreCompact {
            store: StoreConfig::none(),
        });
        assert!(compact.ok, "{:?}", compact.error);
        let body: serde_json::Value =
            serde_json::from_str(compact.body.as_deref().expect("record")).expect("json");
        assert!(
            body.get("records")
                .and_then(serde_json::Value::as_u64)
                .unwrap()
                > 0,
            "compaction kept the records: {body:?}"
        );
        assert!(
            dir.join("compact.jsonl").exists(),
            "the compacted log exists"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_search_replays_from_the_store_byte_for_byte() {
        for racing in [false, true] {
            let dir = temp_store(if racing { "searchwarm-r" } else { "searchwarm" });
            let stored = RunParams {
                store: StoreConfig::at(&dir),
                ..small()
            };
            let req = Request::Search {
                params: stored,
                search: SearchParams {
                    budget: 12,
                    racing,
                    ..SearchParams::default()
                },
            };

            let cold = Engine::new(1).run(&req);
            assert!(cold.ok, "cold run failed: {:?}", cold.error);
            assert!(cold.cache.measure_misses > 0, "the cold run measured");

            // A brand-new engine (fresh memo caches, same directory)
            // warm-starts every evaluation from the persisted records.
            let warm = Engine::new(1).run(&req);
            assert!(warm.ok, "warm run failed: {:?}", warm.error);
            assert!(warm.cache.store_hits > 0, "served from disk");
            assert_eq!(
                warm.cache.measure_misses, 0,
                "a warm store leaves nothing to re-measure (racing={racing}): {:?}",
                warm.cache
            );
            assert_eq!(warm.text, cold.text, "stdout rendering is byte-stable");
            assert_eq!(warm.body, cold.body, "frontier/best/trace are byte-stable");
            assert_eq!(warm.meta, cold.meta, "sidecar is byte-stable");

            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn sharded_searches_merge_to_the_unsharded_frontier() {
        use vliw_explore::{merge_shard_reports, ShardReport};
        use vliw_search::Strategy;

        let engine = Engine::new(1);
        let exhaustive = |shard| Request::Search {
            params: small(),
            search: SearchParams {
                strategy: Strategy::Exhaustive,
                shard,
                ..SearchParams::default()
            },
        };
        let whole = engine.run(&exhaustive(None));
        assert!(whole.ok, "{:?}", whole.error);

        let mut shards = Vec::new();
        for i in 1..=2 {
            let resp = engine.run(&exhaustive(Some((i, 2))));
            assert!(resp.ok, "shard {i}/2 failed: {:?}", resp.error);
            let report = ShardReport::from_json_str(resp.body.as_deref().expect("shard body"))
                .expect("shard artifact parses strictly");
            assert_eq!(report.shard, i);
            assert_eq!(report.evaluations, report.shard_size);
            shards.push(report);
        }
        let merged = merge_shard_reports(&shards).expect("shards merge");

        let body: serde_json::Value =
            serde_json::from_str(whole.body.as_deref().expect("search body")).expect("json");
        let frontier = body.get("frontier").and_then(|f| f.as_array()).unwrap();
        assert_eq!(merged.frontier.len(), frontier.len());
        let best = body
            .get("best")
            .and_then(|b| b.get("index"))
            .and_then(serde_json::Value::as_u64)
            .expect("unsharded best");
        assert_eq!(merged.best.as_ref().map(|b| b.index), Some(best));
        assert_eq!(merged.evaluations, 20, "both shards cover the paper grid");
    }
}
