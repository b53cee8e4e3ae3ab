//! Exact work counts of fixed requests, pinned to
//! `tests/golden/work_counts.json`.
//!
//! The cost of the §4 scheduler is algorithmic work — IMS placements
//! and ejections, IT retries, pseudo-schedule pricings and accepted
//! refinement moves — and the cost of the layers above it is
//! measurements, §3.2 estimates and supply rows added to a suite's
//! selection tables, candidates priced by voltage descents, search
//! evaluations and store traffic. All of it is
//! counted deterministically in the `vliw_obs` registry, so this test
//! gates it exactly, independent of the machine it runs on. At one and
//! four workers it runs five steps and compares each step's counter
//! deltas, and each response's cache-statistics delta, with the golden:
//!
//! * `figure6_cold` / `figure6_warm`: `figure6 --loops 8 --buses 1` into
//!   a fresh store, then again on the same engine;
//! * `search_cold` / `search_replay`: an exhaustive racing search of the
//!   extended space (budget 64, two loops, one bus) into a fresh store,
//!   then the same request on a fresh engine;
//! * `schedule_suite`: the seed-0 suite at 16 loops per benchmark
//!   scheduled through `schedule_loop_ws` on the reference and on one
//!   heterogeneous configuration (320 loops).
//!
//! Executor task counts (which depend on the worker count) and the
//! timing families are not pinned. Timing is on throughout, so the test
//! also checks that every scheduler phase was timed and that the phases
//! account for most of the scheduling time.
//!
//! This file holds a single test, so its binary's process-global
//! registry is shared with nothing else. When a change alters a count
//! on purpose, the test writes the new counts next to the golden with
//! an `.actual` suffix; copy that over the golden and say why in
//! CHANGES.md.

use std::path::{Path, PathBuf};

use heterovliw::api::{CacheStats, Engine, Request, Response};
use heterovliw::exec::Executor;
use heterovliw::machine::{ClockedConfig, MachineDesign, Time};
use heterovliw::obs;
use heterovliw::sched::{schedule_loop_ws, SchedWorkspace, ScheduleOptions};
use heterovliw::workloads::suite_seeded;

/// The pinned registry counters.
const COUNTERS: [&str; 15] = [
    "sched_loops_scheduled_total",
    "sched_placements_total",
    "sched_ejections_total",
    "sched_it_retries_total",
    "sched_pricings_total",
    "sched_refine_moves_total",
    "explore_estimates_total",
    "explore_supply_rows_total",
    "explore_descent_pricings_total",
    "search_evals_total",
    "search_screens_total",
    "store_records_read_total",
    "store_records_written_total",
    "store_bytes_read_total",
    "store_bytes_written_total",
];

/// The phases `sched_phase_nanos` is labelled with.
const PHASES: [&str; 5] = ["clocks", "partition", "extgraph", "place", "regs"];

fn read_counters() -> [u64; COUNTERS.len()] {
    COUNTERS.map(|name| obs::counter(name).get())
}

/// The counters and cache statistics one step added, rendered as JSON
/// object members.
fn step(
    name: &str,
    before: [u64; COUNTERS.len()],
    cache: Option<(CacheStats, CacheStats)>,
) -> String {
    let mut members: Vec<(String, u64)> = COUNTERS
        .iter()
        .zip(read_counters().iter().zip(before))
        .map(|(name, (after, before))| ((*name).to_owned(), after - before))
        .collect();
    if let Some((after, before)) = cache {
        let deltas = cache_fields(&after).into_iter().zip(cache_fields(&before));
        members.extend(deltas.map(|((k, after), (_, before))| (k, after - before)));
    }
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    format!("  \"{name}\": {{\n{}\n  }}", body.join(",\n"))
}

/// Every field of a response's cache statistics, as `cache.<field>`.
fn cache_fields(cache: &CacheStats) -> Vec<(String, u64)> {
    let json = serde_json::to_string(cache).expect("cache statistics serialise");
    let value = serde_json::from_str(&json).expect("and parse back");
    let fields = value.as_object().expect("as an object");
    fields
        .iter()
        .map(|(k, v)| (format!("cache.{k}"), v.as_u64().expect("of counts")))
        .collect()
}

/// A fresh, empty store directory for this run.
fn fresh_store(tag: &str, jobs: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "heterovliw-work-counts-{tag}-{jobs}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(engine: &Engine, wire: &str) -> Response {
    let req = Request::from_json_str(wire).expect("pinned requests are well formed");
    let resp = engine.run(&req);
    assert!(resp.ok, "{wire}: {:?}", resp.error);
    resp
}

/// The five steps at `jobs` workers, rendered as the golden's JSON.
fn counts_at(jobs: usize) -> String {
    let mut steps = Vec::new();

    let store = fresh_store("figure6", jobs);
    let wire = format!(
        r#"{{"kind":"figure6","loops":8,"buses":"1","seed":0,"store":"{}"}}"#,
        store.display()
    );
    let engine = Engine::new(jobs);
    let before = read_counters();
    let cold = run(&engine, &wire);
    steps.push(step(
        "figure6_cold",
        before,
        Some((cold.cache, CacheStats::default())),
    ));
    let before = read_counters();
    let warm = run(&engine, &wire);
    assert_eq!(warm.body, cold.body, "the warm figure6 answers the same");
    steps.push(step("figure6_warm", before, Some((warm.cache, cold.cache))));
    let _ = std::fs::remove_dir_all(&store);

    let store = fresh_store("search", jobs);
    let wire = format!(
        r#"{{"kind":"search","loops":2,"buses":"1","seed":0,"strategy":"exhaustive","budget":64,"space":"extended","racing":true,"store":"{}"}}"#,
        store.display()
    );
    let before = read_counters();
    let cold = run(&Engine::new(jobs), &wire);
    steps.push(step(
        "search_cold",
        before,
        Some((cold.cache, CacheStats::default())),
    ));
    let before = read_counters();
    let replay = run(&Engine::new(jobs), &wire);
    assert_eq!(
        replay.body, cold.body,
        "the replayed search answers the same"
    );
    steps.push(step(
        "search_replay",
        before,
        Some((replay.cache, CacheStats::default())),
    ));
    let _ = std::fs::remove_dir_all(&store);

    let design = MachineDesign::paper_machine(1);
    let configs = [
        ClockedConfig::reference(design),
        ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.5)),
    ];
    let suite = suite_seeded(16, 0);
    let loops: Vec<_> = suite.iter().flat_map(|b| &b.loops).collect();
    let before = read_counters();
    let scheduled = Executor::new(jobs).map_init(&loops, SchedWorkspace::new, |ws, _, l| {
        let opts = ScheduleOptions {
            trip_count: l.trip_count(),
            ..ScheduleOptions::default()
        };
        for config in &configs {
            schedule_loop_ws(l.ddg(), config, None, &opts, ws).expect("the suite schedules");
        }
    });
    assert_eq!(scheduled.len(), 160);
    steps.push(step("schedule_suite", before, None));

    format!("{{\n{}\n}}\n", steps.join(",\n"))
}

/// Every phase was timed, and the phases cover between half and all of
/// the scheduling time (they are disjoint and nested inside it).
fn check_phase_times() {
    let total = obs::histogram("sched_schedule_nanos").sum();
    let phases = PHASES.map(|phase| {
        let h = obs::histogram_with("sched_phase_nanos", "phase", phase);
        assert!(h.count() > 0, "the {phase} phase was never timed");
        h.sum()
    });
    let sum: u64 = phases.iter().sum();
    assert!(
        2 * sum >= total && sum <= total,
        "phases {PHASES:?} took {phases:?} ns of {total} ns scheduling"
    );
}

#[test]
fn work_counts_match_the_golden_at_one_and_four_workers() {
    obs::enable_timing();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/work_counts.json");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    for jobs in [1usize, 4] {
        let actual = counts_at(jobs);
        if actual != golden {
            let out = golden_path.with_extension("json.actual");
            std::fs::write(&out, &actual).expect("write the actual counts");
            panic!(
                "work counts at {jobs} worker(s) differ from {}; the actual counts are in {}",
                golden_path.display(),
                out.display()
            );
        }
    }
    check_phase_times();
}
