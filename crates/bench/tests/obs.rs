//! Observability end to end through the real binary.
//!
//! Three contracts:
//!
//! * **Tracing is free-of-charge for results**: running the committed
//!   golden experiments with `--trace` must leave every artefact
//!   byte-identical to the fixtures under `tests/golden/` at the
//!   workspace root, while producing a well-formed newline-JSON trace
//!   (every line parses, `ev` is `b`/`e`, `seq` is exactly the file
//!   order starting at 1, begin/end events balance per span id).
//! * **One-shot exposition is deterministic**: `paper metrics` renders
//!   the registry *before* its own latency is recorded, so its stdout
//!   is byte-golden (`tests/golden/metrics_oneshot.txt` in this crate).
//! * **The daemon is scrapeable**: after a loadgen burst the scrape
//!   pins every counter exactly (10 pings → 10 in every `_total` and
//!   `_count`) and matches a golden in which only the timing-dependent
//!   lines (`_bucket`/`_sum`/`_p50`/`_p99` values and the in-flight
//!   gauge) are normalised to `~`.
//!
//! To regenerate `metrics_daemon_ping.txt` after an intentional metric
//! change: run the daemon flow below by hand, pipe the scrape through
//! the same normalisation, and say so in the commit message (on a
//! mismatch the test writes the normalised scrape next to the golden
//! with a `.actual` suffix).

mod common;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use common::{Daemon, WorkDir};

/// A fixture under the workspace-root `tests/golden/` (the same files
/// CI's search-smoke job diffs binary artefacts against).
fn repo_golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn bench_golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Checks that a trace file is well-formed newline-JSON and contains a
/// balanced `engine.run` span carrying the expected `kind` attribute.
fn validate_trace(path: &Path, expect_kind: &str) {
    let file =
        std::fs::File::open(path).unwrap_or_else(|e| panic!("open trace {}: {e}", path.display()));
    let mut next_seq = 1u64;
    let mut open: Vec<u64> = Vec::new();
    let mut saw_engine_run = false;
    for line in BufReader::new(file).lines() {
        let line = line.expect("read trace line");
        let v: serde_json::Value = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("trace line parses: {e}: {line}"));
        let ev = v
            .get("ev")
            .and_then(|x| x.as_str())
            .unwrap_or_else(|| panic!("event has ev: {line}"));
        let seq = v
            .get("seq")
            .and_then(serde_json::Value::as_u64)
            .unwrap_or_else(|| panic!("event has seq: {line}"));
        let id = v
            .get("id")
            .and_then(serde_json::Value::as_u64)
            .unwrap_or_else(|| panic!("event has id: {line}"));
        assert!(
            v.get("t_ns").and_then(serde_json::Value::as_u64).is_some(),
            "event has t_ns: {line}"
        );
        // seq is assigned under the writer lock, so it IS the file
        // order: exactly sequential from 1, no gaps, no reordering.
        assert_eq!(seq, next_seq, "seq matches file order: {line}");
        next_seq += 1;
        match ev {
            "b" => {
                let name = v
                    .get("name")
                    .and_then(|x| x.as_str())
                    .unwrap_or_else(|| panic!("begin has name: {line}"));
                if name == "engine.run"
                    && v.get("kind").and_then(|x| x.as_str()) == Some(expect_kind)
                {
                    saw_engine_run = true;
                }
                open.push(id);
            }
            "e" => {
                let begun = open
                    .iter()
                    .position(|&o| o == id)
                    .unwrap_or_else(|| panic!("end event closes a span that was begun: {line}"));
                open.swap_remove(begun);
            }
            other => panic!("unknown event type {other:?}: {line}"),
        }
    }
    assert!(next_seq > 1, "trace {} is not empty", path.display());
    assert!(open.is_empty(), "every span begun is ended: {open:?}");
    assert!(
        saw_engine_run,
        "trace has an engine.run span with kind={expect_kind}"
    );
}

/// Blanks the timing-dependent values in an exposition: histogram
/// `_bucket`/`_sum`/`_p50`/`_p99` samples (nanosecond-derived) and the
/// `serve_connections_in_flight` gauge (races with loadgen connections
/// draining). Counters and `_count` lines stay pinned exactly.
fn normalize(exposition: &str) -> String {
    let mut out = String::with_capacity(exposition.len());
    for line in exposition.lines() {
        let name = line.split(['{', ' ']).next().unwrap_or_default();
        let timing_dependent = name.ends_with("_bucket")
            || name.ends_with("_sum")
            || name.ends_with("_p50")
            || name.ends_with("_p99")
            || name == "serve_connections_in_flight";
        if timing_dependent && !line.starts_with('#') {
            let keep = line.rfind(' ').map_or(line.len(), |i| i + 1);
            out.push_str(&line[..keep]);
            out.push('~');
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Extracts the value of a single un-labelled sample line.
fn sample_value(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("exposition has a {name} sample"))
        .parse()
        .expect("sample value parses")
}

/// Running the committed golden experiments with `--trace` active must
/// not perturb a single output byte, and each run's trace must be
/// well-formed.
#[test]
fn traced_runs_stay_byte_identical_to_goldens() {
    let dir = WorkDir::new("traced_runs");
    let cases: &[(&[&str], &str, &str, &str)] = &[
        (
            &["--experiment", "figure6", "--loops", "5", "--buses", "1"],
            "figure6.json",
            "figure6_loops5_buses1.json",
            "figure6",
        ),
        (
            &["table2", "--loops", "5"],
            "table2.json",
            "table2_loops5.json",
            "table2",
        ),
        (
            &[
                "search",
                "--strategy",
                "hillclimb",
                "--budget",
                "8",
                "--seed",
                "1",
                "--loops",
                "2",
                "--buses",
                "1",
            ],
            "search.json",
            "search_hillclimb_loops2_budget8_seed1.json",
            "search",
        ),
    ];
    for (args, artifact, fixture, kind) in cases {
        let trace = dir.0.join(format!("trace-{kind}.jsonl"));
        let mut full: Vec<&str> = args.to_vec();
        full.extend(["--trace", trace.to_str().unwrap()]);
        let out = dir.paper(&full);
        assert!(
            out.status.success(),
            "paper {kind} --trace: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let written = std::fs::read_to_string(dir.results().join(artifact))
            .unwrap_or_else(|e| panic!("read {artifact}: {e}"));
        assert_eq!(
            written,
            repo_golden(fixture),
            "{artifact} is byte-identical to {fixture} under --trace"
        );
        validate_trace(&trace, kind);
    }
}

/// `paper metrics` is deterministic: the registry is rendered before
/// the request's own latency lands, and with timing disabled no
/// histogram exists at all.
#[test]
fn oneshot_metrics_exposition_matches_golden() {
    let out = WorkDir::new("oneshot_metrics").paper(&["metrics"]);
    assert!(
        out.status.success(),
        "paper metrics: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = std::fs::read_to_string(bench_golden_path("metrics_oneshot.txt"))
        .expect("read metrics_oneshot.txt");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden,
        "one-shot exposition is byte-golden"
    );
}

/// The scrape contract: a loadgen burst of 2 clients x 5 pings shows up
/// in the daemon's exposition as exactly 10 in every per-kind counter
/// and histogram count, with nonzero latency quantiles.
#[test]
fn daemon_scrape_accounts_for_every_loadgen_request() {
    // --jobs 1 keeps the serial execution path, so no machine-dependent
    // per-worker series appear in the exposition.
    let dir = WorkDir::new("daemon_scrape");
    let daemon = Daemon::start(&dir, "obs-scrape", &["--jobs", "1"]);
    let out = dir.paper(&[
        "loadgen",
        "--socket",
        daemon.socket_arg(),
        "--clients",
        "2",
        "--requests",
        "5",
    ]);
    assert!(
        out.status.success(),
        "loadgen: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let scrape = dir.paper(&["client", "--socket", daemon.socket_arg(), "metrics"]);
    assert!(
        scrape.status.success(),
        "metrics scrape: {}",
        String::from_utf8_lossy(&scrape.stderr)
    );
    let exposition = String::from_utf8_lossy(&scrape.stdout);

    for pinned in [
        "engine_requests_total{kind=\"ping\"} 10",
        "engine_requests_total{kind=\"metrics\"} 1",
        "engine_request_nanos_count{kind=\"ping\"} 10",
        "serve_requests_total{kind=\"ping\"} 10",
        "serve_requests_total{kind=\"metrics\"} 1",
        "serve_request_nanos_count{kind=\"ping\"} 10",
    ] {
        assert!(
            exposition.lines().any(|l| l == pinned),
            "exposition pins {pinned:?}:\n{exposition}"
        );
    }
    // The scrape's own connection is live while the exposition renders.
    assert!(
        sample_value(&exposition, "serve_connections_in_flight") >= 1.0,
        "the scraping connection is counted in flight"
    );
    for quantile in ["_p50{kind=\"ping\"}", "_p99{kind=\"ping\"}"] {
        for family in ["engine_request_nanos", "serve_request_nanos"] {
            let value = sample_value(&exposition, &format!("{family}{quantile}"));
            assert!(value > 0.0, "{family}{quantile} is nonzero");
        }
    }

    let golden_path = bench_golden_path("metrics_daemon_ping.txt");
    let golden = std::fs::read_to_string(&golden_path).expect("read metrics_daemon_ping.txt");
    let normalized = normalize(&exposition);
    if normalized != golden {
        let actual = golden_path.with_extension("txt.actual");
        std::fs::write(&actual, &normalized).expect("write .actual");
        panic!(
            "normalised scrape drifted from the golden; normalised output written to {}",
            actual.display()
        );
    }
    daemon.shutdown();
}
