//! The persistent measurement store through the real `paper` binary:
//! two separate processes sharing one `--store` directory must agree
//! byte for byte (the second doing no new scheduling), concurrent
//! writer processes must never corrupt the store, and the `store
//! stats` / `store compact` admin subcommands must work end to end.

mod common;

use std::path::Path;
use std::process::Stdio;

use common::{Daemon, WorkDir};
use vliw_api::{BusSel, Request, RunParams, SearchParams, StoreConfig};

/// Extracts the stable part of `store stats` output — the record
/// counts. Log-file count and byte size legitimately grow as more
/// writer processes touch the store, the record counts must not.
fn record_counts(stats_stdout: &str) -> String {
    let line = stats_stdout
        .lines()
        .find(|l| l.contains("measurements + "))
        .unwrap_or_else(|| panic!("no record-count line in store stats output:\n{stats_stdout}"));
    line.split(" in ").next().expect("counts prefix").to_owned()
}

fn stats(work: &WorkDir, dir: &Path) -> String {
    let out = work.paper(&["store", "stats", "--store", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "store stats: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The tentpole acceptance criterion end to end: a second `paper search
/// --store DIR` **process** reuses every measurement from the first and
/// produces byte-identical artefacts; a daemon over the same store is
/// equally warm, observable through its cache stats.
#[test]
fn second_search_process_reuses_the_store_byte_for_byte() {
    let work = WorkDir::new("store_search");
    let dir = work.0.join("store");
    let dir_arg = dir.to_str().unwrap();
    let search = [
        "search", "--budget", "30", "--loops", "2", "--buses", "1", "--store", dir_arg,
    ];

    let cold = work.paper(&search);
    assert!(
        cold.status.success(),
        "cold search: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_body =
        std::fs::read_to_string(work.results().join("search.json")).expect("search.json");
    let cold_meta =
        std::fs::read_to_string(work.results().join("search.meta.json")).expect("sidecar");
    let cold_counts = record_counts(&stats(&work, &dir));

    // A brand-new process over the same store: identical bytes on
    // stdout and in both artefacts, and the store gains no records —
    // every measurement and reference profile came off the disk.
    let warm = work.paper(&search);
    assert!(
        warm.status.success(),
        "warm search: {}",
        String::from_utf8_lossy(&warm.stderr)
    );
    assert_eq!(warm.stdout, cold.stdout, "stdout is byte-identical");
    let warm_body =
        std::fs::read_to_string(work.results().join("search.json")).expect("search.json");
    let warm_meta =
        std::fs::read_to_string(work.results().join("search.meta.json")).expect("sidecar");
    assert_eq!(warm_body, cold_body, "search.json is byte-identical");
    assert_eq!(warm_meta, cold_meta, "search.meta.json is byte-identical");
    assert_eq!(
        record_counts(&stats(&work, &dir)),
        cold_counts,
        "the warm run persisted nothing new"
    );

    // The same warm-run guarantee through the daemon transport, where
    // CacheStats make the zero-measurement claim directly observable.
    let daemon = Daemon::start(&work, "store-warm", &["--jobs", "2", "--store", dir_arg]);
    let resp = daemon.raw_request(&Request::Search {
        params: RunParams {
            loops: 2,
            buses: BusSel::One,
            seed: 0,
            store: StoreConfig::none(), // daemon default store applies
        },
        search: SearchParams {
            budget: 30,
            ..SearchParams::default()
        },
    });
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(
        resp.cache.measure_misses, 0,
        "a fresh daemon over the warmed store re-schedules nothing: {:?}",
        resp.cache
    );
    assert!(resp.cache.store_hits > 0, "it was served from the store");
    assert_eq!(
        resp.body.as_deref(),
        Some(cold_body.as_str()),
        "daemon body matches the one-shot artefact"
    );
    daemon.shutdown();
}

/// Two concurrent writer processes sharing one store directory: each
/// appends to its own pid-named log, the merged read is deterministic
/// and uncorrupted, and compaction folds both logs into one.
#[test]
fn concurrent_writer_processes_never_corrupt_the_store() {
    let work = WorkDir::new("store_concurrent");
    let dir = work.0.join("store");
    let dir_arg = dir.to_str().unwrap().to_owned();

    // Different seeds produce different loop bodies, so the two
    // processes write disjoint record sets at the same time.
    let spawn = |seed: &str| {
        work.command()
            .args([
                "figure6", "--loops", "2", "--buses", "1", "--seed", seed, "--store", &dir_arg,
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn paper figure6")
    };
    let mut writers = [spawn("0"), spawn("1")];
    for child in &mut writers {
        let status = child.wait().expect("wait for writer");
        assert!(status.success(), "concurrent writer failed");
    }

    // The merged view loads cleanly (no truncated or malformed lines)
    // and repeated reads agree — the merge is deterministic.
    let first = stats(&work, &dir);
    assert!(
        first.contains("0 truncated line(s) skipped"),
        "no corruption after concurrent writers:\n{first}"
    );
    let counts = record_counts(&first);
    assert_eq!(
        record_counts(&stats(&work, &dir)),
        counts,
        "repeated merged reads agree"
    );

    // Compaction folds the dead writers' logs into compact.jsonl
    // without losing a record.
    let compact = work.paper(&["store", "compact", "--store", &dir_arg]);
    assert!(
        compact.status.success(),
        "store compact: {}",
        String::from_utf8_lossy(&compact.stderr)
    );
    let compact_stdout = String::from_utf8_lossy(&compact.stdout);
    assert!(
        compact_stdout.contains("compact.jsonl"),
        "compact reports its output: {compact_stdout}"
    );
    assert!(dir.join("compact.jsonl").exists(), "compact.jsonl written");
    assert_eq!(
        record_counts(&stats(&work, &dir)),
        counts,
        "compaction preserves every record"
    );

    // And both writers' work is actually reusable: a third process
    // re-running one seed warm adds nothing new.
    let warm = work.paper(&[
        "figure6", "--loops", "2", "--buses", "1", "--seed", "1", "--store", &dir_arg,
    ]);
    assert!(warm.status.success(), "warm figure6 rerun");
    assert_eq!(
        record_counts(&stats(&work, &dir)),
        counts,
        "a warm rerun persists nothing new"
    );
}

/// Strict flag validation for the store surface, mirroring the CLI's
/// errors-not-no-ops style.
#[test]
fn store_bad_args_exit_nonzero() {
    let cases: &[&[&str]] = &[
        &["store", "stats"],                                       // missing --store
        &["store", "compact"],                                     // missing --store
        &["store"],                                                // missing action
        &["store", "frobnicate", "--store", "/tmp/s"],             // unknown action
        &["store", "stats", "extra", "--store", "/tmp/s"],         // trailing positional
        &["table1", "--store", "/tmp/s"],                          // table1 measures nothing
        &["store", "stats", "--store", "/tmp/s", "--budget", "3"], // search-only flag
        &[
            "client",
            "--socket",
            "/tmp/x.sock",
            "ping",
            "--store",
            "/tmp/s",
        ], // ping takes no store
    ];
    let dir = WorkDir::new("store_bad_args");
    for args in cases {
        let out = dir.paper(args);
        assert!(!out.status.success(), "paper {args:?} must fail");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("error:"), "stderr explains {args:?}: {text}");
        assert!(text.contains("usage: paper"), "usage shown for {args:?}");
    }
}
