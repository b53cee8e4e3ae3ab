//! CLI contract tests for the `paper` binary: exit codes, `--help`, and the
//! JSON artefacts scripting depends on.

mod common;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

use common::WorkDir;
use vliw_api::request::KNOBS;

#[test]
fn help_exits_zero_and_prints_usage() {
    let dir = WorkDir::new("help");
    for flag in ["--help", "-h"] {
        let out = dir.paper(&[flag]);
        assert!(out.status.success(), "{flag} must exit 0");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(
            text.contains("usage: paper"),
            "usage text on {flag}: {text}"
        );
        assert!(text.contains("--loops"), "flags documented: {text}");
    }
}

#[test]
fn bad_args_exit_nonzero() {
    let cases: &[&[&str]] = &[
        &["--loops"],               // missing value
        &["--loops", "0"],          // not positive
        &["--loops", "many"],       // not a number
        &["--buses", "3"],          // unsupported bus count
        &["--jobs"],                // missing value
        &["--jobs", "many"],        // not a number
        &["--experiment"],          // missing name
        &["--experiment", "fig42"], // unknown experiment
        &["--frobnicate"],          // unknown flag
        &["figure42"],              // unknown experiment
        &["schedbench"],            // removed experiment
        &["figure6", "--profile"],  // removed flag
    ];
    let dir = WorkDir::new("bad_args");
    for args in cases {
        let out = dir.paper(args);
        assert!(!out.status.success(), "paper {args:?} must fail");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("error:"), "stderr explains {args:?}: {text}");
        assert!(text.contains("usage: paper"), "usage shown for {args:?}");
    }
}

/// `paper --help` lists the request flags as exactly the decoder's knob
/// keys, in order, with each CLI alias beside its key.
#[test]
fn help_lists_exactly_the_decoder_knobs() {
    let out = WorkDir::new("help_knobs").paper(&["--help"]);
    assert!(out.status.success(), "--help exits 0");
    let text = String::from_utf8_lossy(&out.stderr);
    let section = text
        .split("request flags")
        .nth(1)
        .and_then(|rest| rest.split("process flags").next())
        .unwrap_or_else(|| panic!("help has a request-flag section: {text}"));
    let flag_lines: Vec<&str> = section.lines().filter(|l| l.starts_with("  --")).collect();
    let listed: Vec<&str> = flag_lines
        .iter()
        .map(|l| l.trim_start().split([' ', ',']).next().unwrap())
        .collect();
    let keys: Vec<String> = KNOBS.iter().map(|k| format!("--{}", k.key)).collect();
    assert_eq!(listed, keys, "request flags are the decoder's keys");
    for (key, alias) in [("--loops", "--loops-per-benchmark "), ("--input", "--in ")] {
        let line = flag_lines
            .iter()
            .find(|l| l.contains(&format!("{key} ")))
            .unwrap();
        assert!(
            line.contains(alias),
            "{alias} is named beside {key}: {line}"
        );
    }
}

/// A copied `paper` writes its artefacts under the directory it runs in,
/// not beside itself and not into the tree it was built from.
#[test]
fn a_copied_binary_writes_results_where_it_runs() {
    let home = WorkDir::new("copied_home");
    let cwd = WorkDir::new("copied_cwd");
    let binary = home.0.join("paper");
    // Copied by a separate process: a write handle opened in this one
    // could leak into a sibling test's forked child and make the exec
    // below fail with ETXTBSY ("Text file busy").
    let copied = Command::new("cp")
        .arg(env!("CARGO_BIN_EXE_paper"))
        .arg(&binary)
        .status()
        .expect("run cp");
    assert!(copied.success(), "copy the binary");
    let build_tree = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/paper-results");
    let modified = |path: &Path| -> Option<SystemTime> {
        std::fs::metadata(path).and_then(|m| m.modified()).ok()
    };
    let before = modified(&build_tree.join("table1.json"));

    let out = Command::new(&binary)
        .arg("table1")
        .current_dir(&cwd.0)
        .output()
        .expect("run the copied binary");
    assert!(
        out.status.success(),
        "copied table1: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        cwd.results().join("table1.json").is_file(),
        "written where it runs"
    );
    let beside: Vec<_> = std::fs::read_dir(&home.0)
        .expect("list the binary's directory")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(beside, ["paper"], "nothing written beside the binary");
    assert_eq!(
        modified(&build_tree.join("table1.json")),
        before,
        "nothing written into the build tree"
    );
}

#[test]
fn table1_smoke_produces_json() {
    let dir = WorkDir::new("table1_smoke");
    let out = dir.paper(&["table1"]);
    assert!(
        out.status.success(),
        "table1 run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1"), "prints the table: {stdout}");

    let json = std::fs::read_to_string(dir.results().join("table1.json")).expect("table1.json");
    assert!(json.trim_start().starts_with('['), "rows are a JSON array");
    for key in ["\"class\"", "\"latency\"", "\"relative_energy\"", "fdiv"] {
        assert!(json.contains(key), "json has {key}: {json}");
    }
}

#[test]
fn experiment_flag_and_jobs_report_wall_time() {
    // `--experiment NAME` is equivalent to the positional form, `--jobs`
    // is accepted, and elapsed wall-time lands on stderr.
    let out = WorkDir::new("experiment_flag").paper(&[
        "--experiment",
        "figure7",
        "--loops",
        "1",
        "--buses",
        "2",
        "--jobs",
        "2",
    ]);
    assert!(
        out.status.success(),
        "figure7 via --experiment: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("[time] figure7:"),
        "wall-time on stderr: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 7"), "prints the figure: {stdout}");
}

#[test]
fn parallel_json_is_byte_identical_to_serial() {
    // The acceptance property, end to end through the binary: the JSON
    // artefact of a parallel run matches the serial run byte for byte.
    let dir = WorkDir::new("parallel_json");
    let run = |jobs: &str| -> String {
        let out = dir.paper(&[
            "--experiment",
            "figure6",
            "--loops",
            "1",
            "--buses",
            "1",
            "--jobs",
            jobs,
        ]);
        assert!(
            out.status.success(),
            "figure6 --jobs {jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(dir.results().join("figure6.json")).expect("figure6.json")
    };
    let serial = run("1");
    let parallel = run("4");
    assert_eq!(serial, parallel, "--jobs must not change the JSON");
    assert!(serial.contains("ed2_normalized"));
}

#[test]
fn table2_small_run_produces_json_rows() {
    let dir = WorkDir::new("table2_small");
    let out = dir.paper(&["table2", "--loops", "2"]);
    assert!(
        out.status.success(),
        "table2 run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.results().join("table2.json")).expect("table2.json");
    for key in ["\"benchmark\"", "171.swim", "301.apsi"] {
        assert!(json.contains(key), "json has {key}");
    }
}

#[test]
fn search_bad_args_exit_nonzero() {
    let cases: &[&[&str]] = &[
        &["search", "--strategy"],                           // missing value
        &["search", "--strategy", "frobnicate"],             // unknown strategy
        &["search", "--budget"],                             // missing value
        &["search", "--budget", "0"],                        // not positive
        &["search", "--budget", "many"],                     // not a number
        &["search", "--space", "bogus"],                     // unknown space
        &["--seed"],                                         // missing value
        &["--seed", "minus-one"],                            // not a number
        &["figure6", "--strategy", "ga"],                    // search-only flag
        &["table2", "--budget", "4"],                        // search-only flag
        &["corpus", "dump", "--space", "paper"],             // search-only flag
        &["figure6", "--racing"],                            // search-only flag
        &["table2", "--shard", "1/2"],                       // search-only flag
        &["search", "--shard"],                              // missing value
        &["search", "--shard", "3"],                         // not i/n
        &["search", "--shard", "a/b"],                       // not numbers
        &["search", "--shard", "0/2"],                       // shard is 1-based
        &["search", "--shard", "3/2"],                       // i beyond n
        &["search", "merge"],                                // no shard files
        &["search", "merge", "x.json", "--budget", "4"],     // flags don't apply
        &["search", "merge", "x.json", "--store", "/tmp/s"], // reads files, no store
    ];
    let dir = WorkDir::new("search_bad_args");
    for args in cases {
        let out = dir.paper(args);
        assert!(!out.status.success(), "paper {args:?} must fail");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("usage: paper"), "usage shown for {args:?}");
    }
}

#[test]
fn search_merge_rejects_unreadable_and_invalid_shards() {
    let dir = WorkDir::new("merge_rejects");
    let out = dir.paper(&["search", "merge", "/nonexistent/shard.json"]);
    assert!(!out.status.success(), "missing shard file must fail");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("error:"), "stderr explains: {text}");

    // A JSON file that is not a shard artifact fails the strict parse.
    let bogus = dir.0.join("bogus_shard.json");
    std::fs::write(&bogus, "{\"strategy\": \"ga\"}").expect("write bogus shard");
    let out = dir.paper(&["search", "merge", bogus.to_str().expect("utf-8 path")]);
    assert!(!out.status.success(), "non-shard JSON must fail");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(
        text.contains("missing field"),
        "strict parse named the gap: {text}"
    );
}

/// The acceptance criterion through the binary: `paper search` emits a
/// deterministic Pareto-frontier JSON, byte-identical across `--jobs`.
#[test]
fn search_json_is_byte_identical_across_job_counts() {
    let dir = WorkDir::new("search_json");
    let run = |jobs: &str| -> String {
        let out = dir.paper(&[
            "search",
            "--strategy",
            "anneal",
            "--budget",
            "6",
            "--seed",
            "2",
            "--loops",
            "1",
            "--buses",
            "1",
            "--jobs",
            jobs,
        ]);
        assert!(
            out.status.success(),
            "search --jobs {jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(dir.results().join("search.json")).expect("search.json")
    };
    let serial = run("1");
    let parallel = run("4");
    assert_eq!(serial, parallel, "--jobs must not change search.json");
    for key in [
        "\"strategy\": \"anneal\"",
        "\"space\": \"paper\"",
        "\"frontier\"",
        "\"trace\"",
        "\"ed2\"",
    ] {
        assert!(serial.contains(key), "search.json has {key}");
    }
    // The sidecar records every knob that shaped the run.
    let meta = std::fs::read_to_string(dir.results().join("search.meta.json")).expect("sidecar");
    for key in ["\"budget\": 6", "\"seed\": 2", "\"strategy\": \"anneal\""] {
        assert!(meta.contains(key), "meta has {key}: {meta}");
    }
}

/// The scaled-search contract, end to end through the binary.
///
/// Phase 1 (sharding): the paper grid searched as 3 shards and as 1
/// shard merges to byte-identical frontiers regardless of shard count
/// and merge order. Phase 2 (racing): a racing run of the full grid
/// produces the exact bytes of the non-racing run. Phase 3 (warm
/// start): re-running the racing search against the now-populated
/// store replays the same bytes without re-measuring, and the store
/// reports the persisted evaluations.
#[test]
fn sharded_racing_and_warm_searches_reproduce_the_plain_frontier() {
    let dir = WorkDir::new("sharded_search");
    let path = |name: &str| dir.0.join(name).to_str().expect("utf-8 path").to_owned();

    let shard_run = |extra: &[&str]| {
        let mut args = vec![
            "search",
            "--strategy",
            "exhaustive",
            "--budget",
            "64",
            "--loops",
            "1",
            "--buses",
            "1",
            "--jobs",
            "2",
        ];
        args.extend_from_slice(extra);
        let out = dir.paper(&args);
        assert!(
            out.status.success(),
            "paper {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(dir.results().join("search_shard.json")).expect("shard artifact")
    };

    // 3-way and 1-way partitions of the same grid.
    for i in 1..=3 {
        let artifact = shard_run(&["--shard", &format!("{i}/3")]);
        std::fs::write(path(&format!("shard{i}.json")), artifact).expect("stash shard");
    }
    let whole = shard_run(&["--shard", "1/1"]);
    std::fs::write(path("whole.json"), &whole).expect("stash 1/1 shard");

    let merge = |files: &[&str], out_name: &str| -> String {
        let out_path = path(out_name);
        let mut args = vec!["search", "merge"];
        args.extend_from_slice(files);
        args.extend_from_slice(&["--out", &out_path]);
        let out = dir.paper(&args);
        assert!(
            out.status.success(),
            "paper {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&out_path).expect("merged artifact")
    };
    let s1 = path("shard1.json");
    let s2 = path("shard2.json");
    let s3 = path("shard3.json");
    let w = path("whole.json");
    let merged = merge(&[&s1, &s2, &s3], "merged3.json");
    let reversed = merge(&[&s3, &s2, &s1], "merged3r.json");
    let one_way = merge(&[&w], "merged1.json");
    assert_eq!(merged, reversed, "merge order must not change the bytes");
    assert_eq!(merged, one_way, "shard count must not change the bytes");
    for key in ["\"evaluations\": 20", "\"frontier\"", "\"best\""] {
        assert!(merged.contains(key), "merged artifact has {key}: {merged}");
    }

    // Racing reorders when candidates reach full measurement; on full
    // coverage it must change nothing at all.
    let raced = shard_run(&["--shard", "1/1", "--racing"]);
    assert_eq!(raced, whole, "racing must not change the frontier bytes");

    // Warm start: a cold racing run populates the store; a fresh
    // process replays it byte for byte.
    let store = path("store");
    let cold = shard_run(&["--shard", "1/1", "--racing", "--store", &store]);
    assert_eq!(cold, whole, "the store must not change the frontier bytes");
    let warm = shard_run(&["--shard", "1/1", "--racing", "--store", &store]);
    assert_eq!(warm, cold, "a warm replay reproduces the cold bytes");

    let stats = dir.paper(&["store", "stats", "--store", &store]);
    assert!(
        stats.status.success(),
        "store stats: {}",
        String::from_utf8_lossy(&stats.stderr)
    );
    let stats_text = String::from_utf8_lossy(&stats.stdout).to_string();
    assert!(
        !stats_text.contains("+ 0 evals"),
        "the search persisted eval records: {stats_text}"
    );
    assert!(
        stats_text.contains("evals"),
        "store stats report eval records: {stats_text}"
    );
}

#[test]
fn corpus_bad_args_exit_nonzero() {
    let cases: &[&[&str]] = &[
        &["corpus"],                                // missing action
        &["corpus", "frobnicate"],                  // unknown action
        &["corpus", "dump", "extra"],               // trailing positional
        &["corpus", "dump", "--experiment", "x"],   // incompatible flag
        &["corpus", "dump", "--in", "x.json"],      // dump generates, no --in
        &["corpus", "schedule", "--out", "x.json"], // --out is dump-only
        &["figure6", "--out", "x.json"],            // --in/--out are corpus-only
        &["table2", "--in", "x.json"],
        &["--in"],                                 // missing value
        &["--out"],                                // missing value
        &["corpus", "stats", "--store", "/tmp/s"], // corpus kinds measure nothing
        &["corpus", "dump", "--store", "/tmp/s"],
    ];
    let dir = WorkDir::new("corpus_bad_args");
    for args in cases {
        let out = dir.paper(args);
        assert!(!out.status.success(), "paper {args:?} must fail");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("usage: paper"), "usage shown for {args:?}");
    }
}

#[test]
fn corpus_schedule_rejects_bad_file() {
    let out = WorkDir::new("corpus_bad_file").paper(&[
        "corpus",
        "schedule",
        "--in",
        "/nonexistent/corpus.json",
    ]);
    assert!(!out.status.success(), "missing corpus file must fail");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("error:"), "stderr explains: {text}");
}

/// The tentpole acceptance criterion, end to end through the binary: a
/// corpus dumped by `paper corpus dump` reloads and schedules to
/// byte-identical JSON vs. the in-memory suite, at `--jobs 1` and
/// `--jobs 4`.
#[test]
fn corpus_dump_then_schedule_matches_in_memory_at_any_job_count() {
    let dir = WorkDir::new("corpus_round_trip");
    let corpus_path = dir.0.join("corpus.json");
    let corpus_arg = corpus_path.to_str().expect("utf-8 temp path");

    let out = dir.paper(&["corpus", "dump", "--loops", "2", "--out", corpus_arg]);
    assert!(
        out.status.success(),
        "corpus dump: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&corpus_path).expect("corpus file written");
    assert!(doc.contains("heterovliw-corpus"), "format tag present");
    assert!(doc.contains("\"stress\""), "family benchmarks included");
    // The sidecar lands next to the --out file and records the scale.
    let meta_path = corpus_path.with_extension("meta.json");
    let meta = std::fs::read_to_string(&meta_path).expect("sidecar next to corpus");
    assert!(meta.contains("\"loops_per_benchmark\": 2"), "{meta}");

    let schedule = |args: &[&str]| -> String {
        let out = dir.paper(args);
        assert!(
            out.status.success(),
            "paper {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(dir.results().join("corpus_schedule.json"))
            .expect("corpus_schedule.json")
    };
    let in_memory = schedule(&["corpus", "schedule", "--loops", "2", "--jobs", "1"]);
    let from_file_j1 = schedule(&["corpus", "schedule", "--in", corpus_arg, "--jobs", "1"]);
    let from_file_j4 = schedule(&["corpus", "schedule", "--in", corpus_arg, "--jobs", "4"]);

    assert_eq!(
        in_memory, from_file_j1,
        "reloaded corpus must schedule byte-identically to the in-memory suite"
    );
    assert_eq!(
        from_file_j1, from_file_j4,
        "--jobs must not change the JSON"
    );
    for key in [
        "\"reference\"",
        "\"heterogeneous\"",
        "\"it_ns\"",
        "membound",
    ] {
        assert!(in_memory.contains(key), "rows have {key}");
    }
}

#[test]
fn corpus_stats_summarises_families() {
    let dir = WorkDir::new("corpus_stats");
    let out = dir.paper(&["corpus", "stats", "--loops", "2"]);
    assert!(
        out.status.success(),
        "corpus stats: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json =
        std::fs::read_to_string(dir.results().join("corpus_stats.json")).expect("corpus_stats");
    for key in ["multirec", "ilpwide", "\"mean_rec_mii\"", "168.wupwise"] {
        assert!(json.contains(key), "stats have {key}");
    }
}

#[test]
fn familysweep_emits_rows_per_family_and_menu() {
    let dir = WorkDir::new("familysweep");
    let out = dir.paper(&["familysweep", "--loops", "1", "--buses", "2"]);
    assert!(
        out.status.success(),
        "familysweep: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json =
        std::fs::read_to_string(dir.results().join("familysweep.json")).expect("familysweep");
    for key in [
        "membound", "ilpwide", "multirec", "stress", "\"menu\"", "any freq",
    ] {
        assert!(json.contains(key), "sweep has {key}");
    }
}
