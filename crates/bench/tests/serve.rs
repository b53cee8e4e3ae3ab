//! Service determinism through the real binary: the same `Request` run
//! via the one-shot CLI and via the `paper serve` daemon must produce
//! byte-identical JSON bodies — sequentially, with 4 concurrent
//! clients, and at `--jobs 1` and `--jobs 4`.

mod common;

use common::{Daemon, WorkDir};
use vliw_api::{BusSel, Request, RunParams, StoreConfig};

/// Shuts the daemon down and checks the graceful-exit contract: the
/// client and daemon exit 0 and the socket file is removed (checked by
/// [`Daemon::shutdown`]), and the shutdown is acknowledged.
fn shutdown_gracefully(daemon: Daemon) {
    let out = daemon.shutdown();
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("daemon shutting down"),
        "shutdown acknowledged"
    );
}

/// The satellite acceptance criterion end to end: one-shot CLI vs.
/// daemon, sequential and 4-way concurrent, at `--jobs 1` and `--jobs 4`,
/// all byte-identical.
#[test]
fn cli_and_daemon_agree_byte_for_byte_across_job_counts() {
    let figure8 = Request::Figure8(RunParams {
        loops: 2,
        buses: BusSel::One,
        seed: 0,
        store: StoreConfig::none(),
    });
    let dir = WorkDir::new("cli_and_daemon_agree");
    let mut bodies = Vec::new();
    for jobs in ["1", "4"] {
        // One-shot CLI run: capture stdout and the persisted artefacts.
        let oneshot = dir.paper(&["figure8", "--loops", "2", "--buses", "1", "--jobs", jobs]);
        assert!(
            oneshot.status.success(),
            "figure8 --jobs {jobs}: {}",
            String::from_utf8_lossy(&oneshot.stderr)
        );
        let cli_body =
            std::fs::read_to_string(dir.results().join("figure8.json")).expect("figure8.json");
        let cli_meta = std::fs::read_to_string(dir.results().join("figure8.meta.json"))
            .expect("figure8.meta.json");

        let daemon = Daemon::start(&dir, &format!("agree-j{jobs}"), &["--jobs", jobs]);

        // Sequential: the client's stdout matches the one-shot run.
        let client = dir.paper(&[
            "client",
            "--socket",
            daemon.socket_arg(),
            "figure8",
            "--loops",
            "2",
            "--buses",
            "1",
        ]);
        assert!(
            client.status.success(),
            "client figure8: {}",
            String::from_utf8_lossy(&client.stderr)
        );
        assert_eq!(
            client.stdout, oneshot.stdout,
            "daemon client stdout == one-shot CLI stdout (jobs {jobs})"
        );

        // Raw wire: the response body and sidecar match the artefacts
        // the one-shot CLI wrote, byte for byte.
        let resp = daemon.raw_request(&figure8);
        assert!(resp.ok, "{:?}", resp.error);
        assert_eq!(resp.body.as_deref(), Some(cli_body.as_str()));
        assert_eq!(resp.meta.as_deref(), Some(cli_meta.as_str()));

        // 4 concurrent clients, same answer each.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        dir.paper(&[
                            "client",
                            "--socket",
                            daemon.socket_arg(),
                            "figure8",
                            "--loops",
                            "2",
                            "--buses",
                            "1",
                        ])
                    })
                })
                .collect();
            for handle in handles {
                let out = handle.join().expect("client thread");
                assert!(
                    out.status.success(),
                    "concurrent client: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                assert_eq!(
                    out.stdout, oneshot.stdout,
                    "concurrent client stdout == one-shot CLI stdout"
                );
            }
        });

        shutdown_gracefully(daemon);
        bodies.push(cli_body);
    }
    assert_eq!(
        bodies[0], bodies[1],
        "--jobs 1 and --jobs 4 bodies are byte-identical"
    );
}

/// The warm-path contract: a daemon profiles each configuration at most
/// once per process, so a repeated request re-measures nothing and only
/// the cache hit counters move.
#[test]
fn warm_daemon_requests_do_no_new_measurements() {
    let figure9 = Request::Figure9(RunParams {
        loops: 2,
        buses: BusSel::One,
        seed: 0,
        store: StoreConfig::none(),
    });
    let dir = WorkDir::new("warm_daemon");
    let daemon = Daemon::start(&dir, "warm", &["--jobs", "2"]);
    let cold = daemon.raw_request(&figure9);
    assert!(cold.ok, "{:?}", cold.error);
    assert!(cold.cache.measure_misses > 0, "cold run measures");
    let warm = daemon.raw_request(&figure9);
    assert!(warm.ok, "{:?}", warm.error);
    assert_eq!(
        warm.cache.measure_misses, cold.cache.measure_misses,
        "warm run does no new measurements"
    );
    assert!(
        warm.cache.measure_hits > cold.cache.measure_hits,
        "warm run is served from the cache"
    );
    assert_eq!(warm.body, cold.body, "warm body is byte-identical");
    assert_eq!(warm.text, cold.text, "warm text is byte-identical");
    shutdown_gracefully(daemon);
}

/// `paper loadgen` drives a live daemon and reports a latency/throughput
/// summary plus a JSON artefact.
#[test]
fn loadgen_reports_percentiles_against_a_live_daemon() {
    let dir = WorkDir::new("loadgen");
    let daemon = Daemon::start(&dir, "loadgen", &["--jobs", "2"]);
    // No request tail: loadgen defaults to the cheap `ping` request.
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
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 clients x 5 x ping"), "{stdout}");
    assert!(stdout.contains("p50"), "{stdout}");
    assert!(stdout.contains("p99"), "{stdout}");
    assert!(stdout.contains("req/s"), "{stdout}");
    let json = std::fs::read_to_string(dir.results().join("loadgen.json")).expect("loadgen.json");
    for key in [
        "\"serve_requests_per_second\"",
        "\"p50_ms\"",
        "\"p99_ms\"",
        "\"total_requests\": 10",
    ] {
        assert!(json.contains(key), "loadgen.json has {key}: {json}");
    }
    shutdown_gracefully(daemon);
}

/// Flag validation for the service subcommands mirrors the CLI's strict
/// style: wrong combinations fail fast with usage on stderr.
#[test]
fn service_bad_args_exit_nonzero() {
    let cases: &[&[&str]] = &[
        &["serve"],                                       // missing --socket
        &["client", "figure6"],                           // missing --socket
        &["loadgen", "ping"],                             // missing --socket
        &["serve", "--socket", "/tmp/x.sock", "figure6"], // no experiment with serve
        &["figure6", "--socket", "/tmp/x.sock"],          // socket is service-only
        &["figure6", "--results", "/tmp/r"],              // results is serve-only
        &[
            "client",
            "--socket",
            "/tmp/x.sock",
            "--results",
            "/tmp/r",
            "ping",
        ],
        &["figure6", "--clients", "2"], // loadgen-only
        &[
            "client",
            "--socket",
            "/tmp/x.sock",
            "--requests",
            "2",
            "ping",
        ],
        &[
            "loadgen",
            "--socket",
            "/tmp/x.sock",
            "--clients",
            "0",
            "ping",
        ],
        &[
            "loadgen",
            "--socket",
            "/tmp/x.sock",
            "--requests",
            "0",
            "ping",
        ],
        &["client", "--socket", "/tmp/x.sock", "all"], // no fan-out via client
        &["client", "--socket", "/tmp/x.sock", "corpus", "dump"], // dump is local-only
        &["loadgen", "--socket", "/tmp/x.sock", "shutdown"], // no control reqs in loadgen
        &["client", "--socket", "/tmp/x.sock", "ping", "extra"], // trailing positional
    ];
    let dir = WorkDir::new("service_bad_args");
    for args in cases {
        let out = dir.paper(args);
        assert!(!out.status.success(), "paper {args:?} must fail");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("error:"), "stderr explains {args:?}: {text}");
        assert!(text.contains("usage: paper"), "usage shown for {args:?}");
    }
}

/// A client pointed at a dead socket reports a clean error, not a hang.
#[test]
fn client_fails_cleanly_when_no_daemon_is_listening() {
    let socket = std::env::temp_dir().join(format!("paper-dead-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let out = WorkDir::new("dead_socket").paper(&[
        "client",
        "--socket",
        socket.to_str().unwrap(),
        "ping",
    ]);
    assert!(!out.status.success(), "dead socket must fail");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("error:"), "stderr explains: {text}");
}
