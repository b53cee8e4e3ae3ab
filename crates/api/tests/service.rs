//! End-to-end tests of the service core: the daemon loop, the client,
//! batching, error responses, artefact persistence and the load
//! generator, all in-process over a temp-dir Unix socket.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vliw_api::{
    loadgen, Client, Engine, LoadgenOptions, Request, Response, RunParams, SearchParams,
    ServeOptions, StoreConfig,
};

/// A unique socket path per test (tests in one binary run in parallel).
fn socket_path() -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vliw-api-{}-{n}.sock", std::process::id()))
}

/// Polls until the daemon accepts connections. Checking the socket file
/// is not enough: a stale file can predate the listener.
fn connect_ready(socket: &std::path::Path) -> Client {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(client) = Client::connect(socket) {
            return client;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never listened on {socket:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Runs `body` against a live in-process daemon, always shutting the
/// daemon down afterwards. The serve thread is unscoped (the engine
/// rides in an [`Arc`]) so a failed assertion panics the test instead of
/// hanging the harness on a scope join.
fn with_daemon<T>(
    opts_for: impl FnOnce(PathBuf) -> ServeOptions,
    body: impl FnOnce(&ServeOptions) -> T,
) -> T {
    let opts = opts_for(socket_path());
    let engine = Arc::new(Engine::new(2).with_default_store(opts.store.clone()));
    let server = {
        let engine = Arc::clone(&engine);
        let opts = opts.clone();
        std::thread::spawn(move || vliw_api::serve(&engine, &opts))
    };
    drop(connect_ready(&opts.socket));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&opts)));
    let mut client = Client::connect(&opts.socket).expect("connect for shutdown");
    let down = client.request(&Request::Shutdown).expect("shutdown");
    assert!(down.ok);
    server.join().expect("serve thread").expect("serve result");
    assert!(!opts.socket.exists(), "socket removed on shutdown");
    match result {
        Ok(v) => v,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

fn small() -> RunParams {
    RunParams {
        loops: 2,
        buses: vliw_api::BusSel::One,
        seed: 0,
        store: StoreConfig::none(),
    }
}

#[test]
fn request_response_and_batch_round_trip() {
    with_daemon(
        |socket| ServeOptions {
            socket,
            results: None,
            store: StoreConfig::none(),
        },
        |opts| {
            let mut client = Client::connect(&opts.socket).expect("connect");
            let pong = client.request(&Request::Ping).expect("ping");
            assert!(pong.ok);
            assert_eq!(pong.text, "pong\n");

            // A batch fans out through the engine and comes back in
            // request order.
            let reqs = vec![
                Request::Table1,
                Request::Table2(small()),
                Request::Figure6(small()),
            ];
            let resps = client.request_batch(&reqs).expect("batch");
            assert_eq!(resps.len(), 3);
            for (req, resp) in reqs.iter().zip(&resps) {
                assert!(resp.ok, "{}: {:?}", req.kind(), resp.error);
                assert_eq!(resp.kind, req.kind());
                assert!(resp.body.is_some());
            }

            // Cache reuse is visible across requests of one daemon: a
            // warm repeat does no new measurements.
            let warm = client.request(&Request::Figure6(small())).expect("warm");
            assert!(warm.ok);
            assert_eq!(
                warm.cache.measure_misses, resps[2].cache.measure_misses,
                "a warm figure6 re-measures nothing"
            );
            assert_eq!(warm.body, resps[2].body, "and its body is byte-identical");

            // Shutdown inside a batch is rejected as a whole.
            let err = client
                .request_batch(&[Request::Ping, Request::Shutdown])
                .expect_err("shutdown in a batch");
            assert!(err.contains("standalone"), "{err}");
        },
    );
}

#[test]
fn malformed_lines_get_error_responses_and_the_connection_survives() {
    with_daemon(
        |socket| ServeOptions {
            socket,
            results: None,
            store: StoreConfig::none(),
        },
        |opts| {
            let mut raw = UnixStream::connect(&opts.socket).expect("connect");
            let mut reader = BufReader::new(raw.try_clone().expect("clone"));
            for (line, needle) in [
                ("this is not json", "malformed request"),
                ("{\"kind\":\"frobnicate\"}", "unknown request kind"),
                ("{\"kind\":\"figure6\",\"budget\":3}", "search"),
                ("[{\"kind\":\"ping\"},42]", "request must be a JSON object"),
            ] {
                raw.write_all(line.as_bytes()).expect("send");
                raw.write_all(b"\n").expect("send newline");
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("receive");
                let resp = Response::from_json_str(reply.trim_end()).expect("parse");
                assert!(!resp.ok, "{line} must fail");
                let err = resp.error.expect("error message");
                assert!(err.contains(needle), "{line}: {err}");
            }
            // The same connection still serves good requests.
            raw.write_all(b"{\"kind\":\"ping\"}\n").expect("send ping");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("receive pong");
            let resp = Response::from_json_str(reply.trim_end()).expect("parse pong");
            assert!(resp.ok);
        },
    );
}

#[test]
fn daemon_persists_artifacts_when_given_a_results_dir() {
    let dir = std::env::temp_dir().join(format!("vliw-api-results-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    with_daemon(
        |socket| ServeOptions {
            socket,
            results: Some(dir.clone()),
            store: StoreConfig::none(),
        },
        |opts| {
            let mut client = Client::connect(&opts.socket).expect("connect");
            let resp = client.request(&Request::Table2(small())).expect("table2");
            assert!(resp.ok);
            let body = std::fs::read_to_string(dir.join("table2.json")).expect("body persisted");
            assert_eq!(Some(body), resp.body, "daemon wrote the response body");
            let meta = std::fs::read_to_string(dir.join("table2.meta.json")).expect("sidecar");
            assert_eq!(Some(meta), resp.meta, "daemon wrote the sidecar");
        },
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn loadgen_reports_latency_percentiles_and_throughput() {
    with_daemon(
        |socket| ServeOptions {
            socket,
            results: None,
            store: StoreConfig::none(),
        },
        |opts| {
            let report = loadgen(
                &opts.socket,
                &LoadgenOptions {
                    clients: 3,
                    requests_per_client: 5,
                    request: Request::Ping,
                },
            )
            .expect("loadgen");
            assert_eq!(report.total_requests, 15);
            assert!(report.p50_ms > 0.0);
            assert!(report.p99_ms >= report.p50_ms);
            assert!(report.max_ms >= report.min_ms);
            assert!(report.serve_requests_per_second > 0.0);
            assert_eq!(report.kind, "ping");
        },
    );
}

#[test]
fn daemon_default_store_makes_a_second_daemon_warm() {
    let dir = std::env::temp_dir().join(format!("vliw-api-daemon-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let req = Request::Search {
        params: small(),
        search: SearchParams {
            budget: 8,
            ..SearchParams::default()
        },
    };

    let run_once = || {
        with_daemon(
            |socket| ServeOptions {
                socket,
                results: None,
                store: StoreConfig::at(&dir),
            },
            |opts| {
                let mut client = Client::connect(&opts.socket).expect("connect");
                client.request(&req).expect("search")
            },
        )
    };
    let cold = run_once();
    assert!(cold.ok, "cold daemon run failed: {:?}", cold.error);
    assert!(cold.cache.measure_misses > 0, "the first daemon measured");
    assert!(cold.cache.store_entries > 0, "and persisted to its store");

    // A brand-new daemon process state (fresh engine) over the same
    // store directory serves the identical request without a single
    // re-measurement — the tentpole's warm-run guarantee, through the
    // daemon transport.
    let warm = run_once();
    assert!(warm.ok, "warm daemon run failed: {:?}", warm.error);
    assert_eq!(
        warm.cache.measure_misses, 0,
        "the second daemon re-scheduled nothing: {:?}",
        warm.cache
    );
    assert!(warm.cache.store_hits > 0, "it was served from the store");
    assert_eq!(warm.text, cold.text, "stdout rendering is byte-stable");
    assert_eq!(warm.body, cold.body, "search.json is byte-stable");
    assert_eq!(warm.meta, cold.meta, "the sidecar is byte-stable");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn stale_socket_files_are_recovered() {
    let socket = socket_path();
    // A crashed daemon leaves the socket file behind; a fresh bind must
    // detect that nobody is listening and replace it.
    drop(std::os::unix::net::UnixListener::bind(&socket).expect("first bind"));
    assert!(socket.exists(), "stale socket file left behind");
    let engine = Arc::new(Engine::new(1));
    let opts = ServeOptions {
        socket: socket.clone(),
        results: None,
        store: StoreConfig::none(),
    };
    let server = std::thread::spawn(move || vliw_api::serve(&engine, &opts));
    // `connect_ready` may race the recovery (hitting the stale file
    // before it is replaced), so it must keep retrying until the real
    // listener answers.
    let mut client = connect_ready(&socket);
    assert!(client.request(&Request::Ping).expect("ping").ok);
    assert!(client.request(&Request::Shutdown).expect("shutdown").ok);
    server.join().expect("serve thread").expect("serve result");
}

#[test]
fn an_unterminated_oversized_line_gets_one_error_and_its_connection_closes() {
    with_daemon(
        |socket| ServeOptions {
            socket,
            results: None,
            store: StoreConfig::none(),
        },
        |opts| {
            let errors = vliw_obs::counter("serve_errors_total");
            let before = errors.get();
            let mut raw = UnixStream::connect(&opts.socket).expect("connect");
            // A daemon that waits for the newline must fail this test,
            // not hang it.
            raw.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            let mut reader = BufReader::new(raw.try_clone().expect("clone"));
            // 2 MiB and no newline. The daemon stops reading at its cap
            // and shuts the connection down, so the tail of this write
            // may fail.
            let line = vec![b'x'; 2 << 20];
            assert!(line.len() > vliw_api::MAX_LINE_BYTES);
            let _ = raw.write_all(&line);
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("receive the error");
            let resp = Response::from_json_str(reply.trim_end()).expect("parse");
            assert!(!resp.ok);
            let err = resp.error.expect("error message");
            assert!(err.contains("exceeds"), "{err}");
            let mut rest = String::new();
            assert_eq!(
                reader.read_line(&mut rest).unwrap_or(0),
                0,
                "the daemon closed the connection: {rest:?}"
            );
            // Sibling tests share the process-wide counter, so only a
            // lower bound on its growth holds.
            assert!(errors.get() > before, "the fault is counted");

            // The daemon itself is unharmed.
            let mut client = Client::connect(&opts.socket).expect("connect again");
            let pong = client.request(&Request::Ping).expect("ping");
            assert!(pong.ok);
            assert_eq!(pong.text, "pong\n");
        },
    );
}
