//! Connection hygiene: once a connection's handler returns, the daemon
//! holds no descriptor for it, however many connections it has served.
//!
//! The descriptor table is process-wide, so this is the only test in
//! its binary: a concurrent test opening files or sockets would move
//! the count.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vliw_api::{Client, Engine, Request, ServeOptions, StoreConfig};

/// Descriptors open in this process (the handle listing them included,
/// alike on every reading).
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

/// Polls until `done` holds, failing after `within`.
fn wait_for(within: Duration, what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + within;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn ping(client: &mut Client) {
    let pong = client.request(&Request::Ping).expect("ping");
    assert!(pong.ok, "{:?}", pong.error);
}

#[test]
fn finished_connections_leave_no_descriptor_behind() {
    let socket =
        std::env::temp_dir().join(format!("vliw-api-connections-{}.sock", std::process::id()));
    let opts = ServeOptions {
        socket: socket.clone(),
        results: None,
        store: StoreConfig::none(),
    };
    let _ = std::fs::remove_file(&socket);
    let server = {
        let engine = Arc::new(Engine::new(1));
        let opts = opts.clone();
        std::thread::spawn(move || vliw_api::serve(&engine, &opts))
    };
    // The listener exists once its socket file does; no connection yet.
    wait_for(Duration::from_secs(30), "the daemon to bind", || {
        socket.exists()
    });
    let idle = open_fds();

    for _ in 0..1000 {
        ping(&mut Client::connect(&socket).expect("connect"));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut after = open_fds();
    while after > idle + 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        after = open_fds();
    }

    let mut client = Client::connect(&socket).expect("connect for shutdown");
    assert!(client.request(&Request::Shutdown).expect("shutdown").ok);
    drop(client);
    server.join().expect("serve thread").expect("serve result");
    assert!(
        after <= idle + 2,
        "{idle} descriptors open at idle, {after} after 1000 finished connections"
    );
}
