//! The `paper serve` daemon: the shared [`Engine`] behind a Unix
//! socket.
//!
//! The wire protocol is newline-delimited JSON over
//! [`std::os::unix::net`] (no external dependencies):
//!
//! * one [`Request`] object per line → one compact [`Response`] object
//!   per line;
//! * a JSON **array** of request objects on one line is a batch: it
//!   fans out across the engine's worker pool ([`Engine::run_batch`])
//!   and the reply is one array of responses in request order;
//! * a malformed line, including one that is not UTF-8, yields a
//!   per-request error response — the connection (and the daemon) stay
//!   up;
//! * a line longer than [`MAX_LINE_BYTES`] is answered with one error
//!   response and its connection is closed, so a client that never
//!   sends a newline cannot grow the daemon's memory;
//! * `{"kind":"shutdown"}` is acknowledged, then the daemon stops
//!   accepting, unblocks every open connection and exits the serve loop
//!   once all handler threads have drained (graceful shutdown).
//!
//! Because every connection shares one engine, cache hits persist
//! across requests and clients: the first `figure6` profiles the suite,
//! the hundredth is served from the measurement memo cache — exactly
//! what the per-response [`CacheStats`](crate::response::CacheStats)
//! makes observable.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::artifacts::persist_response;
use crate::engine::Engine;
use crate::request::Request;
use crate::response::Response;

/// The longest request line the daemon reads, newline excluded: far
/// above any batch a client sends, small enough that a connection's
/// buffer stays bounded.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Filesystem path of the Unix socket to listen on.
    pub socket: PathBuf,
    /// When set, the daemon also persists each successful response's
    /// artefacts under this directory (the same shared write path the
    /// CLI uses), logging the written files on stderr.
    pub results: Option<PathBuf>,
    /// The daemon's default persistent measurement store (`--store`):
    /// applied to every request that does not carry its own. The
    /// engine must be built with the same default
    /// ([`Engine::with_default_store`]); the CLI wires both from one
    /// flag.
    pub store: vliw_store::StoreConfig,
}

/// Runs the daemon until a `shutdown` request arrives. Blocks the
/// calling thread; connection handlers run on scoped threads sharing
/// `engine`.
///
/// # Errors
///
/// Returns an error if the socket cannot be bound (a stale socket file
/// left by a crashed daemon is detected and replaced; a *live* daemon
/// on the same path is reported instead of hijacked).
pub fn serve(engine: &Engine, opts: &ServeOptions) -> io::Result<()> {
    // A daemon always has a potential metrics consumer (any client can
    // send {"kind":"metrics"}), so latency histograms are live for the
    // whole serve lifetime.
    vliw_obs::enable_timing();
    let listener = bind(&opts.socket)?;
    eprintln!("[serve] listening on {}", opts.socket.display());
    if let Some(dir) = &opts.store.dir {
        eprintln!("[serve] measurement store at {}", dir.display());
    }
    let shutdown = AtomicBool::new(false);
    let conns = Connections::default();
    std::thread::scope(|scope| {
        for (id, stream) in (0u64..).zip(listener.incoming()) {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("[serve] accept failed: {e}");
                    continue;
                }
            };
            let registered = stream
                .try_clone()
                .ok()
                .map(|clone| Registered::new(&conns, id, clone));
            let shutdown = &shutdown;
            let conns = &conns;
            scope.spawn(move || {
                let _registered = registered;
                handle_connection(engine, stream, opts, shutdown, conns);
            });
        }
    });
    let _ = fs::remove_file(&opts.socket);
    eprintln!("[serve] shutdown complete");
    Ok(())
}

/// Binds the socket, recovering from a stale file left by a crashed
/// daemon (bind fails with `AddrInUse`, but nobody answers a probe
/// connect).
fn bind(path: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving on {}", path.display()),
                ));
            }
            eprintln!("[serve] removing stale socket {}", path.display());
            fs::remove_file(path)?;
            UnixListener::bind(path)
        }
        Err(e) => Err(e),
    }
}

/// Serves one connection: a line of requests in, a line of responses
/// out, until the peer hangs up or a shutdown request arrives.
fn handle_connection(
    engine: &Engine,
    stream: UnixStream,
    opts: &ServeOptions,
    shutdown: &AtomicBool,
    conns: &Connections,
) {
    let Ok(read_half) = stream.try_clone() else {
        eprintln!("[serve] could not clone connection");
        return;
    };
    let _span = vliw_obs::span("serve.connection");
    let _in_flight = InFlightConnection::new();
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Read at most one byte past the cap: enough to tell an
        // over-long line from one that fits exactly.
        let limit = MAX_LINE_BYTES as u64 + 1;
        let Ok(n) = reader.by_ref().take(limit).read_until(b'\n', &mut buf) else {
            break; // peer vanished or the daemon is shutting down
        };
        if n == 0 {
            break;
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_LINE_BYTES {
            vliw_obs::counter("serve_errors_total").inc();
            let reply = Response::protocol_error(format!(
                "request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"
            ))
            .to_json_line();
            let _ = writer
                .write_all(reply.as_bytes())
                .and_then(|()| writer.write_all(b"\n"));
            // Shut the socket down rather than only dropping this handle:
            // the shutdown list holds a clone, and a client still writing
            // must see the connection end instead of blocking.
            let _ = writer.shutdown(Shutdown::Both);
            eprintln!("[serve] over-long request line: connection closed");
            break;
        }
        let (reply, stop) = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => answer_line(engine, line.trim(), opts),
            Err(e) => {
                vliw_obs::counter("serve_errors_total").inc();
                let error = format!("request line is not valid UTF-8: {e}");
                (Response::protocol_error(error).to_json_line(), false)
            }
        };
        if writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .is_err()
        {
            break;
        }
        if stop {
            initiate_shutdown(&opts.socket, shutdown, conns);
            return;
        }
    }
}

/// Produces the reply line for one request line, plus whether the
/// daemon should shut down after sending it.
fn answer_line(engine: &Engine, line: &str, opts: &ServeOptions) -> (String, bool) {
    if line.starts_with('[') {
        return (answer_batch(engine, line, opts), false);
    }
    match Request::from_json_str(line) {
        Ok(req) => {
            let resp = run_logged(engine, &req, opts);
            let stop = matches!(req, Request::Shutdown);
            (resp.to_json_line(), stop)
        }
        Err(e) => {
            vliw_obs::counter("serve_errors_total").inc();
            (Response::protocol_error(e).to_json_line(), false)
        }
    }
}

/// Runs a whole-line batch (a JSON array of requests). The batch is
/// all-or-nothing at the parse stage: one malformed element rejects the
/// line with a single error response, so the caller never has to guess
/// which array positions ran.
fn answer_batch(engine: &Engine, line: &str, opts: &ServeOptions) -> String {
    let parsed: Result<Vec<Request>, String> = serde_json::from_str(line)
        .map_err(|e| format!("malformed batch: {e}"))
        .and_then(|value| {
            let items = value
                .as_array()
                .ok_or_else(|| "a batch must be a JSON array of requests".to_owned())?;
            items.iter().map(Request::from_json_value).collect()
        });
    let reqs = match parsed {
        Ok(reqs) => reqs,
        Err(e) => {
            vliw_obs::counter("serve_errors_total").inc();
            return Response::protocol_error(e).to_json_line();
        }
    };
    if reqs.iter().any(|r| matches!(r, Request::Shutdown)) {
        vliw_obs::counter("serve_errors_total").inc();
        return Response::protocol_error(
            "shutdown must be a standalone request, not part of a batch".to_owned(),
        )
        .to_json_line();
    }
    let _span = vliw_obs::span("serve.batch");
    for req in &reqs {
        vliw_obs::counter_with("serve_requests_total", "kind", req.kind()).inc();
    }
    let start = Instant::now();
    let resps = engine.run_batch(&reqs);
    eprintln!(
        "[serve] batch of {}: {:.3} s",
        reqs.len(),
        start.elapsed().as_secs_f64()
    );
    for resp in &resps {
        if !resp.ok {
            vliw_obs::counter("serve_errors_total").inc();
        }
        persist_if_configured(resp, opts);
    }
    let lines: Vec<String> = resps.iter().map(Response::to_json_line).collect();
    format!("[{}]", lines.join(","))
}

/// Runs one request, logging its wall-time like the CLI's `[time]`
/// lines, and persists its artefacts when the daemon was given a
/// results directory.
fn run_logged(engine: &Engine, req: &Request, opts: &ServeOptions) -> Response {
    let kind = req.kind();
    let _span = vliw_obs::span_kv("serve.request", "kind", kind);
    vliw_obs::counter_with("serve_requests_total", "kind", kind).inc();
    let start = Instant::now();
    let resp = engine.run(req);
    let elapsed = start.elapsed();
    // The daemon's log line already read the clock, so the server-side
    // latency histogram costs nothing extra.
    vliw_obs::histogram_with("serve_request_nanos", "kind", kind)
        .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    if !resp.ok {
        vliw_obs::counter("serve_errors_total").inc();
    }
    eprintln!(
        "[serve] {}: {} ({:.3} s)",
        kind,
        if resp.ok { "ok" } else { "error" },
        elapsed.as_secs_f64()
    );
    persist_if_configured(&resp, opts);
    resp
}

fn persist_if_configured(resp: &Response, opts: &ServeOptions) {
    let Some(dir) = opts.results.as_deref() else {
        return;
    };
    if !resp.ok {
        return;
    }
    match persist_response(dir, resp) {
        Ok(written) => {
            for path in written {
                eprintln!("[serve] wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("[serve] could not persist {}: {e}", resp.kind),
    }
}

/// RAII hold on the `serve_connections_in_flight` gauge: incremented
/// while a connection handler is live, decremented on every exit path
/// (including panics unwinding through the handler).
#[derive(Debug)]
struct InFlightConnection(std::sync::Arc<vliw_obs::Gauge>);

impl InFlightConnection {
    fn new() -> Self {
        let gauge = vliw_obs::gauge("serve_connections_in_flight");
        gauge.inc();
        InFlightConnection(gauge)
    }
}

impl Drop for InFlightConnection {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// A clone of every live connection under its connection id, so that a
/// shutdown can wake each handler.
type Connections = Mutex<HashMap<u64, UnixStream>>;

/// A connection's entry in [`Connections`]: dropping it, when the
/// handler returns on any path (panics included), closes the clone, so
/// the daemon holds no descriptor for a connection it has finished.
struct Registered<'a> {
    conns: &'a Connections,
    id: u64,
}

impl<'a> Registered<'a> {
    fn new(conns: &'a Connections, id: u64, clone: UnixStream) -> Self {
        lock(conns).insert(id, clone);
        Registered { conns, id }
    }
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        lock(self.conns).remove(&self.id);
    }
}

/// The connection map is only inserted into and removed from, so a
/// panic elsewhere cannot leave it inconsistent: poisoning is ignored.
fn lock(conns: &Connections) -> MutexGuard<'_, HashMap<u64, UnixStream>> {
    conns.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Graceful shutdown: stop accepting (a self-connect unblocks the
/// accept loop) and wake every open connection so its handler thread
/// sees EOF and drains.
fn initiate_shutdown(socket: &Path, shutdown: &AtomicBool, conns: &Connections) {
    shutdown.store(true, Ordering::SeqCst);
    let _ = UnixStream::connect(socket);
    for conn in lock(conns).values() {
        let _ = conn.shutdown(Shutdown::Both);
    }
}
