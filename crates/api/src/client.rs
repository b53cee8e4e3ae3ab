//! Client side of the daemon protocol, plus the `loadgen` harness.
//!
//! [`Client`] speaks the newline-delimited JSON protocol of
//! [`serve`](crate::serve::serve) over a Unix socket; [`loadgen`]
//! drives N concurrent clients against a daemon and reports p50/p99
//! latency and requests per second.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use crate::request::Request;
use crate::response::Response;

/// One connection to a `paper serve` daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects to the daemon listening on `socket`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (no daemon, permissions, …).
    pub fn connect(socket: &Path) -> std::io::Result<Self> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// Returns a message if the connection drops or the reply does not
    /// parse. A request the *daemon* rejected still comes back as
    /// `Ok(response)` with `response.ok == false`.
    pub fn request(&mut self, req: &Request) -> Result<Response, String> {
        let line = self.round_trip(&req.to_json_string())?;
        Response::from_json_str(&line)
    }

    /// Sends several requests as one batch line, executed through the
    /// engine's worker pool; responses come back in request order.
    ///
    /// # Errors
    ///
    /// Returns a message if the connection drops, the reply does not
    /// parse, or the daemon rejected the batch as a whole (e.g. a
    /// `shutdown` element).
    pub fn request_batch(&mut self, reqs: &[Request]) -> Result<Vec<Response>, String> {
        let wire: Vec<String> = reqs.iter().map(Request::to_json_string).collect();
        let line = self.round_trip(&format!("[{}]", wire.join(",")))?;
        let value = serde_json::from_str(&line).map_err(|e| format!("malformed reply: {e}"))?;
        if let Some(items) = value.as_array() {
            return items.iter().map(Response::from_json_value).collect();
        }
        // A whole-batch rejection comes back as a single error object.
        let resp = Response::from_json_value(&value)?;
        Err(resp
            .error
            .unwrap_or_else(|| "daemon rejected the batch".to_owned()))
    }

    fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive failed: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_owned());
        }
        Ok(reply.trim_end().to_owned())
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client sends sequentially.
    pub requests_per_client: usize,
    /// The request every client repeats.
    pub request: Request,
}

/// What one `loadgen` run measured. It carries wall-clock numbers, so
/// it is not byte-stable.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LoadgenReport {
    /// Always `"loadgen"` (artefact self-description).
    pub experiment: String,
    /// Kind of the request that was repeated.
    pub kind: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client sent.
    pub requests_per_client: usize,
    /// Total requests completed (clients × requests_per_client).
    pub total_requests: usize,
    /// Median request latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_ms: f64,
    /// Mean request latency in milliseconds.
    pub mean_ms: f64,
    /// Fastest request in milliseconds.
    pub min_ms: f64,
    /// Slowest request in milliseconds.
    pub max_ms: f64,
    /// Wall time of the whole run in seconds.
    pub wall_time_s: f64,
    /// Aggregate throughput: total_requests / wall_time_s.
    pub serve_requests_per_second: f64,
}

/// Drives `clients` concurrent connections against the daemon on
/// `socket`, each sending `requests_per_client` copies of the request
/// sequentially, and aggregates the latency distribution.
///
/// # Errors
///
/// Returns the first connection/protocol failure, or the daemon's error
/// if any response came back with `ok == false`.
///
/// # Panics
///
/// Panics if `clients` or `requests_per_client` is zero.
pub fn loadgen(socket: &Path, opts: &LoadgenOptions) -> Result<LoadgenReport, String> {
    assert!(opts.clients > 0, "loadgen needs at least one client");
    assert!(
        opts.requests_per_client > 0,
        "loadgen needs at least one request per client"
    );
    let start = Instant::now();
    let per_client: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|_| scope.spawn(|| run_client(socket, opts)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_owned()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    // Grown as latencies arrive, never sized from the counts: a huge
    // request count would otherwise abort on allocation before the
    // first request is sent.
    let mut latencies_ms = Vec::new();
    for result in per_client {
        latencies_ms.extend(result?);
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let total = latencies_ms.len();
    let rps = if wall > 0.0 {
        total as f64 / wall
    } else {
        f64::INFINITY
    };
    Ok(LoadgenReport {
        experiment: "loadgen".to_owned(),
        kind: opts.request.kind().to_owned(),
        clients: opts.clients,
        requests_per_client: opts.requests_per_client,
        total_requests: total,
        p50_ms: vliw_obs::nearest_rank(&latencies_ms, 50.0),
        p99_ms: vliw_obs::nearest_rank(&latencies_ms, 99.0),
        mean_ms: latencies_ms.iter().sum::<f64>() / total as f64,
        min_ms: latencies_ms[0],
        max_ms: latencies_ms[total - 1],
        wall_time_s: wall,
        serve_requests_per_second: rps,
    })
}

/// One loadgen client: a connection sending the request N times,
/// returning per-request latencies in milliseconds.
fn run_client(socket: &Path, opts: &LoadgenOptions) -> Result<Vec<f64>, String> {
    let mut client = Client::connect(socket).map_err(|e| format!("connect failed: {e}"))?;
    let mut latencies = Vec::new();
    for _ in 0..opts.requests_per_client {
        let sent = Instant::now();
        let resp = client.request(&opts.request)?;
        if !resp.ok {
            return Err(resp
                .error
                .unwrap_or_else(|| format!("{} request failed", resp.kind)));
        }
        latencies.push(sent.elapsed().as_secs_f64() * 1e3);
    }
    Ok(latencies)
}

#[cfg(test)]
mod tests {
    #[test]
    fn nearest_rank_percentiles() {
        // The report's quantiles come from the shared obs helper; keep
        // loadgen's historical semantics pinned at the call site.
        let sample = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert!((vliw_obs::nearest_rank(&sample, 50.0) - 5.0).abs() < f64::EPSILON);
        assert!((vliw_obs::nearest_rank(&sample, 99.0) - 10.0).abs() < f64::EPSILON);
        assert!((vliw_obs::nearest_rank(&sample, 100.0) - 10.0).abs() < f64::EPSILON);
        assert!((vliw_obs::nearest_rank(&sample, 0.0) - 1.0).abs() < f64::EPSILON);
    }
}
