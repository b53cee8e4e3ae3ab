//! The three workloads. Each is one request kind sent by one
//! closed-loop client: the next op starts only after the previous one
//! was answered and checked.
//!
//! * `cold_figure`: a fresh engine (one worker per core) and a fresh
//!   store answer a cold `figure6`; the scheduler does most of the work.
//! * `warm_serve`: a one-worker `serve` daemon answers a repeated
//!   `figure6` over one Unix-socket connection from warm caches; nothing
//!   is scheduled.
//! * `store_replay`: a fresh one-worker engine replays an extended
//!   racing search from a populated store; parsing the store dominates.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vliw_api::{serve, CacheStats, Client, Engine, Request, Response, ServeOptions};
use vliw_machine::{ClockedConfig, MachineDesign};
use vliw_sched::{schedule_loop_ws, SchedWorkspace, ScheduleOptions};
use vliw_store::{MeasureStore, StoreConfig};
use vliw_workloads::suite_seeded;

use crate::counters::Counters;
use crate::spans::SpanLog;
use crate::stats::derive_seed;

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// The workloads, by name.
pub const NAMES: [&str; 3] = ["cold_figure", "warm_serve", "store_replay"];

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// The workload seed every request seed is derived from.
    pub seed: u64,
    /// Minimum timed duration of the op loop.
    pub seconds: f64,
    /// Record spans, counter deltas and layer probes around every op.
    pub trace: bool,
}

/// One workload's shape: its minimum op count fixes the tail
/// percentile, so every run of it reports the same one. Every workload
/// reports p90: the slowest tenth of a run's ops spans seconds, so one
/// short stall of the host does not decide it.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Ops a run always completes, however long they take.
    pub min_ops: usize,
    /// Worker threads of the engine that answers the timed ops.
    pub op_workers: usize,
    /// Worker threads of the engine that populates the set-up.
    pub setup_workers: usize,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every set-up's duration in seconds; the first one counts from
    /// process start.
    pub setup_s: Vec<f64>,
    /// Client-timed latency of every reported op (a traced run reports
    /// its traced phase).
    pub op_ms: Vec<f64>,
    /// A traced run's untraced phase.
    pub untraced_ms: Vec<f64>,
    /// One line per failed op.
    pub failures: Vec<String>,
    /// The answers reduced to the paper's metric.
    pub answer_ed2_norm: f64,
    /// Per-op layer ledgers (traced runs only).
    pub ledgers: Vec<OpLedger>,
    /// The benchmark's own spans (traced runs only).
    pub spans: SpanLog,
    /// The requests, in wire form, for the report.
    pub requests: Vec<String>,
    /// Peak resident set after the ops, before the repeated set-ups.
    pub peak_rss_kib: u64,
}

impl Outcome {
    /// Takes over what the op loop measured.
    fn absorb(&mut self, ops: Ops, ledgers: Vec<OpLedger>, spans: SpanLog, peak_rss_kib: u64) {
        self.op_ms = ops.ms;
        self.untraced_ms = ops.untraced_ms;
        self.failures = ops.failures;
        self.ledgers = ledgers;
        self.spans = spans;
        self.peak_rss_kib = peak_rss_kib;
    }
}

/// What a traced op cost each layer.
#[derive(Debug, Clone, Default)]
pub struct OpLedger {
    /// Which of the workload's requests the op sent (exact counts must
    /// repeat per request).
    pub key: usize,
    /// Client-timed op latency.
    pub op_ms: f64,
    /// Workers of the engine that answered.
    pub workers: usize,
    /// Whether the op crossed the daemon's socket.
    pub wire: bool,
    /// Whether the op replayed a search from its store.
    pub replay: bool,
    /// Registry deltas over the op.
    pub work: Counters,
    /// The response's cache counters minus the engine's before the op.
    pub cache: CacheStats,
    /// Probe: the request and response through the wire codecs.
    pub codec_us: f64,
    /// Probe: the request again on the now-warm engine.
    pub warm_rerun_ms: f64,
    /// Probe: generating the op's suite.
    pub suite_ms: f64,
    /// Probe: single-thread scheduling throughput over that suite.
    pub loops_per_s: f64,
    /// Probe: `vliw_sim::validate` violations over those schedules.
    pub violations: usize,
    /// Probe: opening the workload's store.
    pub store_open_ms: f64,
}

impl OpLedger {
    /// The ledger as `(per-layer metric, value)` pairs.
    #[must_use]
    pub fn values(&self) -> Vec<(&'static str, f64)> {
        let w = &self.work;
        let ms = |nanos: u64| nanos as f64 / 1e6;
        // The program's own timing of the request: server-side for the
        // daemon, `Engine::run` in process.
        let (server_ms, codec_in_op_ms) = if self.wire {
            (ms(w.serve_nanos), self.codec_us / 1e3)
        } else {
            (ms(w.engine_nanos), 0.0)
        };
        let pct = |part_ms: f64| 100.0 * part_ms / self.op_ms;
        vec![
            ("api.engine_run_ms", ms(w.engine_nanos)),
            ("api.codec_us", self.codec_us),
            ("api.transport_ms", self.op_ms - server_ms - codec_in_op_ms),
            ("api.suite_cache_misses", w.suite_cache_misses as f64),
            ("explore.measure_misses", self.cache.measure_misses as f64),
            ("explore.measure_hits", self.cache.measure_hits as f64),
            ("explore.warm_rerun_ms", self.warm_rerun_ms),
            ("sched.loops_scheduled", w.loops_scheduled as f64),
            ("sched.busy_pct", pct(ms(w.schedule_nanos))),
            ("sched.loops_per_s", self.loops_per_s),
            ("sim.violations", self.violations as f64),
            ("workloads.suite_ms", self.suite_ms),
            ("store.open_ms", self.store_open_ms),
            ("store.records_read", w.records_read as f64),
            ("store.bytes_read", w.bytes_read as f64),
            ("store.records_written", w.records_written as f64),
            ("store.bytes_written", w.bytes_written as f64),
            ("store.hits", self.cache.store_hits as f64),
            ("store.misses", self.cache.store_misses as f64),
            ("search.evals", w.search_evals as f64),
            ("search.screens", w.search_screens as f64),
            (
                "search.replay_pct",
                if self.replay {
                    pct(self.op_ms - self.store_open_ms)
                } else {
                    0.0
                },
            ),
            ("exec.tasks", w.exec_tasks as f64),
            (
                "exec.busy_ratio",
                ms(w.exec_busy_nanos) / (self.op_ms * self.workers as f64),
            ),
        ]
    }
}

/// The shape of the workload `name`, or `None` for an unknown name.
#[must_use]
pub fn shape(name: &str) -> Option<Shape> {
    let nproc = nproc();
    match name {
        "cold_figure" => Some(Shape {
            min_ops: 100,
            op_workers: nproc,
            setup_workers: nproc,
        }),
        "warm_serve" => Some(Shape {
            min_ops: 150,
            op_workers: 1,
            setup_workers: 1,
        }),
        "store_replay" => Some(Shape {
            min_ops: 150,
            op_workers: 1,
            setup_workers: nproc,
        }),
        _ => None,
    }
}

/// Runs workload `name`. Set-up failures are errors; op failures are
/// counted in the outcome.
///
/// # Errors
///
/// Returns a message when the workload cannot be set up.
pub fn run(name: &str, s: &Settings, process_start: Instant) -> Result<Outcome, String> {
    let shape = shape(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    match name {
        "cold_figure" => cold_figure(s, shape, process_start),
        "warm_serve" => warm_serve(s, shape, process_start),
        _ => store_replay(s, shape, process_start),
    }
}

/// The machine's available parallelism (what `Engine::new(0)` uses).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The first answer to each request, against which every later answer
/// to it is compared byte for byte.
struct Answers(Vec<Option<String>>);

impl Answers {
    fn new(requests: usize) -> Self {
        Answers(vec![None; requests])
    }

    fn check(&mut self, key: usize, resp: &Response) -> Result<(), String> {
        if !resp.ok {
            return Err(format!(
                "error response: {}",
                resp.error.as_deref().unwrap_or("(no message)")
            ));
        }
        let body = resp.body.as_deref().ok_or("response has no body")?;
        match &self.0[key] {
            None => {
                self.0[key] = Some(body.to_owned());
                Ok(())
            }
            Some(first) if first == body => Ok(()),
            Some(_) => Err(format!("request {key}: body differs from the first answer")),
        }
    }

    fn bodies(&self) -> Result<Vec<serde_json::Value>, String> {
        self.0
            .iter()
            .map(|b| {
                let b = b.as_deref().ok_or("a request was never answered")?;
                serde_json::from_str(b).map_err(|e| format!("answer is not JSON: {e}"))
            })
            .collect()
    }
}

/// Mean normalised ED² of a Figure 6 body (the figure's `mean` bar,
/// over every bus count the body holds).
fn figure6_mean(body: &serde_json::Value) -> Result<f64, String> {
    let rows = body.as_array().ok_or("figure6 body is not an array")?;
    let vals: Vec<f64> = rows
        .iter()
        .map(|r| r.get("ed2_normalized").and_then(serde_json::Value::as_f64))
        .collect::<Option<_>>()
        .ok_or("figure6 row without ed2_normalized")?;
    if vals.is_empty() {
        return Err("figure6 body has no rows".to_owned());
    }
    Ok(vals.iter().sum::<f64>() / vals.len() as f64)
}

/// A search winner's ED² over the first trace row's ED².
fn search_gain(body: &serde_json::Value) -> Result<f64, String> {
    let ed2 = |v: Option<&serde_json::Value>| v.and_then(|r| r.get("ed2")).and_then(|e| e.as_f64());
    let best = ed2(body.get("best")).ok_or("search body has no best.ed2")?;
    let first = ed2(body
        .get("trace")
        .and_then(serde_json::Value::as_array)
        .and_then(|t| t.first()))
    .ok_or("search body has no trace")?;
    Ok(best / first)
}

/// What the timed op loop measured.
#[derive(Debug, Default)]
struct Ops {
    /// Latency of every reported op.
    ms: Vec<f64>,
    /// A traced run's untraced first half, the baseline of the tracing
    /// overhead.
    untraced_ms: Vec<f64>,
    failures: Vec<String>,
}

/// Runs the timed op loop. `op(i, traced)` performs op `i` and returns
/// its latency and any failure. An untraced run is one phase of at
/// least `min_ops` ops and `seconds`; a traced run is an untraced phase
/// and then, with timing switched on, a traced one, each of at least
/// `min_ops` ops and half the time.
fn op_loop(
    s: &Settings,
    min_ops: usize,
    mut op: impl FnMut(usize, bool) -> (f64, Option<String>),
) -> Ops {
    let mut ops = Ops::default();
    let mut i = 0;
    let mut phase = |traced: bool, seconds: f64, ops: &mut Ops| {
        if traced {
            vliw_obs::enable_timing();
        }
        let start = Instant::now();
        let mut n = 0;
        while n < min_ops || start.elapsed().as_secs_f64() < seconds {
            let (ms, failure) = op(i, traced);
            if traced || !s.trace {
                ops.ms.push(ms);
            } else {
                ops.untraced_ms.push(ms);
            }
            if let Some(f) = failure {
                ops.failures.push(format!("op {i}: {f}"));
            }
            i += 1;
            n += 1;
        }
    };
    if s.trace {
        phase(false, s.seconds / 2.0, &mut ops);
        phase(true, s.seconds / 2.0, &mut ops);
    } else {
        phase(false, s.seconds, &mut ops);
    }
    ops
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// One in-process op: a fresh engine with `workers` threads answers
/// `req`. Returns the engine (now warm, for the probes), its answer and
/// the latency in milliseconds.
fn engine_op(log: &mut SpanLog, op: u64, workers: usize, req: &Request) -> (Engine, Response, f64) {
    let span = log.begin(op, 0, "op");
    let t0 = Instant::now();
    let (engine, _) = log.record(op, span, "api.engine_new", || Engine::new(workers));
    let (resp, _) = log.record(op, span, "api.engine_run", || engine.run(req));
    let ms = elapsed_ms(t0);
    log.end(span);
    (engine, resp, ms)
}

/// A traced op, as its probes see it.
struct Traced<'a> {
    op: u64,
    engine: &'a Engine,
    req: &'a Request,
    resp: &'a Response,
    /// Scale and seed of the op's suite.
    suite: (usize, u64),
    /// The store the workload reads and writes.
    store: &'a Path,
}

/// Runs the layer probes of a traced op, each in its own span under the
/// op's id, and fills in the rest of its ledger. They run after the op,
/// so they never stretch its latency. Returns a failure when a probe
/// saw a different answer.
fn probe(log: &mut SpanLog, t: &Traced<'_>, l: &mut OpLedger) -> Option<String> {
    let op = t.op;
    // The op's request again on its now-warm engine.
    let (rerun, id) = log.record(op, 0, "explore.warm_rerun", || t.engine.run(t.req));
    l.warm_rerun_ms = log.ms(id);
    // The request and its response through the wire codecs.
    let (codec_ok, id) = log.record(op, 0, "api.codec", || {
        let req = Request::from_json_str(&t.req.to_json_string());
        let resp = Response::from_json_str(&t.resp.to_json_line());
        req.as_ref() == Ok(t.req) && resp.as_ref() == Ok(t.resp)
    });
    l.codec_us = log.ms(id) * 1e3;
    // The op's suite, scheduled on the reference configuration with
    // one thread and one workspace, and every schedule validated.
    let (suite, id) = log.record(op, 0, "workloads.suite", || {
        suite_seeded(t.suite.0, t.suite.1)
    });
    l.suite_ms = log.ms(id);
    let config = ClockedConfig::reference(MachineDesign::paper_machine(1));
    let (scheduled, id) = log.record(op, 0, "sched.schedule", || {
        let mut ws = SchedWorkspace::new();
        let loops = suite.iter().flat_map(|b| &b.loops);
        loops
            .map(|lp| {
                let opts = ScheduleOptions {
                    trip_count: lp.trip_count(),
                    ..ScheduleOptions::default()
                };
                (
                    lp,
                    schedule_loop_ws(lp.ddg(), &config, None, &opts, &mut ws),
                )
            })
            .collect::<Vec<_>>()
    });
    l.loops_per_s = scheduled.len() as f64 / (log.ms(id) / 1e3);
    let (violations, _) = log.record(op, 0, "sim.validate", || {
        scheduled
            .iter()
            .map(|(lp, sched)| match sched {
                Ok(s) => vliw_sim::validate(lp.ddg(), &config, s).map_or_else(|v| v.len(), |()| 0),
                // A loop the scheduler refused counts as one violation.
                Err(_) => 1,
            })
            .sum::<usize>()
    });
    l.violations = violations;
    let (opened, id) = log.record(op, 0, "store.open", || MeasureStore::open(t.store));
    l.store_open_ms = log.ms(id);

    if let Err(e) = opened {
        Some(format!("store probe: {e}"))
    } else if !rerun.ok || rerun.body != t.resp.body || !codec_ok {
        Some("a probe changed the answer".to_owned())
    } else {
        None
    }
}

/// The cache counters an op added to an engine that held `before`.
fn cache_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        profiled_suites: after.profiled_suites - before.profiled_suites,
        measure_entries: after.measure_entries - before.measure_entries,
        measure_hits: after.measure_hits - before.measure_hits,
        measure_misses: after.measure_misses - before.measure_misses,
        store_hits: after.store_hits - before.store_hits,
        store_misses: after.store_misses - before.store_misses,
        store_entries: after.store_entries - before.store_entries,
        store_bytes: after.store_bytes - before.store_bytes,
        store_skipped_lines: after.store_skipped_lines - before.store_skipped_lines,
    }
}

/// A request from its wire form (the benchmark's store paths are plain
/// relative names, so they need no escaping).
fn wire(json: &str) -> Request {
    Request::from_json_str(json).expect("benchmark requests are well formed")
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn peak_rss_kib() -> Result<u64, String> {
    let text = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// When set-up `k` starts: the first one counts from process start.
fn setup_start(k: usize, process_start: Instant) -> Instant {
    if k == 0 {
        process_start
    } else {
        Instant::now()
    }
}

/// Suite scale of a `cold_figure` op.
const COLD_LOOPS: usize = 8;
/// Suite seeds a `cold_figure` run cycles through.
const COLD_SEEDS: u64 = 8;

fn cold_figure(s: &Settings, shape: Shape, process_start: Instant) -> Result<Outcome, String> {
    let seeds: Vec<u64> = (0..COLD_SEEDS).map(|i| derive_seed(s.seed, i)).collect();
    let request = |key: usize, dir: &Path| {
        wire(&format!(
            r#"{{"kind":"figure6","loops":{COLD_LOOPS},"buses":"1","seed":{},"store":"{}"}}"#,
            seeds[key],
            dir.display()
        ))
    };
    let mut out = Outcome {
        requests: (0..seeds.len())
            .map(|k| request(k, Path::new("STORE")).to_json_string())
            .collect(),
        ..Outcome::default()
    };
    let mut answers = Answers::new(seeds.len());
    fs::create_dir_all("cold").map_err(|e| format!("create cold/: {e}"))?;

    // Set-up is one untimed cold op, so lazy initialisation and the
    // allocator's first growth are paid before timing.
    let mut setup = |k: usize, answers: &mut Answers| -> Result<(), String> {
        let dir = PathBuf::from(format!("cold/setup-{k}"));
        let _ = fs::remove_dir_all(&dir);
        let t0 = setup_start(k, process_start);
        let resp = Engine::new(shape.setup_workers).run(&request(k, &dir));
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let _ = fs::remove_dir_all(&dir);
        answers
            .check(k, &resp)
            .map_err(|e| format!("set-up {k}: {e}"))
    };
    setup(0, &mut answers)?;

    let mut log = SpanLog::new(false);
    let mut ledgers = Vec::new();
    let ops = op_loop(s, shape.min_ops, |i, traced| {
        log.enable(traced);
        let key = i % seeds.len();
        let dir = PathBuf::from(format!("cold/op-{i}"));
        let _ = fs::remove_dir_all(&dir);
        let req = request(key, &dir);
        let before = traced.then(|| Counters::read("figure6", shape.op_workers));
        let op = i as u64 + 1;
        let (engine, resp, ms) = engine_op(&mut log, op, shape.op_workers, &req);
        let mut failure = answers.check(key, &resp).err();
        if let Some(before) = before {
            let mut l = OpLedger {
                key,
                op_ms: ms,
                workers: shape.op_workers,
                work: Counters::read("figure6", shape.op_workers).since(&before),
                cache: resp.cache,
                ..OpLedger::default()
            };
            let t = Traced {
                op,
                engine: &engine,
                req: &req,
                resp: &resp,
                suite: (COLD_LOOPS, seeds[key]),
                store: &dir,
            };
            failure = failure.or(probe(&mut log, &t, &mut l));
            ledgers.push(l);
        }
        drop(engine);
        let _ = fs::remove_dir_all(&dir);
        (ms, failure)
    });
    let peak_rss = peak_rss_kib()?;
    // The repeats run after the ops, so that what they leave in the
    // allocator does not inflate the peak resident set.
    for k in 1..SETUPS {
        setup(k, &mut answers)?;
    }
    out.absorb(ops, ledgers, log, peak_rss);

    let bodies = answers.bodies()?;
    let means = bodies
        .iter()
        .map(figure6_mean)
        .collect::<Result<Vec<_>, _>>()?;
    out.answer_ed2_norm = means.iter().sum::<f64>() / means.len() as f64;
    Ok(out)
}

/// Suite scale of the `warm_serve` request.
const WARM_LOOPS: usize = 16;

fn warm_serve(s: &Settings, shape: Shape, process_start: Instant) -> Result<Outcome, String> {
    let seed = derive_seed(s.seed, 0);
    let req = wire(&format!(
        r#"{{"kind":"figure6","loops":{WARM_LOOPS},"buses":"both","seed":{seed}}}"#
    ));
    let mut out = Outcome {
        requests: vec![req.to_json_string()],
        ..Outcome::default()
    };
    let mut answers = Answers::new(1);
    // A relative socket path keeps the address short wherever the
    // working directory is.
    let opts = ServeOptions {
        socket: PathBuf::from("serve.sock"),
        results: None,
        store: StoreConfig::none(),
    };
    // The one store-less workload probes the fixed cost of opening an
    // empty store.
    let empty_store = PathBuf::from("empty-store");

    // Set-up starts a daemon and warms it with the request. The ops run
    // against the first daemon; the repeats start, warm and stop their
    // own after the ops.
    for k in 0..SETUPS {
        let t0 = setup_start(k, process_start);
        let engine = Engine::new(shape.setup_workers);
        std::thread::scope(|scope| -> Result<(), String> {
            let daemon = scope.spawn(|| serve(&engine, &opts));
            let session = (|| -> Result<(), String> {
                let mut client = connect(&opts.socket, &daemon)?;
                let warm = client.request(&req)?;
                out.setup_s.push(t0.elapsed().as_secs_f64());
                answers
                    .check(0, &warm)
                    .map_err(|e| format!("set-up {k}: {e}"))?;
                if k > 0 {
                    return client.request(&Request::Shutdown).map(drop);
                }
                let mut log = SpanLog::new(false);
                let mut ledgers = Vec::new();
                let ops = op_loop(s, shape.min_ops, |i, traced| {
                    log.enable(traced);
                    let before =
                        traced.then(|| (Counters::read("figure6", 1), engine.cache_stats()));
                    let op = i as u64 + 1;
                    let span = log.begin(op, 0, "op");
                    let t0 = Instant::now();
                    let (resp, _) = log.record(op, span, "api.round_trip", || client.request(&req));
                    let ms = elapsed_ms(t0);
                    log.end(span);
                    let resp = match resp {
                        Ok(r) => r,
                        Err(e) => return (ms, Some(e)),
                    };
                    let mut failure = answers.check(0, &resp).err();
                    if let Some((counters, cache)) = before {
                        let mut l = OpLedger {
                            op_ms: ms,
                            workers: shape.op_workers,
                            wire: true,
                            work: Counters::read("figure6", 1).since(&counters),
                            cache: cache_delta(&resp.cache, &cache),
                            ..OpLedger::default()
                        };
                        let t = Traced {
                            op,
                            engine: &engine,
                            req: &req,
                            resp: &resp,
                            suite: (WARM_LOOPS, seed),
                            store: &empty_store,
                        };
                        failure = failure.or(probe(&mut log, &t, &mut l));
                        ledgers.push(l);
                    }
                    (ms, failure)
                });
                let peak_rss = peak_rss_kib()?;
                out.absorb(ops, ledgers, log, peak_rss);
                client.request(&Request::Shutdown).map(drop)
            })();
            if session.is_err() && !daemon.is_finished() {
                // Stop the daemon so the scope can join it.
                if let Ok(mut c) = Client::connect(&opts.socket) {
                    let _ = c.request(&Request::Shutdown);
                }
            }
            let served = daemon
                .join()
                .map_err(|_| "the daemon panicked".to_owned())?;
            session?;
            served.map_err(|e| format!("serve: {e}"))
        })?;
    }

    out.answer_ed2_norm = figure6_mean(&answers.bodies()?[0])?;
    Ok(out)
}

/// Connects to the daemon once it listens (it binds on its own thread).
fn connect(
    socket: &Path,
    daemon: &std::thread::ScopedJoinHandle<'_, std::io::Result<()>>,
) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match Client::connect(socket) {
            Ok(c) => return Ok(c),
            Err(e) if daemon.is_finished() || Instant::now() > deadline => {
                return Err(format!("connect to the daemon: {e}"));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Suite scale of the `store_replay` search.
const REPLAY_LOOPS: usize = 4;

fn store_replay(s: &Settings, shape: Shape, process_start: Instant) -> Result<Outcome, String> {
    let seed = derive_seed(s.seed, 0);
    let request = |dir: &Path| {
        wire(&format!(
            r#"{{"kind":"search","loops":{REPLAY_LOOPS},"buses":"1","seed":{seed},"strategy":"exhaustive","budget":64,"space":"extended","racing":true,"store":"{}"}}"#,
            dir.display()
        ))
    };
    let mut out = Outcome {
        requests: vec![request(Path::new("STORE")).to_json_string()],
        ..Outcome::default()
    };
    let mut answers = Answers::new(1);

    // Set-up populates a fresh store with the cold search. The ops
    // replay from the first store; the repeats run after the ops.
    let mut setup = |k: usize, answers: &mut Answers| -> Result<PathBuf, String> {
        let dir = PathBuf::from(format!("replay-{k}"));
        let _ = fs::remove_dir_all(&dir);
        let t0 = setup_start(k, process_start);
        let engine = Engine::new(shape.setup_workers);
        let resp = engine.run(&request(&dir));
        drop(engine);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        answers
            .check(0, &resp)
            .map_err(|e| format!("set-up {k}: {e}"))?;
        Ok(dir)
    };
    let store = setup(0, &mut answers)?;
    let req = request(&store);

    let mut log = SpanLog::new(false);
    let mut ledgers = Vec::new();
    let ops = op_loop(s, shape.min_ops, |i, traced| {
        log.enable(traced);
        let before = traced.then(|| Counters::read("search", 1));
        let op = i as u64 + 1;
        let (engine, resp, ms) = engine_op(&mut log, op, shape.op_workers, &req);
        let mut failure = answers.check(0, &resp).err();
        if resp.cache.measure_misses != 0 {
            failure = failure.or(Some(format!(
                "the replay re-measured {} configurations",
                resp.cache.measure_misses
            )));
        }
        if let Some(before) = before {
            let mut l = OpLedger {
                op_ms: ms,
                workers: shape.op_workers,
                replay: true,
                work: Counters::read("search", 1).since(&before),
                cache: resp.cache,
                ..OpLedger::default()
            };
            let t = Traced {
                op,
                engine: &engine,
                req: &req,
                resp: &resp,
                suite: (REPLAY_LOOPS, seed),
                store: &store,
            };
            failure = failure.or(probe(&mut log, &t, &mut l));
            ledgers.push(l);
        }
        (ms, failure)
    });
    let peak_rss = peak_rss_kib()?;
    for k in 1..SETUPS {
        let dir = setup(k, &mut answers)?;
        let _ = fs::remove_dir_all(dir);
    }
    out.absorb(ops, ledgers, log, peak_rss);

    out.answer_ed2_norm = search_gain(&answers.bodies()?[0])?;
    Ok(out)
}
