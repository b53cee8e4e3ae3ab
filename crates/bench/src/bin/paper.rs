//! `paper` — regenerate the tables and figures of the CGO 2007 paper,
//! manage on-disk workload corpora, and serve the experiment engine as
//! a daemon.
//!
//! ```text
//! Usage: paper [EXPERIMENT] [--experiment NAME] [--loops-per-benchmark N]
//!              [--buses 1|2|both] [--jobs N] [--seed S] [--store DIR]
//!              [--metrics] [--trace FILE]
//!        paper search          [--strategy hillclimb|anneal|ga|exhaustive]
//!                              [--budget N] [--space paper|extended]
//!                              [--racing] [--shard I/N]
//!                              [--seed S] [--buses B] [--jobs N] [--store DIR]
//!        paper search merge    SHARD_FILE... [--out FILE]
//!        paper corpus dump     [--out FILE]  [--loops-per-benchmark N]
//!        paper corpus schedule [--in FILE]   [--jobs N] [--loops-per-benchmark N]
//!        paper corpus stats    [--in FILE]   [--loops-per-benchmark N]
//!        paper store stats     --store DIR
//!        paper store compact   --store DIR
//!        paper serve   --socket PATH [--jobs N] [--results DIR] [--store DIR]
//!        paper client  --socket PATH (EXPERIMENT | ping | shutdown |
//!                                     corpus schedule|stats |
//!                                     store stats|compact) [flags]
//!        paper loadgen --socket PATH [--clients N] [--requests M]
//!                                    [EXPERIMENT] [flags]
//!
//! EXPERIMENT: table1 | table2 | figure6 | figure7 | figure8 | figure9 |
//!             schedbench | familysweep | search | searchbench | metrics | all
//!             (default: all — which runs the table/figure set; search and
//!             the bench experiments are invoked explicitly. Positional
//!             and --experiment are equivalent.)
//! --loops-per-benchmark N
//!             loops generated per benchmark (default 40 — the interactive
//!             10x scale-down; ~400 reproduces the paper's suite size).
//!             `--loops N` is an accepted shorthand.
//! --buses B   bus configurations to run (default both)
//! --jobs N    worker threads for the exploration pipeline
//!             (default 0 = available parallelism; absurd values are
//!             clamped with a warning; output is identical for every N)
//! --seed S    global seed threaded through workload generation and the
//!             search strategies (default 0, which reproduces the
//!             historical fixed-seed suites bit for bit — all committed
//!             golden fixtures and baselines use it)
//! --strategy NAME
//!             search optimizer (default hillclimb)
//! --budget N  distinct candidate evaluations the search may spend
//!             (default 64; memoised repeats are free)
//! --space K   search space: `paper` (the 20-point §3.3 grid, first bus
//!             of --buses) or `extended` (frequencies × speed split ×
//!             explicit voltages × every bus of --buses; default paper)
//! --racing    successive-halving racing: rank each optimizer batch on a
//!             deterministic loop subsample first and spend full-suite
//!             measurements only on the survivors. The final frontier is
//!             unchanged — racing only reorders which candidates reach
//!             full measurement when (`search` only)
//! --shard I/N run shard I of an N-way deterministic partition of the
//!             gene grid and write a mergeable `search_shard.json`
//!             artifact; fold the per-shard artifacts with
//!             `paper search merge` — the merged frontier's bytes are
//!             independent of N and of merge order (`search` only)
//! --profile   collect the scheduler's per-phase timing breakdown
//!             (clocks, partition, extgraph, place, eject, regs plus a
//!             vliw-sim validation pass) and report it in the JSON
//!             record (`schedbench` only)
//! --metrics   turn on the clock reads behind the latency histograms for
//!             a one-shot run (`paper serve` always has them on). The
//!             `metrics` experiment name renders the process-wide
//!             registry as Prometheus-style text exposition; scrape a
//!             live daemon with `paper client --socket PATH metrics`
//! --trace FILE
//!             write structured span trace events (newline-JSON, with
//!             monotonic `seq` ordering and parent/child span IDs) to
//!             FILE; applies to every mode including serve
//! --store DIR persistent content-addressed measurement store: results
//!             already in DIR are reused instead of re-scheduled, fresh
//!             results are appended for the next run (default: none —
//!             in-memory caches only). On `serve` it becomes the
//!             daemon's default store for every request that does not
//!             carry its own. `paper store stats|compact` inspect and
//!             compact DIR (stdout stays byte-stable; all store
//!             reporting goes to stderr)
//! --out FILE  where `corpus dump` writes (default
//!             target/paper-results/corpus.json) and where `search
//!             merge` writes (default target/paper-results/search_merge.json)
//! --in FILE   corpus file for `corpus schedule` / `corpus stats`; without
//!             it, the equivalent in-memory suite is used, and the output
//!             is byte-identical to a dump-then-load run
//! --socket PATH
//!             Unix socket the daemon listens on (`serve`) or the client
//!             connects to (`client` / `loadgen`)
//! --results DIR
//!             have the daemon persist each response's artefacts under
//!             DIR (`serve` only; default: respond over the socket only)
//! --clients N / --requests M
//!             loadgen concurrency and per-client request count
//!             (defaults 4 and 25)
//! ```
//!
//! The CLI is a thin adapter over `vliw_api`: every subcommand builds a
//! serialisable `Request`, runs it through the shared `Engine` (one
//! worker pool plus process-lifetime profile/measurement caches) and
//! prints the `Response` — the same core the `paper serve` daemon
//! exposes over newline-delimited JSON on a Unix socket. `paper client`
//! sends the identical request to a daemon and prints/persists the
//! response exactly as the one-shot CLI would, so the two paths are
//! byte-for-byte comparable; `paper loadgen` drives N concurrent
//! clients and reports p50/p99 latency and requests/s.
//!
//! Each experiment's elapsed wall-time is reported on stderr as
//! `[time] <experiment>: <seconds> s`, so CI perf gates and humans get
//! timing without external tooling.
//!
//! Every suite-scale row dump (`table2`, `figure6`–`figure9`,
//! `familysweep`) is accompanied by a `<name>.meta.json` sidecar
//! recording which suite scale (loops per benchmark) and bus selection
//! produced it, so a saved artefact is self-describing without
//! perturbing the byte-stable row files themselves. The `corpus`
//! artefacts get sidecars recording where the loops came from instead —
//! the generation scale for in-memory suites, the `--in` path for loaded
//! corpora (whose own scale is whatever the file was dumped at) — and
//! `corpus dump` writes its sidecar next to the `--out` file. `table1`
//! is scale-independent and `schedbench` embeds its scale in the record,
//! so neither writes a sidecar. All artefact writes go through the one
//! shared atomic write path in `vliw_api::artifacts`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use vliw_api::engine::{corpus_benchmarks, CorpusMeta};
use vliw_api::{
    loadgen, persist_response, serve, write_atomic, BusSel, Client, Engine, LoadgenOptions,
    Request, Response, RunParams, SearchParams, ServeOptions, StoreConfig,
};
use vliw_bench::{dump_json, results_dir};

#[derive(Clone)]
struct Args {
    loops: usize,
    buses: BusSel,
    jobs: usize,
    seed: u64,
    store: StoreConfig,
    profile: bool,
}

impl Args {
    fn params(&self) -> RunParams {
        RunParams {
            loops: self.loops,
            buses: self.buses,
            seed: self.seed,
            store: self.store.clone(),
            profile: self.profile,
        }
    }
}

fn main() -> ExitCode {
    let mut positionals: Vec<String> = Vec::new();
    let mut experiment_flag: Option<String> = None;
    let mut input: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut results: Option<PathBuf> = None;
    let mut clients: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut args = Args {
        loops: RunParams::default().loops,
        buses: BusSel::Both,
        jobs: 0,
        seed: 0,
        store: StoreConfig::none(),
        profile: false,
    };
    let mut search_args = SearchParams::default();
    let mut search_flag_seen = false;
    let mut trace: Option<PathBuf> = None;
    let mut metrics_flag = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => match it.next() {
                Some(p) => trace = Some(PathBuf::from(p)),
                None => return usage("--trace needs a file path"),
            },
            "--metrics" => metrics_flag = true,
            "--loops" | "--loops-per-benchmark" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => args.loops = n,
                _ => return usage("--loops-per-benchmark needs a positive integer"),
            },
            "--buses" => match it.next().as_deref().and_then(BusSel::from_name) {
                Some(sel) => args.buses = sel,
                None => return usage("--buses takes 1, 2 or both"),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => args.jobs = n,
                None => return usage("--jobs needs a non-negative integer (0 = auto)"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => args.seed = s,
                None => return usage("--seed needs a non-negative integer (default 0)"),
            },
            "--store" => match it.next() {
                Some(p) => args.store = StoreConfig::at(PathBuf::from(p)),
                None => return usage("--store needs a directory path"),
            },
            "--profile" => args.profile = true,
            "--strategy" => match it.next().map(|v| v.parse()) {
                Some(Ok(s)) => {
                    search_args.strategy = s;
                    search_flag_seen = true;
                }
                Some(Err(e)) => return usage(&e),
                None => return usage("--strategy needs a name (hillclimb|anneal|ga|exhaustive)"),
            },
            "--budget" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => {
                    search_args.budget = n;
                    search_flag_seen = true;
                }
                _ => return usage("--budget needs a positive integer"),
            },
            "--space" => match it
                .next()
                .as_deref()
                .and_then(vliw_explore::SpaceKind::from_name)
            {
                Some(k) => {
                    search_args.space = k;
                    search_flag_seen = true;
                }
                None => return usage("--space takes paper or extended"),
            },
            "--racing" => {
                search_args.racing = true;
                search_flag_seen = true;
            }
            "--shard" => match it.next() {
                Some(v) => match parse_shard(&v) {
                    Ok(pair) => {
                        search_args.shard = Some(pair);
                        search_flag_seen = true;
                    }
                    Err(msg) => return usage(&msg),
                },
                None => return usage("--shard needs i/n (e.g. 2/3)"),
            },
            "--experiment" => match it.next() {
                Some(name) => experiment_flag = Some(name),
                None => return usage("--experiment needs a name"),
            },
            "--in" => match it.next() {
                Some(p) => input = Some(PathBuf::from(p)),
                None => return usage("--in needs a file path"),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage("--out needs a file path"),
            },
            "--socket" => match it.next() {
                Some(p) => socket = Some(PathBuf::from(p)),
                None => return usage("--socket needs a path"),
            },
            "--results" => match it.next() {
                Some(p) => results = Some(PathBuf::from(p)),
                None => return usage("--results needs a directory path"),
            },
            "--clients" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => clients = Some(n),
                _ => return usage("--clients needs a positive integer"),
            },
            "--requests" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => requests = Some(n),
                _ => return usage("--requests needs a positive integer"),
            },
            "--help" | "-h" => return usage(""),
            name if !name.starts_with('-') => positionals.push(name.to_owned()),
            other => return usage(&format!("unknown flag {other}")),
        }
    }

    // The observability switches are process-global and apply to every
    // mode: --metrics turns on the clock reads behind the latency
    // histograms (serve always does), --trace installs the span tracer.
    if metrics_flag {
        vliw_obs::enable_timing();
    }
    if let Some(path) = &trace {
        if let Err(e) = vliw_obs::trace::init(path) {
            eprintln!("error: --trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let mode = positionals.first().map(String::as_str);

    // The daemon-facing subcommands own the daemon-facing flags; using
    // them anywhere else is an error, not a no-op.
    if !matches!(mode, Some("serve" | "client" | "loadgen")) && socket.is_some() {
        return usage("--socket only applies to serve, client and loadgen");
    }
    if mode != Some("serve") && results.is_some() {
        return usage("--results only applies to serve");
    }
    if mode != Some("loadgen") && (clients.is_some() || requests.is_some()) {
        return usage("--clients/--requests only apply to loadgen");
    }
    // --profile only drives the schedbench phase breakdown; anywhere
    // else it would be a silent no-op, which this CLI treats as an
    // error (like --store on table1).
    if args.profile {
        let is_schedbench = experiment_flag.as_deref() == Some("schedbench")
            || mode == Some("schedbench")
            || (matches!(mode, Some("client" | "loadgen"))
                && positionals.get(1).map(String::as_str) == Some("schedbench"));
        if !is_schedbench {
            return usage("--profile only applies to the schedbench experiment");
        }
    }

    match mode {
        Some("serve") => {
            if experiment_flag.is_some() || !positionals[1..].is_empty() {
                return usage("serve takes no experiment; it serves them all");
            }
            if search_flag_seen {
                return usage("--strategy/--budget/--space/--racing/--shard only apply to the search experiment");
            }
            if input.is_some() || out.is_some() {
                return usage("--in/--out only apply to the corpus subcommand");
            }
            let Some(socket) = socket else {
                return usage("serve needs --socket PATH");
            };
            // --store wires both halves from the one flag: the engine's
            // default store (applied to requests without their own) and
            // the serve options (which log it on startup).
            let engine = Engine::new(args.jobs).with_default_store(args.store.clone());
            let opts = ServeOptions {
                socket,
                results,
                store: args.store,
            };
            finish(serve(&engine, &opts).map_err(Into::into))
        }
        Some("client") => {
            let Some(socket) = socket else {
                return usage("client needs --socket PATH");
            };
            let req = match build_request(
                &positionals[1..],
                &args,
                search_args,
                search_flag_seen,
                input,
                out,
                true,
            ) {
                Ok(req) => req,
                Err(msg) => return usage(&msg),
            };
            finish(run_remote(&socket, &req))
        }
        Some("loadgen") => {
            let Some(socket) = socket else {
                return usage("loadgen needs --socket PATH");
            };
            let request = if positionals.len() > 1 {
                match build_request(
                    &positionals[1..],
                    &args,
                    search_args,
                    search_flag_seen,
                    input,
                    out,
                    false,
                ) {
                    Ok(req) => req,
                    Err(msg) => return usage(&msg),
                }
            } else {
                Request::Ping
            };
            let opts = LoadgenOptions {
                clients: clients.unwrap_or(4),
                requests_per_client: requests.unwrap_or(25),
                request,
            };
            finish(timed("loadgen", || run_loadgen(&socket, &opts)))
        }
        Some("corpus") => {
            // `paper corpus <action>` is a subcommand family, not an
            // experiment.
            if experiment_flag.is_some() {
                return usage("--experiment cannot be combined with the corpus subcommand");
            }
            if search_flag_seen {
                return usage("--strategy/--budget/--space/--racing/--shard only apply to the search experiment");
            }
            if positionals.len() > 2 {
                return usage(&format!("unexpected argument {}", positionals[2]));
            }
            let action = positionals.get(1).map(String::as_str);
            // Flags that don't apply to an action are errors, not no-ops —
            // silently dropping a user's path would misreport what ran.
            if input.is_some() && action == Some("dump") {
                return usage("corpus dump generates its corpus; --in is not accepted");
            }
            if out.is_some() && action != Some("dump") {
                return usage("--out is only used by corpus dump");
            }
            let result = match action {
                Some("dump") => timed("corpus dump", || corpus_dump(&args, out.as_deref())),
                Some("schedule") => run_local(
                    &Engine::new(args.jobs),
                    &Request::CorpusSchedule {
                        params: args.params(),
                        input,
                    },
                ),
                Some("stats") => run_local(
                    &Engine::new(args.jobs),
                    &Request::CorpusStats {
                        params: args.params(),
                        input,
                    },
                ),
                Some(other) => return usage(&format!("unknown corpus action {other}")),
                None => return usage("corpus needs an action: dump | schedule | stats"),
            };
            finish(result)
        }
        Some("store") => {
            // `paper store <action>` administers a measurement store
            // directory; it is a subcommand family like `corpus`, not
            // an experiment.
            if experiment_flag.is_some() {
                return usage("--experiment cannot be combined with the store subcommand");
            }
            if search_flag_seen {
                return usage("--strategy/--budget/--space/--racing/--shard only apply to the search experiment");
            }
            if input.is_some() || out.is_some() {
                return usage("--in/--out only apply to the corpus subcommand");
            }
            if positionals.len() > 2 {
                return usage(&format!("unexpected argument {}", positionals[2]));
            }
            if !args.store.is_enabled() {
                return usage("the store subcommand needs --store DIR");
            }
            let req = match positionals.get(1).map(String::as_str) {
                Some("stats") => Request::StoreStats { store: args.store },
                Some("compact") => Request::StoreCompact { store: args.store },
                Some(other) => return usage(&format!("unknown store action {other}")),
                None => return usage("store needs an action: stats | compact"),
            };
            finish(run_local(&Engine::new(args.jobs), &req))
        }
        Some("search") if positionals.get(1).map(String::as_str) == Some("merge") => {
            // `paper search merge SHARD...` folds shard artifacts into
            // one frontier CLI-side — it reads local files, which a
            // request cannot carry.
            if experiment_flag.is_some() {
                return usage("--experiment cannot be combined with search merge");
            }
            if search_flag_seen {
                return usage(
                    "search merge folds existing shard artifacts; \
                     the search flags do not apply",
                );
            }
            if input.is_some() {
                return usage("--in only applies to the corpus subcommand");
            }
            if args.store.is_enabled() {
                return usage("--store does not apply to search merge (it reads shard files)");
            }
            let files = &positionals[2..];
            if files.is_empty() {
                return usage("search merge needs at least one shard artifact file");
            }
            finish(timed("search merge", || {
                search_merge(files, out.as_deref())
            }))
        }
        _ => {
            if positionals.len() > 1 {
                return usage(&format!("unexpected argument {}", positionals[1]));
            }
            if input.is_some() || out.is_some() {
                return usage("--in/--out only apply to the corpus subcommand");
            }
            let experiment = experiment_flag
                .or_else(|| positionals.first().cloned())
                .unwrap_or_else(|| "all".to_owned());
            if search_flag_seen && experiment != "search" {
                return usage("--strategy/--budget/--space/--racing/--shard only apply to the search experiment");
            }
            // One engine for the whole invocation: reference profiles
            // (and the measurement memo cache they carry) are shared
            // across every experiment — `all` profiles each bus count
            // once, and Figure 7's unrestricted-menu variant reuses
            // Figure 6's measured configurations outright.
            let engine = Engine::new(args.jobs);
            let requests: Vec<Request> = if experiment == "all" {
                let p = args.params();
                vec![
                    Request::Table1,
                    Request::Table2(p.clone()),
                    Request::Figure6(p.clone()),
                    Request::Figure7(p.clone()),
                    Request::Figure8(p.clone()),
                    Request::Figure9(p),
                ]
            } else {
                match experiment_request(&experiment, &args, search_args) {
                    Ok(req) => vec![req],
                    Err(msg) => return usage(&msg),
                }
            };
            let mut result = Ok(());
            for req in &requests {
                result = run_local(&engine, req);
                if result.is_err() {
                    break;
                }
            }
            finish(result)
        }
    }
}

/// Maps an experiment name (and the global/search flags) to its request.
fn experiment_request(
    name: &str,
    args: &Args,
    search_args: SearchParams,
) -> Result<Request, String> {
    // table1 measures nothing, so a --store would be a silent no-op —
    // the CLI treats inapplicable flags as errors, like the request
    // builder does on the wire.
    if name == "table1" && args.store.is_enabled() {
        return Err("--store does not apply to table1 (it measures nothing)".to_owned());
    }
    if name == "metrics" && args.store.is_enabled() {
        return Err("--store does not apply to metrics (it only reads the registry)".to_owned());
    }
    let p = args.params();
    match name {
        "table1" => Ok(Request::Table1),
        "metrics" => Ok(Request::Metrics),
        "table2" => Ok(Request::Table2(p)),
        "figure6" => Ok(Request::Figure6(p)),
        "figure7" => Ok(Request::Figure7(p)),
        "figure8" => Ok(Request::Figure8(p)),
        "figure9" => Ok(Request::Figure9(p)),
        "schedbench" => Ok(Request::SchedBench(p)),
        "familysweep" => Ok(Request::FamilySweep(p)),
        "search" => Ok(Request::Search {
            params: p,
            search: search_args,
        }),
        "searchbench" => Ok(Request::SearchBench(p)),
        other => Err(format!("unknown experiment {other}")),
    }
}

/// Builds the request for `client`/`loadgen` from the positional tail
/// (everything after the subcommand name).
fn build_request(
    tail: &[String],
    args: &Args,
    search_args: SearchParams,
    search_flag_seen: bool,
    input: Option<PathBuf>,
    out: Option<PathBuf>,
    allow_control: bool,
) -> Result<Request, String> {
    if out.is_some() {
        return Err("--out is only used by corpus dump".to_owned());
    }
    let name = tail.first().map(String::as_str).ok_or(
        "a request kind is needed: an experiment, ping, shutdown, corpus schedule|stats, \
         or store stats|compact",
    )?;
    if search_flag_seen && name != "search" {
        return Err(
            "--strategy/--budget/--space/--racing/--shard only apply to the search experiment"
                .to_owned(),
        );
    }
    if input.is_some() && name != "corpus" {
        return Err("--in/--out only apply to the corpus subcommand".to_owned());
    }
    if args.store.is_enabled() && matches!(name, "ping" | "shutdown") {
        return Err(format!("--store does not apply to {name}"));
    }
    match name {
        "ping" | "shutdown" if !allow_control => {
            Err(format!("loadgen cannot repeat {name}; pick an experiment"))
        }
        "ping" => ok_sole(tail, Request::Ping),
        "shutdown" => ok_sole(tail, Request::Shutdown),
        "store" => {
            if tail.len() > 2 {
                return Err(format!("unexpected argument {}", tail[2]));
            }
            // Unlike the local subcommand, a client may omit --store:
            // the daemon then administers its own default store.
            let store = args.store.clone();
            match tail.get(1).map(String::as_str) {
                Some("stats") => Ok(Request::StoreStats { store }),
                Some("compact") => Ok(Request::StoreCompact { store }),
                Some(other) => Err(format!("unknown store action {other}")),
                None => Err("store needs an action: stats | compact".to_owned()),
            }
        }
        "corpus" => {
            if tail.len() > 2 {
                return Err(format!("unexpected argument {}", tail[2]));
            }
            match tail.get(1).map(String::as_str) {
                Some("schedule") => Ok(Request::CorpusSchedule {
                    params: args.params(),
                    input,
                }),
                Some("stats") => Ok(Request::CorpusStats {
                    params: args.params(),
                    input,
                }),
                Some("dump") => {
                    Err("corpus dump writes local files; run it without client".to_owned())
                }
                Some(other) => Err(format!("unknown corpus action {other}")),
                None => Err("corpus needs an action: schedule | stats".to_owned()),
            }
        }
        "all" => {
            Err("the request protocol is one experiment per request; all is CLI-only".to_owned())
        }
        other => ok_sole(tail, experiment_request(other, args, search_args)?),
    }
}

/// Rejects trailing positionals after a non-corpus request name.
fn ok_sole(tail: &[String], req: Request) -> Result<Request, String> {
    if tail.len() > 1 {
        return Err(format!("unexpected argument {}", tail[1]));
    }
    Ok(req)
}

fn finish(result: Result<(), AnyError>) -> ExitCode {
    // The tracer's writer is buffered and process-global; flush it on
    // every exit path so a trace file always ends on a complete event.
    vliw_obs::trace::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one step and reports its wall-time on stderr (stdout and the
/// JSON artefacts stay byte-identical regardless of timing or job count).
fn timed<R>(name: &str, run: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = run();
    eprintln!("[time] {name}: {:.3} s", start.elapsed().as_secs_f64());
    result
}

/// The `[time]` label for a request (the corpus kinds keep their
/// historical two-word labels).
fn timed_label(req: &Request) -> &'static str {
    match req {
        Request::CorpusSchedule { .. } => "corpus schedule",
        Request::CorpusStats { .. } => "corpus stats",
        Request::StoreStats { .. } => "store stats",
        Request::StoreCompact { .. } => "store compact",
        _ => req.kind(),
    }
}

/// Prints a response and persists its artefacts exactly as the one-shot
/// CLI always has: the text to stdout, the body/meta atomically to
/// `target/paper-results/`, one `[rows written to …]` line per file.
fn emit(resp: Response) -> Result<(), AnyError> {
    print!("{}", resp.text);
    if resp.ok {
        for path in persist_response(&results_dir(), &resp)? {
            println!("  [rows written to {}]", path.display());
        }
        Ok(())
    } else {
        Err(resp
            .error
            .unwrap_or_else(|| "request failed".to_owned())
            .into())
    }
}

/// Runs one request on the in-process engine and emits the response.
fn run_local(engine: &Engine, req: &Request) -> Result<(), AnyError> {
    let resp = timed(timed_label(req), || engine.run(req));
    emit(resp)
}

/// Sends one request to a daemon and emits the response, so the output
/// is byte-identical to running the same request in-process.
fn run_remote(socket: &Path, req: &Request) -> Result<(), AnyError> {
    let mut client = Client::connect(socket)
        .map_err(|e| format!("could not connect to {}: {e}", socket.display()))?;
    let resp = timed(timed_label(req), || client.request(req))?;
    emit(resp)
}

/// Drives the load generator and dumps its report for the perf gate.
fn run_loadgen(socket: &Path, opts: &LoadgenOptions) -> Result<(), AnyError> {
    println!("\n== loadgen: daemon latency/throughput ==");
    let report = loadgen(socket, opts)?;
    println!(
        "{} clients x {} x {}: p50 {:.2} ms, p99 {:.2} ms, mean {:.2} ms => {:.1} req/s",
        report.clients,
        report.requests_per_client,
        report.kind,
        report.p50_ms,
        report.p99_ms,
        report.mean_ms,
        report.serve_requests_per_second
    );
    dump_json("loadgen", &report);
    Ok(())
}

fn usage(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: paper [table1|table2|figure6|figure7|figure8|figure9|schedbench|familysweep|\
         search|searchbench|metrics|all] \
         [--experiment NAME] [--loops-per-benchmark N] [--buses 1|2|both] [--jobs N] [--seed S] \
         [--store DIR] [--profile (schedbench only)] [--metrics] [--trace FILE]\n\
         \x20      paper search [--strategy hillclimb|anneal|ga|exhaustive] [--budget N] \
         [--space paper|extended] [--racing] [--shard I/N] [--seed S] [--store DIR]\n\
         \x20      paper search merge SHARD_FILE... [--out FILE]\n\
         \x20      paper corpus dump [--out FILE] | corpus schedule [--in FILE] | \
         corpus stats [--in FILE]\n\
         \x20      paper store stats --store DIR | store compact --store DIR\n\
         \x20      paper serve --socket PATH [--jobs N] [--results DIR] [--store DIR]\n\
         \x20      paper client --socket PATH (EXPERIMENT | ping | shutdown | corpus ACTION | \
         store ACTION)\n\
         \x20      paper loadgen --socket PATH [--clients N] [--requests M] [EXPERIMENT]"
    );
    if msg.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type AnyError = Box<dyn std::error::Error>;

/// Parses `--shard i/n` (1-based shard `i` of `n`).
fn parse_shard(v: &str) -> Result<(u32, u32), String> {
    let Some((i, n)) = v.split_once('/') else {
        return Err(format!("--shard takes i/n (e.g. 2/3), got {v}"));
    };
    match (i.parse::<u32>(), n.parse::<u32>()) {
        (Ok(i), Ok(n)) if i >= 1 && i <= n => Ok((i, n)),
        (Ok(i), Ok(n)) => Err(format!("--shard {i}/{n} needs 1 <= i <= n")),
        _ => Err(format!("--shard takes positive integers i/n, got {v}")),
    }
}

/// `search merge`: folds shard artifacts (written by `search --shard`)
/// into one frontier. The merged bytes are independent of shard count
/// and of the order the files are named in, so any partition of a
/// space merges to the same artifact as the unsharded run's frontier.
fn search_merge(files: &[String], out: Option<&Path>) -> Result<(), AnyError> {
    use vliw_explore::{merge_shard_reports, ShardReport};

    let mut shards = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        shards.push(ShardReport::from_json_str(&text).map_err(|e| format!("{f}: {e}"))?);
    }
    let merged = merge_shard_reports(&shards)?;
    println!("\n== search merge: {} shard artifact(s) ==", shards.len());
    println!(
        "space {} ({} candidates): {} evaluations, {} frontier points",
        merged.space,
        merged.space_size,
        merged.evaluations,
        merged.frontier.len()
    );
    match &merged.best {
        Some(best) => println!("best: index {} | ED2 {:.6e}", best.index, best.ed2),
        None => println!("best: no feasible candidate found within the budget"),
    }
    let default_path = results_dir().join("search_merge.json");
    let path = out.unwrap_or(&default_path);
    write_atomic(path, &serde_json::to_string_pretty(&merged)?)?;
    println!("  [rows written to {}]", path.display());
    Ok(())
}

/// `corpus dump`: writes the corpus JSON (SPEC suite + generator
/// families) to `--out` (default `target/paper-results/corpus.json`),
/// with a `.meta.json` sidecar next to it. This is the one subcommand
/// that stays CLI-side — it exists to produce local files, which a
/// daemon response cannot do for a remote caller.
fn corpus_dump(args: &Args, out: Option<&Path>) -> Result<(), AnyError> {
    use vliw_workloads::Corpus;

    let corpus = Corpus::from_benchmarks(corpus_benchmarks(args.loops, args.seed));
    let default_path = results_dir().join("corpus.json");
    let path = out.unwrap_or(&default_path);
    corpus.save(path)?;
    // The sidecar lives next to the artefact it describes, wherever
    // --out pointed; it goes through the same atomic write path as
    // every other artefact.
    let meta_path = path.with_extension("meta.json");
    write_atomic(
        &meta_path,
        &serde_json::to_string_pretty(&CorpusMeta::new("dump", args.loops, None))?,
    )?;
    println!(
        "corpus: {} benchmarks, {} loops written to {}",
        corpus.benchmarks.len(),
        corpus.total_loops(),
        path.display()
    );
    println!("  [meta written to {}]", meta_path.display());
    Ok(())
}
