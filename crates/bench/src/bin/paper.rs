//! `paper` — regenerate the tables and figures of the CGO 2007 paper,
//! manage on-disk workload corpora, and serve the experiment engine as
//! a daemon. `paper --help` lists the commands and flags.
//!
//! The CLI is a thin adapter over `vliw_api`. Each request flag
//! `--key value` becomes the wire pair `"key": value` and goes through
//! the daemon's own decoder ([`RequestBuilder::set`], then
//! [`RequestBuilder::build`]), so a flag cannot drift from its wire
//! field, and `--help` lists exactly the decoder's [`KNOBS`]. The
//! request runs on an in-process [`Engine`] (or a daemon's, for
//! `paper client`); the response's text goes to stdout and its
//! artefacts to `target/paper-results/` under the current directory.
//! Only `all`, `corpus dump`, `search merge`, `serve` and `loadgen` are
//! the CLI's own. Each step reports its wall time on stderr as
//! `[time] <name>: <seconds> s`; stdout and the artefacts are
//! byte-identical for every `--jobs`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::Value;
use vliw_api::engine::{corpus_benchmarks, CorpusMeta};
use vliw_api::request::{KnobShape, RequestBuilder, KNOBS};
use vliw_api::{
    loadgen, persist_response, serve, write_atomic, Client, Engine, LoadgenOptions, Request,
    Response, RunParams, ServeOptions,
};
use vliw_exec::Executor;

/// Where artefacts go, relative to the current directory.
const RESULTS_DIR: &str = "target/paper-results";

/// The CLI's second spellings of two request keys.
const ALIASES: [(&str, &str); 2] = [("in", "input"), ("loops-per-benchmark", "loops")];

const USAGE: &str = "\
usage: paper [EXPERIMENT] [REQUEST FLAGS] [--jobs N] [--metrics] [--trace FILE]
       paper corpus dump [--out FILE] [--loops N] [--seed S]
       paper corpus schedule|stats [--input FILE] [--loops N] [--seed S]
       paper store stats|compact --store DIR
       paper search merge SHARD_FILE... [--out FILE]
       paper serve --socket PATH [--results DIR] [--store DIR]
       paper client --socket PATH REQUEST [REQUEST FLAGS]
       paper loadgen --socket PATH [--clients N] [--requests M] [REQUEST] [REQUEST FLAGS]

EXPERIMENT  table1 table2 figure6 figure7 figure8 figure9 familysweep search
            metrics, or all (the default): table1, table2 and figures 6-9
REQUEST     an experiment but all, ping (loadgen's default), shutdown,
            corpus schedule|stats or store stats|compact

request flags (the wire keys; a flag the request does not take is an error):
";

const PROCESS_FLAGS: &str = "
process flags:
  --jobs N                  worker threads (default 0: one per core)
  --metrics                 read the clocks behind the latency histograms
  --trace FILE              write newline-JSON span events to FILE
  --socket PATH             the daemon's Unix socket (serve, client, loadgen)
  --results DIR             have the daemon persist artefacts under DIR (serve)
  --clients N               loadgen's concurrent clients, one thread each
                            (default 4; at most 16 per core, or 128)
  --requests M              loadgen's requests per client (default 25)
  --out FILE                where corpus dump and search merge write
  --experiment NAME         the same as the positional EXPERIMENT
Artefacts go to target/paper-results/ under the current directory.
";

fn main() -> ExitCode {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(Some(cli)) => cli,
        Ok(None) => return usage(""),
        Err(msg) => return usage(&msg),
    };
    let (jobs, metrics, trace) = (cli.jobs, cli.metrics, cli.trace.clone());
    let job = match plan(cli) {
        Ok(job) => job,
        Err(msg) => return usage(&msg),
    };
    // The observability switches are process-global and apply to every
    // mode: --metrics turns on the clock reads behind the latency
    // histograms (serve always does), --trace installs the span tracer.
    if metrics {
        vliw_obs::enable_timing();
    }
    if let Some(path) = &trace {
        if let Err(e) = vliw_obs::trace::init(path) {
            eprintln!("error: --trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let result = run(job, jobs);
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

/// A parsed command line: positional words, request knobs as wire
/// pairs, and the process flags.
#[derive(Debug, Default)]
struct Cli {
    words: Vec<String>,
    knobs: Vec<(&'static str, Value)>,
    experiment: Option<String>,
    jobs: usize,
    metrics: bool,
    trace: Option<PathBuf>,
    socket: Option<PathBuf>,
    results: Option<PathBuf>,
    clients: Option<usize>,
    requests: Option<usize>,
    out: Option<PathBuf>,
}

impl Cli {
    /// Parses the arguments after the program name; `Ok(None)` asks for
    /// help.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<Self>, String> {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                match arg.as_str() {
                    "-h" => return Ok(None),
                    word if word.starts_with('-') => return Err(format!("unknown flag {arg}")),
                    _ => cli.words.push(arg),
                }
                continue;
            };
            let key = ALIASES
                .iter()
                .find(|(alias, _)| *alias == flag)
                .map_or(flag, |&(_, key)| key);
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            if let Some(knob) = KNOBS.iter().find(|k| k.key == key) {
                let value = match knob.shape {
                    KnobShape::Switch => Value::Bool(true),
                    shape => wire_value(shape, value()?),
                };
                cli.knobs.push((knob.key, value));
                continue;
            }
            match flag {
                "help" => return Ok(None),
                "metrics" => cli.metrics = true,
                "jobs" => {
                    cli.jobs = value()?
                        .parse()
                        .map_err(|_| "--jobs needs a non-negative integer (0 = auto)")?;
                }
                "clients" => {
                    // One thread per client: the ceiling the executor
                    // puts on --jobs bounds it too.
                    let clients = positive(&arg, &value()?)?;
                    let ceiling = Executor::max_workers();
                    if clients > ceiling {
                        return Err(format!(
                            "--clients {clients} is more threads than this machine takes \
                             (at most {ceiling})"
                        ));
                    }
                    cli.clients = Some(clients);
                }
                "requests" => cli.requests = Some(positive(&arg, &value()?)?),
                "trace" => cli.trace = Some(value()?.into()),
                "socket" => cli.socket = Some(value()?.into()),
                "results" => cli.results = Some(value()?.into()),
                "out" => cli.out = Some(value()?.into()),
                "experiment" => cli.experiment = Some(value()?),
                _ => return Err(format!("unknown flag {arg}")),
            }
        }
        Ok(Some(cli))
    }
}

/// The wire value of a knob's command-line word. An integer knob's word
/// is read as a `u64` (so `08` is 8); one that is not stays text, and the
/// decoder refuses it with the message it gives a wire line.
fn wire_value(shape: KnobShape, word: String) -> Value {
    match word.parse::<u64>() {
        Ok(n) if shape == KnobShape::Integer => {
            serde_json::from_str(&n.to_string()).expect("an integer is a JSON number")
        }
        _ => Value::String(word),
    }
}

fn positive(flag: &str, word: &str) -> Result<usize, String> {
    word.parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} needs a positive integer"))
}

/// One validated invocation.
enum Job {
    /// Requests run in order on one in-process engine.
    Local(Vec<Request>),
    /// One request sent to a daemon.
    Remote { socket: PathBuf, request: Request },
    /// Concurrent clients repeating one request against a daemon.
    Loadgen {
        socket: PathBuf,
        opts: LoadgenOptions,
    },
    /// The engine served on a socket.
    Serve(ServeOptions),
    /// The in-memory corpus of a scale and seed, written to a file.
    CorpusDump {
        params: RunParams,
        out: Option<PathBuf>,
    },
    /// Shard artefacts folded into one frontier.
    SearchMerge {
        files: Vec<String>,
        out: Option<PathBuf>,
    },
}

/// Validates a command line into the job it asks for. Every error is a
/// usage error.
fn plan(cli: Cli) -> Result<Job, String> {
    let mode = cli.words.first().map(String::as_str);
    let tail = cli.words.get(1..).unwrap_or_default();
    let action = tail.first().map(String::as_str);
    // A process flag outside its modes is an error, not a no-op.
    if cli.socket.is_some() && !matches!(mode, Some("serve" | "client" | "loadgen")) {
        return Err("--socket only applies to serve, client and loadgen".to_owned());
    }
    if cli.results.is_some() && mode != Some("serve") {
        return Err("--results only applies to serve".to_owned());
    }
    if (cli.clients.is_some() || cli.requests.is_some()) && mode != Some("loadgen") {
        return Err("--clients/--requests only apply to loadgen".to_owned());
    }
    let writes_file = matches!(
        (mode, action),
        (Some("corpus"), Some("dump")) | (Some("search"), Some("merge"))
    );
    if cli.out.is_some() && !writes_file {
        return Err("--out only applies to corpus dump and search merge".to_owned());
    }
    if cli.experiment.is_some() && mode.is_some() {
        return Err("--experiment NAME replaces the positional experiment".to_owned());
    }
    let socket = |mode: &str| {
        cli.socket
            .clone()
            .ok_or_else(|| format!("{mode} needs --socket PATH"))
    };
    match mode {
        Some("serve") => {
            if !tail.is_empty() {
                return Err("serve takes no experiment; it serves them all".to_owned());
            }
            // --store is the daemon's default store: the one a request
            // without a store uses, and `store_stats` reports on.
            let Request::StoreStats { store } = request("store_stats", &cli.knobs)
                .map_err(|e| format!("serve takes no request flag but --store: {e}"))?
            else {
                unreachable!("a store_stats request is StoreStats");
            };
            Ok(Job::Serve(ServeOptions {
                socket: socket("serve")?,
                results: cli.results,
                store,
            }))
        }
        Some("client") => Ok(Job::Remote {
            socket: socket("client")?,
            request: request(&kind_of(tail)?, &cli.knobs)?,
        }),
        Some("loadgen") => {
            let socket = socket("loadgen")?;
            let kind = if tail.is_empty() {
                "ping".to_owned()
            } else {
                kind_of(tail)?
            };
            if kind == "shutdown" {
                return Err("loadgen cannot repeat shutdown; pick another request".to_owned());
            }
            Ok(Job::Loadgen {
                socket,
                opts: LoadgenOptions {
                    clients: cli.clients.unwrap_or(4),
                    requests_per_client: cli.requests.unwrap_or(25),
                    request: request(&kind, &cli.knobs)?,
                },
            })
        }
        Some("corpus") if action == Some("dump") => {
            if let Some(extra) = tail.get(1) {
                return Err(format!("unexpected argument {extra}"));
            }
            // A dump writes the corpus the corpus kinds would generate
            // in memory, so it takes their knobs, bar the file to load.
            let corpus = request("corpus_stats", &cli.knobs)
                .map_err(|e| format!("corpus dump takes the corpus kinds' flags: {e}"))?;
            match corpus {
                Request::CorpusStats {
                    params,
                    input: None,
                } => Ok(Job::CorpusDump {
                    params,
                    out: cli.out,
                }),
                _ => Err("corpus dump generates its corpus; --in is not accepted".to_owned()),
            }
        }
        Some("search") if action == Some("merge") => {
            if !cli.knobs.is_empty() {
                return Err("search merge folds shard files; request flags do not apply".to_owned());
            }
            if tail.len() < 2 {
                return Err("search merge needs at least one shard artifact file".to_owned());
            }
            Ok(Job::SearchMerge {
                files: tail[1..].to_vec(),
                out: cli.out,
            })
        }
        _ => {
            let command = cli.experiment.map_or(cli.words, |name| vec![name]);
            if command.is_empty() || command == ["all"] {
                let mut requests = vec![Request::Table1];
                for kind in ["table2", "figure6", "figure7", "figure8", "figure9"] {
                    requests.push(request(kind, &cli.knobs)?);
                }
                return Ok(Job::Local(requests));
            }
            let kind = kind_of(&command)?;
            if matches!(kind.as_str(), "ping" | "shutdown") {
                return Err(format!(
                    "{kind} is a daemon request; send it with paper client"
                ));
            }
            let req = request(&kind, &cli.knobs)?;
            // A one-shot engine has no default store for the store admin
            // kinds to fall back on.
            if let Request::StoreStats { store } | Request::StoreCompact { store } = &req {
                if !store.is_enabled() {
                    return Err("the store subcommand needs --store DIR".to_owned());
                }
            }
            Ok(Job::Local(vec![req]))
        }
    }
}

/// The request kind a command names: one word (`figure6`, `ping`), or a
/// family and its action (`corpus stats` is `corpus_stats`).
fn kind_of(command: &[String]) -> Result<String, String> {
    let (kind, rest) = match command {
        [family, rest @ ..] if family == "corpus" || family == "store" => match rest {
            [action, rest @ ..] => (format!("{family}_{action}"), rest),
            [] => return Err(format!("{family} needs an action")),
        },
        [word, rest @ ..] if !word.contains('_') => (word.clone(), rest),
        [word, ..] => return Err(format!("unknown command {word}")),
        [] => return Err("a request is needed (see REQUEST below)".to_owned()),
    };
    match rest.first() {
        Some(extra) => Err(format!("unexpected argument {extra}")),
        None => Ok(kind),
    }
}

/// Builds a request of `kind` from the command line's knobs through the
/// wire decoder.
fn request(kind: &str, knobs: &[(&str, Value)]) -> Result<Request, String> {
    knobs
        .iter()
        .try_fold(Request::builder(kind), |b, (key, value)| b.set(key, value))
        .and_then(RequestBuilder::build)
}

fn run(job: Job, jobs: usize) -> Result<(), AnyError> {
    match job {
        Job::Local(requests) => {
            // One engine for the whole invocation: reference profiles
            // (and the measurement memo cache they carry) are shared
            // across every experiment — `all` profiles each bus count
            // once, and Figure 7's unrestricted-menu variant reuses
            // Figure 6's measured configurations outright.
            let engine = Engine::new(jobs);
            for req in &requests {
                emit(timed(&timed_label(req), || engine.run(req)))?;
            }
            Ok(())
        }
        Job::Remote { socket, request } => {
            let mut client = Client::connect(&socket)
                .map_err(|e| format!("could not connect to {}: {e}", socket.display()))?;
            emit(timed(&timed_label(&request), || client.request(&request))?)
        }
        Job::Loadgen { socket, opts } => timed("loadgen", || run_loadgen(&socket, &opts)),
        Job::Serve(opts) => {
            // --store wires both halves from the one flag: the engine's
            // default store and the serve options (which log it).
            let engine = Engine::new(jobs).with_default_store(opts.store.clone());
            Ok(serve(&engine, &opts)?)
        }
        Job::CorpusDump { params, out } => timed("corpus dump", || corpus_dump(&params, out)),
        Job::SearchMerge { files, out } => timed("search merge", || search_merge(&files, out)),
    }
}

/// The path of artefact `name`, creating the results directory if missing.
fn results_path(name: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(RESULTS_DIR)?;
    Ok(Path::new(RESULTS_DIR).join(name))
}

/// Runs one step and reports its wall-time on stderr (stdout and the
/// JSON artefacts stay byte-identical regardless of timing or job count).
fn timed<R>(name: &str, run: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = run();
    eprintln!("[time] {name}: {:.3} s", start.elapsed().as_secs_f64());
    result
}

/// The `[time]` label for a request: its command (`corpus stats` for
/// `corpus_stats`).
fn timed_label(req: &Request) -> String {
    req.kind().replace('_', " ")
}

/// Prints a response's text to stdout and persists its body and sidecar
/// under the results directory, one `[rows written to …]` line per file.
fn emit(resp: Response) -> Result<(), AnyError> {
    print!("{}", resp.text);
    if resp.ok {
        for path in persist_response(Path::new(RESULTS_DIR), &resp)? {
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

/// Drives the load generator and writes its report to `loadgen.json`.
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
    let path = results_path("loadgen.json")?;
    write_atomic(&path, &serde_json::to_string_pretty(&report)?)?;
    println!("  [rows written to {}]", path.display());
    Ok(())
}

fn usage(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprint!("{}", help());
    if msg.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--help` text; its request flags are the decoder's [`KNOBS`].
fn help() -> String {
    let mut text = USAGE.to_owned();
    for knob in KNOBS {
        let aliases = ALIASES.iter().filter(|(_, key)| *key == knob.key);
        let flags: Vec<String> = std::iter::once(knob.key)
            .chain(aliases.map(|(alias, _)| *alias))
            .map(|name| format!("--{name} {}", knob.arg).trim_end().to_owned())
            .collect();
        let _ = writeln!(text, "  {}\n        {}", flags.join(", "), knob.help);
    }
    text + PROCESS_FLAGS
}

type AnyError = Box<dyn std::error::Error>;

/// `search merge`: folds shard artifacts (written by `search --shard`)
/// into one frontier. The merged bytes are independent of shard count
/// and of the order the files are named in, so any partition of a
/// space merges to the same artifact as the unsharded run's frontier.
fn search_merge(files: &[String], out: Option<PathBuf>) -> Result<(), AnyError> {
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
    let path = out.map_or_else(|| results_path("search_merge.json"), Ok)?;
    write_atomic(&path, &serde_json::to_string_pretty(&merged)?)?;
    println!("  [rows written to {}]", path.display());
    Ok(())
}

/// `corpus dump`: writes the corpus JSON (SPEC suite + generator
/// families) to `--out` (default `corpus.json` in the results
/// directory), with a `.meta.json` sidecar next to it. It stays
/// CLI-side because it exists to produce local files, which a daemon
/// response cannot do for a remote caller.
fn corpus_dump(params: &RunParams, out: Option<PathBuf>) -> Result<(), AnyError> {
    use vliw_workloads::Corpus;

    let corpus = Corpus::from_benchmarks(corpus_benchmarks(params.loops, params.seed));
    let path = out.map_or_else(|| results_path("corpus.json"), Ok)?;
    corpus.save(&path)?;
    // The sidecar lives next to the artefact it describes, wherever
    // --out pointed; it goes through the same atomic write path as
    // every other artefact.
    let meta_path = path.with_extension("meta.json");
    write_atomic(
        &meta_path,
        &serde_json::to_string_pretty(&CorpusMeta::new("dump", params.loops, None))?,
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

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_api::StoreConfig;

    fn plan_of(args: &str) -> Result<Job, String> {
        let cli = Cli::parse(args.split_whitespace().map(str::to_owned))?;
        plan(cli.expect("not a help request"))
    }

    /// The one request `paper ARGS` sends, or its usage error.
    fn sent(args: &str) -> Result<Request, String> {
        match plan_of(args)? {
            Job::Local(mut requests) if requests.len() == 1 => Ok(requests.remove(0)),
            Job::Remote { request, .. } => Ok(request),
            Job::Loadgen { opts, .. } => Ok(opts.request),
            _ => panic!("paper {args} sends no single request"),
        }
    }

    /// Each command line beside the wire line it must decode like: the
    /// same request, or the same error. `#` lines are comments.
    const CLI_AND_WIRE: &str = r#"
        # Knobs the CLI once dropped without a word.
        table1 --loops 2                  | {"kind":"table1","loops":2}
        metrics --seed 3                  | {"kind":"metrics","seed":3}
        client --socket s ping --loops 2  | {"kind":"ping","loops":2}
        loadgen --socket s --buses 1      | {"kind":"ping","buses":"1"}
        corpus stats --store d            | {"kind":"corpus_stats","store":"d"}
        # Every knob, both aliases and the switch.
        figure6 --loops 5 --seed 9        | {"kind":"figure6","loops":5,"seed":9}
        figure6 --buses both              | {"kind":"figure6","buses":"both"}
        table2 --loops-per-benchmark 3    | {"kind":"table2","loops":3}
        search --strategy anneal          | {"kind":"search","strategy":"anneal"}
        search --budget 8                 | {"kind":"search","budget":8}
        search --space extended           | {"kind":"search","space":"extended"}
        search --racing                   | {"kind":"search","racing":true}
        search --shard 2/3                | {"kind":"search","shard":"2/3"}
        corpus schedule --in c            | {"kind":"corpus_schedule","input":"c"}
        corpus stats --input c            | {"kind":"corpus_stats","input":"c"}
        store stats --store d             | {"kind":"store_stats","store":"d"}
        client --socket s store compact   | {"kind":"store_compact"}
        # A numeric directory name stays a path.
        figure6 --store 123               | {"kind":"figure6","store":"123"}
        # Bad values and misplaced knobs, refused in the same words.
        search --shard 0/2                | {"kind":"search","shard":"0/2"}
        search --shard a/b                | {"kind":"search","shard":"a/b"}
        search --strategy nope            | {"kind":"search","strategy":"nope"}
        search --budget 0                 | {"kind":"search","budget":0}
        figure6 --loops many              | {"kind":"figure6","loops":"many"}
        figure6 --seed -1                 | {"kind":"figure6","seed":"-1"}
        figure6 --buses 3                 | {"kind":"figure6","buses":"3"}
        figure6 --budget 4                | {"kind":"figure6","budget":4}
        figure6 --racing                  | {"kind":"figure6","racing":true}
        search --in c                     | {"kind":"search","input":"c"}
        store stats --store d --seed 1    | {"kind":"store_stats","store":"d","seed":1}
        figure42                          | {"kind":"figure42"}
    "#;

    #[test]
    fn the_cli_and_the_wire_decode_alike() {
        let cases = CLI_AND_WIRE.lines().map(str::trim);
        for case in cases.filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let (args, wire) = case.split_once('|').expect("ARGS | WIRE");
            let (args, wire) = (args.trim(), Request::from_json_str(wire.trim()));
            assert_eq!(sent(args), wire, "paper {args}");
        }
    }

    #[test]
    fn all_and_serve_take_the_knobs_they_document() {
        // `all` sends table1 bare and the other five with the knobs.
        let Ok(Job::Local(requests)) = plan_of("all --loops 2") else {
            panic!("all runs locally");
        };
        let mut expected = vec![Request::Table1];
        for kind in ["table2", "figure6", "figure7", "figure8", "figure9"] {
            let wire = format!(r#"{{"kind":"{kind}","loops":2}}"#);
            expected.push(Request::from_json_str(&wire).unwrap());
        }
        assert_eq!(requests, expected);
        // serve's one request flag is --store, a path even when numeric.
        let Ok(Job::Serve(opts)) = plan_of("serve --socket s --store 123") else {
            panic!("serve --store DIR is accepted");
        };
        assert_eq!(opts.store, StoreConfig::at("123"));
        for knob in ["--loops 5", "--seed 9", "--buses 1", "--racing"] {
            let refused = plan_of(&format!("serve --socket s {knob}")).is_err();
            assert!(refused, "serve refuses {knob}");
        }
    }

    /// loadgen spawns a thread per client, so `--clients` stops at the
    /// executor's worker ceiling; `--requests` sizes nothing up front,
    /// so any positive count plans. Nothing here starts a client.
    #[test]
    fn loadgen_counts_are_bounded_before_anything_runs() {
        let ceiling = Executor::max_workers();
        let clients = |n: usize| match plan_of(&format!("loadgen --socket s --clients {n}")) {
            Ok(Job::Loadgen { opts, .. }) => Ok(opts.clients),
            Ok(_) => panic!("loadgen plans a loadgen job"),
            Err(e) => Err(e),
        };
        assert_eq!(clients(ceiling), Ok(ceiling));
        let refused = clients(ceiling + 1).expect_err("one client over the ceiling");
        assert!(refused.contains(&format!("at most {ceiling}")), "{refused}");
        assert!(clients(usize::MAX).is_err());
        let many = format!("loadgen --socket s --requests {}", usize::MAX);
        let Ok(Job::Loadgen { opts, .. }) = plan_of(&many) else {
            panic!("a huge --requests plans");
        };
        assert_eq!(opts.requests_per_client, usize::MAX);
    }
}
