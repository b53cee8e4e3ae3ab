//! One benchmark process: either the golden answer checks, or one run of
//! one workload. `run.py` builds this binary and drives it; see
//! `README.md` next to it.
//!
//! ```text
//! perfbench check --root DIR
//! perfbench run --workload NAME --seed N --seconds S --workdir DIR
//!               [--trace --trace-out FILE]
//! ```
//!
//! Each prints one JSON line on stdout.

mod counters;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use vliw_api::{Engine, Request};

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use workloads::{Outcome, Settings, Shape};

/// The golden answers the checks compare against, under
/// `tests/golden/`, with the request that reproduces each.
const GOLDENS: [(&str, &str); 6] = [
    (
        "figure6_loops5_buses1.json",
        r#"{"kind":"figure6","loops":5,"buses":"1","seed":0}"#,
    ),
    (
        "figure7_loops4_buses1.json",
        r#"{"kind":"figure7","loops":4,"buses":"1","seed":0}"#,
    ),
    (
        "table2_loops5.json",
        r#"{"kind":"table2","loops":5,"seed":0}"#,
    ),
    (
        "search_hillclimb_loops2_budget8_seed1.json",
        r#"{"kind":"search","loops":2,"buses":"1","seed":1,"strategy":"hillclimb","budget":8}"#,
    ),
    (
        "search_anneal_loops2_budget8_seed1.json",
        r#"{"kind":"search","loops":2,"buses":"1","seed":1,"strategy":"anneal","budget":8}"#,
    ),
    (
        "search_ga_loops2_budget8_seed1.json",
        r#"{"kind":"search","loops":2,"buses":"1","seed":1,"strategy":"ga","budget":8}"#,
    ),
];

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => Args::parse(&args[1..]).and_then(|a| check(&a)),
        Some("run") => Args::parse(&args[1..]).and_then(|a| run(&a, process_start)),
        _ => Err(
            "usage: perfbench check --root DIR | perfbench run --workload NAME \
                  --seed N --seconds S --workdir DIR [--trace --trace-out FILE]"
                .to_owned(),
        ),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `--key value` flags (and the bare `--trace` switch).
#[derive(Debug, Default)]
struct Args {
    root: Option<PathBuf>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    workdir: Option<PathBuf>,
    trace: bool,
    trace_out: Option<PathBuf>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut a = Args::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--trace" {
                a.trace = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let number = |what: &str| format!("{flag} takes {what}, got {value:?}");
            match flag.as_str() {
                "--root" => a.root = Some(PathBuf::from(value)),
                "--workload" => a.workload = Some(value.to_owned()),
                "--seed" => a.seed = Some(value.parse().map_err(|_| number("an integer"))?),
                "--seconds" => {
                    a.seconds = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|s: &f64| *s > 0.0 && s.is_finite())
                            .ok_or_else(|| number("a positive number"))?,
                    );
                }
                "--workdir" => a.workdir = Some(PathBuf::from(value)),
                "--trace-out" => a.trace_out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(a)
    }
}

/// Runs the six golden requests through one engine and compares each
/// body byte for byte with its file.
fn check(a: &Args) -> Result<String, String> {
    let root = a.root.as_deref().ok_or("check needs --root")?;
    let engine = Engine::new(0);
    let mut rows = Vec::new();
    let mut all_ok = true;
    for (file, wire) in GOLDENS {
        let path = root.join("tests/golden").join(file);
        let golden =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let req = Request::from_json_str(wire).expect("golden requests are well formed");
        let t0 = Instant::now();
        let resp = engine.run(&req);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = resp.ok && resp.body.as_deref() == Some(golden.as_str());
        all_ok &= ok;
        rows.push(format!(
            "{{\"file\":{},\"ok\":{ok},\"ms\":{ms:.1}}}",
            json_str(file)
        ));
    }
    Ok(format!(
        "{{\"ok\":{all_ok},\"goldens\":[{}]}}",
        rows.join(",")
    ))
}

/// One run of one workload.
fn run(a: &Args, process_start: Instant) -> Result<String, String> {
    let name = a.workload.as_deref().ok_or("run needs --workload")?;
    let shape = workloads::shape(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (known: {})",
            workloads::NAMES.join(", ")
        )
    })?;
    let settings = Settings {
        seed: a.seed.ok_or("run needs --seed")?,
        seconds: a.seconds.ok_or("run needs --seconds")?,
        trace: a.trace,
    };
    let workdir = a.workdir.as_deref().ok_or("run needs --workdir")?;
    std::fs::create_dir_all(workdir)
        .and_then(|()| std::env::set_current_dir(workdir))
        .map_err(|e| format!("enter {}: {e}", workdir.display()))?;

    let mut out = workloads::run(name, &settings, process_start)?;
    let peak_rss_mb = out.peak_rss_kib as f64 / 1024.0;

    let tail_q = stats::tail_percentile(shape.min_ops).expect("min_ops leaves a tail");
    let sorted = stats::sorted(&out.op_ms);
    let op_p50 = vliw_obs::nearest_rank(&sorted, 50.0);
    let (defs, values, ledger_report): (&[MetricDef], _, _) = if settings.trace {
        let (mut values, mut report) = layer_values(&mut out, op_p50);
        let untraced_p50 = stats::median(&out.untraced_ms);
        let overhead = 100.0 * (op_p50 / untraced_p50 - 1.0);
        values.insert("obs.timing_overhead_pct", overhead);
        let _ = writeln!(
            report,
            "  obs.timing_overhead_pct {overhead:>17.4} %      (op p50 {op_p50:.4} ms traced, \
             {untraced_p50:.4} ms untraced)"
        );
        if let Some(path) = &a.trace_out {
            std::fs::write(path, out.spans.to_jsonl())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        (&PER_LAYER, values, report)
    } else {
        let correct = out.op_ms.len() - out.failures.len();
        let values = BTreeMap::from([
            ("setup_s", stats::median(&out.setup_s)),
            ("op_p50_ms", op_p50),
            (
                "op_tail_ms",
                stats::chunked_tail(&out.op_ms, shape.min_ops, tail_q),
            ),
            (
                "work_per_s",
                correct as f64 / (out.op_ms.iter().sum::<f64>() / 1e3),
            ),
            ("peak_rss_mb", peak_rss_mb),
            ("answer_ed2_norm", out.answer_ed2_norm),
        ]);
        (&END_TO_END, values, String::new())
    };
    let metrics_json = metrics::render(defs, &values)?;

    let attempted = out.op_ms.len() + out.untraced_ms.len();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{name} seed {}: {attempted} ops ({} failed, {} untraced first), minimum {} per phase, \
         tail p{tail_q}, set-ups {:?} s",
        settings.seed,
        out.failures.len(),
        out.untraced_ms.len(),
        shape.min_ops,
        out.setup_s
    );
    if settings.trace {
        report.push_str(&ledger_report);
    } else {
        for def in defs {
            let _ = writeln!(
                report,
                "  {:<26} {:>14.4} {}",
                def.name, values[def.name], def.unit
            );
        }
    }
    for f in out.failures.iter().take(5) {
        let _ = writeln!(report, "  FAILED {f}");
    }

    let context = context_json(name, &settings, shape, &out, tail_q);
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics_json},\"context\":{context},\"report\":{}}}",
        out.failures.is_empty(),
        attempted,
        out.failures.len(),
        json_str(&report)
    ))
}

/// The per-layer metrics of a traced run, plus its ledger as text.
/// Exact counts must repeat for every op that sent the same request;
/// a mismatch fails the op's run.
fn layer_values(out: &mut Outcome, op_p50: f64) -> (BTreeMap<&'static str, f64>, String) {
    let per_op: Vec<(usize, Vec<(&'static str, f64)>)> =
        out.ledgers.iter().map(|l| (l.key, l.values())).collect();
    let mut values = BTreeMap::new();
    let mut report = String::from("  ledger (median per op; exact counts per request):\n");
    for def in &PER_LAYER {
        let samples: Vec<(usize, f64)> = per_op
            .iter()
            .filter_map(|(key, v)| {
                v.iter()
                    .find(|(n, _)| *n == def.name)
                    .map(|&(_, x)| (*key, x))
            })
            .collect();
        if samples.is_empty() {
            continue; // not a per-op value (the tracing overhead)
        }
        let value = if def.is_exact() {
            let mut per_key: BTreeMap<usize, f64> = BTreeMap::new();
            for &(key, v) in &samples {
                match per_key.get(&key) {
                    Some(&first) if first != v => out.failures.push(format!(
                        "{} is not exact: {first} then {v} for request {key}",
                        def.name
                    )),
                    Some(_) => {}
                    None => {
                        per_key.insert(key, v);
                    }
                }
            }
            per_key.values().sum::<f64>() / per_key.len().max(1) as f64
        } else {
            stats::median(&samples.iter().map(|&(_, v)| v).collect::<Vec<_>>())
        };
        values.insert(def.name, value);
        let share = if def.unit == "ms" {
            format!("{:>7.1}% of op", 100.0 * value / op_p50)
        } else {
            String::new()
        };
        let _ = writeln!(
            report,
            "  {:<26} {:>14.4} {:<6} {share}",
            def.name, value, def.unit
        );
    }

    // Self time of each span the benchmark recorded (its duration minus
    // what its child spans cover), median per op. Spans inside the op
    // add up to the op; probes run after it and are set against it.
    let spans = out.spans.spans();
    let selfs = spans::self_times_ns(spans);
    let mut by_name: BTreeMap<(bool, &str), BTreeMap<u64, f64>> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let in_op = s.name == "op" || s.parent != 0;
        *by_name
            .entry((!in_op, s.name))
            .or_default()
            .entry(s.op)
            .or_default() += self_ns as f64 / 1e6;
    }
    let _ = writeln!(report, "  span self time (median per op, share of op p50):");
    for ((probe, name), per_op) in &by_name {
        let med = stats::median(&per_op.values().copied().collect::<Vec<_>>());
        let _ = writeln!(
            report,
            "  {name:<26} {med:>11.4} ms {:>7.1}%{}",
            100.0 * med / op_p50,
            if *probe { "  (probe after the op)" } else { "" }
        );
    }
    (values, report)
}

/// Everything a result needs to be compared with another: the host,
/// the workload's shape and the requests it sent.
fn context_json(name: &str, s: &Settings, shape: Shape, out: &Outcome, tail_q: f64) -> String {
    let requests: Vec<String> = out.requests.iter().map(|r| json_str(r)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu_model\":{},\
         \"op_workers\":{},\"setup_workers\":{},\"setups\":{},\"min_ops\":{},\"ops\":{},\
         \"tail_percentile\":{tail_q},\"requests\":[{}]}}",
        json_str(name),
        s.seed,
        s.seconds,
        s.trace,
        workloads::nproc(),
        json_str(&cpu_model()),
        shape.op_workers,
        shape.setup_workers,
        workloads::SETUPS,
        shape.min_ops,
        out.op_ms.len(),
        requests.join(",")
    )
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialise")
}

/// The CPU model, from `/proc/cpuinfo` where there is one.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
