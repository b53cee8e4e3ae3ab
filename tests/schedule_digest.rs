//! Per-loop schedule digests, pinned to
//! `tests/golden/schedule_digest_loops40_busesboth.json`.
//!
//! The figure goldens pin means over a benchmark's loops, so a change
//! that moves a few loops' schedules can leave every committed figure
//! byte-identical while still changing what the scheduler produces.
//! This test pins each loop on its own. For the seed-0 suite at 40
//! loops per benchmark, with one bus and with two, it schedules every
//! loop twice:
//!
//! * `reference`: on the reference configuration, with no power model,
//!   as the reference profile does;
//! * `selected`: on the configuration the §3.3 selection picks for the
//!   loop's benchmark ([`select_heterogeneous`] under the unrestricted
//!   menu, with power calibrated on the suite's reference run with
//!   [`EnergyShares::PAPER`]), with that power model, as Figure 6
//!   measures it.
//!
//! Each schedule is reduced to one [`StableHasher`] digest of its IT,
//! its cluster assignment, its copies (producer and ICN cycle) and its
//! operations' issue ticks. When a digest moves, the test writes the
//! actual digests next to the golden with an `.actual` suffix and names
//! every (buses, benchmark, config, loop) that moved. If the change is
//! intended, copy that file over the golden and say why in CHANGES.md.

use std::path::Path;

use heterovliw::exec::Executor;
use heterovliw::explore::{experiments::profile_suite, select_heterogeneous, suite_reference};
use heterovliw::machine::{ClockedConfig, FrequencyMenu};
use heterovliw::power::{EnergyShares, PowerModel};
use heterovliw::sched::{schedule_loop_ws, SchedWorkspace, ScheduleOptions, ScheduledLoop};
use heterovliw::store::StableHasher;
use heterovliw::workloads::{suite_seeded, Benchmark};

const LOOPS: usize = 40;
const SEED: u64 = 0;
const CONFIGS: [&str; 2] = ["reference", "selected"];

/// One schedule's digest: IT, assignment, copies, op issue ticks.
fn digest(s: &ScheduledLoop) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(s.it().as_fs());
    h.write_u64(s.assignment().len() as u64);
    for c in s.assignment() {
        h.write_u8(c.0);
    }
    h.write_u64(s.copies().len() as u64);
    for c in s.copies() {
        h.write_u64(c.producer.index() as u64);
        h.write_u64(c.cycle);
    }
    for i in 0..s.assignment().len() {
        h.write_u64(s.op_tick(heterovliw::ir::OpId(i as u32)));
    }
    h.finish()
}

/// The per-loop digests of `bench` on `config`, in loop order.
fn digests(
    bench: &Benchmark,
    config: &ClockedConfig,
    power: Option<&PowerModel>,
    exec: &Executor,
) -> Vec<u64> {
    exec.map_init(&bench.loops, SchedWorkspace::new, |ws, _, l| {
        let opts = ScheduleOptions {
            trip_count: l.trip_count(),
            ..ScheduleOptions::default()
        };
        let s = schedule_loop_ws(l.ddg(), config, power, &opts, ws).expect("the suite schedules");
        digest(&s)
    })
}

/// A digest set: per bus count, per benchmark, the selected
/// configuration's cycle times and the per-loop digests of each config.
struct Digests {
    benches: Vec<Benchmark>,
    /// `(buses, benchmark index, selected cycles, [reference, selected])`.
    rows: Vec<(u32, usize, String, [Vec<u64>; 2])>,
}

fn compute() -> Digests {
    let exec = Executor::new(2);
    let menu = FrequencyMenu::unrestricted();
    let suite = suite_seeded(LOOPS, SEED);
    let mut rows = Vec::new();
    for buses in [1u32, 2] {
        let profiled = profile_suite(&suite, buses, &exec, None).expect("the suite profiles");
        let design = profiled.design;
        let power = PowerModel::calibrate(
            design,
            EnergyShares::PAPER,
            &suite_reference(&profiled.profiles),
        );
        let reference = ClockedConfig::reference(design);
        for (i, bench) in suite.iter().enumerate() {
            let chosen = select_heterogeneous(&profiled, i, &power, &menu, &exec)
                .expect("the selection space contains feasible points")
                .config;
            let cycles = format!(
                "{} fs / {} fs",
                chosen.fastest_cluster_cycle().as_fs(),
                chosen.slowest_cluster_cycle().as_fs()
            );
            rows.push((
                buses,
                i,
                cycles,
                [
                    digests(bench, &reference, None, &exec),
                    digests(bench, &chosen, Some(&power), &exec),
                ],
            ));
        }
    }
    Digests {
        benches: suite,
        rows,
    }
}

/// The golden's JSON: one object per (buses, benchmark), one line of
/// hex digests per config.
fn render(d: &Digests) -> String {
    let rows: Vec<String> = d
        .rows
        .iter()
        .map(|(buses, i, cycles, per_config)| {
            let lists: Vec<String> = CONFIGS
                .iter()
                .zip(per_config)
                .map(|(name, list)| {
                    let hex: Vec<String> = list.iter().map(|x| format!("\"{x:016x}\"")).collect();
                    format!("    \"{name}\": [{}]", hex.join(", "))
                })
                .collect();
            format!(
                "  {{\n    \"buses\": {buses},\n    \"benchmark\": \"{}\",\n    \"selected_cycles\": \"{cycles}\",\n{}\n  }}",
                d.benches[*i].name,
                lists.join(",\n")
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Every (buses, benchmark, config, loop) whose digest differs between
/// the golden and the actual digests, one per line.
fn moved(golden: &str, d: &Digests) -> Vec<String> {
    let parsed = serde_json::from_str(golden).ok();
    let entries = parsed.as_ref().and_then(|v| v.as_array()).unwrap_or(&[]);
    let field =
        |e: &serde_json::Value, key: &str| e.get(key).and_then(|v| v.as_str().map(str::to_owned));
    let mut out = Vec::new();
    for (buses, i, cycles, per_config) in &d.rows {
        let bench = &d.benches[*i];
        let entry = entries.iter().find(|e| {
            e.get("buses").and_then(serde_json::Value::as_u64) == Some(u64::from(*buses))
                && field(e, "benchmark").as_deref() == Some(bench.name.as_str())
        });
        let Some(entry) = entry else {
            out.push(format!("buses {buses}, {}: not in the golden", bench.name));
            continue;
        };
        let pinned_cycles = field(entry, "selected_cycles").unwrap_or_default();
        if pinned_cycles != *cycles {
            out.push(format!(
                "buses {buses}, {}: the selected config moved from {pinned_cycles} to {cycles}",
                bench.name
            ));
        }
        for (name, list) in CONFIGS.iter().zip(per_config) {
            let pinned = entry
                .get(name)
                .and_then(serde_json::Value::as_array)
                .unwrap_or(&[]);
            for (k, &x) in list.iter().enumerate() {
                let want = pinned.get(k).and_then(serde_json::Value::as_str);
                if want != Some(format!("{x:016x}").as_str()) {
                    out.push(format!(
                        "buses {buses}, {}, {name}, loop {k} ({})",
                        bench.name,
                        bench.loops[k].ddg().name()
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn every_loop_schedules_to_its_pinned_digest() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/schedule_digest_loops40_busesboth.json");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    let d = compute();
    let actual = render(&d);
    if actual != golden {
        let out = golden_path.with_extension("json.actual");
        std::fs::write(&out, &actual).expect("write the actual digests");
        let moved = moved(&golden, &d);
        panic!(
            "{} schedule digest(s) differ from {}; the actual digests are in {}:\n{}",
            moved.len(),
            golden_path.display(),
            out.display(),
            moved.join("\n")
        );
    }
}
