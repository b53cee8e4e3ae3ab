//! Property-based integration tests: randomly generated loops must always
//! produce sound schedules on arbitrary (sane) machine configurations,
//! and the decoders that read untrusted bytes (the wire request and the
//! store log line) must answer every input without panicking.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use heterovliw::api::Request;
use heterovliw::ir::{Ddg, DdgBuilder, OpClass};
use heterovliw::machine::{ClockedConfig, MachineDesign, Time};
use heterovliw::sched::{schedule_loop, ScheduleOptions};
use heterovliw::sim::validate;
use heterovliw::store::{
    EvalObjectives, EvalRecord, LoopProfileRecord, MeasureRecord, MeasureStore, ProfileRecord,
    Record, StoreKey, LOG_HEADER,
};

/// A random schedulable DDG: a layered DAG plus an optional carried
/// accumulator recurrence.
fn arb_ddg() -> impl Strategy<Value = Ddg> {
    (
        2usize..14,                                  // body ops
        proptest::collection::vec(0usize..6, 0..16), // extra edges (src offset)
        proptest::option::of(1u32..3),               // recurrence distance
        0usize..4,                                   // memory op count
    )
        .prop_map(|(n, extra, rec_dist, mems)| {
            let mut b = DdgBuilder::new("prop");
            let classes = [OpClass::IntArith, OpClass::FpArith, OpClass::FpMul];
            let ids: Vec<_> = (0..n)
                .map(|i| b.op(format!("n{i}"), classes[i % classes.len()]))
                .collect();
            for w in ids.windows(2) {
                b.flow(w[0], w[1]);
            }
            for (i, &off) in extra.iter().enumerate() {
                let src = i % n;
                let dst = (src + 1 + off) % n;
                if src < dst {
                    b.flow(ids[src], ids[dst]);
                }
            }
            for (i, &dst) in ids.iter().enumerate().take(mems.min(n)) {
                let m = b.op(format!("mem{i}"), OpClass::FpMemory);
                b.flow(m, dst);
            }
            if let Some(d) = rec_dist {
                b.flow_carried(ids[n - 1], ids[0], d);
            }
            b.build().expect("generated graphs are well-formed")
        })
}

fn arb_config() -> impl Strategy<Value = ClockedConfig> {
    (900u64..1100, 1.0f64..1.6, 1u8..4, 1u32..3).prop_map(|(fast_fs_k, ratio, num_fast, buses)| {
        let design = MachineDesign::paper_machine(buses);
        let fast = Time::from_fs(fast_fs_k * 1000);
        let slow = Time::from_ns(fast.as_ns() * ratio);
        ClockedConfig::heterogeneous(design, fast, num_fast, slow)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever loop and machine we draw, the scheduler's output passes
    /// the simulator's independent validation.
    #[test]
    fn schedules_are_always_sound(ddg in arb_ddg(), config in arb_config()) {
        let s = schedule_loop(&ddg, &config, None, &ScheduleOptions::default())
            .expect("generated loops are schedulable");
        validate(&ddg, &config, &s).expect("schedule validates");
        // IT respects the recurrence bound paced by the fastest cluster.
        let rec_bound = config.fastest_cluster_cycle() * u64::from(ddg.rec_mii());
        prop_assert!(s.it() >= rec_bound);
    }

    /// Execution time is exactly linear in the iteration count.
    #[test]
    fn exec_time_is_affine(ddg in arb_ddg(), config in arb_config(), n in 1u64..500) {
        let s = schedule_loop(&ddg, &config, None, &ScheduleOptions::default())
            .expect("schedulable");
        let t1 = s.exec_time(n);
        let t2 = s.exec_time(n + 7);
        prop_assert_eq!(t2 - t1, s.it() * 7);
    }
}

/// Valid wire requests covering every kind of knob: flags, numbers,
/// enums, paths with escapes and a shard.
const REQUESTS: &[&str] = &[
    r#"{"kind":"ping"}"#,
    r#"{"kind":"table1"}"#,
    r#"{"kind":"figure6","loops":5,"buses":"1","seed":3}"#,
    r#"{"kind":"search","loops":4,"buses":"both","seed":7,"store":"/tmp/paper store","strategy":"ga","budget":200,"space":"extended","racing":true,"shard":"2/3"}"#,
    r#"{"kind":"corpus_stats","loops":2,"buses":"1","seed":0,"input":"/tmp/a \"corpus\"\u00e9.json"}"#,
    r#"{"kind":"store_compact","store":"/tmp/s"}"#,
];

/// One line of each store record kind, as the store's writer emits it.
fn record_lines() -> Vec<String> {
    let key = StoreKey {
        content: 0x00c5_1234_5678_9abc,
        config: u64::MAX,
    };
    let measure = MeasureRecord {
        weighted_ins_per_cluster: vec![12.5, 0.1 + 0.2, -0.0, 3e-300],
        comms: 40,
        mem_accesses: 11,
        exec_time_fs: 1_250_000,
    };
    let lp = LoopProfileRecord {
        name: "l0".to_owned(),
        weight: 0.3,
        trips: 100,
        rec_mii: 3,
        fu_counts: [5, 6, 7],
        comms: 4,
        lifetime_fs: 5,
        it_length_fs: 6,
        it_ref_fs: 7,
        weighted_ins: 8.5,
        rec_weighted_ins: 2.5,
        mem_accesses: 9,
        exec_time_fs: 10,
        invocations: 11.75,
    };
    let profile = ProfileRecord {
        name: "171.swim".to_owned(),
        loops: vec![lp.clone(), lp],
        ref_weighted_ins: 1.5,
        ref_comms: 2,
        ref_mem_accesses: 3,
        ref_exec_time_fs: 4,
    };
    let objectives = EvalObjectives {
        exec_time_ns: 1234.5,
        energy: 0.75,
        ed2: 1e-7,
    };
    [
        Record::Measure {
            key,
            value: measure,
        },
        Record::Profile {
            key,
            value: profile,
        },
        Record::Eval {
            key,
            value: EvalRecord {
                objectives: Some(objectives),
            },
        },
        Record::Eval {
            key,
            value: EvalRecord { objectives: None },
        },
    ]
    .iter()
    .map(Record::to_json_line)
    .collect()
}

/// Text built from JSON tokens, the request and store keys, numbers at
/// and past the limits of `f64` and `u64`, escapes, a control
/// character and non-ASCII.
fn arb_text() -> impl Strategy<Value = String> {
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        "\"",
        ":",
        ",",
        " ",
        "\n",
        "\\",
        "\\u",
        "d83d",
        "true",
        "null",
        "-",
        "0",
        "1.5e3",
        "1e999",
        "18446744073709551616",
        "-0",
        "\"kind\"",
        "\"ping\"",
        "\"search\"",
        "\"measure\"",
        "\"profile\"",
        "\"loops\"",
        "\"content\"",
        "\"0000000000000001\"",
        "\"ins\"",
        "é",
        "\u{1}",
        "😀",
    ];
    proptest::collection::vec(0..TOKENS.len(), 0..48)
        .prop_map(|ix| ix.into_iter().map(|i| TOKENS[i]).collect())
}

/// 1-4 byte edits: (replace, delete or insert, position, byte).
fn arb_edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    proptest::collection::vec((0u8..3, 0usize..1 << 16, 0u8..=255), 1..5)
}

/// `base` with `edits` applied; bytes that are no longer UTF-8 become
/// U+FFFD, as any text reader would see them.
fn mutate(base: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for &(op, at, byte) in edits {
        let at = at % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => drop(bytes.remove(at)),
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A store directory of its own for every case.
fn case_store() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("heterovliw-prop-store-{}-{n}", std::process::id()))
}

#[test]
fn decoder_seeds_are_valid() {
    for line in REQUESTS {
        assert!(Request::from_json_str(line).is_ok(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wire decoder answers `Ok` or `Err`, never panics, on any
    /// text and on byte-mutated valid requests.
    #[test]
    fn request_decoder_never_panics(
        text in arb_text(),
        base in 0..REQUESTS.len(),
        edits in arb_edits()
    ) {
        let _ = Request::from_json_str(&text);
        let _ = Request::from_json_str(&mutate(REQUESTS[base], &edits));
    }

    /// Opening a store whose log holds the header and one arbitrary
    /// line answers `Ok` or `Err`, never panics.
    #[test]
    fn store_open_never_panics(text in arb_text(), base in 0usize..4, edits in arb_edits()) {
        let mutated = mutate(&record_lines()[base], &edits);
        for line in [text, mutated] {
            let dir = case_store();
            fs::create_dir_all(&dir).unwrap();
            let log = format!("{LOG_HEADER}\n{}\n", line.replace('\n', " "));
            fs::write(dir.join("writer-1-0.jsonl"), log).unwrap();
            let _ = MeasureStore::open(&dir);
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
