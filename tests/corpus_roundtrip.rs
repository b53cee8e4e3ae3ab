//! Property tests for the on-disk workload-corpus format.
//!
//! The contract under test (the tentpole acceptance criteria):
//!
//! 1. **Round trip**: serialize → load is *structural equality* — every
//!    benchmark, loop, DDG, op, edge and (bit-exact) weight survives.
//! 2. **Schedule equivalence**: a reloaded corpus schedules to
//!    **byte-identical JSON** rows vs. the in-memory originals, because
//!    the serial form preserves the `OpId`/`EdgeId` index invariants the
//!    scheduler's determinism rests on.

use heterovliw::machine::{ClockedConfig, MachineDesign, Time};
use heterovliw::sched::{schedule_loop, ScheduleOptions};
use heterovliw::workloads::{generate, generate_family, spec_fp2000, Benchmark, Corpus, Family};
use proptest::prelude::*;

fn roundtrip(corpus: &Corpus) -> Corpus {
    Corpus::from_json_str(&corpus.to_json_string()).expect("serialized corpus must load")
}

/// Schedules every loop of every benchmark on the reference and one
/// heterogeneous configuration and renders the outcomes as JSON.
fn schedule_rows(benches: &[Benchmark]) -> String {
    #[derive(serde::Serialize)]
    struct Row {
        benchmark: String,
        loop_name: String,
        config: String,
        it_ns: f64,
        exec_time_ns: f64,
        comms_per_iter: u64,
    }
    let design = MachineDesign::paper_machine(1);
    let configs = [
        ("ref", ClockedConfig::reference(design)),
        (
            "het",
            ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.5)),
        ),
    ];
    let mut rows = Vec::new();
    for b in benches {
        for l in &b.loops {
            for (name, config) in &configs {
                let opts = ScheduleOptions {
                    trip_count: l.trip_count(),
                    ..ScheduleOptions::default()
                };
                let s = schedule_loop(l.ddg(), config, None, &opts).expect("loop schedules");
                rows.push(Row {
                    benchmark: b.name.clone(),
                    loop_name: l.ddg().name().to_owned(),
                    config: (*name).to_owned(),
                    it_ns: s.it().as_ns(),
                    exec_time_ns: s.exec_time(l.trip_count()).as_ns(),
                    comms_per_iter: s.comms_per_iter(),
                });
            }
        }
    }
    serde_json::to_string(&rows).expect("rows serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any family benchmark, at any seed and small size, survives a
    /// serialize → load round trip structurally intact.
    #[test]
    fn family_corpus_round_trips(fi in 0usize..4, n in 1usize..5, seed in 0u64..10_000) {
        let family = Family::ALL[fi];
        let corpus = Corpus::from_benchmarks(vec![generate_family(family, n, seed)]);
        let back = roundtrip(&corpus);
        prop_assert_eq!(&corpus, &back);
        // Weights are preserved to the bit, not to an epsilon.
        for (a, b) in corpus.benchmarks.iter().zip(&back.benchmarks) {
            for (la, lb) in a.loops.iter().zip(&b.loops) {
                prop_assert_eq!(la.weight().to_bits(), lb.weight().to_bits());
                prop_assert_eq!(la.trip_count(), lb.trip_count());
            }
        }
    }

    /// SPEC-calibrated benchmarks round trip too (different generator,
    /// same format).
    #[test]
    fn spec_corpus_round_trips(bi in 0usize..10, n in 1usize..4) {
        let corpus = Corpus::from_benchmarks(vec![generate(&spec_fp2000()[bi], n)]);
        prop_assert_eq!(&roundtrip(&corpus), &corpus);
    }

    /// The reloaded corpus schedules to byte-identical JSON rows vs. the
    /// in-memory originals, on homogeneous and heterogeneous machines.
    #[test]
    fn reloaded_corpus_schedules_byte_identically(fi in 0usize..4, seed in 0u64..1_000) {
        let family = Family::ALL[fi];
        let corpus = Corpus::from_benchmarks(vec![generate_family(family, 2, seed)]);
        let back = roundtrip(&corpus);
        prop_assert_eq!(
            schedule_rows(&corpus.benchmarks),
            schedule_rows(&back.benchmarks)
        );
    }
}

/// A multi-benchmark corpus (SPEC + all families) round trips as a whole
/// document, preserving benchmark order.
#[test]
fn mixed_corpus_round_trips() {
    let mut benches = vec![generate(&spec_fp2000()[8], 3)];
    benches.extend(Family::ALL.map(|f| generate_family(f, 3, f.default_seed())));
    let corpus = Corpus::from_benchmarks(benches);
    let back = roundtrip(&corpus);
    assert_eq!(corpus, back);
    let names: Vec<&str> = back.benchmarks.iter().map(|b| b.name.as_str()).collect();
    assert_eq!(
        names,
        ["200.sixtrack", "membound", "ilpwide", "multirec", "stress"]
    );
}
