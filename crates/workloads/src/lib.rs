//! Synthetic SPECfp2000 loop suites for VLIW modulo-scheduling studies.
//!
//! The paper evaluates on >4000 software-pipelinable Fortran loops that the
//! ORC compiler extracted from ten SPECfp2000 benchmarks. Neither ORC nor
//! SPEC sources are available here, so this crate generates *synthetic*
//! suites with the same decision-relevant structure, the structure the
//! paper's §5.2 analysis attributes each benchmark's result to:
//!
//! * per benchmark, the fraction of execution time spent in
//!   resource-constrained, borderline and recurrence-constrained loops
//!   matches the paper's Table 2;
//! * recurrence-constrained benchmarks differ in how *many* instructions
//!   sit on their critical recurrences — small for sixtrack/facerec/lucas
//!   (the paper's big winners), large for fma3d/apsi (where speed-ups cost
//!   more energy);
//! * trip counts are low for applu (whose `it_length` sensitivity limits
//!   its benefit) and high elsewhere;
//! * bodies are floating-point heavy with realistic load/compute/store
//!   layering.
//!
//! Everything is generated from fixed seeds: suites are bit-for-bit
//! reproducible across runs and platforms.
//!
//! Beyond the SPEC-calibrated suite, four *generator families*
//! ([`Family`]) stress individual scheduler axes — memory-bound chains,
//! wide low-recurrence ILP, deep multi-recurrence kernels, and a
//! randomized seeded stress family — and any loop population can be
//! persisted to and reloaded from the versioned on-disk [`Corpus`]
//! format (serialize → load round-trips to structural equality, weights
//! bit-exact).
//!
//! # Example
//!
//! ```
//! use vliw_machine::MachineDesign;
//! use vliw_workloads::{classify, generate, LoopClass, spec_fp2000};
//!
//! let spec = &spec_fp2000()[8]; // 200.sixtrack
//! assert_eq!(spec.name, "200.sixtrack");
//! let bench = generate(spec, 24);
//! let design = MachineDesign::paper_machine(1);
//! // sixtrack is ~99.9 % recurrence constrained (Table 2).
//! let rec_time: f64 = bench
//!     .loops
//!     .iter()
//!     .filter(|l| classify(l.ddg(), design) == LoopClass::Recurrence)
//!     .map(|l| l.weight())
//!     .sum();
//! assert!(rec_time > 0.99);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod classify;
mod corpus;
mod families;
mod genloop;
mod spec;
mod suite;

pub use classify::{class_shares, classify, res_mii_machine, LoopClass};
pub use corpus::{Corpus, CorpusError, CORPUS_FORMAT, CORPUS_VERSION};
pub use families::{family_suite, family_suite_seeded, generate_family, Family};
pub use genloop::{generate_loop, LoopParams, RecurrenceSize};
pub use spec::{spec_fp2000, BenchmarkSpec};
pub use suite::{
    generate, generate_seeded, suite, suite_seeded, Benchmark, DEFAULT_LOOPS_PER_BENCHMARK,
};

// Benchmarks are shared by reference with the exploration worker pool.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Benchmark>();
    _assert_send_sync::<BenchmarkSpec>();
    _assert_send_sync::<LoopClass>();
};
