//! Metaheuristic design-space search with a Pareto archive.
//!
//! The paper's evaluation sweeps a small hand-picked grid of
//! cluster-frequency/voltage configurations exhaustively. Beyond that
//! grid the configuration space explodes combinatorially (cycle factors ×
//! speed-group splits × per-group voltages × bus widths), so exhaustive
//! enumeration stops being an option. This crate provides the search
//! machinery that replaces it:
//!
//! * [`SearchSpace`] — a finite, indexable candidate space with neighbour
//!   generation, seeded random sampling, mutation and crossover
//!   ([`GridSpace`] is the ready-made mixed-radix implementation the
//!   exploration layer builds its configuration spaces from);
//! * [`Strategy`] — three metaheuristics (hill climbing, annealing and
//!   a genetic algorithm) plus the exhaustive reference scan, each named
//!   for the CLI and run by the one entry point [`Strategy::run`], whose
//!   tuning (temperatures, population, racing rungs) is fixed;
//! * [`ParetoArchive`] — the non-dominated `(exec time, energy, ED²)`
//!   frontier of everything a run evaluated, with deterministic
//!   tie-breaking;
//! * the scaling layer — [`Evaluator`]/[`ScaledEvaluator`] add
//!   successive-halving **racing** and **warm starts** from persisted
//!   evaluations, and [`ShardedSpace`] partitions a space round-robin so
//!   independent processes can search disjoint slices and merge
//!   frontiers byte-stably.
//!
//! # Determinism
//!
//! Every strategy is a deterministic function of `(space, evaluation
//! function, budget, seed)`. Random draws come from a seeded
//! `rand::rngs::SmallRng` and never depend on thread scheduling;
//! candidate batches fan out across the [`vliw_exec::Executor`] the run
//! is given, whose `map` returns results in input order, so a parallel
//! run is bit-identical to a serial one
//! ([`Executor::serial`](vliw_exec::Executor::serial)). The **budget
//! counts distinct candidate evaluations** (feasible or not): repeats are
//! served from an internal memo table and cost nothing, which also means
//! a budget at least the size of a finite space makes *every* strategy
//! degrade gracefully into full coverage — and therefore find the
//! exhaustive optimum.
//!
//! # Example
//!
//! ```
//! use vliw_exec::Executor;
//! use vliw_search::{GridSpace, Objectives, Strategy};
//!
//! // Minimise a bumpy bowl over a 32×32 grid.
//! let space = GridSpace::new(vec![32, 32]);
//! let eval = |genes: &Vec<u32>, _exec: &Executor| {
//!     let (x, y) = (f64::from(genes[0]) - 11.0, f64::from(genes[1]) - 23.0);
//!     let time = 1.0 + x * x + (3.0 * x).sin().abs();
//!     let energy = 1.0 + y * y;
//!     Some(Objectives::from_time_energy(time, energy))
//! };
//! let outcome = Strategy::Anneal.run(&space, &eval, 400, 7, &Executor::serial());
//! let best = outcome.best().expect("the space has feasible points");
//! assert_eq!(best.point, vec![11, 23]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod archive;
mod evaluate;
mod obs_counters;
mod optimize;
mod shard;
mod space;
mod strategies;

pub use archive::{ArchiveEntry, ParetoArchive};
pub use evaluate::{Evaluator, ScaledEvaluator};
pub use optimize::{SearchOutcome, TracePoint};
pub use shard::ShardedSpace;
pub use space::{GridSpace, Objectives, SearchSpace};
pub use strategies::Strategy;

// Outcomes cross the executor's worker threads.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Objectives>();
    _assert_send_sync::<GridSpace>();
    _assert_send_sync::<Strategy>();
    _assert_send_sync::<SearchOutcome<Vec<u32>>>();
};
