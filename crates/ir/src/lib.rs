//! Loop intermediate representation for clustered VLIW modulo scheduling.
//!
//! This crate implements the compiler-side substrate of the CGO 2007 paper
//! *"Heterogeneous Clustered VLIW Microarchitectures"* (Aletà, Codina,
//! González, Kaeli): typed loop operations, data-dependence graphs (DDGs)
//! with `(latency, distance)` dependence edges, recurrence (strongly
//! connected component) analysis, and the recurrence-constrained minimum
//! initiation interval (`recMII`) computed as a maximum cycle ratio.
//!
//! The modulo scheduler in `vliw-sched` and the workload generator in
//! `vliw-workloads` both build on these types.
//!
//! # Storage and index stability
//!
//! Graphs are stored densely — `u32` [`OpId`]/[`EdgeId`] newtypes over
//! flat arrays, with compressed-sparse-row (CSR) adjacency — and
//! graph-level analyses (SCCs, recurrences, topological order, `recMII`,
//! FU counts, iteration energy) are computed once and cached on the
//! immutable [`Ddg`]. Every layer above relies on these invariants:
//!
//! * **`OpId` order = insertion order = CSR row order**: `OpId(i)` is the
//!   `i`-th operation passed to the builder, row `i` of both CSR tables,
//!   and index `i` of every scheduler side table (cluster assignments,
//!   issue cycles, heights, …).
//! * **`EdgeId` order = insertion order**, and within one CSR row edge
//!   ids ascend, so [`Ddg::succs`]/[`Ddg::preds`] iterate in the
//!   builder's edge-insertion order.
//! * A [`Ddg`] is immutable after [`DdgBuilder::build`]; the analysis
//!   caches are therefore pure memoisation and can never change a
//!   result, only when the work happens.
//!
//! # Example
//!
//! Build the three-operation recurrence of the paper's Figure 4 and compute
//! its `recMII`:
//!
//! ```
//! use vliw_ir::{DdgBuilder, OpClass};
//!
//! let mut b = DdgBuilder::new("figure4");
//! let a = b.op("A", OpClass::IntArith);
//! let bb = b.op("B", OpClass::IntArith);
//! let c = b.op("C", OpClass::IntArith);
//! let d = b.op("D", OpClass::IntArith);
//! let e = b.op("E", OpClass::IntArith);
//! b.dep(a, bb, 1); // same-iteration edges, unit latency (Figure 4)
//! b.dep(bb, c, 1);
//! b.dep_dist(c, a, 1, 1); // loop-carried edge closing the recurrence
//! b.dep(a, d, 1);
//! b.dep(d, e, 1);
//! let ddg = b.build().unwrap();
//!
//! // Every op has latency 1, the {A, B, C} circuit has distance 1, so
//! // recMII = ceil(3 / 1) = 3 (Figure 4 of the paper).
//! assert_eq!(ddg.rec_mii(), 3);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod ddg;
mod error;
mod op;
mod ratio;
mod scc;
mod serial;
mod toposort;

pub use builder::DdgBuilder;
pub use ddg::{build_csr, Ddg, DepEdge, DepKind, EdgeId, Loop, OpId, Operation};
pub use error::{BuildError, IrError};
pub use op::{FuKind, OpClass, ParseMnemonicError};
pub use ratio::{max_cycle_ratio, min_feasible_ii, CycleRatio};
pub use scc::{condensation, Recurrence, SccId, StronglyConnectedComponents};
pub use serial::{check_fields, get_field, get_str_field, get_u32_field, SerialError};
pub use toposort::{topological_order, TopoError};
