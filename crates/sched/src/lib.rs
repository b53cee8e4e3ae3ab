//! Heterogeneous modulo scheduling for clustered VLIW machines.
//!
//! Implements §2.2 and §4 of the CGO 2007 paper *"Heterogeneous Clustered
//! VLIW Microarchitectures"*: a modulo scheduler that targets machines whose
//! clusters run at different frequencies. The pipeline follows Figure 5 of
//! the paper:
//!
//! 1. compute the minimum initiation time `MIT = max(recMIT, resMIT)`
//!    ([`timing::compute_mit`]);
//! 2. select a `(frequency, II)` pair for every clock domain
//!    ([`timing::LoopClocks::select`]), increasing the `IT` on
//!    synchronisation failures;
//! 3. partition the data-dependence graph across clusters with a multilevel
//!    strategy whose refinement minimises estimated ED²
//!    ([`partition_candidates_ws`]) — critical recurrences are
//!    pre-placed whole into the slowest cluster that can still schedule
//!    them (§4.1.1);
//! 4. schedule with a Rau-style iterative modulo scheduler over per-cluster
//!    modulo reservation tables, inserting explicit inter-cluster copies on
//!    the bus ([`ims`]);
//! 5. on failure (resources, recurrences or register pressure), increase
//!    the `IT` and retry. An IMS attempt fails on resources before it
//!    places anything when some cluster FU kind or the bus must hold more
//!    nodes than its reservation table has slots
//!    ([`ims::ImsFailure::OverCapacity`], Rau's ResMII bound per resource
//!    after partitioning).
//!
//! Two inputs vary between calls and make up [`ScheduleOptions`]: the
//! frequency menu (Figure 7 sweeps it) and the loop's trip count. The
//! rest of the flow's tuning is constant: an IMS attempt may place at
//! most [`ims::BUDGET_RATIO`] × nodes operations, and the driver tries at
//! most [`MAX_IT_ATTEMPTS`] initiation times. The measurement store
//! hashes both constants into every content address, so changing one
//! re-addresses every stored measurement. An attempt that fails the slot
//! count spends none of that budget: it could only have spent all of it
//! and failed, since a finished placement holds one reservation per node.
//!
//! The same machinery schedules *homogeneous* machines (the paper's
//! baseline \[2\]\[3\]) — pass a homogeneous [`ClockedConfig`] and no power
//! model, and the ED² objective degenerates to execution time.
//!
//! # Workspaces and allocation discipline
//!
//! The evaluation re-runs this pipeline over thousands of loops, so the
//! scheduler is built around a reusable [`SchedWorkspace`]: reservation
//! tables, priority/placement arrays, register-pressure scratch and the
//! partitioner's evaluation buffers all live in the workspace and are
//! `clear()`ed rather than reallocated. Steady-state scheduling — a loop
//! whose size the workspace has already seen — performs **no heap
//! allocation** inside [`ims::schedule_into`] (asserted by a
//! counting-allocator test). Use [`schedule_loop_ws`] with one workspace
//! per worker thread; [`schedule_loop`] is the allocating convenience
//! wrapper.
//!
//! The workspace also counts the work it does — IMS placements and
//! ejections, IT retries, refinement pricings and accepted moves — in
//! plain integers, and [`schedule_loop_ws`] adds them to the `vliw_obs`
//! counters once per loop. While obs timing is on, it also records each
//! phase's wall time into `sched_phase_nanos{phase}`.
//!
//! All side tables are dense and indexed by `vliw_ir::OpId` order — see
//! the `vliw_ir` crate docs for the index-stability invariants
//! ([`ExtGraph`] extends that numbering with copy nodes at
//! `num_real..`).
//!
//! # Example
//!
//! ```
//! use vliw_ir::{DdgBuilder, OpClass};
//! use vliw_machine::{ClockedConfig, MachineDesign, Time};
//! use vliw_sched::{schedule_loop, ScheduleOptions};
//!
//! // A small fp loop: two loads feeding a multiply-accumulate recurrence.
//! let mut b = DdgBuilder::new("saxpy-ish");
//! let lx = b.op("load x", OpClass::FpMemory);
//! let ly = b.op("load y", OpClass::FpMemory);
//! let mul = b.op("mul", OpClass::FpMul);
//! let acc = b.op("acc", OpClass::FpArith);
//! b.flow(lx, mul);
//! b.flow(ly, mul);
//! b.flow(mul, acc);
//! b.flow_carried(acc, acc, 1);
//! let ddg = b.build()?;
//!
//! let config = ClockedConfig::reference(MachineDesign::paper_machine(1));
//! let sched = schedule_loop(&ddg, &config, None, &ScheduleOptions::default())?;
//! assert!(sched.it() >= Time::from_ns(3.0)); // the accumulator recurrence
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`ClockedConfig`]: vliw_machine::ClockedConfig

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod comm;
mod error;
mod hetero;
pub mod ims;
mod mrt;
pub mod partition;
mod regs;
mod schedule;
pub mod timing;
mod work;
mod workspace;

pub use comm::{ExtEdge, ExtGraph, NodeId, NodePlace};
pub use error::SchedError;
pub use hetero::{
    schedule_loop, schedule_loop_with_partition, schedule_loop_ws, ScheduleOptions, MAX_IT_ATTEMPTS,
};
pub use mrt::{BusMrt, ClusterMrt};
pub use partition::{partition_candidates_ws, Partition, PartitionObjective};
pub use regs::{lifetime_sum_ticks, max_lives};
pub use schedule::{ScheduledCopy, ScheduledLoop};
pub use timing::LoopClocks;
pub use workspace::{PartitionScratch, SchedWorkspace};

// Scheduling inputs/outputs cross the exploration worker pool.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<ScheduleOptions>();
    _assert_send_sync::<ScheduledLoop>();
    _assert_send_sync::<SchedError>();
    _assert_send_sync::<LoopClocks>();
    _assert_send_sync::<Partition>();
    _assert_send_sync::<SchedWorkspace>();
};
