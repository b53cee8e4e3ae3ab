//! Multilevel DDG partitioning for heterogeneous cluster assignment
//! (§4.1 of the paper).
//!
//! The pipeline:
//!
//! 1. **Recurrence pre-placement** (`pin`): recurrences whose latency
//!    approaches or exceeds some cluster's `II` budget are placed whole —
//!    most critical first — into the *slowest* cluster that can still
//!    schedule them, keeping energy low without hurting the `IT`
//!    (§4.1.1).
//! 2. **Coarsening** (`coarsen`): heavy-edge matching fuses strongly
//!    connected macronodes until roughly one macronode per cluster
//!    remains; a greedy load-balanced seed assignment follows.
//! 3. **Refinement** (`refine`): walking the hierarchy from coarsest to
//!    finest, macronodes are greedily moved between clusters whenever the
//!    move lowers the estimated ED² of a *pseudo-schedule*
//!    ([`evaluate_partition`]) —
//!    an `O(V + E)` approximation of the final schedule combined with the
//!    §3.1 energy model. Each candidate move is priced by delta from the
//!    committed assignment (`pseudo::Pricer`), bit-identical to the
//!    from-scratch estimate.
//!
//! One IT attempt pins and coarsens once and derives every candidate the
//! driver tries from that hierarchy ([`partition_candidates_ws`]).
//!
//! For homogeneous machines with no power model the ED² objective
//! degenerates to (estimated) execution time, recovering the baseline
//! partitioner of the paper's prior work \[2\]\[3\].

mod coarsen;
mod pin;
mod pseudo;
mod refine;

pub(crate) use coarsen::Hierarchy;
pub(crate) use pseudo::EvalCtx;
pub use pseudo::{evaluate_partition, evaluate_partition_ws, PseudoEval};
pub(crate) use refine::Refiner;

use vliw_ir::{Ddg, FuKind};
use vliw_machine::{ClockedConfig, ClusterId};
use vliw_power::PowerModel;

use crate::error::SchedError;
use crate::timing::LoopClocks;
use crate::workspace::PartitionScratch;

/// Dense slot index for the three cluster-resident FU kinds.
///
/// # Panics
///
/// Panics on [`FuKind::Bus`] — real operations never occupy the bus.
pub(crate) fn fu_slot(kind: FuKind) -> usize {
    match kind {
        FuKind::Int => 0,
        FuKind::Fp => 1,
        FuKind::Mem => 2,
        FuKind::Bus => unreachable!("operations never occupy the bus directly"),
    }
}

/// A cluster assignment for every operation of a DDG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `assignment[op] = cluster`.
    pub assignment: Vec<ClusterId>,
}

impl Partition {
    /// Number of operations covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the partition covers no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }
}

/// What the partitioner optimises.
#[derive(Debug, Clone, Copy)]
pub struct PartitionObjective<'a> {
    /// Energy model; `None` reduces ED² to execution time (the homogeneous
    /// baseline objective).
    pub power: Option<&'a PowerModel>,
    /// Loop trip count used when estimating execution time and energy.
    pub trip_count: u64,
}

impl Default for PartitionObjective<'_> {
    fn default() -> Self {
        PartitionObjective {
            power: None,
            trip_count: 100,
        }
    }
}

/// The candidate partitions the scheduling driver tries at one initiation
/// time, in order, without duplicates:
///
/// 1. the refined partition under `objective`;
/// 2. with a power model, the refined partition under the time-only
///    objective — the measured ED² of the best schedule is never worse for
///    trying both, and it keeps schedule quality consistent between
///    profiling (time-objective) and heterogeneous (ED²-objective) runs;
/// 3. the coarsening seed without refinement: refinement optimises an
///    estimate and occasionally walks away from partitions the exact
///    scheduler would prefer.
///
/// All of them derive from one pinning and one coarsening, and both
/// refinements share one evaluation context. The candidates live in
/// `scratch` (normally the partition half of a [`crate::SchedWorkspace`]),
/// whose buffers are reused across calls: once warm, a call allocates
/// nothing.
///
/// # Errors
///
/// Returns [`SchedError::RecurrenceDoesNotFit`] when some recurrence cannot
/// be placed in any cluster at this initiation time — the driver reacts by
/// increasing the `IT`.
pub fn partition_candidates_ws<'s>(
    ddg: &Ddg,
    config: &ClockedConfig,
    clocks: &LoopClocks,
    objective: &PartitionObjective<'_>,
    scratch: &'s mut PartitionScratch,
) -> Result<&'s [Vec<ClusterId>], SchedError> {
    fill_candidates(ddg, config, clocks, objective, scratch).map_err(|min_ii| {
        SchedError::RecurrenceDoesNotFit {
            loop_name: ddg.name().to_owned(),
            min_ii,
        }
    })?;
    Ok(scratch.candidates.as_slice())
}

/// Fills `scratch.candidates` with [`partition_candidates_ws`]'s list.
///
/// # Errors
///
/// The `min_ii` of a recurrence no cluster admits; pinning is the only
/// step that can fail.
pub(crate) fn fill_candidates(
    ddg: &Ddg,
    config: &ClockedConfig,
    clocks: &LoopClocks,
    objective: &PartitionObjective<'_>,
    scratch: &mut PartitionScratch,
) -> Result<(), u32> {
    let PartitionScratch {
        hierarchy,
        ctx,
        refiner,
        candidates,
    } = scratch;
    candidates.clear();
    if ddg.is_empty() || config.design().num_clusters == 1 {
        candidates.push_distinct(|buf| buf.resize(ddg.num_ops(), ClusterId(0)));
        return Ok(());
    }
    let recurrences = ddg.recurrences();
    hierarchy.build(ddg, recurrences, config, clocks)?;
    ctx.build(ddg, config, clocks, objective.power);
    let refined = refiner.run(hierarchy, recurrences, ctx, objective);
    candidates.push_distinct(|buf| buf.extend_from_slice(refined));
    if objective.power.is_some() {
        let time_objective = PartitionObjective {
            power: None,
            trip_count: objective.trip_count,
        };
        let refined = refiner.run(hierarchy, recurrences, ctx, &time_objective);
        candidates.push_distinct(|buf| buf.extend_from_slice(refined));
    }
    candidates.push_distinct(|buf| buf.extend_from_slice(hierarchy.seed()));
    Ok(())
}

/// The candidate assignments of one IT attempt, in buffers kept warm
/// across calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct Candidates {
    /// The live candidates are `bufs[..len]`.
    bufs: Vec<Vec<ClusterId>>,
    len: usize,
}

impl Candidates {
    fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends the assignment `fill` writes into an empty buffer, unless
    /// an earlier candidate equals it.
    fn push_distinct(&mut self, fill: impl FnOnce(&mut Vec<ClusterId>)) {
        if self.len == self.bufs.len() {
            self.bufs.push(Vec::new());
        }
        let (earlier, rest) = self.bufs.split_at_mut(self.len);
        let buf = &mut rest[0];
        buf.clear();
        fill(buf);
        if !earlier.contains(buf) {
            self.len += 1;
        }
    }

    /// The live candidates.
    pub(crate) fn as_slice(&self) -> &[Vec<ClusterId>] {
        &self.bufs[..self.len]
    }
}
