//! The reusable scheduling workspace: every scratch buffer the modulo
//! scheduler needs, owned in one place so the hot path performs **no
//! steady-state heap allocation**.
//!
//! The paper's evaluation re-runs the §4 pipeline over thousands of loops,
//! and each loop retries the inner IMS at increasing initiation times
//! (Figure 5). Allocating the reservation tables, height/placement arrays
//! and register-pressure scratch afresh for every attempt dominated the
//! allocator profile; a [`SchedWorkspace`] is instead created once per
//! worker thread (or once per loop) and reused across:
//!
//! * the IT-retry loop of [`crate::schedule_loop`] /
//!   [`crate::schedule_loop_ws`],
//! * every [`crate::ims::schedule_into`] attempt inside one retry,
//! * the partitioner's pinning, coarsening and refinement passes
//!   ([`crate::partition::partition_candidates_ws`]), and
//! * across loops, when the exploration layer hands one workspace to each
//!   worker of the `vliw-exec` pool.
//!
//! Buffers are `clear()`ed and `resize()`d rather than reconstructed, so
//! after the first pass over a loop their capacity is warm and subsequent
//! passes allocate nothing (asserted by the counting-allocator test in
//! `crates/sched/tests/zero_alloc.rs`). The workspace never changes *what*
//! is computed — results are byte-identical with a fresh workspace per
//! call.
//!
//! The workspace also counts the work it does (see [`crate::work`]).

use std::time::Instant;

use crate::comm::NodeId;
use crate::mrt::{BusMrt, ClusterMrt};

/// Scratch for the register-pressure (MaxLives) analysis.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegScratch {
    /// Per-cluster `[def, last_read)` lifetime intervals.
    pub(crate) intervals: Vec<Vec<(u64, u64)>>,
    /// Per-consumer-cluster interval accumulator for one broadcast copy.
    pub(crate) per_cluster: Vec<Option<(u64, u64)>>,
    /// Sweep events for the modulo overlap count.
    pub(crate) events: Vec<(u64, i64)>,
}

/// Scratch for the partitioner (see
/// [`crate::partition::partition_candidates_ws`]): the hierarchy of one IT
/// attempt and every buffer pinning and coarsening use, the evaluation
/// context both refinements share, refinement's delta pricer and the
/// candidate assignments, all reused across attempts and loops.
#[derive(Debug, Clone, Default)]
pub struct PartitionScratch {
    /// The pinned recurrences, the hierarchy levels and the seed.
    pub(crate) hierarchy: crate::partition::Hierarchy,
    /// The prebuilt evaluation context shared by every pricing of one IT
    /// attempt (latency tables, edge lists, the topological order, the
    /// config's domain scalings).
    pub(crate) ctx: crate::partition::EvalCtx,
    /// Refinement's pricer and rejection versions, and its work counts:
    /// pricings made and moves accepted.
    pub(crate) refiner: crate::partition::Refiner,
    /// The candidate assignments of the latest call.
    pub(crate) candidates: crate::partition::Candidates,
}

impl PartitionScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// All mutable state of one scheduling pipeline instance.
///
/// Create one with [`SchedWorkspace::new`] and thread it through
/// [`crate::schedule_loop_ws`] (or directly through
/// [`crate::ims::schedule_into`]); after [`crate::ims::schedule_into`]
/// returns `Ok`, the placement is available through
/// [`SchedWorkspace::issue_cycles`], [`SchedWorkspace::issue_ticks`] and
/// [`SchedWorkspace::max_live`] until the next scheduling call.
#[derive(Debug, Clone)]
pub struct SchedWorkspace {
    // --- IMS core ---
    /// Dependence heights (priority function), one per extended node.
    pub(crate) heights: Vec<i64>,
    /// Current placement (`None` = unscheduled), one per extended node.
    pub(crate) sched: Vec<Option<u64>>,
    /// Last cycle each node was placed at (forced placements move up).
    pub(crate) prev_cycle: Vec<Option<u64>>,
    /// Per-cluster modulo reservation tables, reset per attempt.
    pub(crate) cluster_mrts: Vec<ClusterMrt>,
    /// The interconnect's reservation table, reset per attempt.
    pub(crate) bus_mrt: BusMrt,
    /// Eviction list shared by forced placement and dependence ejection.
    pub(crate) eject: Vec<(NodeId, u64)>,
    // --- height-ordered ready structure ---
    /// Node ids sorted by (height desc, id asc) — the IMS pick order.
    pub(crate) order: Vec<u32>,
    /// Inverse of `order`: node id → position.
    pub(crate) pos: Vec<u32>,
    /// Bitset over `order` positions; bit set = node unscheduled.
    pub(crate) ready: Vec<u64>,
    // --- eject enumeration ---
    /// Per-resource scheduled-node bitsets (resources = cluster × FU kind
    /// rows plus one bus block), node-indexed with a per-resource stride.
    pub(crate) res_sched: Vec<u64>,
    /// Ticks per local cycle of each node's issue domain, precomputed.
    pub(crate) node_cyc_ticks: Vec<u64>,
    // --- incremental register-pressure state ---
    /// Per-producer max read tick over *currently placed* value consumers.
    pub(crate) reg_last_read: Vec<u64>,
    /// Per-producer count of currently placed value consumers.
    pub(crate) reg_readers: Vec<u32>,
    // --- results of the latest successful `schedule_into` ---
    pub(crate) issue_cycles: Vec<u64>,
    pub(crate) issue_ticks: Vec<u64>,
    pub(crate) max_live: Vec<u32>,
    // --- analysis scratch ---
    pub(crate) regs: RegScratch,
    pub(crate) part: PartitionScratch,
    // --- work counts of the current `schedule_loop_ws` call ---
    /// Nodes placed by the IMS.
    pub(crate) placements: u64,
    /// Placed nodes the IMS ejected again.
    pub(crate) ejections: u64,
    /// Initiation times given up on.
    pub(crate) it_retries: u64,
    /// Whether the current `schedule_loop_ws` call times its phases.
    pub(crate) timed: bool,
}

impl SchedWorkspace {
    /// An empty workspace; every buffer grows on first use and is then
    /// reused across scheduling attempts, loops and configurations.
    #[must_use]
    pub fn new() -> Self {
        SchedWorkspace {
            heights: Vec::new(),
            sched: Vec::new(),
            prev_cycle: Vec::new(),
            cluster_mrts: Vec::new(),
            bus_mrt: BusMrt::new(1, 1),
            eject: Vec::new(),
            order: Vec::new(),
            pos: Vec::new(),
            ready: Vec::new(),
            res_sched: Vec::new(),
            node_cyc_ticks: Vec::new(),
            reg_last_read: Vec::new(),
            reg_readers: Vec::new(),
            issue_cycles: Vec::new(),
            issue_ticks: Vec::new(),
            max_live: Vec::new(),
            regs: RegScratch::default(),
            part: PartitionScratch::default(),
            placements: 0,
            ejections: 0,
            it_retries: 0,
            timed: false,
        }
    }

    /// Reads the clock when the current call times its phases.
    pub(crate) fn phase_start(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    /// The work counts (placements, ejections, IT retries, pricings,
    /// accepted moves), zeroing them.
    pub(crate) fn take_work(&mut self) -> [u64; 5] {
        use std::mem::take;
        [
            take(&mut self.placements),
            take(&mut self.ejections),
            take(&mut self.it_retries),
            take(&mut self.part.refiner.pricings),
            take(&mut self.part.refiner.moves),
        ]
    }

    /// Issue cycle of every extended-graph node (domain-local cycles),
    /// as placed by the latest successful [`crate::ims::schedule_into`].
    #[must_use]
    pub fn issue_cycles(&self) -> &[u64] {
        &self.issue_cycles
    }

    /// Issue time of every extended-graph node, in ticks.
    #[must_use]
    pub fn issue_ticks(&self) -> &[u64] {
        &self.issue_ticks
    }

    /// MaxLives per cluster of the latest successful schedule.
    #[must_use]
    pub fn max_live(&self) -> &[u32] {
        &self.max_live
    }

    /// The partition scratch, for callers driving
    /// [`crate::partition::partition_candidates_ws`] directly.
    pub fn partition_scratch(&mut self) -> &mut PartitionScratch {
        &mut self.part
    }
}

impl Default for SchedWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

// One workspace per worker thread crosses the `vliw-exec` pool boundary.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<SchedWorkspace>();
