//! The result of modulo scheduling one loop.

use vliw_ir::{Ddg, OpId};
use vliw_machine::{ClusterId, Time};
use vliw_power::UsageProfile;

use crate::comm::ExtGraph;
use crate::timing::LoopClocks;

/// A scheduled inter-cluster copy: one bus broadcast of `producer`'s value,
/// latched by every cluster that consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledCopy {
    /// The operation whose value is transferred.
    pub producer: OpId,
    /// Issue cycle on the interconnect (ICN-local cycles).
    pub cycle: u64,
}

/// A complete modulo schedule of one loop on one clocked configuration.
///
/// Produced by [`crate::schedule_loop`]; consumed by the simulator and the
/// design-space explorer.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledLoop {
    clocks: LoopClocks,
    assignment: Vec<ClusterId>,
    op_cycles: Vec<u64>,
    op_ticks: Vec<u64>,
    copies: Vec<ScheduledCopy>,
    copy_ticks: Vec<u64>,
    it_length_ticks: u64,
    max_live: Vec<u32>,
    lifetime_sum_ticks: u64,
    weighted_ins_per_cluster: Vec<f64>,
    mem_accesses_per_iter: u64,
}

impl ScheduledLoop {
    /// Materialises a schedule from the IMS placement arrays (borrowed
    /// straight from the scheduling workspace — this is the only point the
    /// driver allocates for a successful schedule).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_ims(
        ddg: &Ddg,
        graph: &ExtGraph,
        clocks: LoopClocks,
        assignment: Vec<ClusterId>,
        issue_cycles: &[u64],
        issue_ticks: &[u64],
        max_live: &[u32],
        num_clusters: u8,
    ) -> Self {
        let num_real = graph.num_real();
        let op_cycles = issue_cycles[..num_real].to_vec();
        let op_ticks = issue_ticks[..num_real].to_vec();
        let copies: Vec<ScheduledCopy> = graph
            .copies()
            .iter()
            .enumerate()
            .map(|(i, c)| ScheduledCopy {
                producer: c.producer,
                cycle: issue_cycles[num_real + i],
            })
            .collect();
        let copy_ticks = issue_ticks[num_real..].to_vec();
        let it_length_ticks = graph
            .nodes()
            .map(|n| issue_ticks[n.index()] + graph.result_latency_ticks(n))
            .max()
            .unwrap_or(0);
        let mut weighted = vec![0.0f64; usize::from(num_clusters)];
        for op in ddg.ops() {
            weighted[assignment[op.id().index()].index()] += op.class().relative_energy();
        }
        let mem_accesses_per_iter = ddg.count_memory_ops() as u64;
        let lifetime_sum_ticks =
            crate::regs::lifetime_sum_ticks(graph, &clocks, num_clusters, issue_ticks);
        ScheduledLoop {
            clocks,
            assignment,
            op_cycles,
            op_ticks,
            copies,
            copy_ticks,
            it_length_ticks,
            max_live: max_live.to_vec(),
            lifetime_sum_ticks,
            weighted_ins_per_cluster: weighted,
            mem_accesses_per_iter,
        }
    }

    /// The initiation time of the schedule.
    #[must_use]
    pub fn it(&self) -> Time {
        self.clocks.it()
    }

    /// The clock selection (per-domain IIs) the schedule was built at.
    #[must_use]
    pub fn clocks(&self) -> &LoopClocks {
        &self.clocks
    }

    /// Cluster assignment, one entry per DDG operation.
    #[must_use]
    pub fn assignment(&self) -> &[ClusterId] {
        &self.assignment
    }

    /// Issue cycle of `op`, in its cluster's local cycles.
    #[must_use]
    pub fn op_cycle(&self, op: OpId) -> u64 {
        self.op_cycles[op.index()]
    }

    /// Issue time of `op`, in ticks.
    #[must_use]
    pub fn op_tick(&self, op: OpId) -> u64 {
        self.op_ticks[op.index()]
    }

    /// The scheduled inter-cluster copies.
    #[must_use]
    pub fn copies(&self) -> &[ScheduledCopy] {
        &self.copies
    }

    /// Issue time of the `i`-th copy, in ticks.
    #[must_use]
    pub fn copy_tick(&self, i: usize) -> u64 {
        self.copy_ticks[i]
    }

    /// Communications per iteration (the number of copies).
    #[must_use]
    pub fn comms_per_iter(&self) -> u64 {
        self.copies.len() as u64
    }

    /// Memory accesses per iteration.
    #[must_use]
    pub fn mem_accesses_per_iter(&self) -> u64 {
        self.mem_accesses_per_iter
    }

    /// The time one iteration takes from first issue to last result
    /// (`it_length` of §2.2).
    #[must_use]
    pub fn it_length(&self) -> Time {
        self.clocks.ticks_to_time(self.it_length_ticks)
    }

    /// `it_length` in ticks.
    #[must_use]
    pub fn it_length_ticks(&self) -> u64 {
        self.it_length_ticks
    }

    /// MaxLives per cluster.
    #[must_use]
    pub fn max_live(&self) -> &[u32] {
        &self.max_live
    }

    /// Sum of all register lifetimes per iteration, in ticks (the §3.2
    /// "lifetime slots" quantity).
    #[must_use]
    pub fn lifetime_sum_ticks(&self) -> u64 {
        self.lifetime_sum_ticks
    }

    /// Total execution time of `iterations` iterations:
    /// `(N − 1) · IT + it_length` (§2.2, expressed in time rather than
    /// cycles because the II differs per component).
    #[must_use]
    pub fn exec_time(&self, iterations: u64) -> Time {
        if iterations == 0 {
            return Time::ZERO;
        }
        self.clocks.it() * (iterations - 1) + self.it_length()
    }

    /// The resource-usage profile of running this schedule for
    /// `trip_count` iterations — the input to the §3.1 energy model.
    #[must_use]
    pub fn usage(&self, trip_count: u64) -> UsageProfile {
        let n = trip_count as f64;
        UsageProfile {
            weighted_ins_per_cluster: self
                .weighted_ins_per_cluster
                .iter()
                .map(|w| w * n)
                .collect(),
            comms: self.comms_per_iter() * trip_count,
            mem_accesses: self.mem_accesses_per_iter * trip_count,
            exec_time: self.exec_time(trip_count),
        }
    }
}
