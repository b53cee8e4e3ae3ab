//! Pseudo-schedules: fast `O(V + E)` estimates of the schedule a partition
//! will produce (§4.1.2, after \[3\]).
//!
//! A pseudo-schedule does not place operations in slots; it estimates the
//! two quantities the refinement objective needs:
//!
//! * the **initiation time** the partition will force — resource rows per
//!   cluster, bus rows for the communications the partition implies, and
//!   per-cluster recurrence constraints (a recurrence placed in a slow
//!   cluster stretches the `IT`; one split across clusters additionally
//!   pays bus and synchronisation latencies);
//! * the **iteration length** — an ASAP pass over the acyclic (distance-0)
//!   part of the graph with communication latencies folded in.
//!
//! Combined with the §3.1 energy model this yields the estimated ED² the
//! refiner minimises; without a power model the estimate degenerates to
//! execution time (homogeneous baseline objective).
//!
//! Refinement prices every candidate move *by delta* ([`Pricer`]): it keeps
//! the committed assignment's per-cluster FU counts, per-producer crossing
//! counts, recurrence term and ASAP finish times, updates the integer
//! terms over the moved macronode's operations and boundary edges only,
//! and re-runs the ASAP pass from the first topological position a move
//! touches.
//! [`evaluate_partition`] prices an assignment from scratch; the two agree
//! bit for bit.

use vliw_ir::{Ddg, DepKind, FuKind, Recurrence};
use vliw_machine::Time;
use vliw_machine::{ClockedConfig, ClusterId, DomainId};
use vliw_power::{ConfigScaling, PowerModel, UsageProfile};

use super::coarsen::Macronode;
use super::{fu_slot, PartitionObjective};
use crate::timing::LoopClocks;
use crate::workspace::PartitionScratch;

/// The pseudo-schedule's estimates for one candidate partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PseudoEval {
    /// Estimated initiation time, ns.
    pub est_it_ns: f64,
    /// Estimated total execution time, ns.
    pub est_exec_ns: f64,
    /// Estimated energy (reference-run units; `1.0` when no power model).
    pub energy: f64,
    /// The objective: energy × delay².
    pub ed2: f64,
}

impl PseudoEval {
    /// The estimate of a partition no schedule can realise.
    const INFEASIBLE: PseudoEval = PseudoEval {
        est_it_ns: f64::INFINITY,
        est_exec_ns: f64::INFINITY,
        energy: f64::INFINITY,
        ed2: f64::INFINITY,
    };
}

/// Evaluates `assignment` (one cluster per op) from scratch.
///
/// Infeasible partitions (e.g. FP work in a cluster with no FP units)
/// return `ed2 = ∞` so the refiner steers away from them.
///
/// Allocating wrapper over [`evaluate_partition_ws`]; results are
/// identical.
///
/// # Panics
///
/// Panics if `assignment.len() != ddg.num_ops()` or the distance-0
/// subgraph is cyclic.
#[must_use]
pub fn evaluate_partition(
    ddg: &Ddg,
    assignment: &[ClusterId],
    recurrences: &[Recurrence],
    config: &ClockedConfig,
    clocks: &LoopClocks,
    objective: &PartitionObjective<'_>,
) -> PseudoEval {
    let mut scratch = PartitionScratch::new();
    evaluate_partition_ws(
        ddg,
        assignment,
        recurrences,
        config,
        clocks,
        objective,
        &mut scratch,
    )
}

/// [`evaluate_partition`] with caller-provided scratch buffers: once the
/// scratch is warm, an evaluation allocates nothing, with or without a
/// power model.
///
/// # Panics
///
/// As [`evaluate_partition`].
#[must_use]
pub fn evaluate_partition_ws(
    ddg: &Ddg,
    assignment: &[ClusterId],
    recurrences: &[Recurrence],
    config: &ClockedConfig,
    clocks: &LoopClocks,
    objective: &PartitionObjective<'_>,
    scratch: &mut PartitionScratch,
) -> PseudoEval {
    let (ctx, pricer) = (&mut scratch.ctx, &mut scratch.refiner.pricer);
    ctx.build(ddg, config, clocks, objective.power);
    pricer.reset(ctx, assignment, recurrences);
    pricer
        .price(ctx, objective, ddg.num_ops(), None)
        .expect("a pricing without a bar always prices")
}

/// Everything about one (DDG, config, clocks, power model) tuple that
/// candidate pricings share, precomputed so that pricing is table lookups
/// and the energy term prices from cached domain scalings.
///
/// One context serves every refinement of an IT attempt; only the
/// assignment changes. Each table entry is produced by the exact
/// floating-point expression the from-scratch evaluation uses, so delta
/// pricings through a context are bit-identical to
/// [`evaluate_partition`].
#[derive(Debug, Clone, Default)]
pub(crate) struct EvalCtx {
    /// Clusters in the design.
    pub(super) nc: usize,
    /// The initiation time, ns (the `est_it` floor).
    it_ns: f64,
    /// ICN cycle, ns.
    icn_cycle_ns: f64,
    /// Cost of one cross-cluster flow edge: bus transfer plus two
    /// sync-queue cycles (`3.0 * icn_cycle_ns`).
    comm_ns: f64,
    /// Per-cluster cycle, ns.
    cycle_ns: Vec<f64>,
    /// Whether some op's FU kind has no unit in the (uniform) cluster
    /// design: then no assignment can execute the loop.
    unexecutable: bool,
    /// The `IT` that `count` ops of one kind force in one cluster —
    /// `count.div_ceil(fus) as f64 * cycle_ns[cluster]` at
    /// `rows_ns[(cluster * 3 + kind) * (num_ops + 1) + count]`, so a
    /// pricing divides nothing.
    rows_ns: Vec<f64>,
    /// The `IT` that `comms` bus broadcasts force:
    /// `comms.div_ceil(buses) as f64 * icn_cycle_ns` at `bus_rows_ns[comms]`.
    bus_rows_ns: Vec<f64>,
    /// Per-op dense FU-kind slot.
    slot: Vec<u8>,
    /// Per-op Table 1 relative energy.
    rel_energy: Vec<f64>,
    /// Memory operations per iteration.
    mem_ops: u64,
    /// Per-(op, cluster) operation latency, ns (`lat[op * nc + cluster]`).
    lat: Vec<f64>,
    /// `(src, dst)` of every flow edge, in edge order.
    flow_pairs: Vec<(u32, u32)>,
    /// CSR offsets into `preds` (one row per op).
    pred_off: Vec<u32>,
    /// Distance-0 predecessors as `(src, pays_comm_when_split)` pairs,
    /// rows ordered like the op's `ddg.preds` iteration.
    preds: Vec<(u32, bool)>,
    /// The distance-0 topological order.
    order: Vec<u32>,
    /// Each op's position in `order`.
    pos: Vec<u32>,
    /// Assignment-independent lower bound on the ASAP iteration length:
    /// the distance-0 critical path priced with every op's *fastest*
    /// cluster latency and zero communication. Every candidate's true
    /// `itlen` is ≥ this (fp-monotone argument in [`Pricer::price`]).
    cp_min_max: f64,
    /// Per-op finish times of that min-latency critical-path pass.
    cp_min: Vec<f64>,
    /// The config's domain scalings under the objective's power model
    /// (filled only when the context is built with one).
    scaling: ConfigScaling,
    /// Whether every domain of the config can sustain its frequency at its
    /// supply; a power-objective evaluation is infeasible otherwise.
    power_feasible: bool,
}

impl EvalCtx {
    /// (Re)builds the context in place, reusing retained buffers.
    ///
    /// # Panics
    ///
    /// Panics if the distance-0 subgraph is cyclic.
    pub(crate) fn build(
        &mut self,
        ddg: &Ddg,
        config: &ClockedConfig,
        clocks: &LoopClocks,
        power: Option<&PowerModel>,
    ) {
        let design = config.design();
        let n = ddg.num_ops();
        self.nc = usize::from(design.num_clusters);
        self.it_ns = clocks.it().as_ns();
        self.icn_cycle_ns = self.it_ns / clocks.icn_ii() as f64;
        self.comm_ns = 3.0 * self.icn_cycle_ns;
        let cache_cycle_ns = self.it_ns / clocks.cache_ii() as f64;
        self.cycle_ns.clear();
        self.cycle_ns.extend(
            design
                .clusters()
                .map(|c| self.it_ns / clocks.cluster_ii(c) as f64),
        );
        let fus = FuKind::CLUSTER_KINDS.map(|kind| u64::from(design.cluster.fu_count(kind)));
        self.slot.clear();
        self.slot
            .extend(ddg.ops().map(|op| fu_slot(op.fu_kind()) as u8));
        self.unexecutable = self.slot.iter().any(|&s| fus[usize::from(s)] == 0);
        self.rows_ns.clear();
        for &cycle_ns in &self.cycle_ns {
            for &fus in &fus {
                self.rows_ns
                    .extend((0..=n as u64).map(|count| match (count, fus) {
                        (0, _) => 0.0,
                        (_, 0) => f64::INFINITY,
                        _ => count.div_ceil(fus) as f64 * cycle_ns,
                    }));
            }
        }
        let buses = u64::from(design.buses);
        self.bus_rows_ns.clear();
        self.bus_rows_ns
            .extend((0..=n as u64).map(|comms| comms.div_ceil(buses) as f64 * self.icn_cycle_ns));
        self.rel_energy.clear();
        self.rel_energy
            .extend(ddg.ops().map(|op| op.class().relative_energy()));
        self.mem_ops = ddg.count_memory_ops() as u64;
        self.lat.clear();
        self.lat.reserve(n * self.nc);
        for op in ddg.ops() {
            let class = op.class();
            for c in design.clusters() {
                let lat_ns = if class.is_memory() {
                    let cluster_dom = DomainId::Cluster(c);
                    let syncs = f64::from(
                        config.sync_penalty_cycles(cluster_dom, DomainId::Cache)
                            + config.sync_penalty_cycles(DomainId::Cache, cluster_dom),
                    );
                    (f64::from(class.latency()) + syncs) * cache_cycle_ns
                } else {
                    f64::from(class.latency()) * self.cycle_ns[c.index()]
                };
                self.lat.push(lat_ns);
            }
        }
        self.flow_pairs.clear();
        self.flow_pairs.extend(
            ddg.edges()
                .filter(|e| e.kind() == DepKind::Flow)
                .map(|e| (e.src().0, e.dst().0)),
        );
        self.pred_off.clear();
        self.preds.clear();
        self.pred_off.push(0);
        for v in ddg.op_ids() {
            for e in ddg.preds(v) {
                if e.distance() != 0 {
                    continue;
                }
                self.preds.push((e.src().0, e.kind() == DepKind::Flow));
            }
            self.pred_off
                .push(u32::try_from(self.preds.len()).expect("edge count fits u32"));
        }
        let order = ddg.topo_order().expect("validated DDG has an acyclic core");
        self.order.clear();
        self.order.extend(order.iter().map(|v| v.0));
        self.pos.clear();
        self.pos.resize(n, 0);
        for (i, &v) in self.order.iter().enumerate() {
            self.pos[v as usize] = i as u32;
        }
        // Minimum-latency critical path (see the field doc): one pass
        // over the topological order.
        self.cp_min_max = 0.0;
        self.cp_min.clear();
        self.cp_min.resize(n, 0.0);
        for &v in order {
            let mut start = 0.0f64;
            for &(src, _) in self.preds_of(v.0) {
                start = start.max(self.cp_min[src as usize]);
            }
            let mut min_lat = f64::INFINITY;
            for c in 0..self.nc {
                min_lat = min_lat.min(self.lat[v.index() * self.nc + c]);
            }
            self.cp_min[v.index()] = start + min_lat;
            self.cp_min_max = self.cp_min_max.max(self.cp_min[v.index()]);
        }
        // The config's δ/σ are fixed for the whole refinement run.
        self.power_feasible = power.is_some_and(|p| p.scale_config(config, &mut self.scaling));
    }

    /// The op's position in the distance-0 topological order.
    pub(super) fn pos(&self, op: u32) -> usize {
        self.pos[op as usize] as usize
    }

    /// The op's distance-0 predecessors.
    fn preds_of(&self, op: u32) -> &[(u32, bool)] {
        let v = op as usize;
        &self.preds[self.pred_off[v] as usize..self.pred_off[v + 1] as usize]
    }
}

/// Prices candidate partitions by delta from a committed assignment.
///
/// The pricer holds one assignment and every term of its pseudo-schedule:
/// per-cluster FU counts, per-producer counts of crossing flow edges (a
/// producer with any crossing edge is one communication), the recurrence
/// term and the ASAP finish times with their prefix maxima by topological
/// position. [`Pricer::shift`] moves a macronode and updates the integer
/// terms over its operations and its boundary edges only;
/// [`Pricer::price`] re-runs the ASAP pass from the first topological
/// position the move touched. Refinement then keeps the move with
/// [`Pricer::commit`] or undoes it with [`Pricer::revert`].
///
/// The recurrence term is computed once, by [`Pricer::reset`]: recurrence
/// pre-placement pins every recurrence whole and refinement never moves a
/// pinned macronode, so shifted operations never belong to a recurrence.
///
/// Exactness: integer terms update by delta; max-reductions are cached
/// (they are order-free on these non-NaN, non-negative values, on which a
/// compare-select equals `f64::max` bit for bit); floating sums, such as
/// the per-cluster energy-weighted instruction counts, are recomputed in
/// op order. A pricing therefore equals [`evaluate_partition`] of the same
/// assignment under `to_bits`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pricer {
    /// The current per-op assignment (the committed one, or a candidate
    /// between [`Pricer::shift`] and [`Pricer::commit`]/[`Pricer::revert`]).
    assign: Vec<ClusterId>,
    /// Op counts of `assign` per cluster and FU kind, at
    /// `cluster * 3 + kind`.
    counts: Vec<u32>,
    /// Per-producer count of flow edges whose ends `assign` splits.
    crossing: Vec<u32>,
    /// Producers with a crossing flow edge: the communications per
    /// iteration.
    comms: u64,
    /// The largest `IT` any recurrence needs under `assign`.
    rec_it_ns: f64,
    /// ASAP finish time of every op. Committed values, except at
    /// topological positions `dirty..` while candidates are priced.
    finish: Vec<f64>,
    /// `prefix_max[i]`: the largest committed finish time at topological
    /// positions `0..=i`.
    prefix_max: Vec<f64>,
    /// The committed finish times at positions `dirty..`, by position.
    saved: Vec<f64>,
    /// First topological position whose finish time holds a candidate's
    /// value (`order.len()` when `finish` is all committed).
    dirty: usize,
    /// Per-cluster energy-weighted instruction counts of `assign`.
    weighted: Vec<f64>,
    /// Epoch-stamped recurrence membership for [`Pricer::reset`]
    /// (`rec_stamp[op] == rec_epoch` means the op belongs to the
    /// recurrence under evaluation).
    rec_stamp: Vec<u32>,
    rec_epoch: u32,
}

impl Pricer {
    /// Commits `assignment`, computing every term from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not cover the context's graph.
    pub(crate) fn reset(
        &mut self,
        ctx: &EvalCtx,
        assignment: &[ClusterId],
        recurrences: &[Recurrence],
    ) {
        let n = ctx.slot.len();
        assert_eq!(assignment.len(), n, "one cluster per operation");
        self.assign.clear();
        self.assign.extend_from_slice(assignment);

        // --- Resource rows per cluster.
        self.counts.clear();
        self.counts.resize(ctx.nc * 3, 0);
        for (i, &s) in ctx.slot.iter().enumerate() {
            self.counts[assignment[i].index() * 3 + usize::from(s)] += 1;
        }

        // --- Communications: producers with a crossing flow edge.
        self.crossing.clear();
        self.crossing.resize(n, 0);
        self.comms = 0;
        for &(src, dst) in &ctx.flow_pairs {
            if assignment[src as usize] != assignment[dst as usize] {
                self.cross(src);
            }
        }

        // --- Recurrence constraints.
        self.rec_it_ns = 0.0;
        if !recurrences.is_empty() && self.rec_stamp.len() < n {
            self.rec_stamp.resize(n, 0);
        }
        for rec in recurrences {
            // One pass over the members: the slowest cluster the recurrence
            // touches, and whether it spans more than one.
            let first = assignment[rec.ops[0].index()];
            let mut split = false;
            let mut slowest_used_ns = 0.0f64;
            for &op in &rec.ops {
                let c = assignment[op.index()];
                split |= c != first;
                slowest_used_ns = slowest_used_ns.max(ctx.cycle_ns[c.index()]);
            }
            let mut needed = rec.critical_ratio.value() * slowest_used_ns;
            if split {
                // Split recurrence: every crossing inside it pays a bus
                // transfer plus two synchronisation-queue cycles. Membership
                // is answered by an epoch-stamped dense table.
                if self.rec_epoch == u32::MAX {
                    self.rec_stamp.iter_mut().for_each(|s| *s = 0);
                    self.rec_epoch = 0;
                }
                self.rec_epoch += 1;
                for &op in &rec.ops {
                    self.rec_stamp[op.index()] = self.rec_epoch;
                }
                let epoch = self.rec_epoch;
                let crossings = ctx
                    .flow_pairs
                    .iter()
                    .filter(|&&(s, d)| {
                        self.rec_stamp[s as usize] == epoch
                            && self.rec_stamp[d as usize] == epoch
                            && assignment[s as usize] != assignment[d as usize]
                    })
                    .count() as f64;
                needed += crossings * 3.0 * ctx.icn_cycle_ns;
            }
            self.rec_it_ns = self.rec_it_ns.max(needed);
        }

        // --- Iteration length: the full ASAP pass.
        self.finish.clear();
        self.finish.resize(n, 0.0);
        self.prefix_max.clear();
        self.prefix_max.resize(n, 0.0);
        self.saved.clear();
        self.saved.resize(n, 0.0);
        self.dirty = n;
        self.commit(ctx, 0);
    }

    /// The cluster `op` is currently assigned to.
    pub(crate) fn cluster_of(&self, op: u32) -> ClusterId {
        self.assign[op as usize]
    }

    /// The current assignment.
    pub(crate) fn assignment(&self) -> &[ClusterId] {
        &self.assign
    }

    /// Moves a macronode — all its ops in one cluster — to `to`, updating
    /// the FU counts over its ops and the crossing counts over its
    /// boundary. A flow edge inside the macronode joins one cluster before
    /// and after the move, so it never crosses.
    pub(crate) fn shift(&mut self, ctx: &EvalCtx, node: Macronode<'_>, to: ClusterId) {
        let from = self.assign[node.ops[0] as usize];
        for &(producer, outside) in node.boundary {
            let c = self.assign[outside as usize];
            match (c != from, c != to) {
                (true, false) => self.uncross(producer),
                (false, true) => self.cross(producer),
                _ => {}
            }
        }
        for &v in node.ops {
            debug_assert_eq!(
                self.assign[v as usize], from,
                "a macronode is in one cluster"
            );
            let slot = usize::from(ctx.slot[v as usize]);
            self.counts[from.index() * 3 + slot] -= 1;
            self.counts[to.index() * 3 + slot] += 1;
            self.assign[v as usize] = to;
        }
    }

    fn cross(&mut self, producer: u32) {
        let n = &mut self.crossing[producer as usize];
        if *n == 0 {
            self.comms += 1;
        }
        *n += 1;
    }

    fn uncross(&mut self, producer: u32) {
        let n = &mut self.crossing[producer as usize];
        *n -= 1;
        if *n == 0 {
            self.comms -= 1;
        }
    }

    /// Prices the current assignment, which differs from the committed
    /// one at topological positions `first..` at most (`first =
    /// order.len()` prices the committed assignment itself).
    ///
    /// With a `bar` — the ED² the candidate must strictly beat — returns
    /// `None`, skipping the ASAP pass, when a lower bound on the
    /// candidate's ED² already reaches the bar. The bound is exact for the
    /// refiner: it uses the true `est_it`, `comms` and per-cluster work,
    /// and prices the execution time at a lower bound on the iteration
    /// length (the min-latency critical path, and the committed finish
    /// times before `first`, which the move cannot change). `+`, `*` by a
    /// non-negative value, `max` and `Time::from_ns` are monotone under
    /// IEEE-754, and `PowerModel::price` is `dynamic + static_per_s ×
    /// secs` with `static_per_s ≥ 0`, so `energy_lb · secs_lb² ≤ ED²`
    /// holds exactly and a bounded-out candidate could never have been
    /// accepted.
    pub(crate) fn price(
        &mut self,
        ctx: &EvalCtx,
        objective: &PartitionObjective<'_>,
        first: usize,
        bar: Option<f64>,
    ) -> Option<PseudoEval> {
        let Some(est_it) = self.est_it(ctx) else {
            return Some(PseudoEval::INFEASIBLE);
        };
        let trips = objective.trip_count.max(1) as f64;
        if objective.power.is_some() {
            if !ctx.power_feasible {
                return Some(PseudoEval::INFEASIBLE);
            }
            self.weighted.clear();
            self.weighted.resize(ctx.nc, 0.0);
            for (v, &c) in self.assign.iter().enumerate() {
                self.weighted[c.index()] += ctx.rel_energy[v] * trips;
            }
        }
        let base_ns = (trips - 1.0) * est_it;
        if let Some(bar) = bar {
            let itlen_lb = max(ctx.cp_min_max, self.committed_max_before(first));
            let est_exec_lb = base_ns + itlen_lb;
            let secs_lb = est_exec_lb * 1e-9;
            if self.energy(ctx, objective, est_exec_lb) * secs_lb * secs_lb >= bar {
                return None;
            }
        }
        let itlen = self.asap(ctx, first);
        let est_exec_ns = base_ns + itlen;
        let energy = self.energy(ctx, objective, est_exec_ns);
        let secs = est_exec_ns * 1e-9;
        Some(PseudoEval {
            est_it_ns: est_it,
            est_exec_ns,
            energy,
            ed2: energy * secs * secs,
        })
    }

    /// The initiation time the current assignment forces: resource rows,
    /// bus rows and recurrences. `None` when some cluster holds work its
    /// FUs cannot execute.
    fn est_it(&self, ctx: &EvalCtx) -> Option<f64> {
        if ctx.unexecutable {
            return None;
        }
        let stride = ctx.slot.len() + 1;
        let mut est_it = ctx.it_ns;
        for (row, &count) in self.counts.iter().enumerate() {
            est_it = max(est_it, ctx.rows_ns[row * stride + count as usize]);
        }
        // One bus broadcast per producer whose value leaves its cluster.
        est_it = max(est_it, ctx.bus_rows_ns[self.comms as usize]);
        Some(max(est_it, self.rec_it_ns))
    }

    /// The energy of the current assignment at `exec_ns`: the §3.1 model,
    /// or — for the time-only objective — `1.0` plus a small communication
    /// penalty as a strong tie-break (the homogeneous baseline \[3\] also
    /// prefers comm-lean partitions among equals, and comm-lean partitions
    /// schedule more robustly). A power objective reads the per-cluster
    /// work [`Pricer::price`] summed.
    fn energy(&mut self, ctx: &EvalCtx, objective: &PartitionObjective<'_>, exec_ns: f64) -> f64 {
        let Some(power) = objective.power else {
            return 1.0 + 0.002 * self.comms as f64;
        };
        // The usage borrows the per-cluster buffer for the pricing and
        // hands it back, so nothing is allocated.
        let usage = UsageProfile {
            weighted_ins_per_cluster: std::mem::take(&mut self.weighted),
            comms: self.comms * objective.trip_count,
            mem_accesses: ctx.mem_ops * objective.trip_count,
            exec_time: Time::from_ns(exec_ns),
        };
        let energy = power.price(&ctx.scaling, &usage);
        self.weighted = usage.weighted_ins_per_cluster;
        energy
    }

    /// The largest committed finish time before topological position
    /// `first`.
    fn committed_max_before(&self, first: usize) -> f64 {
        first.checked_sub(1).map_or(0.0, |i| self.prefix_max[i])
    }

    /// The iteration length of the current assignment: the ASAP pass over
    /// the distance-0 subgraph from position `first`, on top of the
    /// committed finish times before it. Saves the committed values it
    /// overwrites, for [`Pricer::revert`].
    fn asap(&mut self, ctx: &EvalCtx, first: usize) -> f64 {
        let n = ctx.order.len();
        if first < n {
            debug_assert!(
                self.dirty == n || self.dirty == first,
                "every candidate between commits starts at the same position"
            );
            if self.dirty == n {
                for i in first..n {
                    self.saved[i] = self.finish[ctx.order[i] as usize];
                }
                self.dirty = first;
            }
        }
        self.run_asap(ctx, first)
    }

    /// The ASAP pass from position `first` into `finish`; returns the
    /// largest finish time overall.
    fn run_asap(&mut self, ctx: &EvalCtx, first: usize) -> f64 {
        let mut itlen = self.committed_max_before(first);
        for &v in &ctx.order[first..] {
            let cluster = self.assign[v as usize];
            let mut start = 0.0f64;
            for &(src, pays_comm) in ctx.preds_of(v) {
                let mut ready = self.finish[src as usize];
                if pays_comm && self.assign[src as usize] != cluster {
                    // Bus transfer + two sync-queue cycles, as in the
                    // extended graph's copy path.
                    ready += ctx.comm_ns;
                }
                start = max(start, ready);
            }
            let f = start + ctx.lat[v as usize * ctx.nc + cluster.index()];
            self.finish[v as usize] = f;
            itlen = max(itlen, f);
        }
        itlen
    }

    /// Makes the current assignment the committed one, given that it
    /// differs from the last committed one at positions `first..` at most.
    pub(crate) fn commit(&mut self, ctx: &EvalCtx, first: usize) {
        self.dirty = ctx.order.len();
        self.run_asap(ctx, first);
        let mut m = self.committed_max_before(first);
        for (i, &v) in ctx.order.iter().enumerate().skip(first) {
            m = max(m, self.finish[v as usize]);
            self.prefix_max[i] = m;
        }
    }

    /// Restores the committed finish times after the current assignment
    /// was shifted back to the committed one.
    pub(crate) fn revert(&mut self, ctx: &EvalCtx) {
        let n = ctx.order.len();
        for i in self.dirty..n {
            self.finish[ctx.order[i] as usize] = self.saved[i];
        }
        self.dirty = n;
    }
}

/// `f64::max` for the pseudo-schedule's non-NaN, non-negative values, as
/// a plain compare-select: on those values the two agree bit for bit, and
/// the select skips `f64::max`'s NaN handling in the hot loops.
#[inline]
fn max(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{condensation, DdgBuilder, OpClass};
    use vliw_machine::{FrequencyMenu, MachineDesign, Time};

    fn setup(it_ns: f64) -> (ClockedConfig, LoopClocks) {
        let config = ClockedConfig::reference(MachineDesign::paper_machine(1));
        let clocks = LoopClocks::select(
            &config,
            &FrequencyMenu::unrestricted(),
            Time::from_ns(it_ns),
        )
        .unwrap();
        (config, clocks)
    }

    fn objective() -> PartitionObjective<'static> {
        PartitionObjective {
            power: None,
            trip_count: 100,
        }
    }

    #[test]
    fn balanced_beats_overloaded() {
        // 8 int ops: all in one cluster needs 8 rows (II 2 ⇒ IT inflation);
        // spreading 2 per cluster fits.
        let mut b = DdgBuilder::new("par");
        for i in 0..8 {
            b.op(format!("n{i}"), OpClass::IntArith);
        }
        let ddg = b.build().unwrap();
        let (config, clocks) = setup(2.0);
        let recs = [];
        let all_one = vec![ClusterId(0); 8];
        let spread: Vec<ClusterId> = (0..8).map(|i| ClusterId((i % 4) as u8)).collect();
        let bad = evaluate_partition(&ddg, &all_one, &recs, &config, &clocks, &objective());
        let good = evaluate_partition(&ddg, &spread, &recs, &config, &clocks, &objective());
        assert!(good.ed2 < bad.ed2);
        assert!(bad.est_it_ns >= 8.0, "8 rows of 1 ns each");
        assert!((good.est_it_ns - 2.0).abs() < 1e-9);
    }

    #[test]
    fn communication_costs_show_up() {
        // A tight chain: splitting it across clusters adds bus latency.
        let mut b = DdgBuilder::new("chain");
        let ids: Vec<_> = (0..4)
            .map(|i| b.op(format!("n{i}"), OpClass::IntArith))
            .collect();
        for w in ids.windows(2) {
            b.flow(w[0], w[1]);
        }
        let ddg = b.build().unwrap();
        let (config, clocks) = setup(4.0);
        let recs = [];
        let together = vec![ClusterId(0); 4];
        let split = vec![ClusterId(0), ClusterId(1), ClusterId(0), ClusterId(1)];
        let t = evaluate_partition(&ddg, &together, &recs, &config, &clocks, &objective());
        let s = evaluate_partition(&ddg, &split, &recs, &config, &clocks, &objective());
        assert!(t.ed2 < s.ed2, "communication-free partition must win");
    }

    #[test]
    fn split_recurrence_is_penalised() {
        let mut b = DdgBuilder::new("rec");
        let x = b.op("x", OpClass::IntArith);
        let y = b.op("y", OpClass::IntArith);
        b.flow(x, y);
        b.flow_carried(y, x, 1);
        let ddg = b.build().unwrap();
        let (config, clocks) = setup(4.0);
        let recs = condensation(&ddg).recurrences(&ddg);
        let whole = vec![ClusterId(0); 2];
        let split = vec![ClusterId(0), ClusterId(1)];
        let w = evaluate_partition(&ddg, &whole, &recs, &config, &clocks, &objective());
        let s = evaluate_partition(&ddg, &split, &recs, &config, &clocks, &objective());
        assert!(w.est_it_ns < s.est_it_ns);
    }

    #[test]
    fn slow_cluster_recurrence_stretches_it() {
        let design = MachineDesign::paper_machine(1);
        let config =
            ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(2.0));
        let clocks =
            LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(4.0))
                .unwrap();
        let mut b = DdgBuilder::new("rec");
        let x = b.op("x", OpClass::FpArith);
        b.flow_carried(x, x, 1); // ratio 3
        let ddg = b.build().unwrap();
        let recs = condensation(&ddg).recurrences(&ddg);
        let fast = vec![ClusterId(0)];
        let slow = vec![ClusterId(1)];
        let f = evaluate_partition(&ddg, &fast, &recs, &config, &clocks, &objective());
        let s = evaluate_partition(&ddg, &slow, &recs, &config, &clocks, &objective());
        // In the fast cluster the recurrence needs 3 ns; in the slow one 6.
        assert!((f.est_it_ns - 4.0).abs() < 1e-6, "fits inside IT 4");
        assert!((s.est_it_ns - 6.0).abs() < 1e-6);
    }

    #[test]
    fn energy_model_prefers_work_in_cheap_clusters() {
        use vliw_power::{EnergyShares, PowerModel, ReferenceProfile};
        let design = MachineDesign::paper_machine(1);
        let profile = ReferenceProfile {
            weighted_ins: 10_000.0,
            comms: 500,
            mem_accesses: 2_000,
            exec_time: Time::from_ns(10_000.0),
        };
        let power = PowerModel::calibrate(design, EnergyShares::PAPER, &profile);
        let config =
            ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.25))
                .with_voltages(vliw_machine::Voltages {
                    clusters: vec![1.0, 0.8, 0.8, 0.8],
                    icn: 1.0,
                    cache: 1.0,
                });
        let clocks =
            LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(5.0))
                .unwrap();
        // Independent ops: either all in the fast/hot cluster or spread to
        // the cheap ones.
        let mut b = DdgBuilder::new("par");
        for i in 0..4 {
            b.op(format!("n{i}"), OpClass::FpArith);
        }
        let ddg = b.build().unwrap();
        let obj = PartitionObjective {
            power: Some(&power),
            trip_count: 100,
        };
        let hot = vec![ClusterId(0); 4];
        let cheap = vec![ClusterId(1), ClusterId(1), ClusterId(2), ClusterId(3)];
        let h = evaluate_partition(&ddg, &hot, &[], &config, &clocks, &obj);
        let c = evaluate_partition(&ddg, &cheap, &[], &config, &clocks, &obj);
        assert!(c.energy < h.energy);
        assert!(c.ed2 < h.ed2);
    }

    mod delta_pricing {
        //! Pins the delta pricer ([`Pricer`]) to the from-scratch
        //! evaluator [`evaluate_partition`], bit for bit, over random DDGs
        //! and random sequences of accepted and rejected macronode moves.
        //! Recurrences are pinned and the graph coarsened exactly as the
        //! partitioner does, and moves follow refinement's protocol: shift a
        //! macronode through one or more targets, pricing each against a
        //! bar, then commit one target or shift back and revert.

        use super::*;
        use crate::partition::coarsen::Level;
        use crate::partition::Hierarchy;
        use crate::timing::{compute_mit, next_it_candidate};
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;
        use vliw_ir::{DepKind, OpId};
        use vliw_machine::Voltages;
        use vliw_power::{EnergyShares, ReferenceProfile};

        const CLASSES: [OpClass; 8] = [
            OpClass::IntArith,
            OpClass::FpArith,
            OpClass::IntMul,
            OpClass::FpMul,
            OpClass::IntMemory,
            OpClass::FpMemory,
            OpClass::IntDiv,
            OpClass::FpDiv,
        ];

        /// A random DDG: op `i` optionally reads a random earlier op
        /// (`parents[i]`, 0 = none), `extra` adds distance-0 flow or
        /// order edges between random ops (earlier to later), and each
        /// `(op, up)` of `recs` closes a loop-carried recurrence from `op`
        /// back to the ancestor `up` parent links above it (a self-loop
        /// when `up` is 0 or the op has no parent).
        fn random_ddg(
            classes: &[u8],
            parents: &[u16],
            extra: &[(u16, u16, u8)],
            recs: &[(u16, u16)],
        ) -> Ddg {
            let n = classes.len();
            let mut b = DdgBuilder::new("prop");
            let ids: Vec<OpId> = classes
                .iter()
                .enumerate()
                .map(|(i, &c)| b.op(format!("n{i}"), CLASSES[usize::from(c) % CLASSES.len()]))
                .collect();
            let mut parent = vec![None; n];
            for i in 1..n {
                if parents[i] != 0 {
                    let p = usize::from(parents[i]) % i;
                    parent[i] = Some(p);
                    b.flow(ids[p], ids[i]);
                }
            }
            for &(x, y, kind) in extra {
                let (x, y) = (usize::from(x) % n, usize::from(y) % n);
                if x < y {
                    let kind = if kind == 0 {
                        DepKind::Flow
                    } else {
                        DepKind::Order
                    };
                    b.dep_full(ids[x], ids[y], 1, 0, kind);
                }
            }
            for &(op, up) in recs {
                let tail = usize::from(op) % n;
                let mut head = tail;
                for _ in 0..up {
                    match parent[head] {
                        Some(p) => head = p,
                        None => break,
                    }
                }
                b.flow_carried(ids[tail], ids[head], 1);
            }
            b.build().unwrap()
        }

        fn power_model(design: MachineDesign) -> PowerModel {
            PowerModel::calibrate(
                design,
                EnergyShares::PAPER,
                &ReferenceProfile {
                    weighted_ins: 10_000.0,
                    comms: 500,
                    mem_accesses: 2_000,
                    exec_time: Time::from_ns(10_000.0),
                },
            )
        }

        /// The reference machine or a heterogeneous one with one fast
        /// cluster and three slow, low-voltage ones.
        fn config(heterogeneous: bool, buses: u32) -> ClockedConfig {
            let design = MachineDesign::paper_machine(buses);
            if heterogeneous {
                ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.25))
                    .with_voltages(Voltages {
                        clusters: vec![1.0, 0.8, 0.8, 0.8],
                        icn: 1.0,
                        cache: 1.0,
                    })
            } else {
                ClockedConfig::reference(design)
            }
        }

        /// The first IT from the MIT on (plus `extra_steps` more) at which
        /// the clocks synchronise and every recurrence pins, with its
        /// hierarchy.
        fn pinned_hierarchy(
            ddg: &Ddg,
            config: &ClockedConfig,
            extra_steps: u8,
        ) -> Option<(LoopClocks, Hierarchy)> {
            let menu = FrequencyMenu::unrestricted();
            let mut it = compute_mit(ddg, config, &menu).ok()?;
            let mut skip = extra_steps;
            for _ in 0..64 {
                if let Some(clocks) = LoopClocks::select(config, &menu, it) {
                    let mut hierarchy = Hierarchy::default();
                    if hierarchy
                        .build(ddg, ddg.recurrences(), config, &clocks)
                        .is_ok()
                    {
                        if skip == 0 {
                            return Some((clocks, hierarchy));
                        }
                        skip -= 1;
                    }
                }
                it = next_it_candidate(config, &menu, it);
            }
            None
        }

        fn assert_bits(delta: &PseudoEval, scratch: &PseudoEval, what: &str) {
            let bits =
                |e: &PseudoEval| [e.est_it_ns, e.est_exec_ns, e.energy, e.ed2].map(f64::to_bits);
            assert_eq!(
                bits(delta),
                bits(scratch),
                "{what}: {delta:?} vs {scratch:?}"
            );
        }

        /// Everything one differential run needs.
        struct Case<'a> {
            ddg: &'a Ddg,
            config: &'a ClockedConfig,
            clocks: &'a LoopClocks,
            objective: PartitionObjective<'a>,
            ctx: EvalCtx,
            pricer: Pricer,
        }

        impl Case<'_> {
            fn oracle(&self) -> PseudoEval {
                evaluate_partition(
                    self.ddg,
                    self.pricer.assignment(),
                    self.ddg.recurrences(),
                    self.config,
                    self.clocks,
                    &self.objective,
                )
            }

            /// The committed assignment, priced without a bar.
            fn committed(&mut self) -> PseudoEval {
                let n = self.ddg.num_ops();
                let eval = self
                    .pricer
                    .price(&self.ctx, &self.objective, n, None)
                    .expect("no bar");
                assert_bits(&eval, &self.oracle(), "committed assignment");
                eval
            }

            /// Prices `node` at each of `targets` against `bar`, checking
            /// every pricing, then commits `targets[accept]` or, when
            /// `accept` is out of range, reverts.
            fn try_move(
                &mut self,
                level: &Level,
                node: usize,
                targets: &[ClusterId],
                bar: Option<f64>,
                accept: usize,
            ) {
                let node = level.node(node);
                let first = node.ops.iter().map(|&v| self.ctx.pos(v)).min().unwrap();
                let from = self.pricer.cluster_of(node.ops[0]);
                for &to in targets {
                    self.pricer.shift(&self.ctx, node, to);
                    let priced = self.pricer.price(&self.ctx, &self.objective, first, bar);
                    let oracle = self.oracle();
                    match (priced, bar) {
                        (Some(eval), _) => assert_bits(&eval, &oracle, "candidate"),
                        (None, Some(bar)) => assert!(
                            oracle.ed2 >= bar,
                            "bounded out below the bar: {oracle:?} vs {bar}"
                        ),
                        (None, None) => panic!("a pricing without a bar always prices"),
                    }
                }
                match targets.get(accept) {
                    Some(&to) => {
                        self.pricer.shift(&self.ctx, node, to);
                        self.pricer.commit(&self.ctx, first);
                    }
                    None => {
                        self.pricer.shift(&self.ctx, node, from);
                        self.pricer.revert(&self.ctx);
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn delta_pricing_matches_from_scratch(
                classes in pvec(0u8..8, 2..41),
                parents in pvec(0u16..512, 40..41),
                extra in pvec((0u16..64, 0u16..64, 0u8..2), 0..12),
                recs in pvec((0u16..64, 0u16..6), 0..4),
                setup in (0u8..2, 1u32..3, 0u8..2, 0u8..3, 0u8..3),
                moves in pvec((0u16..64, 0u16..64, 0u8..8, 0u8..4, 0u8..4), 1..48),
            ) {
                let ddg = random_ddg(&classes, &parents, &extra, &recs);
                prop_assume!(ddg.validate_schedulable().is_ok());
                let (heterogeneous, buses, with_power, extra_steps, trips) = setup;
                let config = config(heterogeneous == 1, buses);
                let power = power_model(config.design());
                let Some((clocks, hierarchy)) = pinned_hierarchy(&ddg, &config, extra_steps)
                else {
                    return Err(proptest::Rejected);
                };
                let objective = PartitionObjective {
                    power: (with_power == 1).then_some(&power),
                    trip_count: [1, 2, 100][usize::from(trips)],
                };
                let mut case = Case {
                    ddg: &ddg,
                    config: &config,
                    clocks: &clocks,
                    objective,
                    ctx: EvalCtx::default(),
                    pricer: Pricer::default(),
                };
                case.ctx.build(&ddg, &config, &clocks, objective.power);
                case.pricer.reset(&case.ctx, hierarchy.seed(), ddg.recurrences());
                let mut current = case.committed();
                // Walk the levels coarsest to finest, as refinement does, so
                // that every macronode lies in one cluster when it moves.
                let levels = hierarchy.levels();
                let mut at = levels.len() - 1;
                for &(descend, node, targets, bar, accept) in &moves {
                    if descend % 4 == 0 && at > 0 {
                        at -= 1;
                    }
                    let level = &levels[at];
                    let free: Vec<usize> = (0..level.len()).filter(|&g| !level.is_pinned(g)).collect();
                    if free.is_empty() {
                        continue;
                    }
                    let node = free[usize::from(node) % free.len()];
                    let from = case.pricer.cluster_of(level.node(node).ops[0]);
                    // One to three targets other than `from`, in a rotated
                    // cluster order.
                    let mut order: Vec<ClusterId> = (0..4).map(ClusterId).filter(|&c| c != from).collect();
                    let k = order.len();
                    order.rotate_left(usize::from(targets) % k);
                    order.truncate(1 + usize::from(targets / 3) % k);
                    let bar = match bar {
                        0 => None,
                        1 => Some(current.ed2),
                        2 => Some(current.ed2 * 0.999),
                        _ => Some(current.ed2 * 1.001),
                    };
                    case.try_move(level, node, &order, bar, usize::from(accept));
                    current = case.committed();
                }
            }
        }

        /// The conjugate-gradient step of SNIPPETS.md as one loop body:
        /// `q = A·d`, `α = δ/(dᵀq)`, `x += α·d`, `r −= α·q`,
        /// `δ_new = rᵀr`, `β = δ_new/δ_old`, `d = r + β·d`. Every use of
        /// `d`, `δ_old`, `x` and `r` reads the previous iteration, so
        /// `d → q → dᵀq → α → α·q → r → rᵀr → δ → β → β·d → d` is one
        /// tight loop-carried recurrence.
        fn conjugate_gradient_step() -> Ddg {
            let mut b = DdgBuilder::new("cg-step");
            let idx = b.op("i++", OpClass::IntArith);
            let ld_a = b.op("ld A[i]", OpClass::FpMemory);
            let q = b.op("q = A·d", OpClass::FpMul);
            let dq_mul = b.op("d·q", OpClass::FpMul);
            let dq = b.op("dᵀq", OpClass::FpArith);
            let alpha = b.op("α = δ/(dᵀq)", OpClass::FpDiv);
            let ad = b.op("α·d", OpClass::FpMul);
            let x = b.op("x += α·d", OpClass::FpArith);
            let st_x = b.op("st x", OpClass::FpMemory);
            let aq = b.op("α·q", OpClass::FpMul);
            let r = b.op("r −= α·q", OpClass::FpArith);
            let rr_mul = b.op("r·r", OpClass::FpMul);
            let delta = b.op("δ = rᵀr", OpClass::FpArith);
            let beta = b.op("β = δ/δ_old", OpClass::FpDiv);
            let bd = b.op("β·d", OpClass::FpMul);
            let d = b.op("d = r + β·d", OpClass::FpArith);
            let st_d = b.op("st d", OpClass::FpMemory);
            b.flow_carried(idx, idx, 1);
            b.flow(idx, ld_a);
            b.flow(ld_a, q);
            b.flow_carried(d, q, 1);
            b.flow(q, dq_mul);
            b.flow_carried(d, dq_mul, 1);
            b.flow(dq_mul, dq);
            b.flow(dq, alpha);
            b.flow_carried(delta, alpha, 1);
            b.flow(alpha, ad);
            b.flow_carried(d, ad, 1);
            b.flow(ad, x);
            b.flow_carried(x, x, 1);
            b.flow(x, st_x);
            b.flow(alpha, aq);
            b.flow(q, aq);
            b.flow(aq, r);
            b.flow_carried(r, r, 1);
            b.flow(r, rr_mul);
            b.flow(rr_mul, delta);
            b.flow(delta, beta);
            b.flow_carried(delta, beta, 1);
            b.flow(beta, bd);
            b.flow_carried(d, bd, 1);
            b.flow(bd, d);
            b.flow(r, d);
            b.flow(d, st_d);
            b.build().unwrap()
        }

        /// Every single move of every macronode at every level, from the
        /// seed, at the first few pinnable ITs of both configs and both
        /// objectives: priced by delta against the committed ED² and then
        /// reverted, each pricing equal to the from-scratch one. Then a
        /// full refinement, whose answer the oracle prices identically.
        #[test]
        fn conjugate_gradient_step_prices_by_delta() {
            let ddg = conjugate_gradient_step();
            ddg.validate_schedulable().unwrap();
            let delta = ddg
                .op_ids()
                .find(|&v| ddg.op(v).name() == "δ = rᵀr")
                .unwrap();
            let d = ddg
                .op_ids()
                .find(|&v| ddg.op(v).name() == "d = r + β·d")
                .unwrap();
            let rec = ddg
                .recurrences()
                .iter()
                .find(|r| r.ops.contains(&delta))
                .expect("δ is on a recurrence");
            assert!(
                rec.ops.contains(&d) && rec.ops.len() >= 10,
                "δ → β → d is one recurrence"
            );

            for heterogeneous in [false, true] {
                let config = config(heterogeneous, 1);
                let power = power_model(config.design());
                for extra_steps in 0..3 {
                    let (clocks, hierarchy) = pinned_hierarchy(&ddg, &config, extra_steps).unwrap();
                    for power in [None, Some(&power)] {
                        let objective = PartitionObjective {
                            power,
                            trip_count: 100,
                        };
                        let mut case = Case {
                            ddg: &ddg,
                            config: &config,
                            clocks: &clocks,
                            objective,
                            ctx: EvalCtx::default(),
                            pricer: Pricer::default(),
                        };
                        case.ctx.build(&ddg, &config, &clocks, power);
                        case.pricer
                            .reset(&case.ctx, hierarchy.seed(), ddg.recurrences());
                        let seed = case.committed();
                        for level in hierarchy.levels() {
                            for node in (0..level.len()).filter(|&g| !level.is_pinned(g)) {
                                let from = case.pricer.cluster_of(level.node(node).ops[0]);
                                let targets: Vec<ClusterId> =
                                    (0..4).map(ClusterId).filter(|&c| c != from).collect();
                                case.try_move(level, node, &targets, Some(seed.ed2), usize::MAX);
                                assert_bits(&case.committed(), &seed, "reverted to the seed");
                            }
                        }
                        let mut refiner = crate::partition::Refiner::default();
                        let refined = refiner
                            .run(&hierarchy, ddg.recurrences(), &case.ctx, &objective)
                            .to_vec();
                        let refined_eval = evaluate_partition(
                            &ddg,
                            &refined,
                            ddg.recurrences(),
                            &config,
                            &clocks,
                            &objective,
                        );
                        let again = refiner
                            .pricer
                            .price(&case.ctx, &objective, ddg.num_ops(), None)
                            .unwrap();
                        assert_bits(&again, &refined_eval, "refined partition");
                        assert!(
                            refined_eval.ed2 <= seed.ed2,
                            "refinement only accepts improvements"
                        );
                    }
                }
            }
        }
    }
}
