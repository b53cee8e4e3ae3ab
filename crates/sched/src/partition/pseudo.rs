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

use vliw_ir::{Ddg, DepKind, FuKind, Recurrence};
use vliw_machine::Time;
use vliw_machine::{ClockedConfig, ClusterId, DomainId};
use vliw_power::{ConfigScaling, PowerModel, UsageProfile};

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

/// Evaluates `assignment` (one cluster per op).
///
/// Infeasible partitions (e.g. FP work in a cluster with no FP units)
/// return `ed2 = ∞` so the refiner steers away from them.
///
/// Allocating wrapper over [`evaluate_partition_ws`]; results are
/// identical.
///
/// # Panics
///
/// Panics if `assignment.len() != ddg.num_ops()`.
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

/// [`evaluate_partition`] with caller-provided scratch buffers. The
/// refiner evaluates hundreds of candidate moves per loop; once the
/// scratch is warm, an evaluation allocates nothing, with or without a
/// power model.
///
/// # Panics
///
/// Panics if `assignment.len() != ddg.num_ops()`.
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
    let mut ctx = std::mem::take(&mut scratch.ctx);
    ctx.build(ddg, config, clocks, objective.power);
    let eval = evaluate_partition_ctx(
        ddg,
        assignment,
        recurrences,
        config,
        objective,
        &ctx,
        scratch,
    );
    scratch.ctx = ctx;
    eval
}

/// Everything about one (DDG, config, clocks, power model) tuple that
/// candidate evaluations share, precomputed so the `O(V + E)` body of
/// [`evaluate_partition_ctx`] is pure table lookups and the energy term
/// prices from cached domain scalings.
///
/// The refiner prices hundreds of candidate moves against the *same*
/// graph and clocks; only the assignment changes. Each table entry is
/// produced by the exact floating-point expression the non-cached
/// evaluation used, so evaluations through a context are bit-identical to
/// [`evaluate_partition`].
#[derive(Debug, Clone, Default)]
pub(crate) struct EvalCtx {
    /// Clusters in the design.
    nc: usize,
    /// The initiation time, ns (the `est_it` floor).
    it_ns: f64,
    /// ICN cycle, ns.
    icn_cycle_ns: f64,
    /// Cost of one cross-cluster flow edge: bus transfer plus two
    /// sync-queue cycles (`3.0 * icn_cycle_ns`).
    comm_ns: f64,
    /// Per-cluster cycle, ns.
    cycle_ns: Vec<f64>,
    /// Per-kind FU counts of the (uniform) cluster design.
    fus: [u64; 3],
    /// Per-op dense FU-kind slot.
    slot: Vec<u8>,
    /// Per-(op, cluster) operation latency, ns (`lat[op * nc + cluster]`).
    lat: Vec<f64>,
    /// `(src, dst)` of every flow edge, in edge order.
    flow_pairs: Vec<(u32, u32)>,
    /// CSR offsets into `preds` (one row per op).
    pred_off: Vec<u32>,
    /// Distance-0 predecessors as `(src, pays_comm_when_split)` pairs,
    /// rows ordered like the op's `ddg.preds` iteration.
    preds: Vec<(u32, bool)>,
    /// Assignment-independent lower bound on the ASAP iteration length:
    /// the distance-0 critical path priced with every op's *fastest*
    /// cluster latency and zero communication. Every candidate's true
    /// `itlen` is ≥ this (fp-monotone argument in
    /// [`evaluate_partition_ctx`]).
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
        for (ki, kind) in [FuKind::Int, FuKind::Fp, FuKind::Mem]
            .into_iter()
            .enumerate()
        {
            self.fus[ki] = u64::from(design.cluster.fu_count(kind));
        }
        self.slot.clear();
        self.slot
            .extend(ddg.ops().map(|op| fu_slot(op.fu_kind()) as u8));
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
        // Minimum-latency critical path (see the field doc): one pass
        // over the cached topo order.
        self.cp_min_max = 0.0;
        if let Ok(order) = ddg.topo_order() {
            self.cp_min.clear();
            self.cp_min.resize(n, 0.0);
            for &v in order {
                let mut start = 0.0f64;
                let row = self.pred_off[v.index()] as usize..self.pred_off[v.index() + 1] as usize;
                for &(src, _) in &self.preds[row] {
                    start = start.max(self.cp_min[src as usize]);
                }
                let mut min_lat = f64::INFINITY;
                for c in 0..self.nc {
                    min_lat = min_lat.min(self.lat[v.index() * self.nc + c]);
                }
                self.cp_min[v.index()] = start + min_lat;
                self.cp_min_max = self.cp_min_max.max(self.cp_min[v.index()]);
            }
        }
        // The config's δ/σ are fixed for the whole refinement run.
        self.power_feasible = power.is_some_and(|p| p.scale_config(config, &mut self.scaling));
    }
}

/// [`evaluate_partition_ws`] against a prebuilt [`EvalCtx`] — the
/// refiner's inner loop. Results are bit-identical to the other entry
/// points.
///
/// # Panics
///
/// Panics if `assignment.len() != ddg.num_ops()` or the context was built
/// for a different graph.
#[allow(clippy::too_many_lines)]
pub(crate) fn evaluate_partition_ctx(
    ddg: &Ddg,
    assignment: &[ClusterId],
    recurrences: &[Recurrence],
    config: &ClockedConfig,
    objective: &PartitionObjective<'_>,
    ctx: &EvalCtx,
    scratch: &mut PartitionScratch,
) -> PseudoEval {
    evaluate_partition_bounded(
        ddg,
        assignment,
        recurrences,
        config,
        objective,
        ctx,
        scratch,
        None,
    )
}

/// [`evaluate_partition_ctx`] with an optional rejection bar: when `bar`
/// is the ED² a candidate must *strictly beat* and a cheap lower bound on
/// the candidate's ED² already reaches the bar, the expensive ASAP pass is
/// skipped and an `ed2 = ∞` sentinel is returned.
///
/// The skip is exact for the refiner: the bound is built from the true
/// `est_it`/`comms` plus a provable lower bound on the iteration length
/// (each op's finish time is ≥ its own latency, and ≥ the min-latency
/// critical path, under IEEE-754 monotonicity of `+`, `*` by a
/// non-negative value, and `max`), so `ed2_lb ≤ ed2` holds exactly and a
/// bounded-out candidate could never have been accepted. Only the
/// time-only objective (`power = None`) uses the bound — with a power
/// model the energy term needs the ASAP result anyway.
///
/// # Panics
///
/// As [`evaluate_partition_ctx`].
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn evaluate_partition_bounded(
    ddg: &Ddg,
    assignment: &[ClusterId],
    recurrences: &[Recurrence],
    config: &ClockedConfig,
    objective: &PartitionObjective<'_>,
    ctx: &EvalCtx,
    scratch: &mut PartitionScratch,
    bar: Option<f64>,
) -> PseudoEval {
    assert_eq!(assignment.len(), ddg.num_ops(), "one cluster per operation");
    assert_eq!(ctx.slot.len(), ddg.num_ops(), "context matches the graph");
    let design = config.design();
    let it_ns = ctx.it_ns;
    let icn_cycle_ns = ctx.icn_cycle_ns;

    let mut est_it = it_ns;
    let infeasible = PseudoEval {
        est_it_ns: f64::INFINITY,
        est_exec_ns: f64::INFINITY,
        energy: f64::INFINITY,
        ed2: f64::INFINITY,
    };

    // --- Resource rows per cluster.
    let counts = &mut scratch.counts;
    counts.clear();
    counts.resize(ctx.nc, [0u64; 3]);
    for (i, &s) in ctx.slot.iter().enumerate() {
        counts[assignment[i].index()][usize::from(s)] += 1;
    }
    for (c, row) in counts.iter().enumerate() {
        for (ki, &n) in row.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let fus = ctx.fus[ki];
            if fus == 0 {
                return infeasible;
            }
            let rows = n.div_ceil(fus);
            est_it = est_it.max(rows as f64 * ctx.cycle_ns[c]);
        }
    }

    // --- Early rejection bound, before the communication sweep: the true
    // ED² is ≥ `1.0 * secs² ` with `secs` built from the (still partial,
    // only-growing) `est_it` and the min-latency critical path — all
    // fp-monotone, see `evaluate_partition_bounded`.
    let trips = objective.trip_count.max(1) as f64;
    if let (Some(bar), None) = (bar, objective.power) {
        let est_exec_lb = (trips - 1.0) * est_it + ctx.cp_min_max;
        let secs_lb = est_exec_lb * 1e-9;
        if secs_lb * secs_lb >= bar {
            return PseudoEval {
                est_it_ns: est_it,
                est_exec_ns: f64::INFINITY,
                energy: f64::INFINITY,
                ed2: f64::INFINITY,
            };
        }
    }

    // --- Bus rows for the communications this partition implies (one
    // broadcast per producer whose value leaves its cluster). Producers
    // are deduplicated through a dense mark table cleared in O(marked).
    for &i in &scratch.marked {
        scratch.comm_marked[i as usize] = false;
    }
    scratch.marked.clear();
    if scratch.comm_marked.len() < ddg.num_ops() {
        scratch.comm_marked.resize(ddg.num_ops(), false);
    }
    let mut comms = 0u64;
    for &(src, dst) in &ctx.flow_pairs {
        let (s, d) = (assignment[src as usize], assignment[dst as usize]);
        if s != d && !scratch.comm_marked[src as usize] {
            scratch.comm_marked[src as usize] = true;
            scratch.marked.push(src);
            comms += 1;
        }
    }
    if comms > 0 {
        let rows = comms.div_ceil(u64::from(design.buses));
        est_it = est_it.max(rows as f64 * icn_cycle_ns);
    }

    // --- Recurrence constraints.
    if !recurrences.is_empty() && scratch.rec_stamp.len() < ddg.num_ops() {
        scratch.rec_stamp.resize(ddg.num_ops(), 0);
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
            if scratch.rec_epoch == u32::MAX {
                scratch.rec_stamp.iter_mut().for_each(|s| *s = 0);
                scratch.rec_epoch = 0;
            }
            scratch.rec_epoch += 1;
            for &op in &rec.ops {
                scratch.rec_stamp[op.index()] = scratch.rec_epoch;
            }
            let epoch = scratch.rec_epoch;
            let crossings = ctx
                .flow_pairs
                .iter()
                .filter(|&&(s, d)| {
                    scratch.rec_stamp[s as usize] == epoch
                        && scratch.rec_stamp[d as usize] == epoch
                        && assignment[s as usize] != assignment[d as usize]
                })
                .count() as f64;
            needed += crossings * 3.0 * icn_cycle_ns;
        }
        est_it = est_it.max(needed);
    }

    // --- Rejection bound: skip the ASAP pass when even a lower bound on
    // this candidate's ED² reaches the bar it must strictly beat.
    if let (Some(bar), None) = (bar, objective.power) {
        let mut itlen_lb = ctx.cp_min_max;
        for (v, &c) in assignment.iter().enumerate() {
            itlen_lb = itlen_lb.max(ctx.lat[v * ctx.nc + c.index()]);
        }
        let est_exec_lb = (trips - 1.0) * est_it + itlen_lb;
        let energy = 1.0 + 0.002 * comms as f64;
        let secs_lb = est_exec_lb * 1e-9;
        if energy * secs_lb * secs_lb >= bar {
            return PseudoEval {
                est_it_ns: est_it,
                est_exec_ns: f64::INFINITY,
                energy,
                ed2: f64::INFINITY,
            };
        }
    }

    // --- Iteration length: ASAP over the distance-0 subgraph (the order
    // is cached on the DDG, so each evaluation is a linear walk over the
    // context's predecessor CSR and latency table).
    let order = ddg.topo_order().expect("validated DDG has an acyclic core");
    let finish = &mut scratch.finish;
    finish.clear();
    finish.resize(ddg.num_ops(), 0.0f64);
    let mut itlen = 0.0f64;
    for &v in order {
        let cluster = assignment[v.index()];
        let mut start = 0.0f64;
        let row = ctx.pred_off[v.index()] as usize..ctx.pred_off[v.index() + 1] as usize;
        for &(src, pays_comm) in &ctx.preds[row] {
            let mut ready = finish[src as usize];
            if pays_comm && assignment[src as usize] != cluster {
                // Bus transfer + two sync-queue cycles, as in the extended
                // graph's copy path.
                ready += ctx.comm_ns;
            }
            start = start.max(ready);
        }
        finish[v.index()] = start + ctx.lat[v.index() * ctx.nc + cluster.index()];
        itlen = itlen.max(finish[v.index()]);
    }

    let est_exec_ns = (trips - 1.0) * est_it + itlen;

    // --- Energy.
    let energy = match objective.power {
        // Time-only objective: rank by execution time, with a small
        // communication penalty as a strong tie-break — the homogeneous
        // baseline \[3\] also prefers comm-lean partitions among equals,
        // and comm-lean partitions schedule more robustly.
        None => 1.0 + 0.002 * comms as f64,
        Some(_) if !ctx.power_feasible => return infeasible,
        Some(power) => {
            // The usage borrows the scratch's per-cluster buffer for the
            // pricing and hands it back, so nothing is allocated.
            let mut weighted = std::mem::take(&mut scratch.weighted);
            weighted.clear();
            weighted.resize(ctx.nc, 0.0);
            for op in ddg.ops() {
                weighted[assignment[op.id().index()].index()] +=
                    op.class().relative_energy() * trips;
            }
            let usage = UsageProfile {
                weighted_ins_per_cluster: weighted,
                comms: comms * objective.trip_count,
                mem_accesses: ddg.count_memory_ops() as u64 * objective.trip_count,
                exec_time: Time::from_ns(est_exec_ns),
            };
            let energy = power.price(&ctx.scaling, &usage);
            scratch.weighted = usage.weighted_ins_per_cluster;
            energy
        }
    };
    let secs = est_exec_ns * 1e-9;
    PseudoEval {
        est_it_ns: est_it,
        est_exec_ns,
        energy,
        ed2: energy * secs * secs,
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
}
