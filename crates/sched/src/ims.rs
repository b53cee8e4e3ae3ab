//! Rau-style iterative modulo scheduling over the extended graph.
//!
//! Operations are placed highest-priority-first (priority = height: the
//! longest dependence path, in ticks, from the operation to the end of the
//! iteration). Each operation is tried in a window of one initiation
//! interval starting at its dependence-earliest cycle; if no slot is free,
//! it is *forced* in and the conflicting occupants are ejected and
//! rescheduled later, within a bounded budget (Rau's IMS \[28\]).
//!
//! Heterogeneity enters through the time base: every node issues on its own
//! domain's cycle grid (cluster cycles for operations, ICN cycles for
//! copies), and dependences are checked in exact ticks, so a fast-cluster
//! producer and a slow-cluster consumer never miscommunicate.

use vliw_machine::{ClockedConfig, DomainId};

use crate::comm::{ExtGraph, NodeId, NodePlace};
use crate::mrt::{kind_slot, BusMrt, ClusterMrt};
use crate::regs::max_lives_maintained_into;
use crate::timing::LoopClocks;
use crate::work::{phase_done, Phase};
use crate::workspace::SchedWorkspace;

const WORD_BITS: usize = 64;

/// A complete placement of every extended-graph node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImsResult {
    /// Issue cycle of each node, in its own domain's local cycles.
    pub issue_cycles: Vec<u64>,
    /// Issue time of each node, in ticks.
    pub issue_ticks: Vec<u64>,
    /// MaxLives per cluster.
    pub max_live: Vec<u32>,
}

/// Why scheduling at the current initiation time failed. Every variant is
/// cured (eventually) by increasing the `IT`, which the driver does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImsFailure {
    /// A dependence cycle is longer than one initiation time even before
    /// resources are considered (copies and synchronisation pushed a
    /// recurrence over budget).
    PositiveCycle,
    /// The eject-and-retry budget ran out.
    BudgetExhausted,
    /// The schedule exists but needs more registers than a cluster has.
    RegisterPressure(Vec<u32>),
}

/// Eject-and-retry budget multiplier: an attempt may place at most
/// `BUDGET_RATIO` × nodes operations before it gives up on this `IT`.
pub const BUDGET_RATIO: u32 = 16;

/// Hard cap on issue cycles, guarding against runaway forced placement.
const CYCLE_CAP: u64 = 1 << 20;

/// Schedules `graph` at the clocks' initiation time.
///
/// Allocating convenience wrapper over [`schedule_into`]: constructs a
/// fresh [`SchedWorkspace`] and copies the placement out. Hot callers
/// (the IT-retry driver, the exploration sweeps) use [`schedule_into`]
/// with a long-lived workspace instead.
///
/// # Errors
///
/// Returns an [`ImsFailure`] when no schedule exists at this `IT` within
/// the budget; the caller reacts by increasing the `IT` (Figure 5).
pub fn schedule(
    graph: &ExtGraph,
    config: &ClockedConfig,
    clocks: &LoopClocks,
) -> Result<ImsResult, ImsFailure> {
    let mut ws = SchedWorkspace::new();
    schedule_into(graph, config, clocks, &mut ws)?;
    Ok(ImsResult {
        issue_cycles: ws.issue_cycles().to_vec(),
        issue_ticks: ws.issue_ticks().to_vec(),
        max_live: ws.max_live().to_vec(),
    })
}

/// Schedules `graph` at the clocks' initiation time, placing all scratch
/// state and the resulting placement in `ws`.
///
/// On success the placement is available through
/// [`SchedWorkspace::issue_cycles`], [`SchedWorkspace::issue_ticks`] and
/// [`SchedWorkspace::max_live`]. All buffers retain their capacity across
/// calls, so re-scheduling a graph of a size the workspace has seen before
/// performs **no heap allocation**.
///
/// # Errors
///
/// Returns an [`ImsFailure`] when no schedule exists at this `IT` within
/// the budget; the workspace's result buffers are unspecified after an
/// error.
pub fn schedule_into(
    graph: &ExtGraph,
    config: &ClockedConfig,
    clocks: &LoopClocks,
    ws: &mut SchedWorkspace,
) -> Result<(), ImsFailure> {
    let n = graph.num_nodes();
    let design = config.design();
    let num_clusters = usize::from(design.num_clusters);
    ws.issue_cycles.clear();
    ws.issue_ticks.clear();
    ws.max_live.clear();
    if n == 0 {
        ws.max_live.resize(num_clusters, 0);
        return Ok(());
    }
    let place_start = ws.phase_start();
    let placed = place(graph, config, clocks, ws);
    phase_done(Phase::Place, place_start);
    placed?;

    // Materialise the placement into the workspace's result buffers.
    let SchedWorkspace {
        sched,
        issue_cycles,
        issue_ticks,
        node_cyc_ticks,
        ..
    } = ws;
    issue_cycles.extend(sched.iter().map(|s| s.expect("all scheduled")));
    issue_ticks.extend(
        issue_cycles
            .iter()
            .enumerate()
            .map(|(i, &c)| c * node_cyc_ticks[i]),
    );
    let regs_start = ws.phase_start();
    let SchedWorkspace {
        issue_ticks,
        regs,
        max_live,
        reg_last_read,
        reg_readers,
        ..
    } = ws;
    max_lives_maintained_into(
        graph,
        clocks,
        design.num_clusters,
        issue_ticks,
        reg_last_read,
        reg_readers,
        regs,
        max_live,
    );
    phase_done(Phase::Regs, regs_start);
    let over = max_live.iter().any(|&lv| lv > design.cluster.registers);
    if over {
        return Err(ImsFailure::RegisterPressure(ws.max_live.clone()));
    }
    Ok(())
}

/// The placement loop of [`schedule_into`]: places every node of a
/// non-empty `graph`, forcing and ejecting within the budget, and leaves
/// the placement in `ws.sched` and the register-pressure state current.
fn place(
    graph: &ExtGraph,
    config: &ClockedConfig,
    clocks: &LoopClocks,
    ws: &mut SchedWorkspace,
) -> Result<(), ImsFailure> {
    let n = graph.num_nodes();
    let design = config.design();
    let num_clusters = usize::from(design.num_clusters);
    let l = clocks.ticks_per_it();
    if !compute_heights_into(graph, l, &mut ws.heights) {
        return Err(ImsFailure::PositiveCycle);
    }

    // Reservation tables: reset in place, allocating only when the machine
    // grows beyond anything this workspace has seen.
    while ws.cluster_mrts.len() < num_clusters {
        ws.cluster_mrts.push(ClusterMrt::new(design.cluster, 1));
    }
    for c in design.clusters() {
        ws.cluster_mrts[c.index()].reset(design.cluster, clocks.cluster_ii(c));
    }
    ws.bus_mrt.reset(design.buses, clocks.icn_ii());

    ws.sched.clear();
    ws.sched.resize(n, None);
    ws.prev_cycle.clear();
    ws.prev_cycle.resize(n, None);
    let mut budget: u64 = u64::from(BUDGET_RATIO) * n as u64;

    // Disjoint field borrows for the placement loop.
    let SchedWorkspace {
        heights,
        sched,
        prev_cycle,
        cluster_mrts,
        bus_mrt,
        eject,
        order,
        pos,
        ready,
        res_sched,
        node_cyc_ticks,
        reg_last_read,
        reg_readers,
        placements,
        ejections,
        ..
    } = ws;
    let heights: &[i64] = heights;
    let cluster_mrts = &mut cluster_mrts[..num_clusters];

    // Ticks per local cycle of every node's issue domain, precomputed once.
    node_cyc_ticks.clear();
    node_cyc_ticks.extend(
        graph
            .nodes()
            .map(|v| clocks.domain_cycle_ticks(issue_domain(graph, v))),
    );
    let node_cyc_ticks: &[u64] = node_cyc_ticks;

    // Height-ordered ready structure: `order` holds node ids sorted by
    // (height desc, id asc) — exactly the old linear `max_by_key` pick
    // order — and `ready` is a bitset over positions (bit set =
    // unscheduled), so picking is a `trailing_zeros` scan from a low-water
    // hint instead of an O(n) scan per placement.
    order.clear();
    order.extend(0..u32::try_from(n).expect("node count fits u32"));
    order.sort_unstable_by_key(|&i| (std::cmp::Reverse(heights[i as usize]), i));
    pos.clear();
    pos.resize(n, 0);
    for (p, &id) in order.iter().enumerate() {
        pos[id as usize] = u32::try_from(p).expect("position fits u32");
    }
    let order: &[u32] = order;
    let pos: &[u32] = pos;
    let nw = n.div_ceil(WORD_BITS);
    ready.clear();
    ready.resize(nw, !0u64);
    if !n.is_multiple_of(WORD_BITS) {
        ready[nw - 1] = (1u64 << (n % WORD_BITS)) - 1;
    }
    let mut ready_hint = 0usize;

    // Per-resource scheduled-node bitsets for eject-candidate enumeration.
    let num_res = num_clusters * 3 + 1;
    res_sched.clear();
    res_sched.resize(num_res * nw, 0);

    // Incrementally carried register-pressure state.
    reg_last_read.clear();
    reg_last_read.resize(n, 0);
    reg_readers.clear();
    reg_readers.resize(n, 0);

    loop {
        // Pick the highest-priority unscheduled node: first set bit.
        let mut v = None;
        while ready_hint < nw {
            let word = ready[ready_hint];
            if word != 0 {
                let p = ready_hint * WORD_BITS + word.trailing_zeros() as usize;
                v = Some(NodeId(order[p]));
                break;
            }
            ready_hint += 1;
        }
        let Some(v) = v else { break };
        if budget == 0 {
            return Err(ImsFailure::BudgetExhausted);
        }
        budget -= 1;

        // Dependence-earliest start from currently scheduled predecessors.
        let vt = node_cyc_ticks[v.index()];
        let mut est_ticks: i128 = 0;
        for e in graph.preds(v) {
            if let Some(src_cycle) = sched[e.src.index()] {
                let src_tick = i128::from(src_cycle) * i128::from(node_cyc_ticks[e.src.index()]);
                let t =
                    src_tick + i128::from(e.latency_ticks) - i128::from(e.distance) * i128::from(l);
                est_ticks = est_ticks.max(t);
            }
        }
        let mut estart = if est_ticks <= 0 {
            0
        } else {
            let t = est_ticks as u128;
            u64::try_from(t.div_ceil(u128::from(vt))).expect("cycle fits u64")
        };
        if let Some(p) = prev_cycle[v.index()] {
            estart = estart.max(p + 1);
        }
        if estart > CYCLE_CAP {
            return Err(ImsFailure::BudgetExhausted);
        }

        // First free cycle in one II window (rows repeat with period II, so
        // the bitset scan covers exactly `estart..estart + II`); when every
        // modulo row is full, force `estart` and eject its occupants.
        let window_slot = match graph.place(v) {
            NodePlace::Cluster(c) => {
                cluster_mrts[c.index()].first_free_cycle(graph.fu_kind(v), estart)
            }
            NodePlace::Bus => bus_mrt.first_free_cycle(estart),
        };
        let cycle = window_slot.unwrap_or(estart);

        if window_slot.is_none() {
            eject_conflicting(
                graph,
                v,
                cycle,
                sched,
                cluster_mrts,
                bus_mrt,
                res_sched,
                nw,
                num_clusters,
                eject,
            );
            for &(w, c) in eject.iter() {
                let p = pos[w.index()] as usize;
                ready[p / WORD_BITS] |= 1u64 << (p % WORD_BITS);
                ready_hint = ready_hint.min(p / WORD_BITS);
                regs_on_eject(
                    graph,
                    w,
                    c,
                    l,
                    sched,
                    node_cyc_ticks,
                    reg_last_read,
                    reg_readers,
                );
            }
            *ejections += eject.len() as u64;
        }
        reserve(graph, v, cycle, cluster_mrts, bus_mrt);
        *placements += 1;
        set_res_bit(graph, v, res_sched, nw, num_clusters, true);
        sched[v.index()] = Some(cycle);
        prev_cycle[v.index()] = Some(cycle);
        {
            let p = pos[v.index()] as usize;
            ready[p / WORD_BITS] &= !(1u64 << (p % WORD_BITS));
        }
        regs_on_place(
            graph,
            v,
            cycle,
            l,
            node_cyc_ticks,
            reg_last_read,
            reg_readers,
        );

        // Eject scheduled successors whose dependence is now violated.
        let v_tick = i128::from(cycle) * i128::from(vt);
        eject.clear();
        for e in graph.succs(v) {
            if e.dst == v {
                continue;
            }
            if let Some(dst_cycle) = sched[e.dst.index()] {
                let dst_tick = i128::from(dst_cycle) * i128::from(node_cyc_ticks[e.dst.index()]);
                if dst_tick
                    < v_tick + i128::from(e.latency_ticks) - i128::from(e.distance) * i128::from(l)
                {
                    eject.push((e.dst, dst_cycle));
                }
            }
        }
        for &(w, c) in eject.iter() {
            if sched[w.index()].take().is_some() {
                *ejections += 1;
                release(graph, w, c, cluster_mrts, bus_mrt);
                set_res_bit(graph, w, res_sched, nw, num_clusters, false);
                let p = pos[w.index()] as usize;
                ready[p / WORD_BITS] |= 1u64 << (p % WORD_BITS);
                ready_hint = ready_hint.min(p / WORD_BITS);
                regs_on_eject(
                    graph,
                    w,
                    c,
                    l,
                    sched,
                    node_cyc_ticks,
                    reg_last_read,
                    reg_readers,
                );
            }
        }
    }
    Ok(())
}

fn issue_domain(graph: &ExtGraph, v: NodeId) -> DomainId {
    graph.issue_domain(v)
}

/// The dense resource index of `v`'s issue resource: per-cluster FU-kind
/// rows first (`cluster·3 + kind`), the bus block last.
#[inline]
fn res_id(graph: &ExtGraph, v: NodeId, num_clusters: usize) -> usize {
    match graph.place(v) {
        NodePlace::Cluster(c) => {
            let kind = graph.fu_kind(v);
            debug_assert!(
                kind != vliw_ir::FuKind::Bus,
                "node {v:?} placed on a cluster carries FuKind::Bus"
            );
            c.index() * 3 + kind_slot(kind)
        }
        NodePlace::Bus => num_clusters * 3,
    }
}

/// Sets or clears `v`'s bit in its resource's scheduled-node bitset.
#[inline]
fn set_res_bit(
    graph: &ExtGraph,
    v: NodeId,
    res_sched: &mut [u64],
    nw: usize,
    num_clusters: usize,
    on: bool,
) {
    let base = res_id(graph, v, num_clusters) * nw;
    let (w, bit) = (v.index() / WORD_BITS, 1u64 << (v.index() % WORD_BITS));
    if on {
        res_sched[base + w] |= bit;
    } else {
        res_sched[base + w] &= !bit;
    }
}

fn reserve(
    graph: &ExtGraph,
    v: NodeId,
    cycle: u64,
    cluster_mrts: &mut [ClusterMrt],
    bus_mrt: &mut BusMrt,
) {
    match graph.place(v) {
        NodePlace::Cluster(c) => cluster_mrts[c.index()].reserve(graph.fu_kind(v), cycle),
        NodePlace::Bus => {
            let _ = bus_mrt.reserve(cycle);
        }
    }
}

fn release(
    graph: &ExtGraph,
    v: NodeId,
    cycle: u64,
    cluster_mrts: &mut [ClusterMrt],
    bus_mrt: &mut BusMrt,
) {
    match graph.place(v) {
        NodePlace::Cluster(c) => cluster_mrts[c.index()].release(graph.fu_kind(v), cycle),
        NodePlace::Bus => bus_mrt.release(cycle),
    }
}

/// Records the read events `v`'s placement creates: for every value
/// predecessor `p → v`, bump `p`'s placed-reader count and fold the read
/// tick into `p`'s running last-read maximum.
fn regs_on_place(
    graph: &ExtGraph,
    v: NodeId,
    cycle: u64,
    l: u64,
    node_cyc_ticks: &[u64],
    reg_last_read: &mut [u64],
    reg_readers: &mut [u32],
) {
    let t_v = cycle * node_cyc_ticks[v.index()];
    for e in graph.preds(v) {
        if !e.value {
            continue;
        }
        let p = e.src.index();
        let read = t_v + u64::from(e.distance) * l;
        reg_readers[p] += 1;
        if read > reg_last_read[p] {
            reg_last_read[p] = read;
        }
    }
}

/// Removes the read events `w`'s ejection retracts. When the retracted
/// read was the producer's current maximum, the maximum is rebuilt from
/// the producer's still-placed readers (`w` itself is already unscheduled
/// in `sched` at this point).
#[allow(clippy::too_many_arguments)]
fn regs_on_eject(
    graph: &ExtGraph,
    w: NodeId,
    old_cycle: u64,
    l: u64,
    sched: &[Option<u64>],
    node_cyc_ticks: &[u64],
    reg_last_read: &mut [u64],
    reg_readers: &mut [u32],
) {
    debug_assert!(sched[w.index()].is_none(), "eject before retracting reads");
    let t_w = old_cycle * node_cyc_ticks[w.index()];
    for e in graph.preds(w) {
        if !e.value {
            continue;
        }
        let p = e.src.index();
        let read = t_w + u64::from(e.distance) * l;
        reg_readers[p] -= 1;
        if reg_readers[p] == 0 {
            reg_last_read[p] = 0;
        } else if read == reg_last_read[p] {
            // The retracted read held the maximum: rebuild it from the
            // producer's still-placed readers.
            let mut max = 0u64;
            for s in graph.succs(NodeId(p as u32)) {
                if !s.value {
                    continue;
                }
                if let Some(c) = sched[s.dst.index()] {
                    let r = c * node_cyc_ticks[s.dst.index()] + u64::from(s.distance) * l;
                    max = max.max(r);
                }
            }
            reg_last_read[p] = max;
        }
    }
}

/// Ejects every scheduled node that occupies the resource `v` needs at
/// `cycle` (same resource, same modulo row). Occupants are enumerated by
/// iterating the set bits of the resource's scheduled-node bitset —
/// ascending node id, exactly the order the old full `sched` scan
/// produced — and collected into the caller's reusable `eject` buffer.
#[allow(clippy::too_many_arguments)]
fn eject_conflicting(
    graph: &ExtGraph,
    v: NodeId,
    cycle: u64,
    sched: &mut [Option<u64>],
    cluster_mrts: &mut [ClusterMrt],
    bus_mrt: &mut BusMrt,
    res_sched: &mut [u64],
    nw: usize,
    num_clusters: usize,
    eject: &mut Vec<(NodeId, u64)>,
) {
    let rid = res_id(graph, v, num_clusters);
    let ii = match graph.place(v) {
        NodePlace::Cluster(c) => cluster_mrts[c.index()].ii(),
        NodePlace::Bus => bus_mrt.ii(),
    };
    let row = cycle % ii;
    eject.clear();
    for (wi, &word) in res_sched[rid * nw..(rid + 1) * nw].iter().enumerate() {
        let mut m = word;
        while m != 0 {
            let i = wi * WORD_BITS + m.trailing_zeros() as usize;
            m &= m - 1;
            debug_assert_ne!(i, v.index(), "v is reserved only after ejection");
            let c = sched[i].expect("resource bitset tracks scheduled nodes");
            if c % ii == row {
                eject.push((NodeId(u32::try_from(i).expect("node id fits u32")), c));
            }
        }
    }
    for &(w, c) in eject.iter() {
        sched[w.index()] = None;
        release(graph, w, c, cluster_mrts, bus_mrt);
        set_res_bit(graph, w, res_sched, nw, num_clusters, false);
    }
}

/// Longest dependence path (in ticks) from each node to the end of an
/// iteration, with loop-carried edges discounted by `distance · L`.
///
/// Returns `None` when the relaxation does not converge — a dependence
/// cycle is positive at this `IT`, so no schedule exists.
#[must_use]
pub fn compute_heights(graph: &ExtGraph, l: u64) -> Option<Vec<i64>> {
    let mut height = Vec::new();
    if compute_heights_into(graph, l, &mut height) {
        Some(height)
    } else {
        None
    }
}

/// [`compute_heights`] into a reusable buffer; returns `false` when the
/// relaxation does not converge (a positive cycle exists at this `IT`).
fn compute_heights_into(graph: &ExtGraph, l: u64, height: &mut Vec<i64>) -> bool {
    let n = graph.num_nodes();
    height.clear();
    height.extend(
        graph
            .nodes()
            .map(|v| i64::try_from(graph.result_latency_ticks(v)).expect("latency fits i64")),
    );
    for _ in 0..=n {
        let mut changed = false;
        for e in graph.edges() {
            let w = i64::try_from(e.latency_ticks).expect("latency fits i64")
                - i64::try_from(u64::from(e.distance) * l).expect("distance·L fits i64");
            let candidate = w + height[e.dst.index()];
            if candidate > height[e.src.index()] {
                height[e.src.index()] = candidate;
                changed = true;
            }
        }
        if !changed {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{Ddg, DdgBuilder, OpClass};
    use vliw_machine::{ClockedConfig, ClusterId, FrequencyMenu, MachineDesign, Time};

    fn reference() -> ClockedConfig {
        ClockedConfig::reference(MachineDesign::paper_machine(1))
    }

    fn clocks_for(config: &ClockedConfig, it_ns: f64) -> LoopClocks {
        LoopClocks::select(config, &FrequencyMenu::unrestricted(), Time::from_ns(it_ns)).unwrap()
    }

    /// Checks every dependence of a scheduled graph in exact ticks.
    fn assert_valid(graph: &ExtGraph, clocks: &LoopClocks, result: &ImsResult) {
        let l = i128::from(clocks.ticks_per_it());
        for e in graph.edges() {
            let src = i128::from(result.issue_ticks[e.src.index()]);
            let dst = i128::from(result.issue_ticks[e.dst.index()]);
            assert!(
                dst >= src + i128::from(e.latency_ticks) - i128::from(e.distance) * l,
                "dependence {:?}→{:?} violated",
                e.src,
                e.dst
            );
        }
    }

    fn int_chain(len: usize) -> Ddg {
        let mut b = DdgBuilder::new("chain");
        let ids: Vec<_> = (0..len)
            .map(|i| b.op(format!("n{i}"), OpClass::IntArith))
            .collect();
        for w in ids.windows(2) {
            b.flow(w[0], w[1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn schedules_chain_on_one_cluster() {
        let config = reference();
        // II = 4 so the single int FU of cluster 0 can hold all four ops.
        let clocks = clocks_for(&config, 4.0);
        let ddg = int_chain(4);
        let g = ExtGraph::build(&ddg, &[ClusterId(0); 4], &config, &clocks);
        let r = schedule(&g, &config, &clocks).unwrap();
        assert_valid(&g, &clocks, &r);
        // Ops issue one per cycle down the chain.
        for w in r.issue_ticks.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn resource_conflict_forces_modulo_separation() {
        // 3 independent int ops, 1 int FU, II = 3: all three must land on
        // distinct modulo rows.
        let design = MachineDesign::new(
            1,
            vliw_machine::ClusterDesign {
                int_fus: 1,
                fp_fus: 1,
                mem_ports: 1,
                registers: 16,
            },
            1,
        );
        let config = ClockedConfig::reference(design);
        let clocks = clocks_for(&config, 3.0);
        let mut b = DdgBuilder::new("par");
        for i in 0..3 {
            b.op(format!("n{i}"), OpClass::IntArith);
        }
        let ddg = b.build().unwrap();
        let g = ExtGraph::build(&ddg, &[ClusterId(0); 3], &config, &clocks);
        let r = schedule(&g, &config, &clocks).unwrap();
        let mut rows: Vec<u64> = r.issue_cycles.iter().map(|c| c % 3).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 1, 2]);
    }

    #[test]
    fn too_many_ops_for_capacity_fails() {
        // 4 int ops on 1 int FU at II = 3: pigeonhole ⇒ no schedule.
        let design = MachineDesign::new(
            1,
            vliw_machine::ClusterDesign {
                int_fus: 1,
                fp_fus: 1,
                mem_ports: 1,
                registers: 16,
            },
            1,
        );
        let config = ClockedConfig::reference(design);
        let clocks = clocks_for(&config, 3.0);
        let mut b = DdgBuilder::new("par");
        for i in 0..4 {
            b.op(format!("n{i}"), OpClass::IntArith);
        }
        let ddg = b.build().unwrap();
        let g = ExtGraph::build(&ddg, &[ClusterId(0); 4], &config, &clocks);
        assert_eq!(
            schedule(&g, &config, &clocks),
            Err(ImsFailure::BudgetExhausted)
        );
    }

    #[test]
    fn recurrence_too_tight_is_positive_cycle() {
        // Accumulator with latency 3 at II 2: recurrence cannot fit.
        let config = reference();
        let clocks = clocks_for(&config, 2.0);
        let mut b = DdgBuilder::new("acc");
        let a = b.op("acc", OpClass::FpArith);
        b.flow_carried(a, a, 1);
        let ddg = b.build().unwrap();
        let g = ExtGraph::build(&ddg, &[ClusterId(0)], &config, &clocks);
        assert_eq!(
            schedule(&g, &config, &clocks),
            Err(ImsFailure::PositiveCycle)
        );
    }

    #[test]
    fn recurrence_fits_at_its_min_ii() {
        let config = reference();
        let clocks = clocks_for(&config, 3.0);
        let mut b = DdgBuilder::new("acc");
        let a = b.op("acc", OpClass::FpArith);
        b.flow_carried(a, a, 1);
        let ddg = b.build().unwrap();
        let g = ExtGraph::build(&ddg, &[ClusterId(0)], &config, &clocks);
        let r = schedule(&g, &config, &clocks).unwrap();
        assert_valid(&g, &clocks, &r);
    }

    #[test]
    fn cross_cluster_communication_is_scheduled_on_the_bus() {
        let config = reference();
        let clocks = clocks_for(&config, 2.0);
        let ddg = int_chain(2);
        let g = ExtGraph::build(&ddg, &[ClusterId(0), ClusterId(1)], &config, &clocks);
        assert_eq!(g.copies().len(), 1);
        let r = schedule(&g, &config, &clocks).unwrap();
        assert_valid(&g, &clocks, &r);
        // Copy issues after the producer's result and before the consumer.
        assert!(r.issue_ticks[2] > r.issue_ticks[0]);
        assert!(r.issue_ticks[1] > r.issue_ticks[2]);
    }

    #[test]
    fn bus_contention_serialises_copies() {
        // Two values crossing clusters with a single bus and II_icn = 1:
        // impossible; at II_icn = 2 they take distinct bus rows.
        let config = reference();
        let clocks = clocks_for(&config, 2.0);
        let mut b = DdgBuilder::new("two-comms");
        let a1 = b.op("a1", OpClass::IntArith);
        let a2 = b.op("a2", OpClass::IntArith);
        let u1 = b.op("u1", OpClass::IntArith);
        let u2 = b.op("u2", OpClass::IntArith);
        b.flow(a1, u1);
        b.flow(a2, u2);
        let ddg = b.build().unwrap();
        let g = ExtGraph::build(
            &ddg,
            &[ClusterId(0), ClusterId(0), ClusterId(1), ClusterId(1)],
            &config,
            &clocks,
        );
        assert_eq!(g.copies().len(), 2);
        let r = schedule(&g, &config, &clocks).unwrap();
        assert_valid(&g, &clocks, &r);
        assert_ne!(r.issue_cycles[4] % 2, r.issue_cycles[5] % 2);
    }

    #[test]
    fn heterogeneous_clusters_respect_tick_arithmetic() {
        let design = MachineDesign::new(2, vliw_machine::ClusterDesign::PAPER, 1);
        let config =
            ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.5));
        let clocks = clocks_for(&config, 3.0);
        let ddg = int_chain(4);
        // Alternate clusters to exercise cross-domain edges.
        let g = ExtGraph::build(
            &ddg,
            &[ClusterId(0), ClusterId(1), ClusterId(0), ClusterId(1)],
            &config,
            &clocks,
        );
        let r = schedule(&g, &config, &clocks).unwrap();
        assert_valid(&g, &clocks, &r);
        assert_eq!(g.copies().len(), 3);
    }

    #[test]
    fn register_pressure_is_reported() {
        // A cluster with 2 registers and many long-lived values.
        let design = MachineDesign::new(
            1,
            vliw_machine::ClusterDesign {
                int_fus: 4,
                fp_fus: 4,
                mem_ports: 4,
                registers: 2,
            },
            1,
        );
        let config = ClockedConfig::reference(design);
        let clocks = clocks_for(&config, 2.0);
        let mut b = DdgBuilder::new("pressure");
        // 6 producers whose values are all read late by one consumer chain.
        let producers: Vec<_> = (0..6)
            .map(|i| b.op(format!("p{i}"), OpClass::IntArith))
            .collect();
        let sink = b.op("sink", OpClass::FpDiv);
        let sink2 = b.op("sink2", OpClass::IntArith);
        b.flow(sink, sink2);
        for &p in &producers {
            b.dep_full(p, sink2, 1, 0, vliw_ir::DepKind::Flow);
        }
        let _ = sink;
        let ddg = b.build().unwrap();
        let g = ExtGraph::build(&ddg, &[ClusterId(0); 8], &config, &clocks);
        match schedule(&g, &config, &clocks) {
            Err(ImsFailure::RegisterPressure(lv)) => assert!(lv[0] > 2),
            other => panic!("expected register pressure, got {other:?}"),
        }
    }

    #[test]
    fn heights_detect_positive_cycle() {
        let config = reference();
        let clocks = clocks_for(&config, 1.0);
        let mut b = DdgBuilder::new("tight");
        let a = b.op("a", OpClass::FpMul); // latency 6
        b.flow_carried(a, a, 1);
        let ddg = b.build().unwrap();
        let g = ExtGraph::build(&ddg, &[ClusterId(0)], &config, &clocks);
        assert!(compute_heights(&g, clocks.ticks_per_it()).is_none());
    }

    #[test]
    fn empty_graph_schedules_trivially() {
        let config = reference();
        let clocks = clocks_for(&config, 1.0);
        let ddg = DdgBuilder::new("empty").build().unwrap();
        let g = ExtGraph::build(&ddg, &[], &config, &clocks);
        let r = schedule(&g, &config, &clocks).unwrap();
        assert!(r.issue_cycles.is_empty());
    }

    mod regs_incremental {
        //! Pins the incrementally maintained register-pressure state
        //! (`reg_last_read`/`reg_readers`, consumed by
        //! [`crate::regs::max_lives_maintained_into`]) against the
        //! from-scratch sweep [`crate::regs::max_lives`], on random DDGs
        //! with random two-cluster assignments, at every IT the retry
        //! ladder reaches — with one warm workspace carried across
        //! attempts, exactly like the scheduling driver.

        use super::*;
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;
        use vliw_ir::Ddg;

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

        /// Builds a random acyclic DDG: op `i` optionally reads from a
        /// random earlier op, plus an optional loop-carried self-edge on
        /// one op (a recurrence, the shape that stresses wrapped
        /// lifetimes).
        fn random_ddg(classes: &[u8], parents: &[u16], carried: Option<u8>) -> Ddg {
            let mut b = DdgBuilder::new("prop");
            let ids: Vec<_> = classes
                .iter()
                .enumerate()
                .map(|(i, &c)| b.op(format!("n{i}"), CLASSES[usize::from(c) % CLASSES.len()]))
                .collect();
            for (i, &raw) in parents.iter().enumerate().skip(1) {
                // `raw == 0` leaves op `i` an independent root.
                if raw != 0 {
                    let parent = usize::from(raw) % i;
                    b.flow(ids[parent], ids[i]);
                }
            }
            if let Some(which) = carried {
                let v = ids[usize::from(which) % ids.len()];
                b.flow_carried(v, v, 1);
            }
            b.build().unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn maintained_pressure_equals_from_scratch_at_every_it(
                classes in pvec(0u8..8, 1..12),
                parents in pvec(0u16..512, 12..13),
                clusters in pvec(0u8..2, 12..13),
                carried in proptest::option::of(0u8..12),
            ) {
                let n = classes.len();
                let ddg = random_ddg(&classes, &parents[..n], carried);
                let config =
                    ClockedConfig::reference(MachineDesign::paper_machine(2));
                let nc = config.design().num_clusters;
                let assignment: Vec<ClusterId> = clusters[..n]
                    .iter()
                    .map(|&c| ClusterId(c % nc))
                    .collect();
                // Walk the IT ladder the way the scheduling driver does,
                // reusing ONE workspace so each attempt sees the previous
                // attempt's maintained state and must reset it correctly.
                let mut ws = SchedWorkspace::new();
                let mut oks = 0;
                for it in 2..40 {
                    let clocks = clocks_for(&config, f64::from(it));
                    let g = ExtGraph::build(&ddg, &assignment, &config, &clocks);
                    if schedule_into(&g, &config, &clocks, &mut ws)
                        .is_err()
                    {
                        continue;
                    }
                    oks += 1;
                    let fresh = crate::regs::max_lives(&g, &clocks, nc, ws.issue_ticks());
                    prop_assert_eq!(
                        ws.max_live(),
                        fresh.as_slice(),
                        "incremental MaxLives diverged at IT {}ns",
                        it
                    );
                }
                // The ladder reaches 39ns on graphs of ≤ 11 ops (a carried
                // FpDiv recurrence needs ≥ 18ns plus synchronisation): at
                // least one attempt must succeed, else the test is vacuous.
                prop_assert!(oks > 0, "no IT in the ladder scheduled");
            }
        }
    }
}
