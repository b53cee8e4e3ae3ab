//! Coarsening: heavy-edge matching over macronodes (§4.1's multilevel step
//! one) and the greedy seed assignment of the coarsest graph.

use vliw_ir::{Ddg, DepKind, FuKind, Recurrence};
use vliw_machine::{ClockedConfig, ClusterId};

use super::{fu_slot, pin};
use crate::timing::LoopClocks;

/// A macronode of one level: its operations, and its boundary — the flow
/// edges with exactly one end inside it, as `(producer, outside end)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Macronode<'a> {
    pub(crate) ops: &'a [u32],
    pub(crate) boundary: &'a [(u32, u32)],
}

/// One level of the hierarchy: its macronodes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Level {
    /// The operations of every node, node after node.
    ops: Vec<u32>,
    /// CSR offsets into `ops`, one row per node.
    off: Vec<u32>,
    /// The boundary edges of every node, node after node.
    boundary: Vec<(u32, u32)>,
    /// CSR offsets into `boundary`, one row per node.
    boundary_off: Vec<u32>,
    /// Whether each node is a pinned recurrence.
    pinned: Vec<bool>,
}

impl Level {
    /// Number of macronodes.
    pub(crate) fn len(&self) -> usize {
        self.pinned.len()
    }

    /// The macronode at index `node`.
    pub(crate) fn node(&self, node: usize) -> Macronode<'_> {
        let row = |off: &[u32]| off[node] as usize..off[node + 1] as usize;
        Macronode {
            ops: &self.ops[row(&self.off)],
            boundary: &self.boundary[row(&self.boundary_off)],
        }
    }

    /// Whether `node` is a pinned recurrence, which refinement never moves.
    pub(crate) fn is_pinned(&self, node: usize) -> bool {
        self.pinned[node]
    }

    /// Groups the ops and the boundary edges by node.
    pub(crate) fn build(&mut self, ddg: &Ddg, node_of_op: &[u32], node_pin: &[Option<ClusterId>]) {
        self.pinned.clear();
        self.pinned.extend(node_pin.iter().map(Option::is_some));
        let nodes = node_pin.len();
        let ops = || {
            node_of_op
                .iter()
                .enumerate()
                .map(|(op, &node)| (node, op as u32))
        };
        group_by_node(nodes, ops, &mut self.off, &mut self.ops);
        // A cut flow edge is on the boundary of both its ends' nodes.
        let boundary = || {
            ddg.edges()
                .filter(|e| e.kind() == DepKind::Flow)
                .map(|e| (e.src().0, e.dst().0))
                .map(|(src, dst)| (src, dst, node_of_op[src as usize], node_of_op[dst as usize]))
                .filter(|&(_, _, a, b)| a != b)
                .flat_map(|(src, dst, a, b)| [(a, (src, dst)), (b, (src, src))])
        };
        group_by_node(nodes, boundary, &mut self.boundary_off, &mut self.boundary);
    }
}

/// Groups the `(node, item)` pairs `items()` yields by node into the CSR
/// pair `(off, out)` (a counting sort that keeps each node's items in
/// input order).
fn group_by_node<T: Copy + Default, I: Iterator<Item = (u32, T)>>(
    nodes: usize,
    items: impl Fn() -> I,
    off: &mut Vec<u32>,
    out: &mut Vec<T>,
) {
    off.clear();
    off.resize(nodes + 1, 0);
    for (node, _) in items() {
        off[node as usize + 1] += 1;
    }
    for i in 1..=nodes {
        off[i] += off[i - 1];
    }
    // `off[node]` serves as the node's fill cursor, ending at the next
    // node's start; one shift restores the starts.
    out.clear();
    out.resize(off[nodes] as usize, T::default());
    for (node, item) in items() {
        let cursor = &mut off[node as usize];
        out[*cursor as usize] = item;
        *cursor += 1;
    }
    off.copy_within(0..nodes, 1);
    off[0] = 0;
}

/// The multilevel hierarchy of one IT attempt, with every buffer that
/// pinning and coarsening use, kept warm across attempts.
///
/// Level 0 is the finest granularity: one macronode per free operation,
/// plus one per pinned recurrence (recurrences are never split during
/// coarsening, §4.1.1). Each further level merges matched macronodes of
/// the one below. `seed` assigns every operation the cluster of its
/// coarsest macronode.
#[derive(Debug, Clone, Default)]
pub(crate) struct Hierarchy {
    /// Per-op pinned cluster (`None` = free to move during partitioning).
    pinned: Vec<Option<ClusterId>>,
    /// The live levels are `levels[..num_levels]`; later entries keep
    /// their buffers for a deeper hierarchy.
    levels: Vec<Level>,
    num_levels: usize,
    /// The greedy load-balanced assignment of the coarsest level, per op.
    seed: Vec<ClusterId>,
    // --- pinning scratch ---
    pin_load: Vec<[u64; 3]>,
    slowest_first: Vec<ClusterId>,
    // --- coarsening scratch ---
    /// The level-0 node of each SCC's pinned ops.
    scc_node: Vec<u32>,
    /// The current level's node of every op.
    node_of_op: Vec<u32>,
    /// The current level's pin of every node.
    node_pin: Vec<Option<ClusterId>>,
    next_pin: Vec<Option<ClusterId>>,
    pair_list: Vec<(u32, u32)>,
    pairs: Vec<((u32, u32), u64)>,
    matched: Vec<bool>,
    merge_map: Vec<u32>,
    // --- seed scratch ---
    load: Vec<[u64; 3]>,
    node_counts: Vec<[u64; 3]>,
    order: Vec<u32>,
    node_seed: Vec<ClusterId>,
}

impl Hierarchy {
    /// Pins the recurrences and coarsens the rest.
    ///
    /// # Errors
    ///
    /// The `min_ii` of a recurrence no cluster admits at these clocks.
    pub(crate) fn build(
        &mut self,
        ddg: &Ddg,
        recurrences: &[Recurrence],
        config: &ClockedConfig,
        clocks: &LoopClocks,
    ) -> Result<(), u32> {
        pin::pin_recurrences(
            ddg,
            recurrences,
            config,
            clocks,
            &mut self.pinned,
            &mut self.pin_load,
            &mut self.slowest_first,
        )?;
        self.coarsen(ddg, config, clocks);
        Ok(())
    }

    /// The levels, finest first.
    pub(crate) fn levels(&self) -> &[Level] {
        &self.levels[..self.num_levels]
    }

    /// The coarsening seed: every op in its coarsest macronode's cluster.
    pub(crate) fn seed(&self) -> &[ClusterId] {
        &self.seed
    }

    /// Builds the levels by heavy-edge matching, then the seed.
    fn coarsen(&mut self, ddg: &Ddg, config: &ClockedConfig, clocks: &LoopClocks) {
        // --- Level 0: one node per pinned recurrence, one per free op.
        // Recurrences were pinned whole, one SCC each, so the pinned ops
        // group by their (cached) SCC.
        let n = ddg.num_ops();
        let sccs = ddg.sccs();
        self.scc_node.clear();
        self.scc_node.resize(sccs.len(), u32::MAX);
        self.node_of_op.clear();
        self.node_of_op.resize(n, u32::MAX);
        self.node_pin.clear();
        for op in ddg.op_ids() {
            if let Some(home) = self.pinned[op.index()] {
                let node = &mut self.scc_node[sccs.component_of(op).index()];
                if *node == u32::MAX {
                    *node = self.node_pin.len() as u32;
                    self.node_pin.push(Some(home));
                }
                self.node_of_op[op.index()] = *node;
            }
        }
        for op in ddg.op_ids() {
            if self.pinned[op.index()].is_none() {
                self.node_of_op[op.index()] = self.node_pin.len() as u32;
                self.node_pin.push(None);
            }
        }
        self.num_levels = 0;
        self.push_level(ddg);

        // --- Matching levels.
        let num_clusters = usize::from(config.design().num_clusters);
        loop {
            let free = self.node_pin.iter().filter(|p| p.is_none()).count();
            if free <= num_clusters {
                break;
            }
            let nodes = self.node_pin.len();
            // Edge weights between current nodes (flow edges only: those
            // are the communications a split would cost), accumulated
            // without hashing: collect the normalised endpoint pairs,
            // sort, and run-length count.
            self.pair_list.clear();
            for e in ddg.edges() {
                if e.kind() != DepKind::Flow {
                    continue;
                }
                let a = self.node_of_op[e.src().index()];
                let b = self.node_of_op[e.dst().index()];
                if a != b {
                    self.pair_list.push((a.min(b), a.max(b)));
                }
            }
            self.pair_list.sort_unstable();
            self.pairs.clear();
            for &p in &self.pair_list {
                match self.pairs.last_mut() {
                    Some((last, w)) if *last == p => *w += 1,
                    _ => self.pairs.push((p, 1)),
                }
            }
            // Heaviest edges first; deterministic tie-break by indices
            // (the keys are distinct, so an unstable sort is exact).
            self.pairs
                .sort_unstable_by_key(|&((a, b), w)| (std::cmp::Reverse(w), a, b));

            self.matched.clear();
            self.matched.resize(nodes, false);
            self.merge_map.clear();
            self.merge_map.resize(nodes, u32::MAX);
            let mut next_index = 0u32;
            let mut merged_any = false;
            for &((a, b), _) in &self.pairs {
                let (a, b) = (a as usize, b as usize);
                if self.matched[a]
                    || self.matched[b]
                    || self.node_pin[a].is_some()
                    || self.node_pin[b].is_some()
                {
                    continue;
                }
                self.matched[a] = true;
                self.matched[b] = true;
                self.merge_map[a] = next_index;
                self.merge_map[b] = next_index;
                next_index += 1;
                merged_any = true;
                if nodes - next_index as usize <= num_clusters {
                    break;
                }
            }
            if !merged_any {
                break;
            }
            for slot in &mut self.merge_map {
                if *slot == u32::MAX {
                    *slot = next_index;
                    next_index += 1;
                }
            }
            self.next_pin.clear();
            self.next_pin.resize(next_index as usize, None);
            for (i, &p) in self.merge_map.iter().enumerate() {
                if self.node_pin[i].is_some() {
                    self.next_pin[p as usize] = self.node_pin[i];
                }
            }
            // Copied rather than swapped, so each buffer keeps its
            // capacity for the next hierarchy.
            self.node_pin.clear();
            self.node_pin.extend_from_slice(&self.next_pin);
            for node in &mut self.node_of_op {
                *node = self.merge_map[*node as usize];
            }
            self.push_level(ddg);
        }

        self.seed_assignment(ddg, config, clocks);
    }

    /// Records the current nodes as the next level.
    fn push_level(&mut self, ddg: &Ddg) {
        if self.levels.len() == self.num_levels {
            self.levels.push(Level::default());
        }
        self.levels[self.num_levels].build(ddg, &self.node_of_op, &self.node_pin);
        self.num_levels += 1;
    }

    /// Greedy load-balanced assignment of the coarsest macronodes.
    fn seed_assignment(&mut self, ddg: &Ddg, config: &ClockedConfig, clocks: &LoopClocks) {
        let design = config.design();
        let nodes = self.node_pin.len();
        // node_counts[node][kind-index] = the node's ops of that kind.
        self.node_counts.clear();
        self.node_counts.resize(nodes, [0u64; 3]);
        for op in ddg.ops() {
            self.node_counts[self.node_of_op[op.id().index()] as usize][fu_slot(op.fu_kind())] += 1;
        }
        // load[c][kind-index] = ops of that kind assigned so far.
        self.load.clear();
        self.load
            .resize(usize::from(design.num_clusters), [0u64; 3]);
        let relative_load = |load: &[u64; 3], c: ClusterId| -> f64 {
            let ii = clocks.cluster_ii(c) as f64;
            let mut worst = 0f64;
            for (i, kind) in FuKind::CLUSTER_KINDS.into_iter().enumerate() {
                let cap = f64::from(design.cluster.fu_count(kind)) * ii;
                let l = if cap > 0.0 {
                    load[i] as f64 / cap
                } else if load[i] > 0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                worst = worst.max(l);
            }
            worst
        };

        // Pinned first (fixed), then free nodes heaviest-first (the keys
        // are distinct, so an unstable sort is exact).
        self.order.clear();
        self.order.extend(0..nodes as u32);
        let (pins, counts) = (&self.node_pin, &self.node_counts);
        self.order.sort_unstable_by_key(|&i| {
            let i = i as usize;
            (
                pins[i].is_none(),
                std::cmp::Reverse(counts[i].iter().sum::<u64>()),
                i,
            )
        });
        self.node_seed.clear();
        self.node_seed.resize(nodes, ClusterId(0));
        for &i in &self.order {
            let i = i as usize;
            let counts = self.node_counts[i];
            let target = match self.node_pin[i] {
                Some(c) => c,
                None => design
                    .clusters()
                    .min_by(|&a, &b| {
                        let mut la = self.load[a.index()];
                        let mut lb = self.load[b.index()];
                        for k in 0..3 {
                            la[k] += counts[k];
                            lb[k] += counts[k];
                        }
                        relative_load(&la, a)
                            .partial_cmp(&relative_load(&lb, b))
                            .expect("loads are not NaN")
                            .then(a.cmp(&b))
                    })
                    .expect("at least one cluster"),
            };
            for (load, count) in self.load[target.index()].iter_mut().zip(counts) {
                *load += count;
            }
            self.node_seed[i] = target;
        }
        self.seed.clear();
        self.seed.extend(
            self.node_of_op
                .iter()
                .map(|&node| self.node_seed[node as usize]),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{DdgBuilder, OpClass};
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

    /// Coarsens `ddg` with the given pins (instead of pinning its
    /// recurrences).
    fn coarsen(
        ddg: &Ddg,
        pinned: Vec<Option<ClusterId>>,
        config: &ClockedConfig,
        clocks: &LoopClocks,
    ) -> Hierarchy {
        let mut h = Hierarchy {
            pinned,
            ..Hierarchy::default()
        };
        h.coarsen(ddg, config, clocks);
        h
    }

    /// Each node's ops at `level`.
    fn groups(level: &Level) -> Vec<Vec<u32>> {
        (0..level.len())
            .map(|i| level.node(i).ops.to_vec())
            .collect()
    }

    #[test]
    fn coarsens_chain_to_cluster_count() {
        let mut b = DdgBuilder::new("chain");
        let ids: Vec<_> = (0..16)
            .map(|i| b.op(format!("n{i}"), OpClass::IntArith))
            .collect();
        for w in ids.windows(2) {
            b.flow(w[0], w[1]);
        }
        let ddg = b.build().unwrap();
        let (config, clocks) = setup(4.0);
        let h = coarsen(&ddg, vec![None; 16], &config, &clocks);
        assert!(h.levels().len() > 1, "16 ops must coarsen at least once");
        let coarsest = h.levels().last().unwrap();
        assert!(coarsest.len() <= 16);
        assert!(coarsest.len() >= 4);
        // The seed puts each coarsest node in one cluster.
        assert_eq!(h.seed().len(), 16);
        for ops in groups(coarsest) {
            assert!(ops
                .iter()
                .all(|&op| h.seed()[op as usize] == h.seed()[ops[0] as usize]));
        }
        // Every op appears exactly once at every level.
        for level in h.levels() {
            let mut seen: Vec<u32> = groups(level).into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pinned_recurrence_stays_whole_and_fixed() {
        let mut b = DdgBuilder::new("rec");
        let x = b.op("x", OpClass::IntArith);
        let y = b.op("y", OpClass::IntArith);
        b.flow(x, y);
        b.flow_carried(y, x, 1);
        for i in 0..6 {
            b.op(format!("free{i}"), OpClass::IntArith);
        }
        let ddg = b.build().unwrap();
        let (config, clocks) = setup(4.0);
        let mut pinned = vec![None; 8];
        pinned[0] = Some(ClusterId(2));
        pinned[1] = Some(ClusterId(2));
        let h = coarsen(&ddg, pinned, &config, &clocks);
        // At every level the two pinned ops form one pinned node of their
        // own.
        for level in h.levels() {
            let pinned_nodes: Vec<usize> =
                (0..level.len()).filter(|&g| level.is_pinned(g)).collect();
            assert_eq!(pinned_nodes.len(), 1);
            assert_eq!(level.node(pinned_nodes[0]).ops, &[0, 1]);
        }
        // Seed respects the pin.
        assert_eq!(h.seed()[0], ClusterId(2));
        assert_eq!(h.seed()[1], ClusterId(2));
    }

    #[test]
    fn seed_balances_independent_ops() {
        // 8 independent int ops on 4 clusters with II 2 ⇒ 2 per cluster.
        let mut b = DdgBuilder::new("par");
        for i in 0..8 {
            b.op(format!("n{i}"), OpClass::IntArith);
        }
        let ddg = b.build().unwrap();
        let (config, clocks) = setup(2.0);
        let h = coarsen(&ddg, vec![None; 8], &config, &clocks);
        let mut per_cluster = [0usize; 4];
        for &c in h.seed() {
            per_cluster[c.index()] += 1;
        }
        assert_eq!(per_cluster, [2, 2, 2, 2]);
    }

    /// Coarsening only *groups* operations — at every level of the
    /// hierarchy the macronodes cover each operation exactly once, so the
    /// per-FU-kind op counts (the node weights the seed balancer uses) and
    /// the total iteration energy are preserved verbatim.
    #[test]
    fn coarsening_preserves_node_weights() {
        let mut b = DdgBuilder::new("weights");
        let classes = [
            OpClass::IntArith,
            OpClass::FpArith,
            OpClass::FpMemory,
            OpClass::FpMul,
            OpClass::FpDiv,
            OpClass::IntArith,
            OpClass::FpMemory,
            OpClass::FpArith,
            OpClass::IntArith,
            OpClass::FpArith,
        ];
        let ids: Vec<_> = classes
            .iter()
            .enumerate()
            .map(|(i, &c)| b.op(format!("w{i}"), c))
            .collect();
        // A couple of flow edges so matching has something to chew on,
        // plus one pinned recurrence.
        b.flow(ids[0], ids[1]);
        b.flow(ids[1], ids[2]);
        b.flow(ids[3], ids[4]);
        b.flow_carried(ids[4], ids[3], 1);
        let ddg = b.build().unwrap();
        let (config, clocks) = setup(8.0);
        let mut pinned = vec![None; ddg.num_ops()];
        pinned[3] = Some(ClusterId(1));
        pinned[4] = Some(ClusterId(1));
        let h = coarsen(&ddg, pinned, &config, &clocks);
        assert!(h.levels().len() > 1, "10 ops must coarsen at least once");

        let mut base_counts = [0u64; 3];
        let mut base_energy = 0.0f64;
        for op in ddg.ops() {
            base_counts[fu_slot(op.fu_kind())] += 1;
            base_energy += op.class().relative_energy();
        }

        for (k, level) in h.levels().iter().enumerate() {
            let mut counts = [0u64; 3];
            let mut energy = 0.0f64;
            let mut covered = vec![0u32; ddg.num_ops()];
            for ops in groups(level) {
                for op in ops {
                    covered[op as usize] += 1;
                    let op = ddg.op(vliw_ir::OpId(op));
                    counts[fu_slot(op.fu_kind())] += 1;
                    energy += op.class().relative_energy();
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "level {k}: every op appears exactly once"
            );
            assert_eq!(
                counts, base_counts,
                "level {k}: per-kind op counts preserved"
            );
            assert!(
                (energy - base_energy).abs() < 1e-9,
                "level {k}: iteration energy preserved ({energy} vs {base_energy})"
            );
        }
    }

    #[test]
    fn heavy_edges_merge_first() {
        // Two 2-op blobs connected internally by 3 edges, to each other by 1.
        let mut b = DdgBuilder::new("blobs");
        let a0 = b.op("a0", OpClass::IntArith);
        let a1 = b.op("a1", OpClass::IntArith);
        let c0 = b.op("b0", OpClass::IntArith);
        let c1 = b.op("b1", OpClass::IntArith);
        for _ in 0..3 {
            b.flow(a0, a1);
            b.flow(c0, c1);
        }
        b.flow(a1, c0);
        // Plus free ops so coarsening has room to run (free > 4 clusters).
        for i in 0..4 {
            b.op(format!("f{i}"), OpClass::IntArith);
        }
        let ddg = b.build().unwrap();
        let (config, clocks) = setup(4.0);
        let h = coarsen(&ddg, vec![None; 8], &config, &clocks);
        // After the first matching level, a0+a1 are together and b0+b1 are
        // together.
        let level1 = groups(&h.levels()[1]);
        let find = |op: u32| level1.iter().position(|g| g.contains(&op));
        assert_eq!(find(0), find(1));
        assert_eq!(find(2), find(3));
        assert_ne!(find(0), find(2));
    }
}
