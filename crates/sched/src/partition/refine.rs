//! Multilevel refinement (§4.1.2): greedy macronode moves guided by
//! pseudo-schedule ED².

use vliw_ir::Recurrence;
use vliw_machine::ClusterId;

use super::coarsen::Hierarchy;
use super::pseudo::{EvalCtx, Pricer, PseudoEval};
use super::PartitionObjective;

/// Maximum improvement passes per hierarchy level.
const PASS_LIMIT: usize = 6;

/// Refinement's state, kept warm across runs: the delta pricer, the
/// per-group rejection versions, and the work counts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Refiner {
    /// The committed assignment and its pseudo-schedule terms.
    pub(crate) pricer: Pricer,
    /// Per-group rejection versions: the move-counter value at which a
    /// group last had every candidate move rejected.
    group_version: Vec<u64>,
    /// Pricings made: every candidate move priced, plus each level's
    /// starting assignment.
    pub(crate) pricings: u64,
    /// Moves accepted.
    pub(crate) moves: u64,
}

impl Refiner {
    /// Refines the hierarchy's seed from the coarsest level down to the
    /// base under `objective`, returning the final per-op assignment.
    ///
    /// Each candidate move is priced by delta from the committed
    /// assignment ([`Pricer::price`]), with the ED² it must strictly beat
    /// as the rejection bar; nothing is allocated once the buffers are
    /// warm.
    pub(crate) fn run(
        &mut self,
        hierarchy: &Hierarchy,
        recurrences: &[Recurrence],
        ctx: &EvalCtx,
        objective: &PartitionObjective<'_>,
    ) -> &[ClusterId] {
        let pricer = &mut self.pricer;
        pricer.reset(ctx, hierarchy.seed(), recurrences);
        let n = hierarchy.seed().len();
        // Move counter for the rejection skip below: bumped on every
        // accepted move, i.e. whenever the committed assignment changes.
        let mut version: u64 = 0;
        // Walk levels coarsest → finest; at each level try moving whole
        // macronodes between clusters.
        for level in hierarchy.levels().iter().rev() {
            self.group_version.clear();
            self.group_version.resize(level.len(), u64::MAX);
            let mut current = pricer
                .price(ctx, objective, n, None)
                .expect("a pricing without a bar always prices");
            self.pricings += 1;
            for _pass in 0..PASS_LIMIT {
                let mut improved = false;
                for gi in 0..level.len() {
                    // Pinned groups are fixed (recurrence pre-placement).
                    // Rejection skip: if every candidate move of this group
                    // was rejected and no move has been accepted anywhere
                    // since, the assignment — and therefore every
                    // candidate's ED² and the bar it must beat — is
                    // unchanged, so re-pricing would reject again.
                    // Skipping is exact.
                    if level.is_pinned(gi) || self.group_version[gi] == version {
                        continue;
                    }
                    let node = level.node(gi);
                    let first = node
                        .ops
                        .iter()
                        .map(|&v| ctx.pos(v))
                        .min()
                        .expect("macronodes are non-empty");
                    let from = pricer.cluster_of(node.ops[0]);
                    let mut best: Option<(ClusterId, PseudoEval)> = None;
                    for to in (0..ctx.nc as u8).map(ClusterId) {
                        if to == from {
                            continue;
                        }
                        pricer.shift(ctx, node, to);
                        let bar = best.map_or(current.ed2, |(_, b)| b.ed2);
                        let eval = pricer.price(ctx, objective, first, Some(bar));
                        self.pricings += 1;
                        if let Some(eval) = eval.filter(|e| e.ed2 < bar) {
                            best = Some((to, eval));
                        }
                    }
                    match best {
                        Some((to, eval)) => {
                            pricer.shift(ctx, node, to);
                            pricer.commit(ctx, first);
                            current = eval;
                            improved = true;
                            version += 1;
                            self.moves += 1;
                        }
                        None => {
                            pricer.shift(ctx, node, from);
                            pricer.revert(ctx);
                            self.group_version[gi] = version;
                        }
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        pricer.assignment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{compute_partition, PartitionObjective};
    use crate::timing::LoopClocks;
    use vliw_ir::{Ddg, DdgBuilder, OpClass};
    use vliw_machine::{ClockedConfig, FrequencyMenu, MachineDesign, Time};

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

    #[test]
    fn partition_keeps_tight_chain_together() {
        let mut b = DdgBuilder::new("chain");
        let ids: Vec<_> = (0..3)
            .map(|i| b.op(format!("n{i}"), OpClass::IntArith))
            .collect();
        for w in ids.windows(2) {
            b.flow(w[0], w[1]);
        }
        let ddg = b.build().unwrap();
        let (config, clocks) = setup(3.0);
        let p = compute_partition(&ddg, &config, &clocks, &PartitionObjective::default()).unwrap();
        // A 3-op chain fits one cluster (II 3); splitting costs a bus trip.
        let first = p.assignment[0];
        assert!(
            p.assignment.iter().all(|&c| c == first),
            "{:?}",
            p.assignment
        );
    }

    #[test]
    fn partition_spreads_parallel_work() {
        let mut b = DdgBuilder::new("par");
        for i in 0..8 {
            b.op(format!("n{i}"), OpClass::IntArith);
        }
        let ddg = b.build().unwrap();
        let (config, clocks) = setup(2.0);
        let p = compute_partition(&ddg, &config, &clocks, &PartitionObjective::default()).unwrap();
        let mut per = [0usize; 4];
        for &c in &p.assignment {
            per[c.index()] += 1;
        }
        assert_eq!(per, [2, 2, 2, 2], "{:?}", p.assignment);
    }

    #[test]
    fn recurrence_is_pinned_to_slow_cluster_in_hetero() {
        let design = MachineDesign::paper_machine(1);
        let config =
            ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(2.0));
        let clocks =
            LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(6.0))
                .unwrap();
        let mut b = DdgBuilder::new("rec+free");
        let x = b.op("x", OpClass::FpArith);
        b.flow_carried(x, x, 1); // min II 3 ⇒ fits slow clusters (II 3)
        for i in 0..3 {
            b.op(format!("f{i}"), OpClass::IntArith);
        }
        let ddg = b.build().unwrap();
        let p = compute_partition(&ddg, &config, &clocks, &PartitionObjective::default()).unwrap();
        assert_eq!(config.cluster_cycle(p.assignment[0]), Time::from_ns(2.0));
    }

    #[test]
    fn single_cluster_machine_takes_everything() {
        let design = MachineDesign::new(1, vliw_machine::ClusterDesign::PAPER, 1);
        let config = ClockedConfig::reference(design);
        let clocks =
            LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(8.0))
                .unwrap();
        let mut b = DdgBuilder::new("all");
        for i in 0..5 {
            b.op(format!("n{i}"), OpClass::IntArith);
        }
        let ddg = b.build().unwrap();
        let p = compute_partition(&ddg, &config, &clocks, &PartitionObjective::default()).unwrap();
        assert!(p.assignment.iter().all(|&c| c == ClusterId(0)));
    }

    #[test]
    fn empty_ddg_gives_empty_partition() {
        let ddg = DdgBuilder::new("empty").build().unwrap();
        let (config, clocks) = setup(1.0);
        let p = compute_partition(&ddg, &config, &clocks, &PartitionObjective::default()).unwrap();
        assert!(p.is_empty());
    }

    /// A family of DDG shapes exercising chains, fans, recurrences and
    /// mixed FU kinds.
    fn shape_zoo() -> Vec<Ddg> {
        let mut zoo = Vec::new();

        // Chain of mixed op kinds.
        let mut b = DdgBuilder::new("chain-mixed");
        let classes = [
            OpClass::IntArith,
            OpClass::FpArith,
            OpClass::FpMemory,
            OpClass::FpMul,
            OpClass::IntArith,
            OpClass::FpArith,
            OpClass::FpMemory,
            OpClass::IntArith,
        ];
        let ids: Vec<_> = classes
            .iter()
            .enumerate()
            .map(|(i, &c)| b.op(format!("c{i}"), c))
            .collect();
        for w in ids.windows(2) {
            b.flow(w[0], w[1]);
        }
        zoo.push(b.build().unwrap());

        // Fan: one producer feeding many consumers.
        let mut b = DdgBuilder::new("fan");
        let src = b.op("src", OpClass::FpMemory);
        for i in 0..9 {
            let dst = b.op(format!("f{i}"), OpClass::FpArith);
            b.flow(src, dst);
        }
        zoo.push(b.build().unwrap());

        // Two recurrences plus free parallel work.
        let mut b = DdgBuilder::new("recs");
        let x = b.op("x", OpClass::FpArith);
        b.flow_carried(x, x, 1);
        let y0 = b.op("y0", OpClass::IntArith);
        let y1 = b.op("y1", OpClass::IntArith);
        b.flow(y0, y1);
        b.flow_carried(y1, y0, 1);
        for i in 0..7 {
            b.op(format!("free{i}"), OpClass::IntArith);
        }
        zoo.push(b.build().unwrap());

        zoo
    }

    /// Refinement starts from the coarsening seed and only accepts moves
    /// that strictly lower the pseudo-schedule ED², so the refined
    /// partition's estimated cost can never exceed the unrefined seed's.
    #[test]
    fn refinement_never_increases_estimated_cost() {
        use crate::partition::evaluate_partition;

        let design = MachineDesign::paper_machine(1);
        let configs = [
            ClockedConfig::reference(design),
            ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.5)),
        ];
        let objective = PartitionObjective::default();
        for ddg in shape_zoo() {
            let recurrences = vliw_ir::condensation(&ddg).recurrences(&ddg);
            for config in &configs {
                let clocks =
                    LoopClocks::select(config, &FrequencyMenu::unrestricted(), Time::from_ns(9.0))
                        .unwrap();
                let mut hierarchy = Hierarchy::default();
                hierarchy
                    .build(&ddg, &recurrences, config, &clocks)
                    .unwrap();
                let refined = compute_partition(&ddg, config, &clocks, &objective).unwrap();
                let seed_eval = evaluate_partition(
                    &ddg,
                    hierarchy.seed(),
                    &recurrences,
                    config,
                    &clocks,
                    &objective,
                );
                let refined_eval = evaluate_partition(
                    &ddg,
                    &refined.assignment,
                    &recurrences,
                    config,
                    &clocks,
                    &objective,
                );
                assert!(
                    refined_eval.ed2 <= seed_eval.ed2 * (1.0 + 1e-12),
                    "{}: refinement worsened cost ({} -> {})",
                    ddg.name(),
                    seed_eval.ed2,
                    refined_eval.ed2
                );
            }
        }
    }
}
