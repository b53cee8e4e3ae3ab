//! Multilevel refinement (§4.1.2): greedy macronode moves guided by
//! pseudo-schedule ED².

use vliw_ir::Recurrence;
use vliw_machine::{ClockedConfig, ClusterId};

use super::coarsen::Hierarchy;
use super::pseudo::{evaluate_partition_bounded, evaluate_partition_ctx};
use super::PartitionObjective;
use crate::timing::LoopClocks;
use crate::workspace::PartitionScratch;
use vliw_ir::Ddg;

/// Maximum improvement passes per hierarchy level.
const PASS_LIMIT: usize = 6;

/// Refines the hierarchy's seed assignment from the coarsest level down to
/// the base, returning the final per-op cluster assignment.
///
/// Candidate moves are priced with [`evaluate_partition_bounded`] against the
/// shared `scratch`, and the induced per-op assignment lives in one
/// reusable buffer — the inner evaluation loop performs no steady-state
/// allocation (except the energy model's usage profile under an ED²
/// objective).
pub(crate) fn refine(
    ddg: &Ddg,
    hierarchy: &Hierarchy,
    recurrences: &[Recurrence],
    config: &ClockedConfig,
    clocks: &LoopClocks,
    objective: &PartitionObjective<'_>,
    scratch: &mut PartitionScratch,
) -> Vec<ClusterId> {
    // Assignment per *base group*, seeded from the coarsest level.
    let coarsest_level = hierarchy.num_levels() - 1;
    let coarsest = hierarchy.base_groups_at(coarsest_level);
    let mut base_assign: Vec<ClusterId> = vec![ClusterId(0); hierarchy.base_groups.len()];
    for (node, bgs) in coarsest.iter().enumerate() {
        for &bg in bgs {
            base_assign[bg] = hierarchy.seed[node];
        }
    }

    // The induced-assignment buffer is taken out of the scratch so it can
    // be borrowed alongside it (and returned before exit for reuse). It is
    // maintained *incrementally*: a candidate move rewrites only the moved
    // group's ops, not the whole array.
    let mut induced = std::mem::take(&mut scratch.induced);
    let mut group_version = std::mem::take(&mut scratch.group_version);
    // The evaluation context (latency tables, edge lists, the config's
    // domain scalings) is fixed for the whole refinement run — built once,
    // shared by every candidate pricing.
    let mut ctx = std::mem::take(&mut scratch.ctx);
    ctx.build(ddg, config, clocks, objective.power);

    // Move counter for the rejection-skip below: bumped on every accepted
    // move, i.e. whenever the global assignment changes.
    let mut version: u64 = 0;

    // All level compositions in one upward pass (base_groups_at rebuilds
    // levels 0..k on every call, which is quadratic over the walk below).
    let groups_by_level = level_compositions(hierarchy);

    let clusters: Vec<ClusterId> = config.design().clusters().collect();
    // Walk levels coarsest → finest; at each level try moving whole
    // macronodes between clusters.
    for level in (0..hierarchy.num_levels()).rev() {
        let groups = &groups_by_level[level];
        group_version.clear();
        group_version.resize(groups.len(), u64::MAX);
        induce_into(ddg, hierarchy, &base_assign, &mut induced);
        let mut current_eval =
            evaluate_partition_ctx(ddg, &induced, recurrences, config, objective, &ctx, scratch);
        scratch.pricings += 1;
        for _pass in 0..PASS_LIMIT {
            let mut improved = false;
            for (gi, bgs) in groups.iter().enumerate() {
                // Pinned groups are fixed (recurrence pre-placement).
                if bgs.iter().any(|&bg| hierarchy.base_pin[bg].is_some()) {
                    continue;
                }
                // Rejection skip: if every candidate move of this group was
                // rejected and no move has been accepted anywhere since,
                // the assignment — and therefore every candidate's ED² and
                // the bar it must beat — is unchanged, so re-evaluating
                // would reject again. Skipping is exact.
                if group_version[gi] == version {
                    continue;
                }
                let from = base_assign[bgs[0]];
                let mut best: Option<(ClusterId, super::pseudo::PseudoEval)> = None;
                for &to in &clusters {
                    if to == from {
                        continue;
                    }
                    move_group(hierarchy, bgs, to, &mut base_assign, &mut induced);
                    let eval = evaluate_partition_bounded(
                        ddg,
                        &induced,
                        recurrences,
                        config,
                        objective,
                        &ctx,
                        scratch,
                        Some(best.as_ref().map_or(current_eval.ed2, |(_, b)| b.ed2)),
                    );
                    scratch.pricings += 1;
                    if eval.ed2 < current_eval.ed2
                        && best.as_ref().is_none_or(|(_, b)| eval.ed2 < b.ed2)
                    {
                        best = Some((to, eval));
                    }
                }
                match best {
                    Some((to, eval)) => {
                        move_group(hierarchy, bgs, to, &mut base_assign, &mut induced);
                        current_eval = eval;
                        improved = true;
                        version += 1;
                        scratch.moves += 1;
                    }
                    None => {
                        move_group(hierarchy, bgs, from, &mut base_assign, &mut induced);
                        group_version[gi] = version;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }
    induce_into(ddg, hierarchy, &base_assign, &mut induced);
    let result = induced.clone();
    scratch.induced = induced;
    scratch.group_version = group_version;
    scratch.ctx = ctx;
    result
}

/// Reassigns one macronode: updates both the base-group assignment and the
/// ops it induces, keeping `induced` consistent without a full rebuild.
fn move_group(
    hierarchy: &Hierarchy,
    bgs: &[usize],
    to: ClusterId,
    base_assign: &mut [ClusterId],
    induced: &mut [ClusterId],
) {
    for &bg in bgs {
        base_assign[bg] = to;
        for &op in &hierarchy.base_groups[bg] {
            induced[op.index()] = to;
        }
    }
}

/// The base-group composition of every hierarchy level, built bottom-up in
/// one pass (level `k+1` merges level `k`, exactly as
/// [`Hierarchy::base_groups_at`] computes each level from scratch).
fn level_compositions(hierarchy: &Hierarchy) -> Vec<Vec<Vec<usize>>> {
    let mut levels: Vec<Vec<Vec<usize>>> = Vec::with_capacity(hierarchy.num_levels());
    levels.push((0..hierarchy.base_groups.len()).map(|i| vec![i]).collect());
    for merge in &hierarchy.merges {
        let prev = levels.last().expect("level 0 pushed above");
        let parents = merge.iter().copied().max().map_or(0, |m| m + 1);
        let mut next: Vec<Vec<usize>> = vec![Vec::new(); parents];
        for (child, &parent) in merge.iter().enumerate() {
            next[parent].extend(prev[child].iter().copied());
        }
        levels.push(next);
    }
    levels
}

/// Expands a base-group assignment to a per-op assignment, into a reusable
/// buffer.
fn induce_into(
    ddg: &Ddg,
    hierarchy: &Hierarchy,
    base_assign: &[ClusterId],
    out: &mut Vec<ClusterId>,
) {
    out.clear();
    out.resize(ddg.num_ops(), ClusterId(0));
    for (bg, ops) in hierarchy.base_groups.iter().enumerate() {
        for &op in ops {
            out[op.index()] = base_assign[bg];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{compute_partition, PartitionObjective};
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
        use crate::partition::{compute_partition_unrefined, evaluate_partition};

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
                let seed = compute_partition_unrefined(&ddg, config, &clocks).unwrap();
                let refined = compute_partition(&ddg, config, &clocks, &objective).unwrap();
                let seed_eval = evaluate_partition(
                    &ddg,
                    &seed.assignment,
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
