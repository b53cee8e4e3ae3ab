//! Recurrence pre-placement (§4.1.1).
//!
//! Recurrences with large latencies may be schedulable in some clusters
//! only: a slow cluster has fewer cycles per initiation time, so a
//! recurrence needing `min_ii` cycles does not fit where `II_C < min_ii`.
//! Before coarsening we walk the recurrences most-critical-first and pin
//! each to the **slowest** cluster that can still schedule it — slower
//! clusters consume less power, and an unnecessary fast-cluster placement
//! wastes the heterogeneous design's entire point.

use vliw_ir::{Ddg, FuKind, Recurrence};
use vliw_machine::{ClockedConfig, ClusterId};

use super::fu_slot;
use crate::timing::LoopClocks;

/// Pins every recurrence to the slowest cluster that can schedule it,
/// writing each op's pinned cluster (`None` = free to move during
/// partitioning) into `pinned`. `load` and `slowest_first` are scratch.
///
/// Schedulability in cluster `C` requires:
/// * `min_ii(recurrence) ≤ II_C` — the recurrence's critical circuit fits
///   in one initiation time at `C`'s frequency, and
/// * FU capacity — the ops already pinned to `C` plus this recurrence's
///   ops fit in `C`'s functional units over `II_C` cycles.
///
/// # Errors
///
/// Returns the `min_ii` of a recurrence no cluster admits; the caller then
/// increases the `IT`.
pub(crate) fn pin_recurrences(
    ddg: &Ddg,
    recurrences: &[Recurrence],
    config: &ClockedConfig,
    clocks: &LoopClocks,
    pinned: &mut Vec<Option<ClusterId>>,
    load: &mut Vec<[u64; 3]>,
    slowest_first: &mut Vec<ClusterId>,
) -> Result<(), u32> {
    pinned.clear();
    pinned.resize(ddg.num_ops(), None);
    // Dense `load[cluster][kind]` → ops already pinned there.
    let design = config.design();
    load.clear();
    load.resize(usize::from(design.num_clusters), [0u64; 3]);
    // `ClockedConfig::clusters_slowest_first`, into a reused buffer (a
    // stable sort, so equally slow clusters keep their id order).
    slowest_first.clear();
    slowest_first.extend(design.clusters());
    slowest_first.sort_by_key(|&c| std::cmp::Reverse(config.cluster_cycle(c)));

    for rec in recurrences {
        let mut counts = [0u64; 3];
        for &op in &rec.ops {
            counts[fu_slot(ddg.op(op).fu_kind())] += 1;
        }
        let min_ii = u64::from(rec.min_ii());
        let home = slowest_first.iter().copied().find(|&c| {
            let ii = clocks.cluster_ii(c);
            if ii < min_ii {
                return false;
            }
            // `fu_slot` indexes `load`/`counts` in CLUSTER_KINDS order.
            FuKind::CLUSTER_KINDS.iter().enumerate().all(|(ki, &kind)| {
                let cap = u64::from(design.cluster.fu_count(kind)) * ii;
                load[c.index()][ki] + counts[ki] <= cap
            })
        });
        let Some(home) = home else {
            return Err(rec.min_ii());
        };
        for &op in &rec.ops {
            pinned[op.index()] = Some(home);
            load[home.index()][fu_slot(ddg.op(op).fu_kind())] += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{condensation, DdgBuilder, OpClass};
    use vliw_machine::{FrequencyMenu, MachineDesign, Time};

    fn pin(
        ddg: &Ddg,
        recurrences: &[Recurrence],
        config: &ClockedConfig,
        clocks: &LoopClocks,
    ) -> Result<Vec<Option<ClusterId>>, u32> {
        let mut pinned = Vec::new();
        pin_recurrences(
            ddg,
            recurrences,
            config,
            clocks,
            &mut pinned,
            &mut Vec::new(),
            &mut Vec::new(),
        )?;
        Ok(pinned)
    }

    fn hetero_config() -> ClockedConfig {
        let design = MachineDesign::paper_machine(1);
        ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(2.0))
    }

    #[test]
    fn light_recurrence_lands_in_slow_cluster() {
        // Accumulator with min II 3; at IT = 6 ns the slow clusters (2 ns)
        // have II 3 ⇒ it fits there, and slow is preferred.
        let config = hetero_config();
        let clocks =
            LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(6.0))
                .unwrap();
        let mut b = DdgBuilder::new("acc");
        let a = b.op("acc", OpClass::FpArith);
        b.flow_carried(a, a, 1);
        let ddg = b.build().unwrap();
        let recs = condensation(&ddg).recurrences(&ddg);
        let pinned = pin(&ddg, &recs, &config, &clocks).unwrap();
        let home = pinned[0].unwrap();
        assert_eq!(config.cluster_cycle(home), Time::from_ns(2.0));
    }

    #[test]
    fn tight_recurrence_requires_the_fast_cluster() {
        // min II 5 at IT = 5 ns: fast cluster (1 ns) has II 5, slow (2 ns)
        // II 2 ⇒ only the fast cluster admits it.
        let config = hetero_config();
        let clocks =
            LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(5.0))
                .unwrap();
        let mut b = DdgBuilder::new("tight");
        let a = b.op("x", OpClass::FpArith);
        let c = b.op("y", OpClass::IntArith);
        b.flow(a, c); // 3 cycles
        b.dep_full(c, a, 2, 1, vliw_ir::DepKind::Flow); // +2 ⇒ min II 5
        let ddg = b.build().unwrap();
        let recs = condensation(&ddg).recurrences(&ddg);
        assert_eq!(recs[0].min_ii(), 5);
        let pinned = pin(&ddg, &recs, &config, &clocks).unwrap();
        assert_eq!(pinned[0].unwrap(), ClusterId(0));
        assert_eq!(pinned[1].unwrap(), ClusterId(0));
    }

    #[test]
    fn impossible_recurrence_reports_error() {
        let config = hetero_config();
        let clocks =
            LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(3.0))
                .unwrap();
        // min II 6 > fast cluster's II 3.
        let mut b = DdgBuilder::new("too-tight");
        let a = b.op("m", OpClass::FpMul);
        b.flow_carried(a, a, 1);
        let ddg = b.build().unwrap();
        let recs = condensation(&ddg).recurrences(&ddg);
        assert_eq!(pin(&ddg, &recs, &config, &clocks), Err(6));
        // The public entry point reports it as the driver's error.
        let err = crate::partition::partition_candidates_ws(
            &ddg,
            &config,
            &clocks,
            &crate::partition::PartitionObjective::default(),
            &mut crate::PartitionScratch::new(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            crate::SchedError::RecurrenceDoesNotFit { ref loop_name, min_ii: 6 }
                if loop_name == "too-tight"
        ));
    }

    #[test]
    fn capacity_spreads_recurrences_across_slow_clusters() {
        // Three 2-op int recurrences, II_slow = 2, 1 int FU ⇒ each slow
        // cluster holds exactly one recurrence (2 ops fill 2 slots).
        let config = hetero_config();
        let clocks =
            LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(4.0))
                .unwrap();
        let mut b = DdgBuilder::new("three-recs");
        for i in 0..3 {
            let x = b.op(format!("x{i}"), OpClass::IntArith);
            let y = b.op(format!("y{i}"), OpClass::IntArith);
            b.flow(x, y);
            b.flow_carried(y, x, 1);
        }
        let ddg = b.build().unwrap();
        let recs = condensation(&ddg).recurrences(&ddg);
        assert_eq!(recs.len(), 3);
        let pinned = pin(&ddg, &recs, &config, &clocks).unwrap();
        // Each recurrence stays whole…
        for i in 0..3 {
            assert_eq!(pinned[2 * i], pinned[2 * i + 1]);
        }
        // …and the three land in three different clusters (capacity).
        let homes: std::collections::HashSet<_> = (0..3).map(|i| pinned[2 * i].unwrap()).collect();
        assert_eq!(homes.len(), 3);
    }

    #[test]
    fn acyclic_graph_pins_nothing() {
        let config = hetero_config();
        let clocks =
            LoopClocks::select(&config, &FrequencyMenu::unrestricted(), Time::from_ns(2.0))
                .unwrap();
        let mut b = DdgBuilder::new("dag");
        let a = b.op("a", OpClass::IntArith);
        let c = b.op("b", OpClass::IntArith);
        b.flow(a, c);
        let ddg = b.build().unwrap();
        let recs = condensation(&ddg).recurrences(&ddg);
        let pinned = pin(&ddg, &recs, &config, &clocks).unwrap();
        assert!(pinned.iter().all(Option::is_none));
    }
}
