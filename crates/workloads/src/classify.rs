//! Loop classification by binding constraint (the paper's Table 2 bands).

use vliw_ir::{Ddg, FuKind, Loop};
use vliw_machine::MachineDesign;

/// Which constraint binds a loop's initiation interval on a homogeneous
/// machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopClass {
    /// `recMII < resMII`: resources bind.
    Resource,
    /// `resMII ≤ recMII < 1.3 · resMII`: nominally recurrence constrained,
    /// but a heterogeneous configuration (which shrinks slot capacity)
    /// easily flips it to resource constrained.
    Borderline,
    /// `recMII ≥ 1.3 · resMII`: recurrences clearly bind.
    Recurrence,
}

impl LoopClass {
    /// All classes, in Table 2 column order.
    pub const ALL: [LoopClass; 3] = [
        LoopClass::Resource,
        LoopClass::Borderline,
        LoopClass::Recurrence,
    ];

    /// Table 2 column header for this class.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LoopClass::Resource => "recMII<resMII",
            LoopClass::Borderline => "resMII<=recMII<1.3resMII",
            LoopClass::Recurrence => "1.3resMII<=recMII",
        }
    }
}

/// Machine-wide `resMII` of a loop on a homogeneous machine: the busiest
/// functional-unit kind's `ceil(uses / units)`.
///
/// Always at least 1 (a loop takes a cycle even if empty).
#[must_use]
pub fn res_mii_machine(ddg: &Ddg, design: MachineDesign) -> u32 {
    let mut worst = 1u32;
    for kind in FuKind::CLUSTER_KINDS {
        let uses = ddg.count_fu(kind) as u32;
        if uses == 0 {
            continue;
        }
        let units = design.total_fu_count(kind);
        assert!(units > 0, "workload uses {kind} but the machine has none");
        worst = worst.max(uses.div_ceil(units));
    }
    worst
}

/// Classifies `ddg` per the paper's Table 2 bands.
///
/// # Panics
///
/// Panics if the DDG has a zero-distance cycle.
#[must_use]
pub fn classify(ddg: &Ddg, design: MachineDesign) -> LoopClass {
    let rec = ddg.rec_mii() as f64;
    let res = f64::from(res_mii_machine(ddg, design));
    if rec < res {
        LoopClass::Resource
    } else if rec < 1.3 * res {
        LoopClass::Borderline
    } else {
        LoopClass::Recurrence
    }
}

/// Table 2's tally: the execution-time weight of `loops` in each
/// constraint class, in [`LoopClass::ALL`] (declaration) order. Weights
/// are added in loop order.
///
/// # Panics
///
/// Panics if a DDG has a zero-distance cycle.
#[must_use]
pub fn class_shares(loops: &[Loop], design: MachineDesign) -> [f64; 3] {
    let mut shares = [0.0f64; 3];
    for l in loops {
        shares[classify(l.ddg(), design) as usize] += l.weight();
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{DdgBuilder, OpClass};

    fn design() -> MachineDesign {
        MachineDesign::paper_machine(1)
    }

    #[test]
    fn parallel_ops_are_resource_constrained() {
        let mut b = DdgBuilder::new("par");
        for i in 0..12 {
            b.op(format!("n{i}"), OpClass::FpArith);
        }
        let ddg = b.build().unwrap();
        assert_eq!(res_mii_machine(&ddg, design()), 3); // 12 fp / 4 FUs
        assert_eq!(classify(&ddg, design()), LoopClass::Resource);
    }

    #[test]
    fn long_recurrence_is_recurrence_constrained() {
        let mut b = DdgBuilder::new("rec");
        let a = b.op("acc", OpClass::FpMul); // latency 6
        b.flow_carried(a, a, 1);
        let ddg = b.build().unwrap();
        assert_eq!(classify(&ddg, design()), LoopClass::Recurrence);
    }

    #[test]
    fn borderline_band() {
        // resMII = 4 (16 int ops / 4 FUs); recurrence of latency 5:
        // 4 ≤ 5 < 5.2 ⇒ borderline.
        let mut b = DdgBuilder::new("border");
        for i in 0..16 {
            b.op(format!("n{i}"), OpClass::IntArith);
        }
        let x = b.op("x", OpClass::IntArith);
        b.dep_full(x, x, 5, 1, vliw_ir::DepKind::Flow);
        let ddg = b.build().unwrap();
        assert_eq!(res_mii_machine(&ddg, design()), 5); // 17 int ops → ceil(17/4)=5
                                                        // Whoops: adding x raises resMII to 5; 5 ≤ 5 < 6.5 ⇒ borderline still.
        assert_eq!(classify(&ddg, design()), LoopClass::Borderline);
    }

    #[test]
    fn empty_loop_counts_as_borderline_floor() {
        // recMII 0 < resMII 1 ⇒ resource constrained by convention.
        let ddg = DdgBuilder::new("empty").build().unwrap();
        assert_eq!(classify(&ddg, design()), LoopClass::Resource);
    }

    #[test]
    fn all_lists_the_classes_in_declaration_order() {
        for (i, class) in LoopClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i, "class_shares indexes by discriminant");
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            LoopClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 3);
    }
}
