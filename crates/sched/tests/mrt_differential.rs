//! Differential proptests for the bitset modulo reservation tables.
//!
//! The bitset [`ClusterMrt`]/[`BusMrt`] are pinned against the
//! count-per-row oracles [`ReferenceClusterMrt`]/[`ReferenceBusMrt`]
//! defined below (the pre-bitset implementation, kept only here):
//! random *legal* `reserve`/`release` sequences are applied to both, and
//! after every step the observable surface — `is_free`, `first_free_cycle`
//! and `free_slots` — must agree exactly. II values are drawn across the
//! 64-bit word boundary (1..=140) so multi-word row-sets, head/tail valid
//! masks and the circular first-zero search all get exercised.
//!
//! One deliberate non-goal: `BusMrt::reserve` returns the *lowest free
//! bus bit* while `ReferenceBusMrt::reserve` returns the pre-reserve row
//! count. After a release-then-re-reserve on the same cycle those ids can
//! differ. The scheduler discards the return value (`ims.rs` only cares
//! *that* a bus slot exists), so the tests here compare occupancy, never
//! reserve return values.

use proptest::collection::vec;
use proptest::prelude::*;
use vliw_ir::FuKind;
use vliw_machine::ClusterDesign;
use vliw_sched::{BusMrt, ClusterMrt};

const KINDS: [FuKind; 3] = [FuKind::Int, FuKind::Fp, FuKind::Mem];

/// Dense slot index of a cluster FU kind, as the bitset tables use it.
fn kind_slot(kind: FuKind) -> usize {
    match kind {
        FuKind::Int => 0,
        FuKind::Fp => 1,
        FuKind::Mem => 2,
        FuKind::Bus => panic!("buses are not cluster resources"),
    }
}

// --------------------------------------------------------------------------
// Reference (count-per-row) implementations — the differential oracles.
// --------------------------------------------------------------------------

/// The pre-bitset count-per-row cluster table, retained **only** as the
/// differential-testing oracle for [`ClusterMrt`] (see the proptests
/// below). Semantically identical, `O(II)` `free_slots`, per-cycle window
/// probing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceClusterMrt {
    ii: u64,
    design: ClusterDesign,
    rows: [Vec<u32>; 3],
}

impl ReferenceClusterMrt {
    /// Creates an empty reference table.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    #[must_use]
    pub fn new(design: ClusterDesign, ii: u64) -> Self {
        assert!(ii > 0, "initiation interval must be positive");
        let n = usize::try_from(ii).expect("II fits in memory");
        ReferenceClusterMrt {
            ii,
            design,
            rows: [vec![0; n], vec![0; n], vec![0; n]],
        }
    }

    /// Whether a unit of `kind` is free at local cycle `cycle`.
    #[must_use]
    pub fn is_free(&self, kind: FuKind, cycle: u64) -> bool {
        let row = (cycle % self.ii) as usize;
        self.rows[kind_slot(kind)][row] < self.design.fu_count(kind)
    }

    /// The first cycle `c >= start` with a free unit, by per-cycle probing.
    #[must_use]
    pub fn first_free_cycle(&self, kind: FuKind, start: u64) -> Option<u64> {
        (start..start + self.ii).find(|&c| self.is_free(kind, c))
    }

    /// Reserves a unit of `kind` at local cycle `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if no unit is free at that row.
    pub fn reserve(&mut self, kind: FuKind, cycle: u64) {
        assert!(
            self.is_free(kind, cycle),
            "reserving an occupied {kind} slot"
        );
        let ii = self.ii;
        self.rows[kind_slot(kind)][(cycle % ii) as usize] += 1;
    }

    /// Releases a previously reserved unit.
    ///
    /// # Panics
    ///
    /// Panics if nothing was reserved at that row.
    pub fn release(&mut self, kind: FuKind, cycle: u64) {
        let ii = self.ii;
        let row = &mut self.rows[kind_slot(kind)][(cycle % ii) as usize];
        assert!(*row > 0, "releasing an empty {kind} slot");
        *row -= 1;
    }

    /// Free slot count, by `O(II)` re-sum.
    #[must_use]
    pub fn free_slots(&self, kind: FuKind) -> u64 {
        let cap = u64::from(self.design.fu_count(kind)) * self.ii;
        let used: u64 = self.rows[kind_slot(kind)]
            .iter()
            .map(|&u| u64::from(u))
            .sum();
        cap - used
    }
}

/// The pre-bitset count-per-row bus table, retained **only** as the
/// differential-testing oracle for [`BusMrt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceBusMrt {
    ii: u64,
    buses: u32,
    rows: Vec<u32>,
}

impl ReferenceBusMrt {
    /// Creates an empty reference bus table.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0` or `buses == 0`.
    #[must_use]
    pub fn new(buses: u32, ii: u64) -> Self {
        assert!(ii > 0, "initiation interval must be positive");
        assert!(buses > 0, "at least one bus");
        ReferenceBusMrt {
            ii,
            buses,
            rows: vec![0; usize::try_from(ii).expect("II fits in memory")],
        }
    }

    /// Whether a bus is free at ICN-local cycle `cycle`.
    #[must_use]
    pub fn is_free(&self, cycle: u64) -> bool {
        self.rows[(cycle % self.ii) as usize] < self.buses
    }

    /// The first cycle `c >= start` with a free bus, by per-cycle probing.
    #[must_use]
    pub fn first_free_cycle(&self, start: u64) -> Option<u64> {
        (start..start + self.ii).find(|&c| self.is_free(c))
    }

    /// Reserves a bus at ICN-local cycle `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if all buses are busy at that row.
    pub fn reserve(&mut self, cycle: u64) -> u32 {
        assert!(self.is_free(cycle), "reserving an occupied bus slot");
        let row = &mut self.rows[(cycle % self.ii) as usize];
        let bus = *row;
        *row += 1;
        bus
    }

    /// Releases a previously reserved bus slot.
    ///
    /// # Panics
    ///
    /// Panics if nothing was reserved at that row.
    pub fn release(&mut self, cycle: u64) {
        let row = &mut self.rows[(cycle % self.ii) as usize];
        assert!(*row > 0, "releasing an empty bus slot");
        *row -= 1;
    }

    /// Free slot count, by `O(II)` re-sum.
    #[must_use]
    pub fn free_slots(&self) -> u64 {
        let used: u64 = self.rows.iter().map(|&u| u64::from(u)).sum();
        u64::from(self.buses) * self.ii - used
    }
}

#[test]
fn bus_first_free_cycle_matches_reference() {
    let mut bus = BusMrt::new(1, 5);
    let mut oracle = ReferenceBusMrt::new(1, 5);
    for c in [0, 2, 3] {
        bus.reserve(c);
        oracle.reserve(c);
    }
    for start in 0..10 {
        assert_eq!(bus.first_free_cycle(start), oracle.first_free_cycle(start));
    }
    assert_eq!(bus.free_slots(), oracle.free_slots());
}

/// One step of a differential run, decoded from raw proptest integers so
/// shrinking stays effective (every raw tuple maps to *some* legal step).
///
/// `action % 3`: 0 = reserve at `cycle` (skipped when the row is full),
/// 1 = release a previously reserved slot (skipped when none exist),
/// 2 = reserve at the first free cycle from `cycle` (the scheduler's
/// window-search pattern; skipped when the table is full).
type RawStep = (u8, u8, u64);

fn check_cluster_agreement(
    bit: &ClusterMrt,
    reference: &ReferenceClusterMrt,
    ii: u64,
    probe_cycle: u64,
) {
    for kind in KINDS {
        assert_eq!(
            bit.free_slots(kind),
            reference.free_slots(kind),
            "free_slots({kind:?}) diverged"
        );
        // Probe the whole window plus the proptest-chosen far cycle, so
        // modulo wrapping of out-of-window cycles is covered too.
        for c in (0..ii).chain([probe_cycle]) {
            assert_eq!(
                bit.is_free(kind, c),
                reference.is_free(kind, c),
                "is_free({kind:?}, {c}) diverged at II {ii}"
            );
            assert_eq!(
                bit.first_free_cycle(kind, c),
                reference.first_free_cycle(kind, c),
                "first_free_cycle({kind:?}, {c}) diverged at II {ii}"
            );
        }
    }
}

fn run_cluster_round(bit: &mut ClusterMrt, design: ClusterDesign, ii: u64, steps: &[RawStep]) {
    let mut reference = ReferenceClusterMrt::new(design, ii);
    // Every slot we currently hold, so releases are always legal.
    let mut held: Vec<(FuKind, u64)> = Vec::new();
    for &(action, kind_idx, cycle) in steps {
        let kind = KINDS[usize::from(kind_idx) % KINDS.len()];
        match action % 3 {
            0 => {
                if bit.is_free(kind, cycle) {
                    bit.reserve(kind, cycle);
                    reference.reserve(kind, cycle);
                    held.push((kind, cycle));
                }
            }
            1 => {
                if !held.is_empty() {
                    let (k, c) = held.swap_remove(cycle as usize % held.len());
                    bit.release(k, c);
                    reference.release(k, c);
                }
            }
            _ => {
                if let Some(free) = bit.first_free_cycle(kind, cycle) {
                    bit.reserve(kind, free);
                    reference.reserve(kind, free);
                    held.push((kind, free));
                }
            }
        }
        check_cluster_agreement(bit, &reference, ii, cycle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cluster tables agree with the counting oracle under random legal
    /// sequences, across unit mixes and word-boundary-crossing IIs.
    #[test]
    fn cluster_mrt_matches_reference(
        int_fus in 1u32..4,
        fp_fus in 1u32..3,
        mem_ports in 1u32..3,
        ii in 1u64..140,
        steps in vec((0u8..6, 0u8..3, 0u64..512), 1..80),
    ) {
        let design = ClusterDesign { int_fus, fp_fus, mem_ports, registers: 32 };
        let mut bit = ClusterMrt::new(design, ii);
        run_cluster_round(&mut bit, design, ii, &steps);
    }

    /// `reset` fully reinitialises retained storage: a table recycled
    /// across (design, II) changes behaves like a freshly built one.
    #[test]
    fn cluster_mrt_reset_reuse_matches_reference(
        rounds in vec(
            (1u32..3, 1u32..3, 1u32..3, 1u64..140, vec((0u8..6, 0u8..3, 0u64..512), 1..40)),
            1..4,
        ),
    ) {
        let mut bit = ClusterMrt::new(
            ClusterDesign { int_fus: 1, fp_fus: 1, mem_ports: 1, registers: 32 },
            1,
        );
        for (int_fus, fp_fus, mem_ports, ii, steps) in rounds {
            let design = ClusterDesign { int_fus, fp_fus, mem_ports, registers: 32 };
            bit.reset(design, ii);
            run_cluster_round(&mut bit, design, ii, &steps);
        }
    }

    /// The interconnect table agrees with its counting oracle. Reserve
    /// *return values* are deliberately not compared (see module docs).
    #[test]
    fn bus_mrt_matches_reference(
        buses in 1u32..5,
        ii in 1u64..140,
        steps in vec((0u8..6, 0u64..512), 1..80),
    ) {
        let mut bit = BusMrt::new(buses, ii);
        let mut reference = ReferenceBusMrt::new(buses, ii);
        let mut held: Vec<u64> = Vec::new();
        for (action, cycle) in steps {
            match action % 3 {
                0 => {
                    if bit.is_free(cycle) {
                        let _ = bit.reserve(cycle);
                        let _ = reference.reserve(cycle);
                        held.push(cycle);
                    }
                }
                1 => {
                    if !held.is_empty() {
                        let c = held.swap_remove(cycle as usize % held.len());
                        bit.release(c);
                        reference.release(c);
                    }
                }
                _ => {
                    if let Some(free) = bit.first_free_cycle(cycle) {
                        let _ = bit.reserve(free);
                        let _ = reference.reserve(free);
                        held.push(free);
                    }
                }
            }
            prop_assert_eq!(bit.free_slots(), reference.free_slots());
            for c in (0..ii).chain([cycle]) {
                prop_assert_eq!(bit.is_free(c), reference.is_free(c), "is_free({})", c);
                prop_assert_eq!(
                    bit.first_free_cycle(c),
                    reference.first_free_cycle(c),
                    "first_free_cycle({})",
                    c
                );
            }
        }
    }
}
