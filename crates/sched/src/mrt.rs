//! Modulo reservation tables, backed by u64-word bitsets.
//!
//! A modulo-scheduled resource is busy at local cycle `s` in *every*
//! iteration, so it occupies row `s mod II` of a reservation table with `II`
//! rows. Each cluster owns one table per functional-unit kind; the
//! interconnect owns one table for its buses.
//!
//! # Bitset layout
//!
//! Rows are bits. For a kind with `U` units at initiation interval `II`,
//! the table keeps `U` *unit row-sets* of `⌈II/64⌉` words each (bit `r` of
//! unit `u`'s set = unit `u` busy at row `r`) plus one *row-full summary*
//! word-set per kind (bit `r` set ⇔ **every** unit of the kind is busy at
//! row `r`):
//!
//! ```text
//! rows (II = 6, 2 int FUs)      0 1 2 3 4 5
//! unit 0 row-set                1 0 1 0 0 0   words[base + 0*wpr]
//! unit 1 row-set                1 0 0 0 1 0   words[base + 1*wpr]
//! row-full summary (Int)        1 0 0 0 0 0   full[kind*wpr]
//! ```
//!
//! With that layout the hot operations are single word ops:
//!
//! * [`ClusterMrt::is_free`] — one summary bit test;
//! * [`ClusterMrt::first_free_cycle`] — `trailing_zeros` over the negated
//!   summary words, scanned circularly from `start % II`;
//! * [`ClusterMrt::free_slots`] — a counter maintained by
//!   reserve/release, not an `O(II)` re-sum.
//!
//! The pre-bitset count-per-row implementation lives on as the
//! differential-testing oracle in `tests/mrt_differential.rs`, which pins
//! the bitset tables against it.

use vliw_ir::FuKind;
use vliw_machine::ClusterDesign;

/// The cluster FU kinds in [`kind_slot`] order.
pub(crate) const CLUSTER_KINDS: [FuKind; 3] = [FuKind::Int, FuKind::Fp, FuKind::Mem];

/// Dense slot index of a cluster FU kind (`Int`, `Fp`, `Mem`).
///
/// # Panics
///
/// Panics if `kind` is [`FuKind::Bus`] — bus transfers are interconnect
/// resources and must be reserved on a [`BusMrt`].
#[inline]
pub(crate) fn kind_slot(kind: FuKind) -> usize {
    match kind {
        FuKind::Int => 0,
        FuKind::Fp => 1,
        FuKind::Mem => 2,
        FuKind::Bus => bus_misuse(),
    }
}

/// Diagnosable rejection of [`FuKind::Bus`] in a cluster table: a cold,
/// never-inlined panic so the misuse (a copy node routed to a cluster
/// reservation table) is visible by name in any backtrace.
#[cold]
#[inline(never)]
fn bus_misuse() -> ! {
    panic!(
        "buses are not cluster resources: FuKind::Bus reached a ClusterMrt. \
         Bus transfers belong to the interconnect's BusMrt; a copy node was \
         routed to a cluster reservation table (scheduler bug)."
    );
}

const WORD_BITS: usize = 64;

/// Words needed for one row-set of `ii` rows.
#[inline]
fn words_per_rowset(ii: u64) -> usize {
    let rows = usize::try_from(ii).expect("II fits in memory");
    rows.div_ceil(WORD_BITS)
}

/// Mask of the row bits that exist in word `w` of an `ii`-row set.
#[inline]
fn valid_mask(ii: u64, w: usize) -> u64 {
    let rows = ii as usize;
    if (w + 1) * WORD_BITS <= rows {
        !0
    } else {
        (1u64 << (rows - w * WORD_BITS)) - 1
    }
}

/// First *free* row (zero bit) of `full`, scanning circularly from `row0`;
/// `None` when every row is full.
fn first_zero_row(full: &[u64], ii: u64, row0: usize) -> Option<usize> {
    let wpr = full.len();
    let w0 = row0 / WORD_BITS;
    // Segment [row0, ii): mask off bits below row0 in the first word.
    let m = !full[w0] & valid_mask(ii, w0) & (!0u64 << (row0 % WORD_BITS));
    if m != 0 {
        return Some(w0 * WORD_BITS + m.trailing_zeros() as usize);
    }
    for (w, &word) in full.iter().enumerate().skip(w0 + 1) {
        let m = !word & valid_mask(ii, w);
        if m != 0 {
            return Some(w * WORD_BITS + m.trailing_zeros() as usize);
        }
    }
    // Wrapped segment [0, row0).
    for (w, &word) in full.iter().enumerate().take(w0 + 1) {
        let mut m = !word & valid_mask(ii, w);
        if w == w0 {
            m &= (1u64 << (row0 % WORD_BITS)) - 1;
        }
        if m != 0 {
            return Some(w * WORD_BITS + m.trailing_zeros() as usize);
        }
    }
    let _ = wpr;
    None
}

/// Converts a free row found by [`first_zero_row`] into the first cycle
/// `>= start` landing on it.
#[inline]
fn row_to_cycle(row: usize, row0: usize, ii: u64, start: u64) -> u64 {
    let offset = if row >= row0 {
        (row - row0) as u64
    } else {
        ii - row0 as u64 + row as u64
    };
    start + offset
}

/// Per-cluster modulo reservation table (unit row-sets × FU kinds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMrt {
    ii: u64,
    design: ClusterDesign,
    /// Words per row-set (`⌈II/64⌉`).
    wpr: usize,
    /// Unit row-sets, kind-major then unit-major.
    words: Vec<u64>,
    /// Start of each kind's unit row-sets in `words`.
    kind_base: [usize; 3],
    /// Row-full summary, one row-set per kind.
    full: Vec<u64>,
    /// Maintained free-slot counters per kind.
    free: [u64; 3],
}

impl ClusterMrt {
    /// Creates an empty table for a cluster running at initiation interval
    /// `ii`.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    #[must_use]
    pub fn new(design: ClusterDesign, ii: u64) -> Self {
        let mut mrt = ClusterMrt {
            ii: 1,
            design,
            wpr: 0,
            words: Vec::new(),
            kind_base: [0; 3],
            full: Vec::new(),
            free: [0; 3],
        };
        mrt.reset(design, ii);
        mrt
    }

    /// Re-initialises the table in place for a (possibly different) design
    /// and initiation interval, clearing every reservation.
    ///
    /// Word storage is retained, so resetting to an `II` the table has seen
    /// before performs no heap allocation — the scheduling workspace resets
    /// its tables once per IMS run instead of constructing fresh ones.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn reset(&mut self, design: ClusterDesign, ii: u64) {
        assert!(ii > 0, "initiation interval must be positive");
        self.ii = ii;
        self.design = design;
        self.wpr = words_per_rowset(ii);
        let mut base = 0usize;
        for (k, kind) in CLUSTER_KINDS.into_iter().enumerate() {
            self.kind_base[k] = base;
            let units = usize::try_from(design.fu_count(kind)).expect("fu count fits");
            base += units * self.wpr;
            self.free[k] = u64::from(design.fu_count(kind)) * ii;
        }
        self.words.clear();
        self.words.resize(base, 0);
        self.full.clear();
        self.full.resize(3 * self.wpr, 0);
    }

    /// The table's initiation interval.
    #[must_use]
    pub fn ii(&self) -> u64 {
        self.ii
    }

    #[inline]
    fn full_words(&self, k: usize) -> &[u64] {
        &self.full[k * self.wpr..(k + 1) * self.wpr]
    }

    /// Whether a unit of `kind` is free at local cycle `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`FuKind::Bus`].
    #[must_use]
    pub fn is_free(&self, kind: FuKind, cycle: u64) -> bool {
        let k = kind_slot(kind);
        let row = (cycle % self.ii) as usize;
        self.full[k * self.wpr + row / WORD_BITS] & (1u64 << (row % WORD_BITS)) == 0
    }

    /// The first cycle `c >= start` with a free unit of `kind`, or `None`
    /// when every modulo row of the kind is full. Since rows repeat with
    /// period `II`, the search covers exactly the window
    /// `start..start + II` — a `trailing_zeros` scan over the negated
    /// row-full summary, not a per-cycle probe loop.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`FuKind::Bus`].
    #[must_use]
    pub fn first_free_cycle(&self, kind: FuKind, start: u64) -> Option<u64> {
        let k = kind_slot(kind);
        let row0 = (start % self.ii) as usize;
        first_zero_row(self.full_words(k), self.ii, row0)
            .map(|row| row_to_cycle(row, row0, self.ii, start))
    }

    /// Reserves a unit of `kind` at local cycle `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if no unit is free at that row (callers check
    /// [`ClusterMrt::is_free`] first) or if `kind` is [`FuKind::Bus`].
    pub fn reserve(&mut self, kind: FuKind, cycle: u64) {
        let k = kind_slot(kind);
        let row = (cycle % self.ii) as usize;
        let (w, bit) = (row / WORD_BITS, 1u64 << (row % WORD_BITS));
        let units = usize::try_from(self.design.fu_count(kind)).expect("fu count fits");
        let base = self.kind_base[k];
        let unit = (0..units)
            .find(|u| self.words[base + u * self.wpr + w] & bit == 0)
            .unwrap_or_else(|| panic!("reserving an occupied {kind} slot"));
        self.words[base + unit * self.wpr + w] |= bit;
        self.free[k] -= 1;
        if (0..units).all(|u| self.words[base + u * self.wpr + w] & bit != 0) {
            self.full[k * self.wpr + w] |= bit;
        }
    }

    /// Releases a previously reserved unit.
    ///
    /// # Panics
    ///
    /// Panics if nothing was reserved at that row, or if `kind` is
    /// [`FuKind::Bus`].
    pub fn release(&mut self, kind: FuKind, cycle: u64) {
        let k = kind_slot(kind);
        let row = (cycle % self.ii) as usize;
        let (w, bit) = (row / WORD_BITS, 1u64 << (row % WORD_BITS));
        let units = usize::try_from(self.design.fu_count(kind)).expect("fu count fits");
        let base = self.kind_base[k];
        let unit = (0..units)
            .find(|u| self.words[base + u * self.wpr + w] & bit != 0)
            .unwrap_or_else(|| panic!("releasing an empty {kind} slot"));
        self.words[base + unit * self.wpr + w] &= !bit;
        self.free[k] += 1;
        self.full[k * self.wpr + w] &= !bit;
    }

    /// Ops of `kind` that can still be placed (total free slot count) —
    /// a maintained counter, `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`FuKind::Bus`].
    #[must_use]
    pub fn free_slots(&self, kind: FuKind) -> u64 {
        self.free[kind_slot(kind)]
    }
}

/// The interconnect's modulo reservation table: `buses` transfers per row,
/// bitset-backed like [`ClusterMrt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusMrt {
    ii: u64,
    buses: u32,
    wpr: usize,
    /// Per-bus row-sets, bus-major.
    words: Vec<u64>,
    /// Row-full summary.
    full: Vec<u64>,
    /// Maintained free-slot counter.
    free: u64,
}

impl BusMrt {
    /// Creates an empty bus table.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0` or `buses == 0`.
    #[must_use]
    pub fn new(buses: u32, ii: u64) -> Self {
        let mut mrt = BusMrt {
            ii: 1,
            buses: 1,
            wpr: 0,
            words: Vec::new(),
            full: Vec::new(),
            free: 0,
        };
        mrt.reset(buses, ii);
        mrt
    }

    /// Re-initialises the table in place, clearing every reservation (see
    /// [`ClusterMrt::reset`]; word storage is likewise retained).
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0` or `buses == 0`.
    pub fn reset(&mut self, buses: u32, ii: u64) {
        assert!(ii > 0, "initiation interval must be positive");
        assert!(buses > 0, "at least one bus");
        self.ii = ii;
        self.buses = buses;
        self.wpr = words_per_rowset(ii);
        self.words.clear();
        self.words.resize(
            usize::try_from(buses).expect("bus count fits") * self.wpr,
            0,
        );
        self.full.clear();
        self.full.resize(self.wpr, 0);
        self.free = u64::from(buses) * ii;
    }

    /// The table's initiation interval.
    #[must_use]
    pub fn ii(&self) -> u64 {
        self.ii
    }

    /// Whether a bus is free at ICN-local cycle `cycle`.
    #[must_use]
    pub fn is_free(&self, cycle: u64) -> bool {
        let row = (cycle % self.ii) as usize;
        self.full[row / WORD_BITS] & (1u64 << (row % WORD_BITS)) == 0
    }

    /// The first cycle `c >= start` with a free bus, or `None` when every
    /// row is full (see [`ClusterMrt::first_free_cycle`]).
    #[must_use]
    pub fn first_free_cycle(&self, start: u64) -> Option<u64> {
        let row0 = (start % self.ii) as usize;
        first_zero_row(&self.full, self.ii, row0).map(|row| row_to_cycle(row, row0, self.ii, start))
    }

    /// Reserves a bus at ICN-local cycle `cycle`, returning the index of
    /// the lowest free bus at that row.
    ///
    /// # Panics
    ///
    /// Panics if all buses are busy at that row.
    pub fn reserve(&mut self, cycle: u64) -> u32 {
        let row = (cycle % self.ii) as usize;
        let (w, bit) = (row / WORD_BITS, 1u64 << (row % WORD_BITS));
        let buses = usize::try_from(self.buses).expect("bus count fits");
        let bus = (0..buses)
            .find(|b| self.words[b * self.wpr + w] & bit == 0)
            .expect("reserving an occupied bus slot");
        self.words[bus * self.wpr + w] |= bit;
        self.free -= 1;
        if (0..buses).all(|b| self.words[b * self.wpr + w] & bit != 0) {
            self.full[w] |= bit;
        }
        u32::try_from(bus).expect("bus index fits u32")
    }

    /// Releases a previously reserved bus slot.
    ///
    /// # Panics
    ///
    /// Panics if nothing was reserved at that row.
    pub fn release(&mut self, cycle: u64) {
        let row = (cycle % self.ii) as usize;
        let (w, bit) = (row / WORD_BITS, 1u64 << (row % WORD_BITS));
        let buses = usize::try_from(self.buses).expect("bus count fits");
        let bus = (0..buses)
            .find(|b| self.words[b * self.wpr + w] & bit != 0)
            .expect("releasing an empty bus slot");
        self.words[bus * self.wpr + w] &= !bit;
        self.free += 1;
        self.full[w] &= !bit;
    }

    /// Free bus-slot count — a maintained counter, `O(1)`.
    #[must_use]
    pub fn free_slots(&self) -> u64 {
        self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulo_conflicts() {
        let mut mrt = ClusterMrt::new(ClusterDesign::PAPER, 3);
        assert!(mrt.is_free(FuKind::Int, 1));
        mrt.reserve(FuKind::Int, 1);
        // Cycle 4 maps to the same row (4 mod 3 = 1).
        assert!(!mrt.is_free(FuKind::Int, 4));
        // A different kind is unaffected.
        assert!(mrt.is_free(FuKind::Fp, 4));
        mrt.release(FuKind::Int, 4);
        assert!(mrt.is_free(FuKind::Int, 1));
    }

    #[test]
    fn capacity_per_row_follows_design() {
        let design = ClusterDesign {
            int_fus: 2,
            fp_fus: 1,
            mem_ports: 1,
            registers: 16,
        };
        let mut mrt = ClusterMrt::new(design, 2);
        mrt.reserve(FuKind::Int, 0);
        assert!(mrt.is_free(FuKind::Int, 0), "two int FUs");
        mrt.reserve(FuKind::Int, 0);
        assert!(!mrt.is_free(FuKind::Int, 0));
        assert_eq!(mrt.free_slots(FuKind::Int), 2); // row 1 still empty
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn double_reserve_panics() {
        let mut mrt = ClusterMrt::new(ClusterDesign::PAPER, 2);
        mrt.reserve(FuKind::Mem, 0);
        mrt.reserve(FuKind::Mem, 2);
    }

    #[test]
    fn bus_mrt_round_trip() {
        let mut bus = BusMrt::new(2, 4);
        assert_eq!(bus.reserve(1), 0);
        assert_eq!(bus.reserve(5), 1); // same row, second bus
        assert!(!bus.is_free(9));
        bus.release(1);
        assert!(bus.is_free(9));
    }

    #[test]
    #[should_panic(expected = "buses are not cluster resources")]
    fn bus_kind_in_cluster_mrt_panics() {
        let mrt = ClusterMrt::new(ClusterDesign::PAPER, 2);
        let _ = mrt.is_free(FuKind::Bus, 0);
    }

    #[test]
    fn first_free_cycle_wraps_the_window() {
        // II = 3, one mem port: occupy rows 1 and 2; starting at cycle 7
        // (row 1), the first free cycle is 9 — row 0 reached by wrapping.
        let design = ClusterDesign {
            int_fus: 1,
            fp_fus: 1,
            mem_ports: 1,
            registers: 16,
        };
        let mut mrt = ClusterMrt::new(design, 3);
        mrt.reserve(FuKind::Mem, 1);
        mrt.reserve(FuKind::Mem, 2);
        assert_eq!(mrt.first_free_cycle(FuKind::Mem, 7), Some(9));
        mrt.reserve(FuKind::Mem, 9);
        assert_eq!(mrt.first_free_cycle(FuKind::Mem, 7), None);
        // The other kinds are untouched.
        assert_eq!(mrt.first_free_cycle(FuKind::Int, 7), Some(7));
    }

    #[test]
    fn first_free_cycle_crosses_word_boundaries() {
        // II = 130 spans three words; fill rows 0..=128 of the single fp
        // unit so the first free row (129) sits in word 3.
        let design = ClusterDesign {
            int_fus: 1,
            fp_fus: 1,
            mem_ports: 1,
            registers: 16,
        };
        let mut mrt = ClusterMrt::new(design, 130);
        for c in 0..=128 {
            mrt.reserve(FuKind::Fp, c);
        }
        assert_eq!(mrt.first_free_cycle(FuKind::Fp, 0), Some(129));
        assert_eq!(mrt.first_free_cycle(FuKind::Fp, 130), Some(259));
        assert_eq!(mrt.free_slots(FuKind::Fp), 1);
    }

    #[test]
    fn free_slots_counter_tracks_reserve_release() {
        let mut mrt = ClusterMrt::new(ClusterDesign::PAPER, 4);
        let cap = u64::from(ClusterDesign::PAPER.fu_count(FuKind::Int)) * 4;
        assert_eq!(mrt.free_slots(FuKind::Int), cap);
        mrt.reserve(FuKind::Int, 0);
        mrt.reserve(FuKind::Int, 1);
        assert_eq!(mrt.free_slots(FuKind::Int), cap - 2);
        mrt.release(FuKind::Int, 1);
        assert_eq!(mrt.free_slots(FuKind::Int), cap - 1);
    }
}
