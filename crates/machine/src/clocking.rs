//! Discrete frequency synthesis: which frequencies the clock-generation
//! network (Figure 2 of the paper) can deliver to a component.
//!
//! The MCD design derives every domain clock from one generator clock with
//! multipliers and dividers, so only a limited set of frequencies exists.
//! For a loop with initiation time `IT`, a component whose voltage allows a
//! maximum frequency `f_max` must pick a supported frequency `f ≤ f_max`
//! such that `II = IT · f` is an integer — otherwise iterations of that
//! component would drift against the rest of the machine and the `IT` has
//! to be increased ("synchronization problems", §4). [`FrequencyMenu`]
//! answers exactly that query.

use crate::time::Time;

/// How many distinct frequencies the clock network supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MenuKind {
    /// Any frequency at all (the paper's "any freq" idealisation).
    Unrestricted,
    /// `n` divider-chain frequencies, `f_k = f_top / k` for `k = 1..=n`
    /// (cycle times are harmonic multiples of the generator period, so
    /// different domains can share initiation times — the paper's "support
    /// frequencies that allow for synchronization").
    Uniform(u32),
}

/// The set of cycle times a component may run at.
///
/// # Example
///
/// ```
/// use vliw_machine::{FrequencyMenu, Time};
///
/// // Unrestricted: a component capped at 1 ns cycles synchronises with any
/// // IT by running at exactly II / IT.
/// let menu = FrequencyMenu::unrestricted();
/// let it = Time::from_ns(3.5);
/// assert_eq!(menu.available_ii(Time::from_ns(1.0), it), Some(3));
///
/// // A 4-frequency divider menu (cycle times 0.5/1.0/1.5/2.0 ns) cannot
/// // always synchronise.
/// let menu4 = FrequencyMenu::uniform(4);
/// assert_eq!(menu4.available_ii(Time::from_ns(1.0), Time::from_ns(3.0)), Some(3));
/// assert_eq!(menu4.available_ii(Time::from_ns(1.0), Time::from_ns(3.7)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FrequencyMenu {
    /// Sorted ascending cycle times; `None` means unrestricted.
    cycle_times: Option<Vec<Time>>,
}

impl FrequencyMenu {
    /// The fastest frequency any menu supports: 2 GHz (double the reference
    /// clock), comfortably above the fastest cluster configuration the
    /// paper explores (0.9 ns ⇒ ~1.11 GHz).
    pub const TOP_FREQ_GHZ: f64 = 2.0;

    /// A menu supporting every frequency.
    #[must_use]
    pub fn unrestricted() -> Self {
        FrequencyMenu { cycle_times: None }
    }

    /// A harmonic menu of `n` frequencies with cycle times `k · (2/n) ns`
    /// for `k = 1..=n` (Figure 7 uses n ∈ {16, 8, 4}; n = 4 yields
    /// 0.5/1.0/1.5/2.0 ns).
    ///
    /// Harmonic cycle times are what a multiplier/divider clock network
    /// actually produces, and they are what lets different domains agree
    /// on an initiation time: an `IT` divisible by a slow domain''s cycle
    /// is automatically divisible by the faster harmonics below it.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn uniform(n: u32) -> Self {
        assert!(n > 0, "a frequency menu needs at least one frequency");
        // n harmonic cycle times spanning (0, 2 ns]: a denser menu refines
        // the grid rather than extending the range.
        let base = Time::from_ns(2.0 / f64::from(n));
        let cts: Vec<Time> = (1..=u64::from(n)).map(|k| base * k).collect();
        FrequencyMenu {
            cycle_times: Some(cts),
        }
    }

    /// Builds a menu from the given [`MenuKind`].
    #[must_use]
    pub fn from_kind(kind: MenuKind) -> Self {
        match kind {
            MenuKind::Unrestricted => Self::unrestricted(),
            MenuKind::Uniform(n) => Self::uniform(n),
        }
    }

    /// Number of supported frequencies, or `None` when unrestricted.
    #[must_use]
    pub fn len(&self) -> Option<usize> {
        self.cycle_times.as_ref().map(Vec::len)
    }

    /// Whether the menu supports no frequency at all (never true for menus
    /// built with the public constructors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cycle_times.as_ref().is_some_and(Vec::is_empty)
    }

    /// The largest initiation interval (i.e. fastest legal frequency) for a
    /// component whose maximum frequency corresponds to `min_cycle`, at
    /// initiation time `it`.
    ///
    /// Returns `None` when no supported frequency both respects the
    /// component's speed limit and divides `it` evenly — the caller must
    /// then increase the `IT` (paper §4: "we increase the IT due to
    /// synchronization problems").
    ///
    /// # Panics
    ///
    /// Panics if `min_cycle` is zero.
    #[must_use]
    pub fn available_ii(&self, min_cycle: Time, it: Time) -> Option<u64> {
        assert!(
            !min_cycle.is_zero(),
            "component cycle time must be positive"
        );
        match &self.cycle_times {
            None => {
                // Any frequency: run at exactly II / IT where II is the
                // most iterations that fit, i.e. f = II/IT ≤ 1/min_cycle.
                let ii = it.div_floor(min_cycle);
                (ii > 0).then_some(ii)
            }
            Some(cts) => cts
                .iter()
                .find(|&&ct| ct >= min_cycle && it.is_multiple_of(ct))
                .map(|&ct| it.div_floor(ct)),
        }
    }

    /// The supported cycle times this menu could clock a component at,
    /// given its `min_cycle` speed limit (unrestricted menus return `None`).
    #[must_use]
    pub fn cycle_times_at_least(&self, min_cycle: Time) -> Option<Vec<Time>> {
        self.cycle_times
            .as_ref()
            .map(|cts| cts.iter().copied().filter(|&ct| ct >= min_cycle).collect())
    }
}

impl Default for FrequencyMenu {
    fn default() -> Self {
        Self::unrestricted()
    }
}

/// The exact cycle time, in nanoseconds, a component effectively runs at
/// when it executes `ii` cycles per initiation time `it`.
#[must_use]
pub fn effective_cycle_ns(it: Time, ii: u64) -> f64 {
    assert!(ii > 0, "II must be positive");
    it.as_ns() / ii as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrestricted_always_synchronises() {
        let m = FrequencyMenu::unrestricted();
        assert_eq!(m.len(), None);
        assert!(!m.is_empty());
        // IT = 3.333 ns with a 1 ns component ⇒ II = 3 (Figure 4's table).
        assert_eq!(
            m.available_ii(Time::from_ns(1.0), Time::from_ns(3.333)),
            Some(3)
        );
        // IT = 3.333 ns with a 1.667 ns component: floor(3333000/1667000) = 1.
        assert_eq!(
            m.available_ii(Time::from_ns(1.667), Time::from_ns(3.333)),
            Some(1)
        );
    }

    #[test]
    fn figure4_table_iis() {
        // Paper Figure 4's resMIT table: C1 at 1 ns, C2 at 1.67 ns.
        let m = FrequencyMenu::unrestricted();
        let c1 = Time::from_ns(1.0);
        let c2 = Time::from_ns(1.67);
        let cases = [
            (1.0, Some(1), None),
            (1.67, Some(1), Some(1)),
            (2.0, Some(2), Some(1)),
            (3.0, Some(3), Some(1)),
            (3.34, Some(3), Some(2)),
        ];
        for (it_ns, ii1, ii2) in cases {
            let it = Time::from_ns(it_ns);
            assert_eq!(m.available_ii(c1, it), ii1, "C1 at IT={it_ns}");
            assert_eq!(m.available_ii(c2, it), ii2, "C2 at IT={it_ns}");
        }
    }

    #[test]
    fn uniform_menu_frequencies() {
        let m = FrequencyMenu::uniform(4);
        assert_eq!(m.len(), Some(4));
        let cts = m.cycle_times_at_least(Time::from_fs(1)).unwrap();
        // Divider chain off a 2 GHz generator: 0.5, 1.0, 1.5, 2.0 ns.
        assert_eq!(cts.len(), 4);
        assert_eq!(cts[0], Time::from_ns(0.5));
        assert_eq!(cts[1], Time::from_ns(1.0));
        assert_eq!(cts[2], Time::from_ns(1.5));
        assert_eq!(cts[3], Time::from_ns(2.0));
    }

    #[test]
    fn menu_respects_speed_limit() {
        let m = FrequencyMenu::uniform(4);
        // Component limited to 1.2 ns cycles may not use the 1.0 ns entry;
        // eligible cts ≥ 1.2 dividing 4.5 ns: 1.5 ns ⇒ II = 3.
        let ii = m.available_ii(Time::from_ns(1.2), Time::from_ns(4.5));
        assert_eq!(ii, Some(3));
    }

    #[test]
    fn menu_fails_on_nondivisible_it() {
        let m = FrequencyMenu::uniform(4);
        assert_eq!(m.available_ii(Time::from_ns(1.0), Time::from_ns(3.7)), None);
    }

    #[test]
    fn menu_prefers_fastest_eligible_frequency() {
        let m = FrequencyMenu::uniform(8); // cycle times 0.5·k ns, k = 1..=8
        let ii = m.available_ii(Time::from_ns(0.9), Time::from_ns(4.0));
        // Eligible and dividing 4.0 ns: 1.0 (II 4), 2.0 (II 2), 4.0 (II 1) →
        // fastest is 1.0 ns.
        assert_eq!(ii, Some(4));
    }

    #[test]
    fn denser_menus_are_no_worse() {
        let coarse = FrequencyMenu::uniform(4);
        let fine = FrequencyMenu::uniform(16);
        let min_cycle = Time::from_ns(1.0);
        for it_fs in (2_000_000..8_000_000u64).step_by(250_000) {
            let it = Time::from_fs(it_fs);
            let c = coarse.available_ii(min_cycle, it);
            let f = fine.available_ii(min_cycle, it);
            if let Some(ci) = c {
                let fi = f.expect("16-freq menu contains the 4-freq menu");
                assert!(fi >= ci, "at IT={it}: fine {fi} < coarse {ci}");
            }
        }
    }

    #[test]
    fn effective_cycle() {
        assert!((effective_cycle_ns(Time::from_ns(3.5), 3) - 3.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one frequency")]
    fn zero_sized_menu_panics() {
        let _ = FrequencyMenu::uniform(0);
    }
}
