//! The [`Evaluator`] abstraction: what the strategies call to score a
//! candidate, extended with the two scaling hooks the engine understands
//! — successive-halving **racing** (a cheap screening measurement gates
//! promotion to the full measurement) and **warm starts** (persisted
//! evaluations seed the archive and replace re-measurement).
//!
//! A plain closure `Fn(&P, &Executor) -> Option<Objectives>` is an
//! [`Evaluator`] via the blanket impl (full measurement only, no
//! screening, no warm entries), so every pre-existing call site keeps
//! working unchanged. [`ScaledEvaluator`] composes a full-measurement
//! closure with a screening closure, the racing switch and a warm-entry
//! table without requiring a hand-written trait impl.
//!
//! # Equivalence contract
//!
//! Racing never lets a screening result into the archive: screened
//! losers are simply *not measured this batch* (they return `None` and
//! stay un-memoised), while survivors go through the ordinary
//! full-measurement path. Combined with the engine's deterministic
//! index-order sweep of leftover budget, a budget of at least the space
//! size still reaches full coverage — so the final frontier is
//! *identical* to the non-racing frontier, a property the differential
//! tests pin per strategy. Under a partial budget racing is a heuristic
//! reallocation of measurements, not an equivalence.

use vliw_exec::Executor;

use crate::space::Objectives;

/// Smallest fresh-candidate batch racing engages on. Below this the
/// batch is fully measured — screening one or two candidates saves
/// nothing and single-candidate batches (hill-climb starts, annealing
/// proposals) must stay exact.
pub(crate) const MIN_BATCH: usize = 4;

/// Halving factor: `ceil(n / ETA)` screened candidates survive each rung.
const ETA: u64 = 2;

/// Hard cap on survivors promoted per rung for a run of
/// `effective_budget` evaluations: a quarter of it (at least 1), so one
/// oversized batch cannot swallow the whole run.
pub(crate) fn rung_cap(effective_budget: u64) -> u64 {
    (effective_budget / 4).max(1)
}

/// Survivors of a rung over `fresh` screened candidates:
/// `min(ceil(fresh / ETA), max_rung)`, at least 1.
pub(crate) fn survivors(fresh: usize, max_rung: u64) -> usize {
    let halved = (fresh as u64).div_ceil(ETA).max(1);
    usize::try_from(halved.min(max_rung)).unwrap_or(fresh)
}

/// Scores candidates for the strategies.
///
/// Implementations must be deterministic: the same point yields the
/// same objectives on every call, worker count and machine. `None`
/// means the candidate is infeasible (also deterministic).
pub trait Evaluator<P>: Sync {
    /// The full-fidelity measurement. This is the only method whose
    /// results reach the archive, memo table and convergence trace.
    fn evaluate(&self, point: &P, exec: &Executor) -> Option<Objectives>;

    /// The cheap screening measurement racing ranks by (defaults to the
    /// full measurement, which makes racing pointless but correct).
    /// Screening results never reach the archive; they only order
    /// candidates within a rung.
    fn screen(&self, point: &P, exec: &Executor) -> Option<Objectives> {
        self.evaluate(point, exec)
    }

    /// Whether batches race (screen, then promote the best of each
    /// rung), or `false` to measure every candidate fully.
    fn racing(&self) -> bool {
        false
    }

    /// Persisted evaluations to warm-start from, as `(canonical index,
    /// result)` pairs sorted by index. Warm entries pre-seed the Pareto
    /// archive before the first strategy step and replace the
    /// [`evaluate`](Evaluator::evaluate) call when the walk first
    /// touches that index — the touch still consumes budget and updates
    /// memo/archive/trace exactly as a measurement would, so a warm run
    /// replays its cold counterpart byte for byte.
    fn warm(&self) -> &[(u64, Option<Objectives>)] {
        &[]
    }
}

impl<P, F> Evaluator<P> for F
where
    F: Fn(&P, &Executor) -> Option<Objectives> + Sync,
{
    fn evaluate(&self, point: &P, exec: &Executor) -> Option<Objectives> {
        self(point, exec)
    }
}

/// An [`Evaluator`] assembled from closures plus the scaling knobs:
/// a full-measurement function, a screening function that racing ranks
/// by, and an optional warm-entry table.
pub struct ScaledEvaluator<F, G> {
    full: F,
    screening: G,
    racing: bool,
    warm: Vec<(u64, Option<Objectives>)>,
}

impl<F, G> std::fmt::Debug for ScaledEvaluator<F, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScaledEvaluator")
            .field("racing", &self.racing)
            .field("warm_entries", &self.warm.len())
            .finish_non_exhaustive()
    }
}

impl<F> ScaledEvaluator<F, F>
where
    F: Clone,
{
    /// An evaluator that measures fully on both paths (no racing, no
    /// warm entries) — the identity wrapping of a plain closure.
    pub fn full(evaluate: F) -> Self {
        ScaledEvaluator {
            full: evaluate.clone(),
            screening: evaluate,
            racing: false,
            warm: Vec::new(),
        }
    }
}

impl<F, G> ScaledEvaluator<F, G> {
    /// An evaluator with distinct full and screening measurements
    /// (racing still off until [`with_racing`](Self::with_racing)).
    pub fn new(full: F, screening: G) -> Self {
        ScaledEvaluator {
            full,
            screening,
            racing: false,
            warm: Vec::new(),
        }
    }

    /// Enables successive-halving racing: batches of at least 4 fresh
    /// candidates are screened, and the better half of each rung, at
    /// most a quarter of the run's budget, is measured fully.
    #[must_use]
    pub fn with_racing(mut self) -> Self {
        self.racing = true;
        self
    }

    /// Installs warm-start entries (must be sorted by index with no
    /// duplicates).
    ///
    /// # Panics
    ///
    /// Panics if `warm` is not strictly sorted by index.
    #[must_use]
    pub fn with_warm(mut self, warm: Vec<(u64, Option<Objectives>)>) -> Self {
        assert!(
            warm.windows(2).all(|w| w[0].0 < w[1].0),
            "warm entries must be strictly sorted by index"
        );
        self.warm = warm;
        self
    }
}

impl<P, F, G> Evaluator<P> for ScaledEvaluator<F, G>
where
    F: Fn(&P, &Executor) -> Option<Objectives> + Sync,
    G: Fn(&P, &Executor) -> Option<Objectives> + Sync,
{
    fn evaluate(&self, point: &P, exec: &Executor) -> Option<Objectives> {
        (self.full)(point, exec)
    }

    fn screen(&self, point: &P, exec: &Executor) -> Option<Objectives> {
        (self.screening)(point, exec)
    }

    fn racing(&self) -> bool {
        self.racing
    }

    fn warm(&self) -> &[(u64, Option<Objectives>)] {
        &self.warm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_from_budget_scales_rungs() {
        assert_eq!(rung_cap(64), 16);
        assert_eq!(rung_cap(0), 1);
        assert_eq!(rung_cap(3), 1);
    }

    #[test]
    fn survivors_halve_and_cap() {
        assert_eq!(survivors(8, 3), 3); // ceil(8/2)=4, capped at 3
        assert_eq!(survivors(5, 3), 3);
        assert_eq!(survivors(4, 3), 2);
        assert_eq!(survivors(1, 3), 1);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_warm_entries_panic() {
        let obj = Objectives::from_time_energy(1.0, 1.0);
        let _ = ScaledEvaluator::full(|_: &u64, _: &Executor| None::<Objectives>)
            .with_warm(vec![(3, Some(obj)), (1, None)]);
    }
}
