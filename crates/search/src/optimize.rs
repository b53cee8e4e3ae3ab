//! The shared evaluation state every strategy runs on, and the
//! [`SearchOutcome`] they all return.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use vliw_exec::Executor;

use crate::archive::{ArchiveEntry, ParetoArchive};
use crate::evaluate::{rung_cap, survivors, Evaluator, MIN_BATCH};
use crate::obs_counters;
use crate::space::{Objectives, SearchSpace};

/// Compares two evaluated candidates by `(objectives, index)`; `None`
/// (infeasible) ranks after every feasible candidate, ties on index.
/// Shared by the strategies' selection logic and the racing rung
/// ranking.
pub(crate) fn candidate_cmp(
    a: (Option<Objectives>, u64),
    b: (Option<Objectives>, u64),
) -> Ordering {
    match (a.0, b.0) {
        (Some(oa), Some(ob)) => oa.scalar_cmp(&ob).then_with(|| a.1.cmp(&b.1)),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => a.1.cmp(&b.1),
    }
}

/// One convergence-trace sample: the best scalar (ED²) seen after
/// `evaluations` distinct candidate evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Distinct evaluations spent when this best was found.
    pub evaluations: u64,
    /// Canonical space index of the new best candidate.
    pub index: u64,
    /// Its ED².
    pub ed2: f64,
}

/// Everything one strategy run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome<P> {
    /// The strategy that ran.
    pub strategy: &'static str,
    /// The requested evaluation budget.
    pub budget: u64,
    /// The seed the run was started with.
    pub seed: u64,
    /// Size of the searched space.
    pub space_size: u64,
    /// Distinct candidate evaluations actually spent (≤ `budget`, and ≤
    /// `space_size` — memoised repeats are free).
    pub evaluations: u64,
    /// Distinct candidates screened by racing (0 when racing is off).
    /// Screens consume no budget; `evaluations + screened` is the total
    /// number of candidate dispositions the run made.
    pub screened: u64,
    /// The non-dominated frontier of everything evaluated.
    pub archive: ParetoArchive<P>,
    /// Convergence trace: every improvement of the scalar best.
    pub trace: Vec<TracePoint>,
}

impl<P: Clone> SearchOutcome<P> {
    /// The scalar winner (minimum ED², deterministic tie-breaking), if
    /// any feasible candidate was found.
    #[must_use]
    pub fn best(&self) -> Option<&ArchiveEntry<P>> {
        self.archive.best()
    }
}

/// The evaluation engine shared by every strategy: a memo table over
/// canonical indices, the distinct-evaluation budget, the Pareto archive
/// and the convergence trace — plus the racing screen memo and the
/// warm-start table when the evaluator provides them.
pub(crate) struct State<'a, S: SearchSpace, F> {
    space: &'a S,
    evaluate: &'a F,
    exec: &'a Executor,
    /// Effective budget: `min(requested, space size)` — once every point
    /// is evaluated there is nothing left to spend on.
    effective_budget: u64,
    requested_budget: u64,
    memo: BTreeMap<u64, Option<Objectives>>,
    evaluations: u64,
    archive: ParetoArchive<S::Point>,
    trace: Vec<TracePoint>,
    best: Option<(Objectives, u64)>,
    /// Per-rung promotion cap when the evaluator races, derived from
    /// the effective budget; `None` measures every candidate fully.
    max_rung: Option<u64>,
    /// Screening results (racing only). Screens are free — they consume
    /// no budget — and never reach the memo, archive or trace.
    screen_memo: BTreeMap<u64, Option<Objectives>>,
    /// Distinct candidates screened (for throughput reporting).
    screened: u64,
    /// Warm-start table: persisted results consulted instead of
    /// [`Evaluator::evaluate`]. A warm hit still consumes budget and
    /// updates memo/archive/trace exactly as a measurement would.
    warm: BTreeMap<u64, Option<Objectives>>,
}

impl<'a, S, F> State<'a, S, F>
where
    S: SearchSpace,
    F: Evaluator<S::Point>,
{
    pub(crate) fn new(space: &'a S, evaluate: &'a F, budget: u64, exec: &'a Executor) -> Self {
        let mut archive = ParetoArchive::new();
        let mut warm = BTreeMap::new();
        for &(idx, obj) in evaluate.warm() {
            assert!(idx < space.size(), "warm index {idx} out of range");
            warm.insert(idx, obj);
            // Seed the archive before the first strategy step: persisted
            // feasible results are part of the frontier even if this
            // run's walk never touches them again (resume semantics).
            if let Some(o) = obj {
                if o.is_finite()
                    && archive.insert(ArchiveEntry {
                        index: idx,
                        point: space.point(idx),
                        objectives: o,
                    })
                {
                    obs_counters::archive_inserts().inc();
                }
            }
        }
        let effective_budget = budget.min(space.size());
        State {
            space,
            evaluate,
            exec,
            effective_budget,
            requested_budget: budget,
            memo: BTreeMap::new(),
            evaluations: 0,
            archive,
            trace: Vec::new(),
            best: None,
            max_rung: evaluate.racing().then(|| rung_cap(effective_budget)),
            screen_memo: BTreeMap::new(),
            screened: 0,
            warm,
        }
    }

    /// Whether the run is over: the budget is spent or the space is
    /// fully evaluated.
    pub(crate) fn done(&self) -> bool {
        self.evaluations >= self.effective_budget
    }

    /// Distinct evaluations spent so far.
    pub(crate) fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The effective budget (`min(requested, space size)`).
    pub(crate) fn effective_budget(&self) -> u64 {
        self.effective_budget
    }

    /// Evaluates a batch of points and returns their objectives in input
    /// order (`None` for infeasible candidates *and* for points left
    /// unevaluated because the budget ran out mid-batch).
    ///
    /// Already-memoised points are free; fresh points are deduplicated in
    /// first-occurrence order, truncated to the remaining budget, and
    /// fanned across the executor. Archive and trace updates happen in
    /// batch order, so the whole operation is deterministic for every
    /// worker count.
    pub(crate) fn eval_batch(&mut self, points: &[S::Point]) -> Vec<Option<Objectives>> {
        let mut fresh: Vec<(u64, S::Point)> = Vec::new();
        let remaining = (self.effective_budget - self.evaluations) as usize;
        for p in points {
            if fresh.len() >= remaining {
                break;
            }
            let idx = self.space.index(p);
            if !self.memo.contains_key(&idx) && fresh.iter().all(|(i, _)| *i != idx) {
                fresh.push((idx, p.clone()));
            }
        }
        // Racing: screen the batch on the cheap measurement and promote
        // only the most promising rung to the full measurement. Screens
        // consume no budget and never reach the archive; losers simply
        // stay un-memoised (they answer `None` this batch and remain
        // eligible for later rungs, where their cached screen is free).
        if let Some(max_rung) = self.max_rung {
            if fresh.len() >= MIN_BATCH {
                let to_screen: Vec<(u64, S::Point)> = fresh
                    .iter()
                    .filter(|(i, _)| !self.screen_memo.contains_key(i))
                    .cloned()
                    .collect();
                let evaluate = self.evaluate;
                let inner = if to_screen.len() == 1 {
                    *self.exec
                } else {
                    Executor::serial()
                };
                let screens = self
                    .exec
                    .map(&to_screen, |_, (_, p)| evaluate.screen(p, &inner));
                self.screened += to_screen.len() as u64;
                obs_counters::screens().add(to_screen.len() as u64);
                for ((idx, _), obj) in to_screen.into_iter().zip(screens) {
                    self.screen_memo.insert(idx, obj);
                }
                let mut order: Vec<usize> = (0..fresh.len()).collect();
                order.sort_by(|&a, &b| {
                    candidate_cmp(
                        (self.screen_memo[&fresh[a].0], fresh[a].0),
                        (self.screen_memo[&fresh[b].0], fresh[b].0),
                    )
                });
                let keep: BTreeSet<u64> = order
                    .iter()
                    .take(survivors(fresh.len(), max_rung))
                    .map(|&i| fresh[i].0)
                    .collect();
                fresh.retain(|(i, _)| keep.contains(i));
                obs_counters::promotions().add(fresh.len() as u64);
            }
        }
        // With a single fresh candidate the outer map has no parallelism
        // to offer, so the evaluation itself gets the pool (annealing
        // proposals, hill-climb starts); with several, candidates fan
        // out and each evaluation stays serial to avoid oversubscribing.
        let evaluate = self.evaluate;
        let warm = &self.warm;
        let inner = if fresh.len() == 1 {
            *self.exec
        } else {
            Executor::serial()
        };
        let results = self.exec.map(&fresh, |_, (idx, p)| match warm.get(idx) {
            Some(&stored) => stored,
            None => evaluate.evaluate(p, &inner),
        });
        obs_counters::evals().add(fresh.len() as u64);
        for ((idx, p), obj) in fresh.into_iter().zip(results) {
            self.evaluations += 1;
            self.memo.insert(idx, obj);
            if let Some(o) = obj {
                if o.is_finite() {
                    if self.archive.insert(ArchiveEntry {
                        index: idx,
                        point: p,
                        objectives: o,
                    }) {
                        obs_counters::archive_inserts().inc();
                    }
                    let improved = match &self.best {
                        None => true,
                        Some((b, bi)) => {
                            o.scalar_cmp(b) == std::cmp::Ordering::Less
                                || (o.scalar_cmp(b) == std::cmp::Ordering::Equal && idx < *bi)
                        }
                    };
                    if improved {
                        self.best = Some((o, idx));
                        self.trace.push(TracePoint {
                            evaluations: self.evaluations,
                            index: idx,
                            ed2: o.ed2,
                        });
                    }
                }
            }
        }
        points
            .iter()
            .map(|p| self.memo.get(&self.space.index(p)).copied().flatten())
            .collect()
    }

    /// Evaluates one point (convenience over [`State::eval_batch`]).
    pub(crate) fn eval_one(&mut self, point: &S::Point) -> Option<Objectives> {
        self.eval_batch(std::slice::from_ref(point))[0]
    }

    /// Spends any remaining budget on unevaluated candidates in canonical
    /// index order.
    ///
    /// Strategies call this after their stochastic phase stalls (restart,
    /// proposal or generation caps): random walks revisit evaluated
    /// points ever more often as coverage grows, and this deterministic
    /// top-up turns the "budget ≥ space size finds the exhaustive
    /// optimum" property from a probabilistic one into a guarantee.
    ///
    /// Under racing each pass is one rung — a batch promotes only its
    /// screened survivors — so the sweep loops to a fixpoint: geometric
    /// promotion still reaches full coverage when the budget allows,
    /// preserving the frontier-equivalence guarantee.
    pub(crate) fn sweep_remaining(&mut self) {
        loop {
            let spent_before = self.evaluations;
            let size = self.space.size();
            let mut idx = 0u64;
            let mut batch = Vec::new();
            while !self.done() && idx < size {
                batch.clear();
                while idx < size && batch.len() < 256 {
                    if !self.memo.contains_key(&idx) {
                        batch.push(self.space.point(idx));
                    }
                    idx += 1;
                }
                if !batch.is_empty() {
                    self.eval_batch(&batch);
                }
            }
            if self.done() || self.evaluations == spent_before {
                break;
            }
        }
    }

    pub(crate) fn finish(self, strategy: &'static str, seed: u64) -> SearchOutcome<S::Point> {
        SearchOutcome {
            strategy,
            budget: self.requested_budget,
            seed,
            space_size: self.space.size(),
            evaluations: self.evaluations,
            screened: self.screened,
            archive: self.archive,
            trace: self.trace,
        }
    }
}
