//! The built-in strategies — steepest-descent hill climbing with
//! restarts, simulated annealing, a small generational GA and the
//! exhaustive reference scan — and [`Strategy`], the one way to run them.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vliw_exec::Executor;

use crate::evaluate::Evaluator;
use crate::optimize::{candidate_cmp, SearchOutcome, State};
use crate::space::{Objectives, SearchSpace};

/// Annealing's initial relative temperature.
const ANNEAL_T0: f64 = 0.25;
/// Annealing's final relative temperature.
const ANNEAL_T_END: f64 = 1e-3;
/// The GA's population size (clamped to the effective budget).
const GA_POPULATION: usize = 12;
/// Probability a GA child is mutated after crossover.
const GA_MUTATION_RATE: f64 = 0.3;
/// Best-of-generation survivors the GA copies verbatim.
const GA_ELITES: usize = 2;
/// Fresh random points the GA injects per generation.
const GA_IMMIGRANTS: usize = 2;

/// The search strategies, dispatchable by their stable CLI names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Steepest-descent hill climbing with random restarts (`hillclimb`).
    ///
    /// Each restart draws a random start, evaluates its full
    /// deterministic neighbourhood, moves to the strictly best improving
    /// neighbour, and repeats until a local optimum; restarts continue
    /// until the budget is spent. Because duplicate evaluations are free,
    /// a budget at least the space size drives the restarts into full
    /// coverage.
    HillClimb,
    /// Simulated annealing with a geometric cooling schedule on
    /// *relative* ED² deterioration (`anneal`).
    ///
    /// Proposals are random [`SearchSpace::mutate`] moves; a worse
    /// candidate with deterioration `δ = (ED²ₙₑᵥᵥ − ED²ᵪᵤᵣ)/ED²ᵪᵤᵣ`
    /// relative to the chain's current point is accepted with
    /// probability `exp(−δ/T)`, where `T` cools geometrically from 0.25
    /// to 10⁻³ as the distinct-evaluation budget is consumed. Long
    /// rejection streaks trigger a random restart (re-heat), which also
    /// guarantees coverage on small spaces.
    Anneal,
    /// A small generational genetic algorithm (`ga`): a population of
    /// 12, tournament selection, uniform crossover, one-gene mutation
    /// (probability 0.3), 2 elites and 2 random immigrants per
    /// generation.
    ///
    /// The immigrants keep the population from collapsing onto a local
    /// optimum and guarantee that, with enough budget, the whole
    /// (finite) space stays reachable.
    Genetic,
    /// The exhaustive reference scan (`exhaustive`): evaluates every
    /// point of the space in canonical index order (truncated to the
    /// budget). This is the ground truth the metaheuristics are
    /// validated against on the paper's grid.
    Exhaustive,
}

impl Strategy {
    /// Every strategy, in canonical order.
    pub const ALL: [Strategy; 4] = [
        Strategy::HillClimb,
        Strategy::Anneal,
        Strategy::Genetic,
        Strategy::Exhaustive,
    ];

    /// The metaheuristics (everything except the exhaustive scan).
    pub const METAHEURISTICS: [Strategy; 3] =
        [Strategy::HillClimb, Strategy::Anneal, Strategy::Genetic];

    /// The strategy's stable name (`hillclimb`, `anneal`, `ga`,
    /// `exhaustive`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Strategy::HillClimb => "hillclimb",
            Strategy::Anneal => "anneal",
            Strategy::Genetic => "ga",
            Strategy::Exhaustive => "exhaustive",
        }
    }

    /// Runs the strategy until `budget` distinct candidate evaluations
    /// are spent (or the whole space is evaluated, whichever comes
    /// first), fanning evaluation batches across `exec`.
    ///
    /// The outcome is a deterministic function of `(space, evaluate,
    /// budget, seed)`: random decisions come from `seed` alone, and
    /// candidate batches go through the executor's order-preserving
    /// `map`, so it is identical for every worker count;
    /// [`Executor::serial`] runs on the calling thread.
    ///
    /// `evaluate` is any [`Evaluator`] — a plain closure via the blanket
    /// impl, or a [`crate::ScaledEvaluator`] carrying racing and
    /// warm-start hooks. It returns `None` for infeasible candidates;
    /// infeasible evaluations still consume budget (they cost the same
    /// work). Each call receives an [`Executor`] for its *internal*
    /// fan-out: the full pool when the engine has only one fresh
    /// candidate to evaluate (sequential strategies like annealing would
    /// otherwise leave every worker idle), the serial executor when
    /// candidates themselves are being fanned out in parallel.
    /// Evaluations must be deterministic for every worker count, as
    /// everything built on `Executor::map` is.
    ///
    /// Budget left over when a strategy's stochastic phase stalls (its
    /// restart/proposal/generation caps trip because random moves keep
    /// revisiting evaluated points) is spent scanning unevaluated
    /// candidates in index order. Consequently a budget of at least the
    /// space size always yields full coverage — and therefore the
    /// exhaustive-sweep optimum, the property the paper-grid validation
    /// pins.
    pub fn run<S, F>(
        self,
        space: &S,
        evaluate: &F,
        budget: u64,
        seed: u64,
        exec: &Executor,
    ) -> SearchOutcome<S::Point>
    where
        S: SearchSpace,
        F: Evaluator<S::Point>,
    {
        let mut state = State::new(space, evaluate, budget, exec);
        match self {
            Strategy::HillClimb => hill_climb(space, &mut state, seed),
            Strategy::Anneal => anneal(space, &mut state, seed),
            Strategy::Genetic => genetic(space, &mut state, seed),
            Strategy::Exhaustive => exhaustive(space, &mut state),
        }
        state.sweep_remaining();
        state.finish(self.name(), seed)
    }
}

fn hill_climb<S, F>(space: &S, state: &mut State<'_, S, F>, seed: u64)
where
    S: SearchSpace,
    F: Evaluator<S::Point>,
{
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4849_4C4C); // "HILL"
    let mut neighborhood = Vec::new();
    // Restarts that evaluate nothing new mean random sampling keeps
    // landing on covered ground; after a streak of them, hand the
    // remaining budget to the deterministic sweep.
    let mut stale_restarts = 0u32;
    while !state.done() && stale_restarts < 256 {
        let spent_before = state.evaluations();
        let start = space.sample(&mut rng);
        let Some(mut current_obj) = state.eval_one(&start) else {
            if state.evaluations() == spent_before {
                stale_restarts += 1;
            } else {
                stale_restarts = 0;
            }
            continue; // infeasible start: restart
        };
        let mut current = start;
        while !state.done() {
            neighborhood.clear();
            space.neighbors(&current, &mut neighborhood);
            let objs = state.eval_batch(&neighborhood);
            let mut best: Option<(usize, Objectives)> = None;
            for (i, obj) in objs.iter().enumerate() {
                let Some(o) = obj else { continue };
                let idx = space.index(&neighborhood[i]);
                let better = match best {
                    None => true,
                    Some((bi, bo)) => {
                        candidate_cmp((Some(*o), idx), (Some(bo), space.index(&neighborhood[bi])))
                            == Ordering::Less
                    }
                };
                if better {
                    best = Some((i, *o));
                }
            }
            match best {
                Some((i, o)) if o.scalar_cmp(&current_obj) == Ordering::Less => {
                    current = neighborhood[i].clone();
                    current_obj = o;
                }
                _ => break, // local optimum: restart
            }
        }
        if state.evaluations() == spent_before {
            stale_restarts += 1;
        } else {
            stale_restarts = 0;
        }
    }
}

fn anneal<S, F>(space: &S, state: &mut State<'_, S, F>, seed: u64)
where
    S: SearchSpace,
    F: Evaluator<S::Point>,
{
    // 0x414E4E45414C spells "ANNEAL".
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x414E_4E45_414C);
    // Memoised proposals are free but still advance the chain; the
    // proposal cap bounds the walk when the space is nearly covered.
    let max_proposals = state.effective_budget().saturating_mul(64).max(1024);
    let mut proposals = 0u64;
    'chains: while !state.done() && proposals < max_proposals {
        let start = space.sample(&mut rng);
        proposals += 1;
        let Some(mut current_obj) = state.eval_one(&start) else {
            continue;
        };
        let mut current = start;
        let mut rejections = 0u32;
        while !state.done() && proposals < max_proposals {
            let proposal = space.mutate(&current, &mut rng);
            proposals += 1;
            let progress = if state.effective_budget() == 0 {
                1.0
            } else {
                state.evaluations() as f64 / state.effective_budget() as f64
            };
            let temperature = ANNEAL_T0 * (ANNEAL_T_END / ANNEAL_T0).powf(progress.clamp(0.0, 1.0));
            match state.eval_one(&proposal) {
                None => rejections += 1,
                Some(o) => {
                    let accept = if o.scalar_cmp(&current_obj) != Ordering::Greater {
                        true
                    } else {
                        let scale = current_obj.ed2.abs().max(f64::MIN_POSITIVE);
                        let delta = (o.ed2 - current_obj.ed2) / scale;
                        rng.gen::<f64>() < (-delta / temperature).exp()
                    };
                    if accept {
                        current = proposal;
                        current_obj = o;
                        rejections = 0;
                    } else {
                        rejections += 1;
                    }
                }
            }
            if rejections > 64 {
                continue 'chains; // re-heat from a fresh random point
            }
        }
    }
}

fn genetic<S, F>(space: &S, state: &mut State<'_, S, F>, seed: u64)
where
    S: SearchSpace,
    F: Evaluator<S::Point>,
{
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4745_4E45); // "GENE"
    let pop_n =
        GA_POPULATION.min(usize::try_from(state.effective_budget().max(2)).unwrap_or(usize::MAX));
    let mut population: Vec<S::Point> = (0..pop_n).map(|_| space.sample(&mut rng)).collect();
    let mut fitness = state.eval_batch(&population);
    // Generations are bounded so a fully-memoised population (every
    // child already evaluated) cannot spin forever near exhaustion.
    let max_generations = state.effective_budget().saturating_mul(16).max(64);
    let mut generation = 0u64;
    let mut stale_generations = 0u32;
    while !state.done() && generation < max_generations && stale_generations < 64 {
        generation += 1;
        let spent_before = state.evaluations();
        let mut ranked: Vec<usize> = (0..population.len()).collect();
        ranked.sort_by(|&a, &b| {
            candidate_cmp(
                (fitness[a], space.index(&population[a])),
                (fitness[b], space.index(&population[b])),
            )
        });
        let mut next: Vec<S::Point> = ranked
            .iter()
            .take(GA_ELITES.min(pop_n))
            .map(|&i| population[i].clone())
            .collect();
        for _ in 0..GA_IMMIGRANTS.min(pop_n.saturating_sub(next.len())) {
            next.push(space.sample(&mut rng));
        }
        let tournament = |rng: &mut SmallRng| -> usize {
            let a = rng.gen_range(0..population.len());
            let b = rng.gen_range(0..population.len());
            if candidate_cmp(
                (fitness[a], space.index(&population[a])),
                (fitness[b], space.index(&population[b])),
            ) == Ordering::Greater
            {
                b
            } else {
                a
            }
        };
        while next.len() < pop_n {
            let pa = tournament(&mut rng);
            let pb = tournament(&mut rng);
            let mut child = space.crossover(&population[pa], &population[pb], &mut rng);
            if rng.gen::<f64>() < GA_MUTATION_RATE {
                child = space.mutate(&child, &mut rng);
            }
            next.push(child);
        }
        fitness = state.eval_batch(&next);
        population = next;
        if state.evaluations() == spent_before {
            stale_generations += 1;
        } else {
            stale_generations = 0;
        }
    }
}

fn exhaustive<S, F>(space: &S, state: &mut State<'_, S, F>)
where
    S: SearchSpace,
    F: Evaluator<S::Point>,
{
    // Under racing each chunk promotes only its screened survivors; the
    // fixpoint sweep that follows every strategy spends the leftover
    // budget on the losers, so full-budget runs still cover the space.
    const CHUNK: u64 = 256;
    let mut next = 0u64;
    while !state.done() && next < space.size() {
        let end = (next + CHUNK).min(space.size());
        let batch: Vec<S::Point> = (next..end).map(|i| space.point(i)).collect();
        state.eval_batch(&batch);
        next = end;
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Strategy::ALL
            .into_iter()
            .find(|st| st.name() == s)
            .ok_or_else(|| format!("unknown strategy {s} (hillclimb|anneal|ga|exhaustive)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::GridSpace;

    /// A deterministic bumpy objective with one global optimum.
    #[allow(clippy::ptr_arg)] // must match Fn(&<GridSpace as SearchSpace>::Point, &Executor)
    fn bumpy(genes: &Vec<u32>, _exec: &Executor) -> Option<Objectives> {
        let x = f64::from(genes[0]);
        let y = f64::from(genes[1]);
        // Infeasible pocket, as real voltage ranges produce.
        if genes[0] == 3 && genes[1] < 4 {
            return None;
        }
        let time = 2.0 + (x - 13.0).powi(2) + (2.3 * x).sin().abs();
        let energy = 2.0 + (y - 5.0).powi(2) + (1.7 * y).cos().abs();
        Some(Objectives::from_time_energy(time, energy))
    }

    fn space() -> GridSpace {
        GridSpace::new(vec![24, 18])
    }

    #[test]
    fn every_strategy_with_full_budget_matches_exhaustive() {
        let s = space();
        let truth = Strategy::Exhaustive.run(&s, &bumpy, u64::MAX, 0, &Executor::serial());
        assert_eq!(truth.evaluations, s.size());
        let best = truth.best().expect("feasible points exist");
        for strat in Strategy::METAHEURISTICS {
            let outcome = strat.run(&s, &bumpy, s.size(), 11, &Executor::serial());
            assert_eq!(
                outcome.evaluations,
                s.size(),
                "{strat}: full budget must reach full coverage"
            );
            let got = outcome.best().expect("feasible");
            assert_eq!(got.index, best.index, "{strat}");
            assert_eq!(got.objectives, best.objectives, "{strat}");
            assert_eq!(
                outcome.archive.entries(),
                truth.archive.entries(),
                "{strat}: full coverage implies the exact frontier"
            );
        }
    }

    #[test]
    fn budget_bounds_distinct_evaluations() {
        let s = space();
        for strat in Strategy::ALL {
            for budget in [0u64, 1, 7, 40] {
                let outcome = strat.run(&s, &bumpy, budget, 3, &Executor::serial());
                assert!(
                    outcome.evaluations <= budget,
                    "{strat}: {} evaluations for budget {budget}",
                    outcome.evaluations
                );
            }
        }
    }

    #[test]
    fn outcomes_are_deterministic_across_worker_counts() {
        let s = space();
        for strat in Strategy::ALL {
            let serial = strat.run(&s, &bumpy, 120, 42, &Executor::serial());
            let parallel = strat.run(&s, &bumpy, 120, 42, &Executor::new(4));
            assert_eq!(serial, parallel, "{strat}");
        }
    }

    #[test]
    fn different_seeds_explore_differently_but_stay_valid() {
        let s = space();
        let a = Strategy::HillClimb.run(&s, &bumpy, 60, 1, &Executor::serial());
        let b = Strategy::HillClimb.run(&s, &bumpy, 60, 2, &Executor::serial());
        // Both must produce non-empty frontiers of mutually non-dominated
        // feasible points; the walks themselves almost surely differ.
        for outcome in [&a, &b] {
            assert!(!outcome.archive.is_empty());
            let entries = outcome.archive.entries();
            for (i, x) in entries.iter().enumerate() {
                for (j, y) in entries.iter().enumerate() {
                    if i != j {
                        assert!(!x.objectives.dominates(&y.objectives));
                    }
                }
            }
        }
    }

    #[test]
    fn trace_is_monotonically_improving() {
        let s = space();
        for strat in Strategy::ALL {
            let outcome = strat.run(&s, &bumpy, 150, 5, &Executor::serial());
            let trace = &outcome.trace;
            assert!(!trace.is_empty(), "{strat}");
            for w in trace.windows(2) {
                assert!(w[0].ed2 >= w[1].ed2, "{strat}: trace must improve");
                assert!(w[0].evaluations <= w[1].evaluations, "{strat}");
            }
            let best = outcome.best().unwrap();
            let last = trace.last().unwrap();
            assert_eq!(last.index, best.index, "{strat}");
            assert_eq!(last.ed2, best.objectives.ed2, "{strat}");
        }
    }

    /// A deliberately misleading cheap proxy for [`bumpy`]: same bowls,
    /// no texture, swapped weighting — close enough to rank rungs, wrong
    /// enough that leaking it into the archive would be caught.
    #[allow(clippy::ptr_arg)]
    fn bumpy_screen(genes: &Vec<u32>, _exec: &Executor) -> Option<Objectives> {
        if genes[0] == 3 && genes[1] < 4 {
            return None;
        }
        let x = f64::from(genes[0]);
        let y = f64::from(genes[1]);
        let time = 1.0 + 0.5 * (x - 13.0).powi(2);
        let energy = 1.0 + 2.0 * (y - 5.0).powi(2);
        Some(Objectives::from_time_energy(time, energy))
    }

    #[test]
    fn racing_with_full_budget_matches_the_full_measurement_frontier() {
        use crate::evaluate::ScaledEvaluator;
        // ≤ 200 points, as the differential-test contract specifies.
        let s = GridSpace::new(vec![16, 12]);
        for strat in Strategy::ALL {
            let plain = strat.run(&s, &bumpy, s.size(), 11, &Executor::serial());
            let racing = ScaledEvaluator::new(bumpy, bumpy_screen).with_racing();
            let raced = strat.run(&s, &racing, s.size(), 11, &Executor::serial());
            assert_eq!(
                raced.evaluations,
                s.size(),
                "{strat}: racing must still reach full coverage"
            );
            // Annealing proposes one candidate at a time, and single
            // fresh candidates are always measured fully — a chain that
            // covers the space alone never forms a rung.
            if strat != Strategy::Anneal {
                assert!(raced.screened > 0, "{strat}: racing must actually screen");
            }
            assert_eq!(
                raced.archive.entries(),
                plain.archive.entries(),
                "{strat}: the racing frontier must be identical to full measurement"
            );
            assert_eq!(
                raced.best().map(|b| (b.index, b.objectives)),
                plain.best().map(|b| (b.index, b.objectives)),
                "{strat}"
            );
        }
    }

    #[test]
    fn racing_respects_budgets_and_worker_counts() {
        use crate::evaluate::ScaledEvaluator;
        let s = space();
        for strat in Strategy::ALL {
            let racing = ScaledEvaluator::new(bumpy, bumpy_screen).with_racing();
            let serial = strat.run(&s, &racing, 100, 42, &Executor::serial());
            assert!(serial.evaluations <= 100, "{strat}");
            let parallel = strat.run(&s, &racing, 100, 42, &Executor::new(4));
            assert_eq!(serial, parallel, "{strat}: racing must stay deterministic");
        }
    }

    #[test]
    fn warm_start_replays_the_cold_run_without_measuring() {
        use crate::evaluate::ScaledEvaluator;
        use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
        use std::sync::Mutex;
        let s = space();
        for strat in Strategy::ALL {
            // Cold run, recording every measured (index, result) pair the
            // way the persistent store would.
            let log = Mutex::new(Vec::new());
            let recording = |genes: &Vec<u32>, exec: &Executor| {
                let r = bumpy(genes, exec);
                log.lock().unwrap().push((s.index(genes), r));
                r
            };
            let cold = strat.run(&s, &recording, 90, 9, &Executor::serial());
            let mut entries = log.into_inner().unwrap();
            entries.sort_by_key(|&(i, _)| i);
            entries.dedup_by_key(|&mut (i, _)| i);
            assert_eq!(entries.len() as u64, cold.evaluations);

            // Warm run: every touch must come from the table, none from
            // the measurement function, and the outcome must be
            // byte-for-byte the cold one.
            let measured = AtomicU64::new(0);
            let counting = |genes: &Vec<u32>, exec: &Executor| {
                measured.fetch_add(1, AtomicOrdering::Relaxed);
                bumpy(genes, exec)
            };
            let warm_eval = ScaledEvaluator::full(counting).with_warm(entries);
            let warm = strat.run(&s, &warm_eval, 90, 9, &Executor::serial());
            assert_eq!(warm, cold, "{strat}: warm must replay cold exactly");
            assert_eq!(
                measured.load(AtomicOrdering::Relaxed),
                0,
                "{strat}: a fully-warmed run must not measure"
            );
        }
    }

    #[test]
    fn partial_warm_table_seeds_the_archive() {
        use crate::evaluate::ScaledEvaluator;
        let s = space();
        // Warm the table with one strong point the tiny budget would
        // never find, then search with budget 1: the archive must still
        // carry the seeded entry (resume semantics).
        let seeded_idx = {
            let truth = Strategy::Exhaustive.run(&s, &bumpy, u64::MAX, 0, &Executor::serial());
            truth.best().unwrap().index
        };
        let seeded_obj = bumpy(&s.point(seeded_idx), &Executor::serial()).unwrap();
        let warm_eval =
            ScaledEvaluator::full(bumpy).with_warm(vec![(seeded_idx, Some(seeded_obj))]);
        let outcome = Strategy::HillClimb.run(&s, &warm_eval, 1, 2, &Executor::serial());
        assert!(outcome
            .archive
            .entries()
            .iter()
            .any(|e| e.index == seeded_idx));
        assert_eq!(outcome.best().unwrap().index, seeded_idx);
    }

    #[test]
    fn strategy_names_round_trip() {
        for strat in Strategy::ALL {
            assert_eq!(strat.name().parse::<Strategy>().unwrap(), strat);
        }
        assert!("frobnicate".parse::<Strategy>().is_err());
    }
}
