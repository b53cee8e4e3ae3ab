//! Scaled design-space search: racing, store-warmed archives, and
//! sharded runs with deterministic merges.
//!
//! [`run_search`] runs every search. It always walks a [`ShardedSpace`]:
//! an unsharded search is shard 1 of 1, whose indices, neighbours,
//! moves and samples are the whole space's own, so both kinds of run
//! take the same walk and return one [`SearchRun`] in global indices.
//! Three orthogonal levers let one search cover spaces far beyond the
//! paper's 20-point grid without giving up the byte-stable artefact
//! discipline:
//!
//! * **Racing** — a successive-halving evaluator
//!   ([`ScaledEvaluator`]) scores fresh
//!   candidate batches on a cheap *screening* suite
//!   ([`ProfiledSuite::screen_subset`]) and promotes only the most
//!   promising rung to the full-suite measurement. Screens never reach
//!   the archive, so with a budget covering the whole space the frontier
//!   is *identical* to the non-racing frontier (the differential tests
//!   below pin this per strategy).
//! * **Warm starts** — when the suite carries a persistent
//!   [`MeasureStore`], every full evaluation is persisted under
//!   `(space fingerprint, canonical index)` and replayed runs pre-seed
//!   the Pareto archive and evaluation memo from disk before the first
//!   optimizer step. A warm replay of the same arguments reproduces the
//!   cold run byte for byte while skipping every measurement.
//! * **Sharding** — `--shard i/n` restricts the walk to the round-robin
//!   residue class `index % n == i-1` and emits a mergeable
//!   [`ShardReport`]; [`merge_shard_reports`] folds any full set of
//!   shard artefacts into one [`MergedReport`] whose bytes are
//!   independent of shard count and merge order.
//!
//! ```text
//!                 gene grid (space_size candidates)
//!        ┌───────────────┬───────────────┬───────────────┐
//!        │ shard 1/n     │ shard 2/n     │ … shard n/n   │  idx % n
//!        └──────┬────────┴──────┬────────┴──────┬────────┘
//!               ▼               ▼               ▼
//!        racing evaluator  (screen rung → promote survivors)
//!               │ full measurements persisted to --store
//!               ▼               ▼               ▼
//!        ShardReport 1    ShardReport 2    ShardReport n
//!               └───────────────┴───────────────┘
//!                               ▼
//!                    merge_shard_reports (order-free)
//!                               ▼
//!                        MergedReport == unsharded frontier
//! ```

use serde::Serialize;
use serde_json::Value;

use vliw_exec::Executor;
use vliw_search::{
    ArchiveEntry, Objectives, ParetoArchive, ScaledEvaluator, SearchSpace, ShardedSpace, Strategy,
};
use vliw_store::{EvalObjectives, EvalRecord, MeasureStore, StoreKey};

use crate::experiments::ProfiledSuite;
use crate::search::{FrontierRow, SearchContext, SearchReport, SpaceKind, TraceRow};

/// One search run, in global canonical indices: the walk over one shard
/// (shard 1 of 1 when unsharded) with its frontier decoded, plus the
/// counters the byte-stable reports omit. [`SearchReport`] and
/// [`ShardReport`] are built from it by `From`.
#[derive(Debug, Clone)]
pub struct SearchRun {
    /// The strategy that ran.
    pub strategy: &'static str,
    /// The space it searched.
    pub space: SpaceKind,
    /// Requested distinct-evaluation budget.
    pub budget: u64,
    /// Search seed.
    pub seed: u64,
    /// Size of the *whole* candidate space.
    pub space_size: u64,
    /// This shard's 1-based number.
    pub shard: u32,
    /// Total number of shards (1 when unsharded).
    pub shard_count: u32,
    /// Number of candidates in this shard.
    pub shard_size: u64,
    /// Distinct candidate evaluations spent.
    pub evaluations: u64,
    /// The scalar (minimum-ED²) winner, if any candidate was feasible.
    pub best: Option<FrontierRow>,
    /// The non-dominated frontier, sorted by execution time.
    pub frontier: Vec<FrontierRow>,
    /// Every improvement of the best ED².
    pub trace: Vec<TraceRow>,
    /// Distinct candidates screened by racing (0 when racing is off).
    pub screened: u64,
    /// Persisted evaluations the run warm-started from.
    pub warm_entries: u64,
}

impl From<SearchRun> for SearchReport {
    fn from(run: SearchRun) -> Self {
        SearchReport {
            strategy: run.strategy.to_owned(),
            space: run.space.name().to_owned(),
            budget: run.budget,
            seed: run.seed,
            space_size: run.space_size,
            evaluations: run.evaluations,
            best: run.best,
            frontier: run.frontier,
            trace: run.trace,
        }
    }
}

impl From<SearchRun> for ShardReport {
    fn from(run: SearchRun) -> Self {
        ShardReport {
            strategy: run.strategy.to_owned(),
            space: run.space.name().to_owned(),
            budget: run.budget,
            seed: run.seed,
            space_size: run.space_size,
            shard: run.shard,
            shard_count: run.shard_count,
            shard_size: run.shard_size,
            evaluations: run.evaluations,
            best: run.best,
            frontier: run.frontier,
        }
    }
}

/// Maps a persisted evaluation back to engine objectives.
fn record_objectives(rec: &EvalRecord) -> Option<Objectives> {
    rec.objectives.map(|o| Objectives {
        exec_time_ns: o.exec_time_ns,
        energy: o.energy,
        ed2: o.ed2,
    })
}

/// Persists one evaluation under `(content, index)`; the store skips a
/// record it already holds. Feasible results with non-finite objectives
/// are not persistable (the wire format carries finite numbers only)
/// and are simply skipped; store write failures degrade to a warning,
/// exactly like the measurement path.
fn persist_eval(store: &MeasureStore, content: u64, index: u64, obj: Option<Objectives>) {
    let objectives = match obj {
        None => None,
        Some(o) if o.is_finite() => Some(EvalObjectives {
            exec_time_ns: o.exec_time_ns,
            energy: o.energy,
            ed2: o.ed2,
        }),
        Some(_) => return,
    };
    let key = StoreKey {
        content,
        config: index,
    };
    if let Err(err) = store.put_eval(key, EvalRecord { objectives }) {
        eprintln!("warning: failed to persist evaluation: {err}");
    }
}

/// Runs shard `shard` (1-based) of a `shard_count`-way search over the
/// profiled suites; an unsharded search is `(1, 1)`. The walk is
/// confined to the round-robin residue class `index % shard_count ==
/// shard - 1`, warm starts whenever the first suite carries a store,
/// and races when `racing` is set.
///
/// `suites` holds one [`ProfiledSuite`] per bus count the space may
/// place candidates on; the paper space uses only the first. The run is
/// deterministic for fixed `(kind, strategy, budget, seed, shard)` and
/// identical for every worker count of `exec` (candidate batches are
/// fanned out with input-ordered reduction, and the evaluation itself is
/// deterministic). When the first suite carries a persistent store,
/// full evaluations are persisted under global indices and a replay of
/// the same arguments produces the same bytes without re-measuring.
/// Racing changes *which* candidates are measured under a partial budget
/// but leaves a full-coverage frontier byte-identical.
///
/// # Errors
///
/// Returns a description when `shard` is not in `1..=shard_count` or
/// `shard_count` exceeds the space size (some shard would be empty).
///
/// # Panics
///
/// Panics if `suites` is empty.
#[allow(clippy::too_many_arguments)]
pub fn run_search(
    kind: SpaceKind,
    strategy: Strategy,
    budget: u64,
    seed: u64,
    suites: &[&ProfiledSuite],
    exec: &Executor,
    racing: bool,
    (shard, shard_count): (u32, u32),
) -> Result<SearchRun, String> {
    let ctx = SearchContext::new(kind, suites);
    let space_size = ctx.space().size();
    if !(1..=shard_count).contains(&shard) {
        return Err(format!(
            "shard {shard}/{shard_count} is not in 1..={shard_count}"
        ));
    }
    let count = u64::from(shard_count);
    if count > space_size {
        return Err(format!(
            "cannot cut the {space_size}-candidate {} space into {shard_count} shards",
            kind.name()
        ));
    }
    let k = u64::from(shard - 1);
    let sharded = ShardedSpace::new(ctx.space(), k, count);
    let fp = ctx.space_fingerprint();
    let store = suites[0].store().cloned();
    // The walk speaks shard-local indices; the store always speaks
    // global ones.
    let warm: Vec<(u64, Option<Objectives>)> = store
        .as_ref()
        .map_or_else(Vec::new, |s| s.warm_evals(fp, space_size))
        .into_iter()
        .filter(|(g, _)| g % count == k)
        .map(|(g, rec)| (g / count, record_objectives(&rec)))
        .collect();
    let warm_entries = warm.len() as u64;
    let full = |genes: &Vec<u32>, inner: &Executor| {
        let obj = ctx.evaluate(genes, inner);
        if let Some(store) = &store {
            persist_eval(store, fp, ctx.space().index(genes), obj);
        }
        obj
    };
    let outcome = if racing {
        // The screening context: every benchmark truncated to its
        // heaviest loops, with its own power calibration and its own
        // store fingerprint so persisted screens can never alias full
        // measurements.
        let screen_suites: Vec<&ProfiledSuite> = suites.iter().map(|s| s.screen_subset()).collect();
        let screen_ctx = SearchContext::new(kind, &screen_suites);
        let sfp = screen_ctx.space_fingerprint();
        let screen = |genes: &Vec<u32>, inner: &Executor| {
            let index = screen_ctx.space().index(genes);
            if let Some(store) = &store {
                let key = StoreKey {
                    content: sfp,
                    config: index,
                };
                if let Some(rec) = store.get_eval(key) {
                    return record_objectives(&rec);
                }
            }
            let obj = screen_ctx.evaluate(genes, inner);
            if let Some(store) = &store {
                persist_eval(store, sfp, index, obj);
            }
            obj
        };
        let evaluator = ScaledEvaluator::new(full, screen)
            .with_racing()
            .with_warm(warm);
        strategy.run(&sharded, &evaluator, budget, seed, exec)
    } else {
        let evaluator = ScaledEvaluator::full(full).with_warm(warm);
        strategy.run(&sharded, &evaluator, budget, seed, exec)
    };
    // Decoding a paper-space row repeats the voltage descent, so each
    // frontier entry is decoded once; the scalar winner is one of them.
    let frontier: Vec<FrontierRow> = outcome
        .archive
        .entries()
        .iter()
        .map(|e| {
            ctx.frontier_row(&ArchiveEntry {
                index: sharded.global_index(e.index),
                point: e.point.clone(),
                objectives: e.objectives,
            })
        })
        .collect();
    let best = outcome
        .best()
        .map(|e| sharded.global_index(e.index))
        .and_then(|idx| frontier.iter().find(|row| row.index == idx))
        .cloned();
    Ok(SearchRun {
        strategy: outcome.strategy,
        space: kind,
        budget: outcome.budget,
        seed: outcome.seed,
        space_size,
        shard,
        shard_count,
        shard_size: sharded.size(),
        evaluations: outcome.evaluations,
        best,
        frontier,
        trace: outcome
            .trace
            .iter()
            .map(|t| TraceRow {
                evaluations: t.evaluations,
                index: sharded.global_index(t.index),
                ed2: t.ed2,
            })
            .collect(),
        screened: outcome.screened,
        warm_entries,
    })
}

/// The mergeable artefact of one search shard. Frontier rows carry
/// global canonical indices; there is no convergence trace (traces are
/// shard-local and deliberately dropped so merged output cannot depend
/// on shard count).
#[derive(Debug, Clone, Serialize)]
pub struct ShardReport {
    /// Strategy name (`hillclimb` | `anneal` | `ga` | `exhaustive`).
    pub strategy: String,
    /// Space name (`paper` | `extended`).
    pub space: String,
    /// Requested distinct-evaluation budget for this shard.
    pub budget: u64,
    /// Search seed.
    pub seed: u64,
    /// Size of the *whole* candidate space.
    pub space_size: u64,
    /// This shard's 1-based number.
    pub shard: u32,
    /// Total number of shards.
    pub shard_count: u32,
    /// Number of candidates in this shard.
    pub shard_size: u64,
    /// Distinct candidate evaluations spent in this shard.
    pub evaluations: u64,
    /// The shard's scalar (minimum-ED²) winner, if any was feasible.
    pub best: Option<FrontierRow>,
    /// The shard's non-dominated frontier (global indices).
    pub frontier: Vec<FrontierRow>,
}

/// The merged artefact of a full set of shard runs. Contains no
/// shard-count or per-shard fields: merging `n` full-coverage shard
/// reports yields the same bytes for every `n` and every merge order.
#[derive(Debug, Clone, Serialize)]
pub struct MergedReport {
    /// Strategy name the shards ran.
    pub strategy: String,
    /// Space name.
    pub space: String,
    /// Size of the whole candidate space.
    pub space_size: u64,
    /// Total distinct evaluations across all merged shards.
    pub evaluations: u64,
    /// The global scalar (minimum-ED²) winner.
    pub best: Option<FrontierRow>,
    /// The global non-dominated frontier, sorted by execution time.
    pub frontier: Vec<FrontierRow>,
}

/// Folds shard artefacts into one global frontier.
///
/// Shards must agree on strategy, space and space size; a candidate
/// index appearing in two shards with different row bytes is a hard
/// error (evaluation is deterministic, so honest shard artefacts can
/// only duplicate a row identically). The result is independent of the
/// order and grouping of `reports`.
///
/// # Errors
///
/// Returns a description of the first inconsistency: empty input,
/// mismatched run parameters, or conflicting duplicate rows.
pub fn merge_shard_reports(reports: &[ShardReport]) -> Result<MergedReport, String> {
    let first = reports
        .first()
        .ok_or_else(|| "no shard reports to merge".to_owned())?;
    let mut rows: std::collections::BTreeMap<u64, &FrontierRow> = std::collections::BTreeMap::new();
    let mut evaluations = 0u64;
    for report in reports {
        if report.strategy != first.strategy
            || report.space != first.space
            || report.space_size != first.space_size
        {
            return Err(format!(
                "shard {}/{} ran {} on {} (size {}), but shard {}/{} ran {} on {} (size {})",
                first.shard,
                first.shard_count,
                first.strategy,
                first.space,
                first.space_size,
                report.shard,
                report.shard_count,
                report.strategy,
                report.space,
                report.space_size,
            ));
        }
        evaluations += report.evaluations;
        for row in &report.frontier {
            if let Some(existing) = rows.get(&row.index) {
                let a = serde_json::to_string(existing).map_err(|e| e.to_string())?;
                let b = serde_json::to_string(&row).map_err(|e| e.to_string())?;
                if a != b {
                    return Err(format!(
                        "conflicting rows for candidate {}: {a} vs {b}",
                        row.index
                    ));
                }
            } else {
                rows.insert(row.index, row);
            }
        }
    }
    // Re-running the archive over the union in ascending-index order
    // reproduces the unsharded frontier exactly: insertion handles
    // domination, and index order makes objective ties collapse to the
    // lowest index just as one run would.
    let mut archive: ParetoArchive<u64> = ParetoArchive::new();
    for (&index, row) in &rows {
        archive.insert(ArchiveEntry {
            index,
            point: index,
            objectives: Objectives {
                exec_time_ns: row.exec_time_ns,
                energy: row.energy,
                ed2: row.ed2,
            },
        });
    }
    let frontier: Vec<FrontierRow> = archive
        .entries()
        .iter()
        .map(|e| (*rows[&e.index]).clone())
        .collect();
    let best = archive.best().map(|e| (*rows[&e.index]).clone());
    Ok(MergedReport {
        strategy: first.strategy.clone(),
        space: first.space.clone(),
        space_size: first.space_size,
        evaluations,
        best,
        frontier,
    })
}

// ---------------------------------------------------------------------
// Strict wire parsing for shard artefacts. The vendored serde layer is
// serialise-only for domain types, so the merge subcommand re-reads its
// own artefacts through a hand parser with the same discipline the
// request wire uses: every field required, unknown fields rejected.
// ---------------------------------------------------------------------

fn object<'a>(v: &'a Value, what: &str) -> Result<&'a [(String, Value)], String> {
    v.as_object()
        .ok_or_else(|| format!("{what} must be an object, got {}", v.type_name()))
}

fn check_keys(v: &Value, what: &str, allowed: &[&str]) -> Result<(), String> {
    for (key, _) in object(v, what)? {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown {what} field {key:?}"));
        }
    }
    Ok(())
}

fn field<'a>(v: &'a Value, what: &str, key: &str) -> Result<&'a Value, String> {
    object(v, what)?;
    v.get(key)
        .ok_or_else(|| format!("{what} is missing field {key:?}"))
}

fn str_field(v: &Value, what: &str, key: &str) -> Result<String, String> {
    field(v, what, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("{what} field {key:?} must be a string"))
}

fn u64_field(v: &Value, what: &str, key: &str) -> Result<u64, String> {
    field(v, what, key)?
        .as_u64()
        .ok_or_else(|| format!("{what} field {key:?} must be an unsigned integer"))
}

fn u32_field(v: &Value, what: &str, key: &str) -> Result<u32, String> {
    u32::try_from(u64_field(v, what, key)?)
        .map_err(|_| format!("{what} field {key:?} is out of range"))
}

fn u8_field(v: &Value, what: &str, key: &str) -> Result<u8, String> {
    u8::try_from(u64_field(v, what, key)?)
        .map_err(|_| format!("{what} field {key:?} is out of range"))
}

fn f64_field(v: &Value, what: &str, key: &str) -> Result<f64, String> {
    field(v, what, key)?
        .as_f64()
        .ok_or_else(|| format!("{what} field {key:?} must be a number"))
}

const ROW_FIELDS: [&str; 12] = [
    "index",
    "buses",
    "num_fast",
    "fast_cycle_ns",
    "slow_cycle_ns",
    "vdd_fast",
    "vdd_slow",
    "vdd_icn",
    "vdd_cache",
    "exec_time_ns",
    "energy",
    "ed2",
];

fn parse_row(v: &Value) -> Result<FrontierRow, String> {
    let what = "frontier row";
    check_keys(v, what, &ROW_FIELDS)?;
    Ok(FrontierRow {
        index: u64_field(v, what, "index")?,
        buses: u32_field(v, what, "buses")?,
        num_fast: u8_field(v, what, "num_fast")?,
        fast_cycle_ns: f64_field(v, what, "fast_cycle_ns")?,
        slow_cycle_ns: f64_field(v, what, "slow_cycle_ns")?,
        vdd_fast: f64_field(v, what, "vdd_fast")?,
        vdd_slow: f64_field(v, what, "vdd_slow")?,
        vdd_icn: f64_field(v, what, "vdd_icn")?,
        vdd_cache: f64_field(v, what, "vdd_cache")?,
        exec_time_ns: f64_field(v, what, "exec_time_ns")?,
        energy: f64_field(v, what, "energy")?,
        ed2: f64_field(v, what, "ed2")?,
    })
}

impl ShardReport {
    /// Parses a shard artefact exactly as the binary wrote it: every
    /// field required, unknown fields rejected, `best` either `null` or
    /// a full frontier row. Round-trips byte-identically through
    /// `serde_json::to_string_pretty`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or structural
    /// problem.
    pub fn from_json_str(s: &str) -> Result<Self, String> {
        let v = serde_json::from_str(s).map_err(|e| format!("shard report: {e}"))?;
        let what = "shard report";
        check_keys(
            &v,
            what,
            &[
                "strategy",
                "space",
                "budget",
                "seed",
                "space_size",
                "shard",
                "shard_count",
                "shard_size",
                "evaluations",
                "best",
                "frontier",
            ],
        )?;
        let best = match field(&v, what, "best")? {
            Value::Null => None,
            row => Some(parse_row(row)?),
        };
        let frontier = field(&v, what, "frontier")?
            .as_array()
            .ok_or_else(|| format!("{what} field \"frontier\" must be an array"))?
            .iter()
            .map(parse_row)
            .collect::<Result<Vec<_>, _>>()?;
        let report = ShardReport {
            strategy: str_field(&v, what, "strategy")?,
            space: str_field(&v, what, "space")?,
            budget: u64_field(&v, what, "budget")?,
            seed: u64_field(&v, what, "seed")?,
            space_size: u64_field(&v, what, "space_size")?,
            shard: u32_field(&v, what, "shard")?,
            shard_count: u32_field(&v, what, "shard_count")?,
            shard_size: u64_field(&v, what, "shard_size")?,
            evaluations: u64_field(&v, what, "evaluations")?,
            best,
            frontier,
        };
        if report.shard < 1 || report.shard > report.shard_count {
            return Err(format!(
                "shard {} is not in 1..={}",
                report.shard, report.shard_count
            ));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use vliw_workloads::{generate, spec_fp2000, Benchmark};

    use crate::experiments::profile_suite;

    fn small_suite() -> Vec<Benchmark> {
        vec![
            generate(&spec_fp2000()[8], 4),
            generate(&spec_fp2000()[1], 4),
        ]
    }

    fn profiled_with(store: Option<Arc<MeasureStore>>) -> ProfiledSuite {
        profile_suite(&small_suite(), 1, &Executor::serial(), store).unwrap()
    }

    fn profiled() -> ProfiledSuite {
        profiled_with(None)
    }

    /// One serial paper-space search of `suite`.
    fn search(
        strategy: Strategy,
        budget: u64,
        seed: u64,
        suite: &ProfiledSuite,
        racing: bool,
        shard: (u32, u32),
    ) -> SearchRun {
        run_search(
            SpaceKind::Paper,
            strategy,
            budget,
            seed,
            &[suite],
            &Executor::serial(),
            racing,
            shard,
        )
        .unwrap()
    }

    /// Tentpole differential: with full coverage, the racing frontier is
    /// byte-identical to the plain full-measurement frontier for every
    /// strategy — screening reorders *when* candidates are measured,
    /// never *what* the archive records.
    #[test]
    fn racing_report_is_byte_identical_to_full_measurement() {
        let suite = profiled();
        for strategy in Strategy::ALL {
            let plain = search(strategy, 64, 9, &suite, false, (1, 1));
            let raced = search(strategy, 64, 9, &suite, true, (1, 1));
            assert_eq!(raced.evaluations, plain.evaluations, "{strategy}");
            assert_eq!(
                serde_json::to_string_pretty(&plain.frontier).unwrap(),
                serde_json::to_string_pretty(&raced.frontier).unwrap(),
                "{strategy}: racing must not change a full-coverage frontier"
            );
            assert_eq!(
                serde_json::to_string(&plain.best).unwrap(),
                serde_json::to_string(&raced.best).unwrap(),
                "{strategy}: racing must not change the winner"
            );
            if strategy == Strategy::Exhaustive || strategy == Strategy::Genetic {
                // These two always form batches of ≥ 4 fresh candidates
                // on this grid (index chunks, generational populations);
                // hill climbing and annealing walk in steps too small to
                // rung on 20 points.
                assert!(raced.screened > 0, "{strategy}: racing engaged");
            }
        }
    }

    /// The screening suite is built once per suite, so a racing search
    /// repeated on one suite without a store measures neither a screen
    /// nor a full evaluation again, and answers the same.
    #[test]
    fn a_repeated_racing_search_measures_nothing() {
        let suite = profiled();
        let first = search(Strategy::Exhaustive, 64, 0, &suite, true, (1, 1));
        let screens = suite.screen_subset().measured();
        let full = suite.measured();
        assert!(first.screened > 0 && screens > 0, "the first run screens");
        let second = search(Strategy::Exhaustive, 64, 0, &suite, true, (1, 1));
        assert_eq!(suite.screen_subset().measured(), screens, "screens again");
        assert_eq!(suite.measured(), full, "evaluates again");
        assert_eq!(
            serde_json::to_string(&SearchReport::from(first)).unwrap(),
            serde_json::to_string(&SearchReport::from(second)).unwrap(),
        );
    }

    /// Tentpole differential: a 3-way shard split with full per-shard
    /// coverage merges to exactly the unsharded report (frontier, best
    /// and evaluation total), in either merge order.
    #[test]
    fn sharded_search_merges_to_the_unsharded_report() {
        let suite = profiled();
        let whole = search(Strategy::Exhaustive, u64::MAX, 5, &suite, false, (1, 1));
        let shards: Vec<ShardReport> = (1..=3)
            .map(|i| search(Strategy::Exhaustive, u64::MAX, 5, &suite, false, (i, 3)).into())
            .collect();
        for report in &shards {
            assert_eq!(report.evaluations, report.shard_size, "full coverage");
            assert_eq!(report.space_size, whole.space_size);
        }
        let mut reversed = shards.clone();
        reversed.reverse();
        let merged = merge_shard_reports(&shards).unwrap();
        let merged_rev = merge_shard_reports(&reversed).unwrap();
        assert_eq!(
            serde_json::to_string_pretty(&merged).unwrap(),
            serde_json::to_string_pretty(&merged_rev).unwrap(),
            "merge order must not change the artefact"
        );
        assert_eq!(merged.evaluations, whole.evaluations);
        assert_eq!(
            serde_json::to_string(&merged.frontier).unwrap(),
            serde_json::to_string(&whole.frontier).unwrap(),
            "merged frontier equals the unsharded frontier"
        );
        assert_eq!(
            serde_json::to_string(&merged.best).unwrap(),
            serde_json::to_string(&whole.best).unwrap(),
        );
    }

    /// An over-sharded request is an error naming the space size, not a
    /// panic, and so is a shard outside `1..=n`.
    #[test]
    fn impossible_shards_are_errors() {
        let suite = profiled();
        let run = |shard| {
            run_search(
                SpaceKind::Paper,
                Strategy::Exhaustive,
                64,
                0,
                &[&suite],
                &Executor::serial(),
                false,
                shard,
            )
            .unwrap_err()
        };
        assert!(run((21, 21)).contains("20-candidate"), "{}", run((21, 21)));
        assert!(run((0, 2)).contains("1..=2"), "{}", run((0, 2)));
        assert!(run((3, 2)).contains("1..=2"), "{}", run((3, 2)));
    }

    /// Satellite: a warm replay over a persistent store reproduces the
    /// cold report byte for byte without re-measuring, and reports how
    /// many persisted evaluations it started from.
    #[test]
    fn warm_replay_reproduces_the_cold_report() {
        let dir = std::env::temp_dir().join(format!("scale-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(MeasureStore::open(&dir).unwrap());
        let cold_suite = profiled_with(Some(store.clone()));
        let cold = search(Strategy::Genetic, 12, 4, &cold_suite, false, (1, 1));
        assert_eq!(cold.warm_entries, 0, "first run starts cold");
        let warm_suite = profiled_with(Some(store.clone()));
        let warm = search(Strategy::Genetic, 12, 4, &warm_suite, false, (1, 1));
        assert_eq!(warm.warm_entries, cold.evaluations);
        assert_eq!(
            serde_json::to_string_pretty(&SearchReport::from(cold)).unwrap(),
            serde_json::to_string_pretty(&SearchReport::from(warm)).unwrap(),
            "warm replay must be byte-identical"
        );
        assert_eq!(
            warm_suite.measured(),
            0,
            "the warm replay must not re-measure anything"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: shard artefacts round-trip the wire byte-identically,
    /// and the strict parser rejects malformed input.
    #[test]
    fn shard_artifacts_round_trip_and_parse_strictly() {
        let suite = profiled();
        let shard = ShardReport::from(search(
            Strategy::HillClimb,
            u64::MAX,
            1,
            &suite,
            false,
            (2, 2),
        ));
        let text = serde_json::to_string_pretty(&shard).unwrap();
        let parsed = ShardReport::from_json_str(&text).unwrap();
        assert_eq!(
            serde_json::to_string_pretty(&parsed).unwrap(),
            text,
            "parse ∘ serialise must be the identity on artefact bytes"
        );
        for (broken, needle) in [
            ("{}", "missing field"),
            ("[1,2]", "must be an object"),
            (&text.replacen("\"seed\"", "\"sead\"", 1), "unknown"),
            (&text.replacen(": 1,", ": -1,", 1), "unsigned"),
        ] {
            let err = ShardReport::from_json_str(broken).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    /// Satellite: merging is defensive — empty input, mismatched runs
    /// and conflicting duplicate rows are hard errors, identical
    /// duplicates are collapsed.
    #[test]
    fn merge_rejects_conflicts_and_mismatches() {
        let suite = profiled();
        let shard = |i, n| {
            ShardReport::from(search(
                Strategy::Exhaustive,
                u64::MAX,
                0,
                &suite,
                false,
                (i, n),
            ))
        };
        assert!(merge_shard_reports(&[]).unwrap_err().contains("no shard"));

        let a = shard(1, 2);
        let b = shard(2, 2);
        let mut wrong_space = b.clone();
        wrong_space.space = "extended".to_owned();
        wrong_space.space_size = 90_720;
        let err = merge_shard_reports(&[a.clone(), wrong_space]).unwrap_err();
        assert!(err.contains("extended"), "{err:?}");

        // The same artefact twice is a benign duplicate …
        let twice = merge_shard_reports(&[a.clone(), a.clone(), b.clone()]).unwrap();
        let once = merge_shard_reports(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(
            serde_json::to_string(&twice.frontier).unwrap(),
            serde_json::to_string(&once.frontier).unwrap(),
        );

        // … but the same index with different bytes is corruption.
        let mut corrupt = a.clone();
        assert!(!corrupt.frontier.is_empty(), "shard has frontier rows");
        corrupt.frontier[0].energy += 1.0;
        let err = merge_shard_reports(&[a, corrupt]).unwrap_err();
        assert!(err.contains("conflicting"), "{err:?}");
    }
}
