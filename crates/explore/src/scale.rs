//! Scaled design-space search: racing, store-warmed archives, and
//! sharded runs with deterministic merges.
//!
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
//!   residue class `index % n == i-1`
//!   ([`ShardedSpace`]) and emits a
//!   mergeable [`ShardReport`]; [`merge_shard_reports`] folds any
//!   full set of shard artefacts into one [`MergedReport`] whose bytes
//!   are independent of shard count and merge order.
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

use std::sync::Arc;

use serde::Serialize;
use serde_json::Value;

use vliw_exec::Executor;
use vliw_search::{
    ArchiveEntry, Objectives, ParetoArchive, RacingPlan, ScaledEvaluator, SearchOutcome,
    SearchSpace, ShardedSpace, Strategy,
};
use vliw_store::{EvalObjectives, EvalRecord, MeasureStore, StoreKey};

use crate::experiments::{ExperimentOptions, ProfiledSuite};
use crate::search::{FrontierRow, SearchContext, SearchReport, SpaceKind, TraceRow};

/// Side-channel counters of one scaled run — everything the byte-stable
/// [`SearchReport`] deliberately omits.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScaleStats {
    /// Distinct candidates screened by racing (0 when racing is off).
    pub screened: u64,
    /// Persisted evaluations the run warm-started from.
    pub warm_entries: u64,
}

/// A full-space scaled search: the ordinary report plus scale counters.
#[derive(Debug, Clone)]
pub struct ScaledSearch {
    /// The byte-stable artefact, identical to a plain (non-racing) run
    /// of the same arguments whenever the budget covers the space.
    pub report: SearchReport,
    /// Racing / warm-start counters (never serialised into the report).
    pub stats: ScaleStats,
}

/// One shard of a sharded scaled search.
#[derive(Debug, Clone)]
pub struct ShardSearch {
    /// The mergeable shard artefact.
    pub report: ShardReport,
    /// Racing / warm-start counters for this shard.
    pub stats: ScaleStats,
}

/// Maps a persisted evaluation back to engine objectives.
fn record_objectives(rec: &EvalRecord) -> Option<Objectives> {
    rec.objectives.map(|o| Objectives {
        exec_time_ns: o.exec_time_ns,
        energy: o.energy,
        ed2: o.ed2,
    })
}

/// Persists one evaluation under `(content, index)` unless already
/// present. Feasible results with non-finite objectives are not
/// persistable (the wire format carries finite numbers only) and are
/// simply skipped; store write failures degrade to a warning, exactly
/// like the measurement path.
fn persist_eval(store: &MeasureStore, content: u64, index: u64, obj: Option<Objectives>) {
    let key = StoreKey {
        content,
        config: index,
    };
    if store.get_eval(key).is_some() {
        return;
    }
    let objectives = match obj {
        None => None,
        Some(o) if o.is_finite() => Some(EvalObjectives {
            exec_time_ns: o.exec_time_ns,
            energy: o.energy,
            ed2: o.ed2,
        }),
        Some(_) => return,
    };
    if let Err(err) = store.put_eval(key, EvalRecord { objectives }) {
        eprintln!("warning: failed to persist evaluation: {err}");
    }
}

/// Every persisted evaluation of `fp`, as the engine's warm-entry table.
fn warm_entries(store: &MeasureStore, fp: u64, size: u64) -> Vec<(u64, Option<Objectives>)> {
    store
        .warm_evals(fp, size)
        .into_iter()
        .map(|(idx, rec)| (idx, record_objectives(&rec)))
        .collect()
}

/// Runs one strategy over `space` with the scaling levers wired in: the
/// full measurement persists to `store` under `fp`, racing (when on)
/// screens on truncated suites persisted under the screening context's
/// own fingerprint, and `warm` pre-seeds the engine.
#[allow(clippy::too_many_arguments)]
fn drive<S: SearchSpace<Point = Vec<u32>>>(
    ctx: &SearchContext<'_>,
    kind: SpaceKind,
    strategy: Strategy,
    budget: u64,
    seed: u64,
    suites: &[&ProfiledSuite],
    opts: &ExperimentOptions,
    exec: &Executor,
    space: &S,
    racing: bool,
    warm: Vec<(u64, Option<Objectives>)>,
    fp: u64,
    store: Option<Arc<MeasureStore>>,
) -> SearchOutcome<Vec<u32>> {
    let full_store = store.clone();
    let full = move |genes: &Vec<u32>, inner: &Executor| {
        let obj = ctx.evaluate(genes, inner);
        if let Some(store) = &full_store {
            persist_eval(store, fp, ctx.space().index(genes), obj);
        }
        obj
    };
    if !racing {
        let evaluator = ScaledEvaluator::full(full).with_warm(warm);
        return strategy.run_with(space, &evaluator, budget, seed, exec);
    }
    // The screening context: every benchmark truncated to its heaviest
    // loops, with its own power calibration and its own store
    // fingerprint so persisted screens can never alias full
    // measurements.
    let screen_suites: Vec<ProfiledSuite> = suites.iter().map(|s| s.screen_subset()).collect();
    let screen_refs: Vec<&ProfiledSuite> = screen_suites.iter().collect();
    let screen_ctx = SearchContext::new(kind, &screen_refs, opts);
    let sfp = screen_ctx.space_fingerprint();
    let screen_store = store;
    let screen = move |genes: &Vec<u32>, inner: &Executor| {
        let index = screen_ctx.space().index(genes);
        if let Some(store) = &screen_store {
            let key = StoreKey {
                content: sfp,
                config: index,
            };
            if let Some(rec) = store.get_eval(key) {
                return record_objectives(&rec);
            }
        }
        let obj = screen_ctx.evaluate(genes, inner);
        if let Some(store) = &screen_store {
            persist_eval(store, sfp, index, obj);
        }
        obj
    };
    let evaluator = ScaledEvaluator::new(full, screen)
        .with_racing(RacingPlan::from_budget(budget.min(space.size())))
        .with_warm(warm);
    strategy.run_with(space, &evaluator, budget, seed, exec)
}

/// Builds the byte-stable report exactly as the original search runner
/// did — the report schema gains nothing from scaling.
fn report_from(
    ctx: &SearchContext<'_>,
    kind: SpaceKind,
    outcome: &SearchOutcome<Vec<u32>>,
) -> SearchReport {
    // Decoding a paper-space row repeats the voltage descent, so each
    // frontier entry is decoded once; the scalar winner is one of them.
    let frontier: Vec<FrontierRow> = outcome
        .archive
        .entries()
        .iter()
        .map(|e| ctx.frontier_row(e))
        .collect();
    let best = outcome
        .best()
        .map(|e| e.index)
        .and_then(|idx| frontier.iter().find(|row| row.index == idx))
        .cloned();
    SearchReport {
        strategy: outcome.strategy.to_owned(),
        space: kind.name().to_owned(),
        budget: outcome.budget,
        seed: outcome.seed,
        space_size: outcome.space_size,
        evaluations: outcome.evaluations,
        best,
        frontier,
        trace: outcome
            .trace
            .iter()
            .map(|t| TraceRow {
                evaluations: t.evaluations,
                index: t.index,
                ed2: t.ed2,
            })
            .collect(),
    }
}

/// Runs one seeded search over the profiled suites and returns the
/// serialisable report plus its scale counters: warm starts whenever the
/// first suite carries a store, racing when `racing` is set.
///
/// `suites` holds one [`ProfiledSuite`] per bus count the space may
/// place candidates on; the paper space uses only the first. The report
/// is deterministic for fixed `(kind, strategy, budget, seed)` and
/// identical for every worker count of `exec` (candidate batches are
/// fanned out with input-ordered reduction, and the evaluation itself is
/// deterministic). When the first suite carries a persistent store,
/// evaluations are persisted and a replay of the same arguments produces
/// the same bytes without re-measuring. Racing changes *which*
/// candidates are measured under a partial budget but leaves a
/// full-coverage frontier byte-identical.
///
/// # Panics
///
/// Panics if `suites` is empty.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_search_scaled(
    kind: SpaceKind,
    strategy: Strategy,
    budget: u64,
    seed: u64,
    suites: &[&ProfiledSuite],
    opts: &ExperimentOptions,
    exec: &Executor,
    racing: bool,
) -> ScaledSearch {
    let ctx = SearchContext::new(kind, suites, opts);
    let fp = ctx.space_fingerprint();
    let store = suites[0].store().cloned();
    let warm = store
        .as_ref()
        .map_or_else(Vec::new, |s| warm_entries(s, fp, ctx.space().size()));
    let warm_count = warm.len() as u64;
    let outcome = drive(
        &ctx,
        kind,
        strategy,
        budget,
        seed,
        suites,
        opts,
        exec,
        ctx.space(),
        racing,
        warm,
        fp,
        store,
    );
    let report = report_from(&ctx, kind, &outcome);
    ScaledSearch {
        report,
        stats: ScaleStats {
            screened: outcome.screened,
            warm_entries: warm_count,
        },
    }
}

/// Runs shard `shard` (1-based) of an `shard_count`-way sharded search:
/// the walk is confined to the round-robin residue class
/// `index % shard_count == shard - 1`, warm entries are filtered to the
/// shard, and the artefact is a [`ShardReport`] whose frontier rows
/// carry *global* canonical indices so shard artefacts merge without
/// translation.
///
/// # Panics
///
/// Panics if `suites` is empty, if `shard` is not in
/// `1..=shard_count`, or if `shard_count` exceeds the space size (some
/// shard would be empty).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_search_shard(
    kind: SpaceKind,
    strategy: Strategy,
    budget: u64,
    seed: u64,
    suites: &[&ProfiledSuite],
    opts: &ExperimentOptions,
    exec: &Executor,
    racing: bool,
    shard: u32,
    shard_count: u32,
) -> ShardSearch {
    assert!(
        shard >= 1 && shard <= shard_count,
        "shard must be 1..=shard_count"
    );
    let ctx = SearchContext::new(kind, suites, opts);
    let fp = ctx.space_fingerprint();
    let store = suites[0].store().cloned();
    let k = u64::from(shard - 1);
    let count = u64::from(shard_count);
    let sharded = ShardedSpace::new(ctx.space(), k, count);
    // Warm entries are keyed by the *engine's* index space, which is
    // shard-local here; the store always speaks global indices.
    let warm: Vec<(u64, Option<Objectives>)> = store
        .as_ref()
        .map_or_else(Vec::new, |s| warm_entries(s, fp, ctx.space().size()))
        .into_iter()
        .filter(|(g, _)| g % count == k)
        .map(|(g, obj)| (g / count, obj))
        .collect();
    let warm_count = warm.len() as u64;
    let outcome = drive(
        &ctx, kind, strategy, budget, seed, suites, opts, exec, &sharded, racing, warm, fp, store,
    );
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
    let report = ShardReport {
        strategy: outcome.strategy.to_owned(),
        space: kind.name().to_owned(),
        budget: outcome.budget,
        seed: outcome.seed,
        space_size: ctx.space().size(),
        shard,
        shard_count,
        shard_size: sharded.size(),
        evaluations: outcome.evaluations,
        best,
        frontier,
    };
    ShardSearch {
        report,
        stats: ScaleStats {
            screened: outcome.screened,
            warm_entries: warm_count,
        },
    }
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
    use super::*;
    use vliw_sched::ScheduleOptions;
    use vliw_workloads::{generate, spec_fp2000, Benchmark};

    use crate::experiments::profile_suite;

    fn small_suite() -> Vec<Benchmark> {
        vec![
            generate(&spec_fp2000()[8], 4),
            generate(&spec_fp2000()[1], 4),
        ]
    }

    fn profiled_with(store: Option<Arc<MeasureStore>>) -> ProfiledSuite {
        let sched = ScheduleOptions::default();
        profile_suite(&small_suite(), 1, &sched, &Executor::serial(), store).unwrap()
    }

    fn profiled() -> ProfiledSuite {
        profiled_with(None)
    }

    /// Tentpole differential: with full coverage, the racing frontier is
    /// byte-identical to the plain full-measurement frontier for every
    /// strategy — screening reorders *when* candidates are measured,
    /// never *what* the archive records.
    #[test]
    fn racing_report_is_byte_identical_to_full_measurement() {
        let suite = profiled();
        let suites = [&suite];
        let opts = ExperimentOptions::default();
        for strategy in Strategy::ALL {
            let plain = run_search_scaled(
                SpaceKind::Paper,
                strategy,
                64,
                9,
                &suites,
                &opts,
                &Executor::serial(),
                false,
            )
            .report;
            let raced = run_search_scaled(
                SpaceKind::Paper,
                strategy,
                64,
                9,
                &suites,
                &opts,
                &Executor::serial(),
                true,
            );
            assert_eq!(raced.report.evaluations, plain.evaluations, "{strategy}");
            assert_eq!(
                serde_json::to_string_pretty(&plain.frontier).unwrap(),
                serde_json::to_string_pretty(&raced.report.frontier).unwrap(),
                "{strategy}: racing must not change a full-coverage frontier"
            );
            assert_eq!(
                serde_json::to_string(&plain.best).unwrap(),
                serde_json::to_string(&raced.report.best).unwrap(),
                "{strategy}: racing must not change the winner"
            );
            if strategy == Strategy::Exhaustive || strategy == Strategy::Genetic {
                // These two always form batches of ≥ 4 fresh candidates
                // on this grid (index chunks, generational populations);
                // hill climbing and annealing walk in steps too small to
                // rung on 20 points.
                assert!(raced.stats.screened > 0, "{strategy}: racing engaged");
            }
        }
    }

    /// Tentpole differential: a 3-way shard split with full per-shard
    /// coverage merges to exactly the unsharded report (frontier, best
    /// and evaluation total), in either merge order.
    #[test]
    fn sharded_search_merges_to_the_unsharded_report() {
        let suite = profiled();
        let suites = [&suite];
        let opts = ExperimentOptions::default();
        let whole = run_search_scaled(
            SpaceKind::Paper,
            Strategy::Exhaustive,
            u64::MAX,
            5,
            &suites,
            &opts,
            &Executor::serial(),
            false,
        )
        .report;
        let shards: Vec<ShardReport> = (1..=3)
            .map(|i| {
                run_search_shard(
                    SpaceKind::Paper,
                    Strategy::Exhaustive,
                    u64::MAX,
                    5,
                    &suites,
                    &opts,
                    &Executor::serial(),
                    false,
                    i,
                    3,
                )
                .report
            })
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

    /// Satellite: a warm replay over a persistent store reproduces the
    /// cold report byte for byte without re-measuring, and reports how
    /// many persisted evaluations it started from.
    #[test]
    fn warm_replay_reproduces_the_cold_report() {
        let dir = std::env::temp_dir().join(format!("scale-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExperimentOptions::default();
        let store = Arc::new(MeasureStore::open(&dir).unwrap());
        let cold_suite = profiled_with(Some(store.clone()));
        let cold = run_search_scaled(
            SpaceKind::Paper,
            Strategy::Genetic,
            12,
            4,
            &[&cold_suite],
            &opts,
            &Executor::serial(),
            false,
        );
        assert_eq!(cold.stats.warm_entries, 0, "first run starts cold");
        let warm_suite = profiled_with(Some(store.clone()));
        let warm = run_search_scaled(
            SpaceKind::Paper,
            Strategy::Genetic,
            12,
            4,
            &[&warm_suite],
            &opts,
            &Executor::serial(),
            false,
        );
        assert_eq!(
            serde_json::to_string_pretty(&cold.report).unwrap(),
            serde_json::to_string_pretty(&warm.report).unwrap(),
            "warm replay must be byte-identical"
        );
        assert_eq!(warm.stats.warm_entries, cold.report.evaluations);
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
        let suites = [&suite];
        let opts = ExperimentOptions::default();
        let shard = run_search_shard(
            SpaceKind::Paper,
            Strategy::HillClimb,
            u64::MAX,
            1,
            &suites,
            &opts,
            &Executor::serial(),
            false,
            2,
            2,
        )
        .report;
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
        let suites = [&suite];
        let opts = ExperimentOptions::default();
        let shard = |i, n| {
            run_search_shard(
                SpaceKind::Paper,
                Strategy::Exhaustive,
                u64::MAX,
                0,
                &suites,
                &opts,
                &Executor::serial(),
                false,
                i,
                n,
            )
            .report
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
