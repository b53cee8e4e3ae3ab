//! Property tests for gene-grid sharding: a search split round-robin
//! into `n` fully-covered shards, merged in any order, produces exactly
//! the unsharded frontier — the equivalence the `search merge` artifact
//! discipline rests on.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use vliw_exec::Executor;
use vliw_search::{
    ArchiveEntry, GridSpace, Objectives, ParetoArchive, SearchSpace, ShardedSpace, Strategy,
};

/// A deterministic synthetic objective with an infeasible pocket, like
/// the real voltage-range holes in the configuration space.
#[allow(clippy::ptr_arg)]
fn synth(genes: &Vec<u32>, _exec: &Executor) -> Option<Objectives> {
    if genes[0] == 1 && genes.get(1).is_some_and(|&g| g == 2) {
        return None;
    }
    let mut time = 2.0;
    let mut energy = 3.0;
    for (d, &g) in genes.iter().enumerate() {
        let x = f64::from(g);
        time += (x - 1.5 * d as f64).powi(2) + (0.9 * x).sin().abs();
        energy += (x - 0.7 * d as f64).powi(2) + (1.3 * x).cos().abs();
    }
    Some(Objectives::from_time_energy(time, energy))
}

/// Runs `strat` over every shard of an `n`-way split with full per-shard
/// coverage and merges the shard frontiers (local indices remapped to
/// global) in the given order.
fn merged_frontier(
    grid: &GridSpace,
    strat: Strategy,
    count: u64,
    shard_order: &[u64],
) -> ParetoArchive<Vec<u32>> {
    let mut merged = ParetoArchive::new();
    for &k in shard_order {
        let shard = ShardedSpace::new(grid, k, count);
        let outcome = strat.run(&shard, &synth, shard.size(), 5, &Executor::serial());
        assert_eq!(
            outcome.evaluations,
            shard.size(),
            "{strat}: full budget must fully cover shard {k}/{count}"
        );
        for e in outcome.archive.entries() {
            merged.insert(ArchiveEntry {
                index: shard.global_index(e.index),
                point: e.point.clone(),
                objectives: e.objectives,
            });
        }
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Merged shard frontiers equal the unsharded frontier for every
    /// strategy, shard count 1..8, and either merge order.
    #[test]
    fn merged_equals_unsharded(
        dims in proptest::collection::vec(2u32..6, 2..4),
        count in 1u64..8,
        strat_i in 0usize..4,
        reverse in 0u32..2,
    ) {
        let grid = GridSpace::new(dims);
        let count = count.min(grid.size());
        let strat = Strategy::ALL[strat_i];
        let truth = Strategy::Exhaustive.run(&grid, &synth, u64::MAX, 0, &Executor::serial());
        let mut order: Vec<u64> = (0..count).collect();
        if reverse == 1 {
            order.reverse();
        }
        let merged = merged_frontier(&grid, strat, count, &order);
        prop_assert_eq!(merged.entries(), truth.archive.entries());
    }

    /// The shard map `local ↔ global` round-trips and partitions.
    #[test]
    fn shard_indexing_partitions(
        dims in proptest::collection::vec(1u32..7, 1..4),
        count in 1u64..8,
    ) {
        let grid = GridSpace::new(dims);
        let count = count.min(grid.size());
        let mut covered = 0u64;
        for k in 0..count {
            let shard = ShardedSpace::new(&grid, k, count);
            covered += shard.size();
            for local in 0..shard.size() {
                let p = shard.point(local);
                prop_assert_eq!(shard.index(&p), local);
                prop_assert_eq!(grid.index(&p) % count, k);
                prop_assert_eq!(shard.local_index(shard.global_index(local)), local);
            }
        }
        prop_assert_eq!(covered, grid.size());
    }

    /// Random shard moves never leave the residue class.
    #[test]
    fn shard_moves_are_closed(
        dims in proptest::collection::vec(2u32..6, 2..4),
        count in 2u64..8,
        seed in 0u64..1024,
    ) {
        let grid = GridSpace::new(dims);
        let count = count.min(grid.size());
        let mut rng = SmallRng::seed_from_u64(seed);
        for k in 0..count {
            let shard = ShardedSpace::new(&grid, k, count);
            let a = shard.sample(&mut rng);
            let b = shard.sample(&mut rng);
            prop_assert_eq!(grid.index(&shard.mutate(&a, &mut rng)) % count, k);
            prop_assert_eq!(grid.index(&shard.crossover(&a, &b, &mut rng)) % count, k);
            let mut out = Vec::new();
            shard.neighbors(&a, &mut out);
            for n in &out {
                prop_assert_eq!(grid.index(n) % count, k);
            }
        }
    }
}
