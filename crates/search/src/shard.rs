//! Deterministic gene-grid sharding: [`ShardedSpace`] restricts a
//! [`SearchSpace`] to the residue class `global % count == shard` so `n`
//! independent processes can each search a disjoint slice of one space
//! and later merge frontiers.
//!
//! The partition is round-robin on the canonical index, which keeps
//! every shard a representative cross-section of the grid (a contiguous
//! split would hand one shard all the low-voltage configurations and
//! another all the high ones). Local indices `0..size()` map to global
//! indices by `global = local * count + shard`; the map is strictly
//! monotone, so within-shard tie-breaking on the local index agrees
//! with global tie-breaking — the property that makes a merge of
//! fully-covered shard frontiers byte-identical to the unsharded
//! frontier regardless of shard count or merge order.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::space::SearchSpace;

/// One round-robin slice of an inner space: the points whose global
/// canonical index `g` satisfies `g % count == shard`.
#[derive(Debug, Clone)]
pub struct ShardedSpace<'a, S> {
    inner: &'a S,
    shard: u64,
    count: u64,
}

impl<'a, S: SearchSpace> ShardedSpace<'a, S> {
    /// The `shard`-th of `count` slices (0-based; CLI `--shard i/n` maps
    /// to `shard = i - 1`).
    ///
    /// # Panics
    ///
    /// Panics unless `shard < count` and `count <= inner.size()` (every
    /// shard must be non-empty — an empty slice has nothing to search).
    #[must_use]
    pub fn new(inner: &'a S, shard: u64, count: u64) -> Self {
        assert!(count >= 1, "shard count must be at least 1");
        assert!(shard < count, "shard {shard} out of range 0..{count}");
        assert!(
            count <= inner.size(),
            "cannot cut a {}-point space into {count} non-empty shards",
            inner.size()
        );
        ShardedSpace {
            inner,
            shard,
            count,
        }
    }

    /// The global canonical index of local index `local`.
    #[must_use]
    pub fn global_index(&self, local: u64) -> u64 {
        local * self.count + self.shard
    }

    /// The local index of a global index in this shard's residue class.
    ///
    /// # Panics
    ///
    /// Panics if `global` does not belong to this shard.
    #[must_use]
    pub fn local_index(&self, global: u64) -> u64 {
        assert_eq!(
            global % self.count,
            self.shard,
            "global index {global} is not in shard {}/{}",
            self.shard + 1,
            self.count
        );
        global / self.count
    }

    fn in_shard(&self, global: u64) -> bool {
        global % self.count == self.shard
    }
}

impl<S: SearchSpace> SearchSpace for ShardedSpace<'_, S> {
    type Point = S::Point;

    fn size(&self) -> u64 {
        // Points g < N with g % count == shard.
        let n = self.inner.size();
        if n > self.shard {
            (n - self.shard).div_ceil(self.count)
        } else {
            0
        }
    }

    fn point(&self, index: u64) -> S::Point {
        self.inner.point(self.global_index(index))
    }

    fn index(&self, point: &S::Point) -> u64 {
        self.local_index(self.inner.index(point))
    }

    fn neighbors(&self, point: &S::Point, out: &mut Vec<S::Point>) {
        // The inner neighbourhood filtered to this shard. It may come up
        // empty (a ±1 grid step changes the index by a stride that need
        // not preserve the residue class); hill climbing then simply
        // restarts, and the index-order sweep still guarantees coverage.
        let mut inner_out = Vec::new();
        self.inner.neighbors(point, &mut inner_out);
        out.extend(
            inner_out
                .into_iter()
                .filter(|p| self.in_shard(self.inner.index(p))),
        );
    }

    fn mutate(&self, point: &S::Point, rng: &mut SmallRng) -> S::Point {
        // Try the inner mutation a few times; most draws leave the
        // residue class, so fall back to a deterministic local step that
        // always stays in-shard and still reaches the whole slice.
        for _ in 0..16 {
            let candidate = self.inner.mutate(point, rng);
            if self.in_shard(self.inner.index(&candidate)) {
                return candidate;
            }
        }
        let next_local = (self.index(point) + 1) % self.size();
        self.point(next_local)
    }

    fn crossover(&self, a: &S::Point, b: &S::Point, rng: &mut SmallRng) -> S::Point {
        // Recombine in the inner space, then snap the child to this
        // shard's residue class (nearest in-shard index at or below the
        // child's block, clamped into range).
        let child = self.inner.crossover(a, b, rng);
        let g = self.inner.index(&child);
        if self.in_shard(g) {
            return child;
        }
        let snapped = (g / self.count) * self.count + self.shard;
        let snapped = if snapped < self.inner.size() {
            snapped
        } else {
            self.global_index(self.size() - 1)
        };
        self.inner.point(snapped)
    }

    fn sample(&self, rng: &mut SmallRng) -> S::Point {
        // Uniform over the slice via the local index (the default would
        // do the same; spelled out so the determinism contract is
        // explicit: one `gen_range` draw per sample).
        self.point(rng.gen_range(0..self.size()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{GridSpace, Objectives};
    use crate::{ScaledEvaluator, Strategy};
    use rand::SeedableRng;
    use vliw_exec::Executor;

    #[test]
    fn shards_partition_the_space_exactly() {
        let g = GridSpace::new(vec![7, 5]);
        for count in 1..=6u64 {
            let mut seen = vec![false; g.size() as usize];
            for shard in 0..count {
                let s = ShardedSpace::new(&g, shard, count);
                for local in 0..s.size() {
                    let global = s.global_index(local);
                    assert!(!seen[global as usize], "{global} covered twice");
                    seen[global as usize] = true;
                    assert_eq!(s.index(&s.point(local)), local);
                    assert_eq!(g.index(&s.point(local)), global);
                }
            }
            assert!(seen.iter().all(|&b| b), "{count}-way split missed points");
        }
    }

    #[test]
    fn moves_stay_in_shard() {
        let g = GridSpace::new(vec![6, 4, 3]);
        let mut rng = SmallRng::seed_from_u64(17);
        for count in [2u64, 3, 5] {
            for shard in 0..count {
                let s = ShardedSpace::new(&g, shard, count);
                for _ in 0..50 {
                    let a = s.sample(&mut rng);
                    let b = s.sample(&mut rng);
                    assert_eq!(g.index(&a) % count, shard);
                    let m = s.mutate(&a, &mut rng);
                    assert_eq!(g.index(&m) % count, shard, "mutate left the shard");
                    let c = s.crossover(&a, &b, &mut rng);
                    assert_eq!(g.index(&c) % count, shard, "crossover left the shard");
                    let mut out = Vec::new();
                    s.neighbors(&a, &mut out);
                    for n in &out {
                        assert_eq!(g.index(n) % count, shard, "neighbour left the shard");
                    }
                }
            }
        }
    }

    /// An unsharded search is shard 1 of 1: on `ShardedSpace::new(&g, 0,
    /// 1)` every strategy takes the same walk as on `g` itself, with a
    /// plain, a racing and a warm-started evaluator, under a budget below
    /// the space size and at it. The whole outcome, archive and trace
    /// included, is equal.
    #[test]
    fn one_shard_of_one_is_the_whole_space() {
        let g = GridSpace::new(vec![9, 7]);
        let one = ShardedSpace::new(&g, 0, 1);
        let exec = Executor::serial();
        // A bumpy bowl with an infeasible column, so the archive, the
        // trace and infeasible candidates all take part.
        let full = |p: &Vec<u32>, _: &Executor| {
            let (x, y) = (f64::from(p[0]), f64::from(p[1]));
            (p[0] != 4).then(|| {
                Objectives::from_time_energy(
                    1.0 + (x - 3.0).powi(2) + (2.0 * y).sin().abs(),
                    1.0 + (y - 5.0).powi(2) + 0.1 * x,
                )
            })
        };
        // A screen that ranks differently from the full measurement.
        let screen = |p: &Vec<u32>, e: &Executor| {
            full(p, e)
                .map(|o| Objectives::from_time_energy(o.exec_time_ns + f64::from(p[1]), o.energy))
        };
        let warm: Vec<(u64, Option<Objectives>)> = (0..g.size())
            .step_by(5)
            .map(|i| (i, full(&g.point(i), &exec)))
            .collect();
        let mut screened = 0;
        for strategy in Strategy::ALL {
            for budget in [g.size() / 2, g.size()] {
                let plain = ScaledEvaluator::full(full);
                let racing = ScaledEvaluator::new(full, screen).with_racing();
                let warmed = ScaledEvaluator::full(full).with_warm(warm.clone());
                for seed in [0, 7] {
                    let whole = strategy.run(&g, &plain, budget, seed, &exec);
                    assert_eq!(
                        strategy.run(&one, &plain, budget, seed, &exec),
                        whole,
                        "{strategy} plain, budget {budget}, seed {seed}"
                    );
                    let whole = strategy.run(&g, &racing, budget, seed, &exec);
                    screened += whole.screened;
                    assert_eq!(
                        strategy.run(&one, &racing, budget, seed, &exec),
                        whole,
                        "{strategy} racing, budget {budget}, seed {seed}"
                    );
                    let whole = strategy.run(&g, &warmed, budget, seed, &exec);
                    assert_eq!(
                        strategy.run(&one, &warmed, budget, seed, &exec),
                        whole,
                        "{strategy} warm, budget {budget}, seed {seed}"
                    );
                }
            }
        }
        assert!(screened > 0, "racing engaged");
    }

    #[test]
    #[should_panic(expected = "not in shard")]
    fn foreign_point_is_rejected() {
        let g = GridSpace::new(vec![10]);
        let s = ShardedSpace::new(&g, 0, 2);
        let _ = s.index(&vec![3]); // global 3 is shard 1's
    }

    #[test]
    #[should_panic(expected = "non-empty shards")]
    fn oversharding_panics() {
        let g = GridSpace::new(vec![3]);
        let _ = ShardedSpace::new(&g, 0, 4);
    }
}
