//! Candidate spaces: the [`SearchSpace`] trait and the mixed-radix
//! [`GridSpace`] implementation, plus the [`Objectives`] every candidate
//! evaluates to.

use std::cmp::Ordering;

use rand::rngs::SmallRng;
use rand::Rng;

/// The three objectives of one evaluated candidate: execution time,
/// energy, and the paper's figure of merit ED² (energy × delay²).
///
/// ED² is carried explicitly rather than derived because suite-level
/// objectives are sums of per-benchmark terms (`Σ eᵢ·tᵢ²` is not a
/// function of `Σ eᵢ` and `Σ tᵢ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Execution time in nanoseconds (lower is better).
    pub exec_time_ns: f64,
    /// Energy in reference units (lower is better).
    pub energy: f64,
    /// Energy-delay-squared product in reference units × s² (lower is
    /// better; the scalar the strategies rank by).
    pub ed2: f64,
}

impl Objectives {
    /// Objectives for a single measurement, with `ed2 = energy · t²`
    /// (time converted from nanoseconds to seconds).
    #[must_use]
    pub fn from_time_energy(exec_time_ns: f64, energy: f64) -> Self {
        let secs = exec_time_ns * 1e-9;
        Objectives {
            exec_time_ns,
            energy,
            ed2: energy * secs * secs,
        }
    }

    /// Whether every objective is a finite number (archives reject
    /// anything else).
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.exec_time_ns.is_finite() && self.energy.is_finite() && self.ed2.is_finite()
    }

    /// Pareto dominance: `self` dominates `other` when it is no worse in
    /// every objective and strictly better in at least one.
    #[must_use]
    pub fn dominates(&self, other: &Objectives) -> bool {
        let no_worse = self.exec_time_ns <= other.exec_time_ns
            && self.energy <= other.energy
            && self.ed2 <= other.ed2;
        let better = self.exec_time_ns < other.exec_time_ns
            || self.energy < other.energy
            || self.ed2 < other.ed2;
        no_worse && better
    }

    /// The deterministic scalar ranking the strategies minimise: ED²
    /// first, execution time and energy as tie-breakers (callers break
    /// remaining ties on the candidate index). Uses `total_cmp`, so the
    /// order is total even in the presence of `-0.0`.
    #[must_use]
    pub fn scalar_cmp(&self, other: &Objectives) -> Ordering {
        self.ed2
            .total_cmp(&other.ed2)
            .then_with(|| self.exec_time_ns.total_cmp(&other.exec_time_ns))
            .then_with(|| self.energy.total_cmp(&other.energy))
    }
}

/// A finite, indexable candidate space the strategies walk.
///
/// Every point has a canonical index in `0..size()`; the index is the
/// memoisation key, the deterministic tie-breaker, and the random-sampling
/// handle. Implementations must keep `point` and `index` mutually inverse
/// and all operations deterministic for fixed RNG state.
pub trait SearchSpace: Sync {
    /// One candidate.
    type Point: Clone + Send + Sync;

    /// Number of points in the space (finite, at least 1).
    fn size(&self) -> u64;

    /// The point with canonical index `index` (`index < size()`).
    fn point(&self, index: u64) -> Self::Point;

    /// The canonical index of `point` (inverse of [`SearchSpace::point`]).
    fn index(&self, point: &Self::Point) -> u64;

    /// Appends the deterministic neighbourhood of `point` to `out` (the
    /// moves steepest-descent hill climbing considers). Must not include
    /// `point` itself and must be symmetric enough to connect the space.
    fn neighbors(&self, point: &Self::Point, out: &mut Vec<Self::Point>);

    /// A random small move away from `point` (annealing proposals, GA
    /// mutation). Must be able to reach the whole space through repeated
    /// application.
    fn mutate(&self, point: &Self::Point, rng: &mut SmallRng) -> Self::Point;

    /// A random recombination of two parents (GA crossover).
    fn crossover(&self, a: &Self::Point, b: &Self::Point, rng: &mut SmallRng) -> Self::Point;

    /// A uniformly random point.
    fn sample(&self, rng: &mut SmallRng) -> Self::Point {
        self.point(rng.gen_range(0..self.size()))
    }
}

/// A mixed-radix grid: points are gene vectors with `genes[d] <
/// dims[d]`, indexed row-major with dimension 0 fastest.
///
/// This is the workhorse space: the exploration layer describes a machine
/// configuration as a tuple of menu positions (cycle factor, slow/fast
/// ratio, speed-group split, bus width, per-group supply voltages) and
/// lets [`GridSpace`] provide indexing, neighbourhoods (±1 step per
/// dimension), mutation (re-draw one gene) and uniform crossover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpace {
    dims: Vec<u32>,
}

impl GridSpace {
    /// A grid with the given per-dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, any dimension is zero, or the total
    /// size overflows `u64`.
    #[must_use]
    pub fn new(dims: Vec<u32>) -> Self {
        assert!(!dims.is_empty(), "a grid needs at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be non-empty");
        let mut size = 1u64;
        for &d in &dims {
            size = size
                .checked_mul(u64::from(d))
                .expect("grid size must fit in u64");
        }
        GridSpace { dims }
    }

    /// The per-dimension sizes.
    #[must_use]
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }
}

impl SearchSpace for GridSpace {
    type Point = Vec<u32>;

    fn size(&self) -> u64 {
        self.dims.iter().map(|&d| u64::from(d)).product()
    }

    fn point(&self, index: u64) -> Vec<u32> {
        assert!(index < self.size(), "index {index} out of range");
        let mut rest = index;
        self.dims
            .iter()
            .map(|&d| {
                let g = (rest % u64::from(d)) as u32;
                rest /= u64::from(d);
                g
            })
            .collect()
    }

    fn index(&self, point: &Vec<u32>) -> u64 {
        assert_eq!(point.len(), self.dims.len(), "gene count mismatch");
        let mut idx = 0u64;
        let mut stride = 1u64;
        for (&g, &d) in point.iter().zip(&self.dims) {
            assert!(g < d, "gene {g} out of range 0..{d}");
            idx += u64::from(g) * stride;
            stride *= u64::from(d);
        }
        idx
    }

    fn neighbors(&self, point: &Vec<u32>, out: &mut Vec<Vec<u32>>) {
        for (d, &dim) in self.dims.iter().enumerate() {
            if point[d] > 0 {
                let mut n = point.clone();
                n[d] -= 1;
                out.push(n);
            }
            if point[d] + 1 < dim {
                let mut n = point.clone();
                n[d] += 1;
                out.push(n);
            }
        }
    }

    fn mutate(&self, point: &Vec<u32>, rng: &mut SmallRng) -> Vec<u32> {
        // Re-draw one gene of a multi-valued dimension to a different
        // value (the classic "exclude current" draw), so a mutation is
        // never the identity on spaces with more than one point.
        let movable: Vec<usize> = (0..self.dims.len()).filter(|&d| self.dims[d] > 1).collect();
        if movable.is_empty() {
            return point.clone();
        }
        let d = movable[rng.gen_range(0..movable.len())];
        let mut next = point.clone();
        let draw = rng.gen_range(0..self.dims[d] - 1);
        next[d] = if draw >= point[d] { draw + 1 } else { draw };
        next
    }

    fn crossover(&self, a: &Vec<u32>, b: &Vec<u32>, rng: &mut SmallRng) -> Vec<u32> {
        a.iter()
            .zip(b)
            .map(|(&ga, &gb)| if rng.gen_bool(0.5) { ga } else { gb })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dominance_is_strict_and_irreflexive() {
        let a = Objectives::from_time_energy(1.0, 1.0);
        let b = Objectives::from_time_energy(2.0, 1.0);
        let c = Objectives::from_time_energy(0.5, 3.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "equal points do not dominate");
        assert!(!a.dominates(&c) && !c.dominates(&a), "incomparable pair");
    }

    #[test]
    fn index_point_round_trip() {
        let g = GridSpace::new(vec![5, 4, 3]);
        assert_eq!(g.size(), 60);
        for idx in 0..g.size() {
            let p = g.point(idx);
            assert_eq!(g.index(&p), idx);
            assert!(p.iter().zip(g.dims()).all(|(&x, &d)| x < d));
        }
    }

    #[test]
    fn neighbors_step_one_dimension_by_one() {
        let g = GridSpace::new(vec![5, 4]);
        let mut out = Vec::new();
        g.neighbors(&vec![0, 2], &mut out);
        assert_eq!(out, vec![vec![1, 2], vec![0, 1], vec![0, 3]]);
        out.clear();
        g.neighbors(&vec![4, 3], &mut out);
        assert_eq!(out, vec![vec![3, 3], vec![4, 2]]);
    }

    #[test]
    fn mutation_changes_exactly_one_multi_valued_gene() {
        let g = GridSpace::new(vec![5, 1, 4]);
        let mut rng = SmallRng::seed_from_u64(9);
        let p = vec![2, 0, 3];
        for _ in 0..200 {
            let m = g.mutate(&p, &mut rng);
            let diffs: Vec<usize> = (0..3).filter(|&d| m[d] != p[d]).collect();
            assert_eq!(diffs.len(), 1, "{m:?}");
            assert_ne!(diffs[0], 1, "size-1 dimensions never move");
            assert!(m[diffs[0]] < g.dims()[diffs[0]]);
        }
    }

    #[test]
    fn crossover_picks_genes_from_parents() {
        let g = GridSpace::new(vec![10, 10, 10]);
        let mut rng = SmallRng::seed_from_u64(3);
        let (a, b) = (vec![1, 2, 3], vec![7, 8, 9]);
        for _ in 0..100 {
            let c = g.crossover(&a, &b, &mut rng);
            for d in 0..3 {
                assert!(c[d] == a[d] || c[d] == b[d], "{c:?}");
            }
        }
    }

    #[test]
    fn sampling_is_uniform_enough_and_in_range() {
        let g = GridSpace::new(vec![6]);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut seen = [0u32; 6];
        for _ in 0..600 {
            seen[g.sample(&mut rng)[0] as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 40), "{seen:?}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_dimension_panics() {
        let _ = GridSpace::new(vec![3, 0]);
    }
}
