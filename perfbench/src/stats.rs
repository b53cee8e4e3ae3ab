//! The benchmark's own arithmetic on samples: medians, the tail
//! percentile rule, the chunked tail and seed derivation.

/// Percentiles the tail metric may report, highest first. A fixed
/// ladder keeps the reported percentile a round number that only
/// changes when a workload's minimum op count does.
pub const TAIL_LADDER: [f64; 10] = [99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Ops that must lie beyond the tail percentile, so the tail is a
/// property of the distribution rather than of its few slowest samples.
pub const TAIL_OPS_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] whose nearest-rank sample
/// (`vliw_obs::nearest_rank`) leaves at least [`TAIL_OPS_BEYOND`] of
/// `ops` samples above it, or `None` when even the median does not.
///
/// Pass the workload's *minimum* op count: every run then reports the
/// same percentile, and a run with more ops only has more samples
/// beyond it.
#[must_use]
pub fn tail_percentile(ops: usize) -> Option<f64> {
    if ops == 0 {
        return None;
    }
    TAIL_LADDER.into_iter().find(|&q| {
        let rank = vliw_obs::nearest_rank_index(q, ops) + 1;
        ops - rank >= TAIL_OPS_BEYOND
    })
}

/// The tail of `samples` (op latencies in the order the ops ran): the
/// median, over consecutive chunks of `chunk` ops, of each chunk's
/// nearest-rank `q`-th percentile. A stall of the host slows the ops of
/// a few seconds, so it lands in a minority of the chunks and moves the
/// median chunk only when it lasts half the run; a tail the program
/// causes shows in every chunk. A final partial chunk is dropped unless
/// it is the only one.
#[must_use]
pub fn chunked_tail(samples: &[f64], chunk: usize, q: f64) -> f64 {
    let chunks: Vec<&[f64]> = if samples.len() < 2 * chunk.max(1) {
        vec![samples]
    } else {
        samples.chunks_exact(chunk).collect()
    };
    let tails: Vec<f64> = chunks
        .iter()
        .map(|c| vliw_obs::nearest_rank(&sorted(c), q))
        .collect();
    median(&tails)
}

/// Ascending copy of `samples` (which must hold no NaN).
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of `samples`; `NaN` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    vliw_obs::nearest_rank(&sorted(samples), 50.0)
}

/// The `i`-th seed derived from a workload seed (splitmix64), so each
/// request seed is a pure function of the seed the benchmark was given.
#[must_use]
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // Keep seeds small enough to read in a report.
    (z ^ (z >> 31)) % 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_ops_beyond_at_small_counts() {
        // Too few ops for any percentile to have ten samples above it.
        for n in 0..=10 {
            assert_eq!(tail_percentile(n), None, "n = {n}");
        }
        // Even the median of 19 ops has only nine above it.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(50), Some(80.0));
        assert_eq!(tail_percentile(99), Some(80.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(150), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(500), Some(98.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }

    #[test]
    fn tail_rule_holds_for_every_count() {
        for n in 1..3000 {
            if let Some(q) = tail_percentile(n) {
                let rank = vliw_obs::nearest_rank_index(q, n) + 1;
                assert!(n - rank >= TAIL_OPS_BEYOND, "n = {n}, q = {q}");
                // No higher ladder entry also satisfies the rule.
                for &higher in TAIL_LADDER.iter().filter(|&&h| h > q) {
                    let r = vliw_obs::nearest_rank_index(higher, n) + 1;
                    assert!(n - r < TAIL_OPS_BEYOND, "n = {n}: {higher} also fits");
                }
            }
        }
    }

    #[test]
    fn chunked_tail_ignores_a_stall_in_a_minority_of_chunks() {
        // Five chunks of 100 ops whose p90 is 8; a host stall makes 60
        // consecutive ops of the third chunk slow, enough to move the
        // p90 of all 500 ops.
        let mut ops: Vec<f64> = (0..500).map(|i| f64::from(i % 10)).collect();
        assert_eq!(chunked_tail(&ops, 100, 90.0), 8.0);
        for op in &mut ops[220..280] {
            *op = 50.0;
        }
        assert_eq!(vliw_obs::nearest_rank(&sorted(&ops), 90.0), 50.0);
        assert_eq!(chunked_tail(&ops, 100, 90.0), 8.0);
        // A tail the program causes, one op in five, shows.
        for op in ops.iter_mut().step_by(5) {
            *op = 30.0;
        }
        assert_eq!(chunked_tail(&ops, 100, 90.0), 30.0);
    }

    #[test]
    fn chunked_tail_at_small_counts() {
        // Fewer than two chunks: the percentile of all ops.
        let ops: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(chunked_tail(&ops, 100, 90.0), 135.0);
        // 250 ops are two chunks of 100; the last 50 are dropped.
        let ops: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(chunked_tail(&ops, 100, 90.0), 90.0);
        assert_eq!(chunked_tail(&[4.0], 100, 90.0), 4.0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|i| derive_seed(7, i)).collect();
        assert_eq!(seeds.len(), 64);
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }
}
