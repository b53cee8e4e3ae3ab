//! `Ddg::rec_mii` against a brute-force oracle: the largest
//! ⌈latency / distance⌉ over every elementary circuit, found by walking
//! each simple path of a small graph.

use proptest::collection::vec;
use proptest::prelude::*;
use vliw_ir::{Ddg, DdgBuilder, OpClass, OpId};

/// ⌈latency / distance⌉ of every elementary circuit of `ddg`, the
/// smallest II each admits. Each circuit is walked once, from its
/// smallest op through larger ones.
fn circuit_min_iis(ddg: &Ddg) -> Vec<u32> {
    fn walk(
        ddg: &Ddg,
        start: OpId,
        at: OpId,
        path: (u32, u32),
        seen: &mut [bool],
        out: &mut Vec<u32>,
    ) {
        for e in ddg.succs(at) {
            let (lat, dist) = (path.0 + e.latency(), path.1 + e.distance());
            let next = e.dst();
            if next == start {
                out.push(lat.div_ceil(dist));
            } else if next > start && !seen[next.index()] {
                seen[next.index()] = true;
                walk(ddg, start, next, (lat, dist), seen, out);
                seen[next.index()] = false;
            }
        }
    }
    let mut out = Vec::new();
    let mut seen = vec![false; ddg.num_ops()];
    for op in ddg.op_ids() {
        walk(ddg, op, op, (0, 0), &mut seen, &mut out);
    }
    out
}

/// The oracle's `recMII`: the worst circuit's II, 0 without circuits.
fn brute_force_rec_mii(ddg: &Ddg) -> u32 {
    circuit_min_iis(ddg).into_iter().max().unwrap_or(0)
}

/// A graph of unit-class ops `op0..opN` with the given
/// `(src, dst, latency, distance)` edges.
fn graph(n: usize, edges: &[(usize, usize, u32, u32)]) -> Ddg {
    let mut b = DdgBuilder::new("t");
    let ops: Vec<OpId> = (0..n)
        .map(|i| b.op(format!("op{i}"), OpClass::IntArith))
        .collect();
    for &(src, dst, latency, distance) in edges {
        b.dep_dist(ops[src], ops[dst], latency, distance);
    }
    b.build().expect("every circuit is loop-carried")
}

#[test]
fn single_triangle() {
    // 1 + 2 + 3 over distance 2.
    let g = graph(3, &[(0, 1, 1, 0), (1, 2, 2, 0), (2, 0, 3, 2)]);
    assert_eq!(circuit_min_iis(&g), [3]);
    assert_eq!(g.rec_mii(), 3);
}

#[test]
fn self_loop_circuit() {
    let g = graph(1, &[(0, 0, 3, 1)]);
    assert_eq!(circuit_min_iis(&g), [3]);
    assert_eq!(g.rec_mii(), 3);
}

#[test]
fn theta_graph_has_two_circuits() {
    // a→b with two back edges b→a: (1+1)/1 and (1+5)/3.
    let g = graph(2, &[(0, 1, 1, 0), (1, 0, 1, 1), (1, 0, 5, 3)]);
    assert_eq!(circuit_min_iis(&g), [2, 2]);
    assert_eq!(g.rec_mii(), 2);
}

/// An edge as drawn: two op indices (taken modulo the op count), a
/// latency and a distance.
type Drawn = (usize, usize, u32, u32);

/// A DDG on `n` ops. Forward edges run from a lower to a higher op, at
/// any distance; back edges run to a lower op (or are self loops) and are
/// loop-carried, so every circuit has a positive distance.
fn random_ddg(n: usize, forward: &[Drawn], back: &[Drawn]) -> Ddg {
    let ends = |x: usize, y: usize| ((x % n).min(y % n), (x % n).max(y % n));
    let mut edges = Vec::new();
    for &(x, y, latency, distance) in forward {
        let (lo, hi) = ends(x, y);
        if lo != hi {
            edges.push((lo, hi, latency, distance));
        }
    }
    for &(x, y, latency, distance) in back {
        let (lo, hi) = ends(x, y);
        edges.push((hi, lo, latency, distance));
    }
    graph(n, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rec_mii_is_the_worst_circuit_ratio(
        n in 1usize..8,
        forward in vec((0usize..8, 0usize..8, 0u32..6, 0u32..2), 0..14),
        back in vec((0usize..8, 0usize..8, 0u32..9, 1u32..4), 2..6),
    ) {
        let g = random_ddg(n, &forward, &back);
        prop_assert_eq!(g.rec_mii(), brute_force_rec_mii(&g));
    }
}
