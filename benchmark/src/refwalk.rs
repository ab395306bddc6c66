//! The frozen reference walker: a plain single-threaded uniform random
//! walk straight over `row_ptr`/`col` with xorshift64*. It shares no code
//! with the library, so `bench.ref_walk_seps` moves only when the machine
//! does, and `core.engine.overhead_x` has a fixed denominator. Do not
//! "improve" it.

use crate::stats::{median, ratio};
use csaw_graph::Csr;
use std::hint::black_box;
use std::time::Instant;

/// Walks `length` uniform steps from every seed. Returns the number of
/// edges walked and a checksum of the visited vertices (so the walk
/// cannot be optimised away, and so two runs can be compared).
pub fn ref_walk(
    row_ptr: &[usize],
    col: &[u32],
    seeds: &[u32],
    length: usize,
    rng_seed: u64,
) -> (u64, u64) {
    let mut x = rng_seed | 1;
    let (mut edges, mut checksum) = (0u64, 0u64);
    for &seed in seeds {
        let mut v = seed as usize;
        for _ in 0..length {
            let (lo, hi) = (row_ptr[v], row_ptr[v + 1]);
            if lo == hi {
                break;
            }
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32;
            v = col[lo + ((r * (hi - lo) as u64) >> 32) as usize] as usize;
            checksum = checksum.wrapping_mul(31).wrapping_add(v as u64);
            edges += 1;
        }
    }
    (edges, checksum)
}

/// `bench.ref_walk_seps`: the walker's rate on `graph`, as the median of
/// `reps` walks from `seeds`.
pub fn ref_walk_seps(graph: &Csr, seeds: &[u32], length: usize, reps: u64) -> f64 {
    let (mut seconds, mut edges) = (Vec::new(), 0);
    for rep in 0..reps {
        let t0 = Instant::now();
        let (walked, checksum) = ref_walk(graph.row_ptr(), graph.col(), seeds, length, 1 + rep);
        seconds.push(t0.elapsed().as_secs_f64());
        black_box(checksum);
        edges = walked;
    }
    ratio(edges as f64, median(&seconds))
}

#[cfg(test)]
mod tests {
    use super::*;

    // 0 -> {1, 2}, 1 -> {0}, 2 -> {0}, 3 isolated.
    const ROW_PTR: [usize; 5] = [0, 2, 3, 4, 4];
    const COL: [u32; 4] = [1, 2, 0, 0];

    #[test]
    fn walks_follow_edges_and_stop_at_dead_ends() {
        let (edges, _) = ref_walk(&ROW_PTR, &COL, &[0, 1, 2], 10, 42);
        assert_eq!(edges, 30);
        let (edges, checksum) = ref_walk(&ROW_PTR, &COL, &[3], 10, 42);
        assert_eq!((edges, checksum), (0, 0));
    }

    #[test]
    fn same_seed_same_walk() {
        let a = ref_walk(&ROW_PTR, &COL, &[0, 0, 0, 0], 50, 9);
        assert_eq!(a, ref_walk(&ROW_PTR, &COL, &[0, 0, 0, 0], 50, 9));
        assert_ne!(a.1, ref_walk(&ROW_PTR, &COL, &[0, 0, 0, 0], 50, 10).1);
    }
}
