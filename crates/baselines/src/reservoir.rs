//! Weighted reservoir sampling (Efraimidis–Spirakis) — a collision-free
//! alternative for SELECT-without-replacement, included as an ablation
//! (A5) against the paper's retry-based designs.
//!
//! Each candidate draws a key `u^(1/w)` (`u` uniform) and the `k` largest
//! keys win. This realizes exactly the successive weighted-draw
//! distribution that repeated/updated/bipartite sampling converge to, but
//! with **zero collisions**: one pass, one draw per candidate, a k-size
//! heap. The trade-off on a GPU is the opposite of ITS's: no retry loop,
//! but every candidate needs a `log`/`pow` and the top-k reduction is a
//! serializing warp-wide merge — which is why C-SAW's CTPS approach
//! remains attractive for small `k` over huge pools.

use csaw_gpu::stats::SimStats;
use csaw_gpu::Philox;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A (key, index) pair ordered by key, smallest at the heap top.
#[derive(PartialEq)]
struct Entry {
    key: f64,
    idx: usize,
}

impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the min on top.
        other.key.partial_cmp(&self.key).unwrap_or(Ordering::Equal)
    }
}

/// Selects `k` distinct candidates with probability proportional to
/// `biases` (successive-draw semantics), one pass, no retries. Returns
/// winners in descending key order (arbitrary but deterministic).
pub fn reservoir_select(
    biases: &[f64],
    k: usize,
    rng: &mut Philox,
    stats: &mut SimStats,
) -> Vec<usize> {
    if k == 0 || biases.is_empty() {
        return Vec::new();
    }
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(k + 1);
    for (idx, &w) in biases.iter().enumerate() {
        if w.is_nan() || w <= 0.0 {
            continue;
        }
        stats.rng_draws += 1;
        // key = u^(1/w) via exp/log for numerical range; ~20 cycles of
        // special-function work per candidate on the simulated device.
        stats.warp_cycles += 20;
        let u: f64 = rng.uniform().max(f64::MIN_POSITIVE);
        let key = u.ln() / w; // monotone transform of u^(1/w); larger is better
        if heap.len() < k {
            heap.push(Entry { key, idx });
        } else if key > heap.peek().unwrap().key {
            heap.pop();
            heap.push(Entry { key, idx });
            stats.warp_cycles += 2; // heap fix-up
        }
    }
    stats.select_iterations += biases.len() as u64;
    let out: Vec<usize> = heap.into_sorted_vec().into_iter().map(|e| e.idx).collect();
    stats.selections += out.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_core::select::{select_without_replacement, SelectConfig};
    use std::collections::HashMap;

    #[test]
    fn selects_k_distinct_positive_bias() {
        let mut rng = Philox::new(1);
        let mut s = SimStats::new();
        let biases = [3.0, 0.0, 6.0, 2.0, 2.0, 2.0];
        for _ in 0..500 {
            let sel = reservoir_select(&biases, 3, &mut rng, &mut s);
            assert_eq!(sel.len(), 3);
            let mut x = sel.clone();
            x.sort_unstable();
            x.dedup();
            assert_eq!(x.len(), 3);
            assert!(!sel.contains(&1), "zero-bias candidate selected");
        }
    }

    #[test]
    fn k_exceeding_positive_candidates_returns_all() {
        let mut rng = Philox::new(2);
        let mut s = SimStats::new();
        let sel = reservoir_select(&[1.0, 0.0, 2.0], 5, &mut rng, &mut s);
        let mut x = sel;
        x.sort_unstable();
        assert_eq!(x, vec![0, 2]);
    }

    #[test]
    fn empty_inputs() {
        let mut rng = Philox::new(3);
        let mut s = SimStats::new();
        assert!(reservoir_select(&[], 3, &mut rng, &mut s).is_empty());
        assert!(reservoir_select(&[1.0], 0, &mut rng, &mut s).is_empty());
        assert!(reservoir_select(&[0.0, 0.0], 2, &mut rng, &mut s).is_empty());
    }

    /// The headline property: reservoir selection is distribution-
    /// identical to the paper's SELECT (they both realize successive
    /// weighted draws without replacement).
    #[test]
    fn matches_select_distribution() {
        let biases = [8.0, 4.0, 2.0, 1.0, 1.0];
        let trials = 200_000;
        let mut freq_res: HashMap<usize, usize> = HashMap::new();
        let mut freq_sel: HashMap<usize, usize> = HashMap::new();
        let mut rng = Philox::new(4);
        let mut s = SimStats::new();
        for _ in 0..trials {
            for i in reservoir_select(&biases, 2, &mut rng, &mut s) {
                *freq_res.entry(i).or_default() += 1;
            }
            for i in
                select_without_replacement(&biases, 2, SelectConfig::paper_best(), &mut rng, &mut s)
            {
                *freq_sel.entry(i).or_default() += 1;
            }
        }
        for i in 0..biases.len() {
            let a = *freq_res.get(&i).unwrap_or(&0) as f64 / trials as f64;
            let b = *freq_sel.get(&i).unwrap_or(&0) as f64 / trials as f64;
            assert!((a - b).abs() < 0.01, "candidate {i}: reservoir {a} vs select {b}");
        }
    }

    #[test]
    fn no_retry_iterations() {
        // Exactly one pass: iterations == pool size regardless of skew.
        let mut biases = vec![1.0; 32];
        biases[0] = 1e6;
        let mut rng = Philox::new(5);
        let mut s = SimStats::new();
        reservoir_select(&biases, 16, &mut rng, &mut s);
        assert_eq!(s.select_iterations, 32);
        assert_eq!(s.rng_draws, 32);
    }

    #[test]
    fn deterministic() {
        let biases = [5.0, 1.0, 3.0, 2.0];
        let run = || {
            let mut rng = Philox::for_task(9, 9);
            let mut s = SimStats::new();
            (0..50).map(|_| reservoir_select(&biases, 2, &mut rng, &mut s)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
