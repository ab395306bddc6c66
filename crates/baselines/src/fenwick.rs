//! Fenwick (binary indexed) tree over f64 weights — the O(log n)
//! incremental weighted-sampling index behind the GraphSAINT-style MDRW
//! baseline's frontier-pool selection (O(log n) weight update when a pool
//! vertex is replaced, O(log n) proportional-to-weight selection via
//! descent).

/// A Fenwick tree over non-negative weights.
#[derive(Debug, Clone)]
pub struct Fenwick {
    tree: Vec<f64>,
    n: usize,
}

impl Fenwick {
    /// Builds from initial weights in O(n).
    pub fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        let mut tree = vec![0.0; n + 1];
        for (i, &w) in weights.iter().enumerate() {
            debug_assert!(w >= 0.0);
            tree[i + 1] += w;
            let parent = (i + 1) + ((i + 1) & (i + 1).wrapping_neg());
            if parent <= n {
                let v = tree[i + 1];
                tree[parent] += v;
            }
        }
        Fenwick { tree, n }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total weight.
    pub fn total(&self) -> f64 {
        self.prefix(self.n)
    }

    /// Sum of weights of slots `0..k`.
    pub fn prefix(&self, k: usize) -> f64 {
        let mut i = k.min(self.n);
        let mut s = 0.0;
        while i > 0 {
            s += self.tree[i];
            i &= i - 1;
        }
        s
    }

    /// Weight of slot `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.prefix(i + 1) - self.prefix(i)
    }

    /// Adds `delta` to slot `i` (delta may be negative but the weight must
    /// stay non-negative).
    pub fn add(&mut self, i: usize, delta: f64) {
        let mut j = i + 1;
        while j <= self.n {
            self.tree[j] += delta;
            j += j & j.wrapping_neg();
        }
    }

    /// Sets slot `i` to `w`.
    pub fn set(&mut self, i: usize, w: f64) {
        debug_assert!(w >= 0.0);
        let cur = self.get(i);
        self.add(i, w - cur);
    }

    /// The smallest slot whose prefix sum exceeds `target` — i.e.
    /// weight-proportional selection when `target = U(0,1) * total()`.
    /// Returns `None` when total weight is zero.
    pub fn select(&self, target: f64) -> Option<usize> {
        let total = self.total();
        if total.is_nan() || total <= 0.0 {
            return None;
        }
        // Find the smallest slot i with prefix(i+1) > target: descend,
        // moving right whenever the subtree's weight is <= the remaining
        // target. `<=` makes zero-weight slots unselectable (landing
        // exactly on a boundary skips past them).
        let mut target = target.clamp(0.0, self.total());
        let mut pos = 0usize;
        let mut mask = self.n.next_power_of_two();
        while mask > 0 {
            let next = pos + mask;
            if next <= self.n && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            mask >>= 1;
        }
        Some(pos.min(self.n - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic uniform draws for distribution checks (csaw-graph
    /// cannot depend on csaw-gpu's Philox without a cycle; splitmix64 is
    /// more than uniform enough for 1%-tolerance frequency tests).
    struct SplitMix(u64);
    impl SplitMix {
        fn uniform(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn prefix_sums_match_naive() {
        let w = [3.0, 6.0, 2.0, 2.0, 2.0];
        let f = Fenwick::new(&w);
        let mut acc = 0.0;
        for k in 0..=w.len() {
            assert!((f.prefix(k) - acc).abs() < 1e-12, "k={k}");
            if k < w.len() {
                acc += w[k];
            }
        }
        assert_eq!(f.total(), 15.0);
    }

    #[test]
    fn get_and_set_round_trip() {
        let mut f = Fenwick::new(&[1.0, 2.0, 3.0, 4.0]);
        assert!((f.get(2) - 3.0).abs() < 1e-12);
        f.set(2, 10.0);
        assert!((f.get(2) - 10.0).abs() < 1e-12);
        assert!((f.total() - 17.0).abs() < 1e-12);
    }

    #[test]
    fn select_is_weight_proportional() {
        let w = [3.0, 6.0, 2.0, 2.0, 2.0];
        let f = Fenwick::new(&w);
        let mut rng = SplitMix(3);
        let n = 200_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[f.select(rng.uniform() * f.total()).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let got = c as f64 / n as f64;
            let want = w[i] / 15.0;
            assert!((got - want).abs() < 0.01, "slot {i}: {got} vs {want}");
        }
    }

    #[test]
    fn select_skips_zero_weights() {
        let f = Fenwick::new(&[0.0, 5.0, 0.0, 5.0]);
        let mut rng = SplitMix(4);
        for _ in 0..2000 {
            let s = f.select(rng.uniform() * f.total()).unwrap();
            assert!(s == 1 || s == 3, "selected zero-weight slot {s}");
        }
    }

    #[test]
    fn zero_total_returns_none() {
        let f = Fenwick::new(&[0.0, 0.0]);
        assert!(f.select(0.3).is_none());
        assert!(Fenwick::new(&[]).select(0.5).is_none());
    }

    #[test]
    fn dynamic_updates_shift_distribution() {
        let mut f = Fenwick::new(&[1.0, 1.0]);
        f.set(0, 9.0);
        let mut rng = SplitMix(5);
        let hits = (0..50_000).filter(|_| f.select(rng.uniform() * f.total()) == Some(0)).count();
        let frac = hits as f64 / 50_000.0;
        assert!((frac - 0.9).abs() < 0.01, "{frac}");
    }

    #[test]
    fn single_slot() {
        let f = Fenwick::new(&[7.0]);
        assert_eq!(f.select(3.0), Some(0));
        assert_eq!(f.len(), 1);
        assert!(!f.is_empty());
    }
}
