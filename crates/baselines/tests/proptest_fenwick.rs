//! Property tests for the Fenwick tree behind the GraphSAINT baseline's
//! pool selection.
//!
//! The first group checks prefix/set/select in isolation on fresh trees;
//! the second drives arbitrary *interleavings* of `add`/`set` against a
//! naive `Vec<f64>` model — repeated point updates, as GraphSAINT's pool
//! replacement makes.

use csaw_baselines::fenwick::Fenwick;
use proptest::prelude::*;

/// Weight vectors for the fresh-tree properties (longer than the
/// interleaving suite's).
fn arb_fresh_weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..100.0, 1..100)
}

proptest! {
    /// Prefix sums match a naive accumulation.
    #[test]
    fn prefix_matches_naive(w in arb_fresh_weights()) {
        let f = Fenwick::new(&w);
        let mut acc = 0.0;
        for k in 0..=w.len() {
            prop_assert!((f.prefix(k) - acc).abs() < 1e-6, "k={k}");
            if k < w.len() {
                acc += w[k];
            }
        }
    }

    /// `get` recovers the stored weight; `set` overwrites it.
    #[test]
    fn get_set_roundtrip(w in arb_fresh_weights(), idx_frac in 0.0f64..1.0, nv in 0.0f64..100.0) {
        let mut f = Fenwick::new(&w);
        let i = ((idx_frac * w.len() as f64) as usize).min(w.len() - 1);
        prop_assert!((f.get(i) - w[i]).abs() < 1e-6);
        f.set(i, nv);
        prop_assert!((f.get(i) - nv).abs() < 1e-6);
        let expect_total: f64 = w.iter().sum::<f64>() - w[i] + nv;
        prop_assert!((f.total() - expect_total).abs() < 1e-6);
    }

    /// `select(t)` returns the unique slot whose cumulative interval
    /// contains `t`; zero-weight slots are never selected.
    #[test]
    fn select_is_interval_lookup(w in arb_fresh_weights(), t_frac in 0.0f64..1.0) {
        let f = Fenwick::new(&w);
        let total: f64 = w.iter().sum();
        match f.select(t_frac * total) {
            None => prop_assert!(total == 0.0),
            Some(j) => {
                prop_assert!(w[j] > 0.0, "zero-weight slot {j} selected");
                // Linear reference: first slot with cumulative > target.
                let target = t_frac * total;
                let mut acc = 0.0;
                let mut expect = None;
                for (i, &x) in w.iter().enumerate() {
                    acc += x;
                    if acc > target {
                        expect = Some(i);
                        break;
                    }
                }
                // target == total (t_frac == 1) falls to the last positive slot.
                let expect = expect.unwrap_or_else(|| w.iter().rposition(|&x| x > 0.0).unwrap());
                prop_assert_eq!(j, expect);
            }
        }
    }
}

/// One mutation against a slot, as a fraction so it is valid for any
/// tree length.
#[derive(Debug, Clone)]
enum Op {
    /// `add(i, delta)` — clamped so the weight stays non-negative.
    Add { idx_frac: f64, delta: f64 },
    /// `set(i, w)`.
    Set { idx_frac: f64, w: f64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // (kind, idx_frac, value) → Op; value is recentered for Add so
    // deltas span both signs.
    let op = (0u32..2, 0.0f64..1.0, 0.0f64..100.0).prop_map(|(kind, idx_frac, value)| {
        if kind == 0 {
            Op::Add { idx_frac, delta: value - 50.0 }
        } else {
            Op::Set { idx_frac, w: value }
        }
    });
    prop::collection::vec(op, 0..40)
}

fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..100.0, 1..60)
}

/// Applies `ops` to both the tree and the naive model.
fn apply(f: &mut Fenwick, model: &mut [f64], ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Add { idx_frac, delta } => {
                let i = ((idx_frac * model.len() as f64) as usize).min(model.len() - 1);
                // Clamp so the slot never goes negative (the tree's
                // documented precondition).
                let delta = delta.max(-model[i]);
                f.add(i, delta);
                model[i] += delta;
            }
            Op::Set { idx_frac, w } => {
                let i = ((idx_frac * model.len() as f64) as usize).min(model.len() - 1);
                f.set(i, w);
                model[i] = w;
            }
        }
    }
}

proptest! {
    /// After any interleaving of `add`/`set`, every prefix sum, every
    /// `get`, and the total match a naive scan of the model vector.
    #[test]
    fn mixed_ops_match_naive_model(w in arb_weights(), ops in arb_ops()) {
        let mut f = Fenwick::new(&w);
        let mut model = w;
        apply(&mut f, &mut model, &ops);

        let mut acc = 0.0;
        for k in 0..=model.len() {
            prop_assert!((f.prefix(k) - acc).abs() < 1e-6, "prefix({k})={} vs {acc}", f.prefix(k));
            if k < model.len() {
                prop_assert!((f.get(k) - model[k]).abs() < 1e-6, "get({k})");
                acc += model[k];
            }
        }
        prop_assert!((f.total() - acc).abs() < 1e-6);
    }

    /// `select` after mutations is still an interval lookup on the
    /// *mutated* weights: the result is the first slot whose cumulative
    /// weight exceeds the target, and zero-weight slots are skipped.
    #[test]
    fn select_tracks_mutated_weights(
        w in arb_weights(),
        ops in arb_ops(),
        t_frac in 0.0f64..1.0,
    ) {
        let mut f = Fenwick::new(&w);
        let mut model = w;
        apply(&mut f, &mut model, &ops);

        let total: f64 = model.iter().sum();
        let target = t_frac * total;
        match f.select(target) {
            None => prop_assert!(total <= 1e-9, "None with positive total {total}"),
            Some(j) => {
                prop_assert!(model[j] > 0.0, "zero-weight slot {j} selected");
                let mut acc = 0.0;
                let mut expect = None;
                for (i, &x) in model.iter().enumerate() {
                    acc += x;
                    if acc > target {
                        expect = Some(i);
                        break;
                    }
                }
                let expect = expect
                    .unwrap_or_else(|| model.iter().rposition(|&x| x > 0.0).unwrap());
                // Float rounding inside the tree can land a boundary
                // target one slot off the naive scan; accept a neighbor
                // only when the target sits within 1e-6 of its boundary.
                if j != expect {
                    let boundary: f64 = model[..expect.max(j)].iter().sum();
                    prop_assert!(
                        (boundary - target).abs() < 1e-6,
                        "select {j} vs naive {expect}, target {target}"
                    );
                }
            }
        }
    }

    /// `set(i, w)` is equivalent to `add(i, w - get(i))` — the two
    /// mutation paths agree bit-for-bit on the resulting sums.
    #[test]
    fn set_equals_add_of_difference(w in arb_weights(), idx_frac in 0.0f64..1.0, nv in 0.0f64..100.0) {
        let i = ((idx_frac * w.len() as f64) as usize).min(w.len() - 1);
        let mut by_set = Fenwick::new(&w);
        let mut by_add = Fenwick::new(&w);
        by_set.set(i, nv);
        let cur = by_add.get(i);
        by_add.add(i, nv - cur);
        for k in 0..=w.len() {
            prop_assert_eq!(by_set.prefix(k).to_bits(), by_add.prefix(k).to_bits(), "k={}", k);
        }
    }
}
