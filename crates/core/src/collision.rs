//! Collision detection for warp-parallel selection (paper §IV-B).
//!
//! When the lanes of a warp each select a vertex, two lanes may pick the
//! same candidate, and later rounds may pick a candidate selected earlier.
//! Three detectors are modeled:
//!
//! - [`DetectorKind::LinearSearch`]: the evaluation baseline of Fig. 12 —
//!   sampled vertices are kept in shared memory and each new pick is
//!   compared against all of them.
//! - [`DetectorKind::ContiguousBitmap`]: one bit per candidate, bits of
//!   adjacent candidates packed into the same word (Fig. 7a).
//! - [`DetectorKind::StridedBitmap`]: the paper's optimization — bits of
//!   adjacent candidates scattered across words, set-associative-cache
//!   style, to cut same-word atomic serialization (Fig. 7b).
//!
//! Word width is configurable: the paper picks 8-bit words over 32-bit
//! because wider words collect more conflicts (§IV-B); the A2 ablation
//! measures exactly that.

use csaw_gpu::lockstep::{lockstep_test_and_set_into, CasOutcome, LockstepScratch};
use csaw_gpu::stats::Ledger;

/// Detector selection plus bitmap word width in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// Shared-memory linear search (baseline).
    LinearSearch,
    /// Contiguous bitmap with the given word width in bits (8 or 32).
    ContiguousBitmap {
        /// Bits per atomic word.
        word_bits: usize,
    },
    /// Strided bitmap with the given word width in bits.
    StridedBitmap {
        /// Bits per atomic word.
        word_bits: usize,
    },
}

impl DetectorKind {
    /// The paper's default: strided bitmap over 8-bit words.
    pub fn paper_default() -> Self {
        DetectorKind::StridedBitmap { word_bits: 8 }
    }
}

/// Per-warp collision detector state, reused across SELECT calls
/// (the per-warp bitmap of §IV-B "Data Structures").
#[derive(Debug, Clone)]
pub struct Detector {
    kind: DetectorKind,
    /// Bit per candidate (bitmap modes) — `true` = selected.
    bits: Vec<bool>,
    /// Selected candidate list (linear-search mode).
    selected: Vec<usize>,
    n: usize,
    /// Reusable lockstep-round buffers (bitmap modes).
    lockstep: LockstepScratch,
}

impl Detector {
    /// A detector for a pool of `n` candidates.
    pub fn new(kind: DetectorKind, n: usize) -> Self {
        Detector {
            kind,
            bits: vec![false; n],
            selected: Vec::new(),
            n,
            lockstep: LockstepScratch::new(),
        }
    }

    /// Resets for a new pool of `n` candidates.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.bits.clear();
        self.bits.resize(n, false);
        self.selected.clear();
    }

    /// Resets for a new pool of `n` candidates under a (possibly
    /// different) detector kind, reusing every buffer — the arena-reuse
    /// entry point: one `Detector` can serve interleaved SELECT calls of
    /// different configurations without reallocating.
    pub fn reset_for(&mut self, kind: DetectorKind, n: usize) {
        self.kind = kind;
        self.reset(n);
    }

    /// The detector's flavor.
    pub fn kind(&self) -> DetectorKind {
        self.kind
    }

    /// Whether candidate `k` is already selected (read-only probe; costs a
    /// search but no atomic). The probe is charged to `stats` per detector
    /// kind: a linear-search detector scans the selected list in shared
    /// memory (one comparison per element plus the append-slot check, two
    /// cycles each — the same model as [`Detector::claim_round`]); a
    /// bitmap detector reads a single bit (one search, one shared-memory
    /// read).
    pub fn is_selected<L: Ledger>(&self, k: usize, stats: &mut L) -> bool {
        match self.kind {
            DetectorKind::LinearSearch => {
                let comparisons = self.selected.len() as u64 + 1;
                stats.ops().collision_searches += comparisons;
                stats.charge_cycles(2 * comparisons);
                self.selected.contains(&k)
            }
            _ => {
                stats.ops().collision_searches += 1;
                stats.charge_cycles(2);
                self.bits[k]
            }
        }
    }

    /// Marks `k` selected without contention accounting (used when a
    /// choice is made outside a lockstep round, e.g. short-circuit paths).
    pub fn force_set(&mut self, k: usize) {
        if !self.bits[k] {
            self.bits[k] = true;
            self.selected.push(k);
        }
    }

    /// One lockstep round: every active lane attempts to claim its
    /// candidate. `requests[lane] = Some(candidate)`. Leaves
    /// `Some(true)` = claimed, `Some(false)` = duplicate, `None` = lane
    /// inactive, per lane, in `out` (cleared first; capacity reused).
    /// Work is charged to `stats` according to the detector model.
    pub fn claim_round_into<L: Ledger>(
        &mut self,
        requests: &[Option<usize>],
        out: &mut Vec<Option<bool>>,
        stats: &mut L,
    ) {
        out.clear();
        match self.kind {
            DetectorKind::LinearSearch => {
                // Shared-memory linear search: each active lane scans the
                // current selected list (reads serialize on shared memory
                // banks but need no atomics for the scan; the append is an
                // atomic counter bump).
                out.resize(requests.len(), None);
                for (lane, req) in requests.iter().enumerate() {
                    let Some(k) = *req else { continue };
                    let comparisons = self.selected.len() as u64 + 1;
                    stats.ops().collision_searches += comparisons;
                    stats.charge_cycles(2 * comparisons); // shared-memory reads
                    if self.selected.contains(&k) {
                        out[lane] = Some(false);
                    } else {
                        stats.charge_atomics(1, 0); // append via atomicAdd'd cursor
                        stats.charge_cycles(8); // shared-memory atomic
                        self.selected.push(k);
                        self.bits[k] = true;
                        out[lane] = Some(true);
                    }
                }
            }
            DetectorKind::ContiguousBitmap { word_bits }
            | DetectorKind::StridedBitmap { word_bits } => {
                let strided = matches!(self.kind, DetectorKind::StridedBitmap { .. });
                let n = self.n;
                let num_words = n.div_ceil(word_bits).max(1);
                let word_of = move |bit: usize| -> usize {
                    if strided {
                        // Scatter adjacent bits across words (Fig. 7b).
                        bit % num_words
                    } else {
                        // Pack adjacent bits into one word (Fig. 7a).
                        bit / word_bits
                    }
                };
                let active = requests.iter().flatten().count() as u64;
                stats.ops().collision_searches += active; // one bit probe per lane
                lockstep_test_and_set_into(
                    &mut self.bits,
                    requests,
                    word_of,
                    &mut self.lockstep,
                    stats,
                );
                out.extend(self.lockstep.out.iter().map(|o| {
                    o.map(|c| match c {
                        CasOutcome::Won => true,
                        CasOutcome::Lost => false,
                    })
                }));
            }
        }
    }

    /// Allocating convenience wrapper over [`Detector::claim_round_into`].
    pub fn claim_round<L: Ledger>(
        &mut self,
        requests: &[Option<usize>],
        stats: &mut L,
    ) -> Vec<Option<bool>> {
        let mut out = Vec::new();
        self.claim_round_into(requests, &mut out, stats);
        out
    }

    /// Number of candidates currently marked selected.
    pub fn selected_count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }
}

/// Charges the without-replacement "was this vertex sampled before?"
/// check performed when a sampled vertex is considered for the frontier
/// pool. The Fig. 12 baseline keeps the instance's sampled vertices in
/// shared memory and linear-searches them (cost grows with the sample);
/// C-SAW probes one bit of the per-vertex bitmap with an atomic CAS.
pub fn charge_visited_check<L: Ledger>(kind: DetectorKind, visited_len: usize, stats: &mut L) {
    match kind {
        DetectorKind::LinearSearch => {
            let comparisons = visited_len as u64 + 1;
            stats.ops().collision_searches += comparisons;
            stats.charge_cycles(2 * comparisons); // shared-memory scan
        }
        _ => {
            stats.ops().collision_searches += 1;
            stats.charge_atomics(1, 0);
            stats.charge_cycles(csaw_gpu::lockstep::ATOMIC_CYCLES);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_gpu::stats::SimStats;

    #[test]
    fn linear_search_counts_comparisons() {
        let mut d = Detector::new(DetectorKind::LinearSearch, 10);
        let mut s = SimStats::new();
        let r1 = d.claim_round(&[Some(3)], &mut s);
        assert_eq!(r1, vec![Some(true)]);
        assert_eq!(s.collision_searches, 1, "empty list: one comparison slot");
        let r2 = d.claim_round(&[Some(3)], &mut s);
        assert_eq!(r2, vec![Some(false)]);
        assert_eq!(s.collision_searches, 1 + 2, "one entry + the probe");
    }

    #[test]
    fn linear_search_grows_with_selected() {
        let mut d = Detector::new(DetectorKind::LinearSearch, 100);
        let mut s = SimStats::new();
        for k in 0..50 {
            d.claim_round(&[Some(k)], &mut s);
        }
        let before = s.collision_searches;
        d.claim_round(&[Some(99)], &mut s);
        assert_eq!(s.collision_searches - before, 51);
    }

    #[test]
    fn bitmap_single_probe_per_claim() {
        let mut d = Detector::new(DetectorKind::ContiguousBitmap { word_bits: 8 }, 100);
        let mut s = SimStats::new();
        for k in 0..50 {
            d.claim_round(&[Some(k)], &mut s);
        }
        assert_eq!(s.collision_searches, 50, "bitmap probes don't grow with selected count");
        assert_eq!(d.selected_count(), 50);
    }

    #[test]
    fn contiguous_conflicts_on_adjacent_bits() {
        let mut d = Detector::new(DetectorKind::ContiguousBitmap { word_bits: 8 }, 64);
        let mut s = SimStats::new();
        // Lanes pick candidates 0..4: all in word 0 → 3 serialized.
        let reqs: Vec<_> = (0..4).map(Some).collect();
        let out = d.claim_round(&reqs, &mut s);
        assert!(out.iter().all(|o| *o == Some(true)));
        assert_eq!(s.atomic_conflicts, 3);
    }

    #[test]
    fn strided_spreads_adjacent_bits() {
        let mut d = Detector::new(DetectorKind::StridedBitmap { word_bits: 8 }, 64);
        let mut s = SimStats::new();
        // 64 candidates / 8 bits = 8 words; candidates 0..4 map to words
        // 0..4 under striding → no conflicts.
        let reqs: Vec<_> = (0..4).map(Some).collect();
        d.claim_round(&reqs, &mut s);
        assert_eq!(s.atomic_conflicts, 0);
    }

    #[test]
    fn wider_words_conflict_more() {
        // The §IV-B argument for 8-bit over 32-bit words.
        let run = |word_bits| {
            let mut d = Detector::new(DetectorKind::ContiguousBitmap { word_bits }, 256);
            let mut s = SimStats::new();
            let reqs: Vec<_> = (0..32).map(Some).collect();
            d.claim_round(&reqs, &mut s);
            s.atomic_conflicts
        };
        assert!(run(32) > run(8), "32-bit words must serialize more");
    }

    #[test]
    fn duplicate_claims_lose() {
        for kind in [
            DetectorKind::LinearSearch,
            DetectorKind::ContiguousBitmap { word_bits: 8 },
            DetectorKind::StridedBitmap { word_bits: 8 },
        ] {
            let mut d = Detector::new(kind, 16);
            let mut s = SimStats::new();
            let out = d.claim_round(&[Some(5), Some(5), None, Some(6)], &mut s);
            assert_eq!(out[0], Some(true), "{kind:?}");
            assert_eq!(out[1], Some(false), "{kind:?}");
            assert_eq!(out[2], None);
            assert_eq!(out[3], Some(true));
            assert!(
                d.is_selected(5, &mut s) && d.is_selected(6, &mut s) && !d.is_selected(7, &mut s)
            );
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut d = Detector::new(DetectorKind::paper_default(), 8);
        let mut s = SimStats::new();
        d.claim_round(&[Some(1)], &mut s);
        d.reset(4);
        assert!(!d.is_selected(1, &mut s));
        assert_eq!(d.selected_count(), 0);
    }

    #[test]
    fn force_set_marks_without_atomics() {
        let mut d = Detector::new(DetectorKind::paper_default(), 8);
        let mut s = SimStats::new();
        d.force_set(2);
        assert!(d.is_selected(2, &mut s));
    }

    /// The read-only probe is charged per detector kind: a linear-search
    /// probe scans the selected list, a bitmap probe reads one bit.
    #[test]
    fn probe_costs_follow_detector_kind() {
        let mut lin = Detector::new(DetectorKind::LinearSearch, 16);
        let mut s = SimStats::new();
        lin.claim_round(&[Some(3), Some(9)], &mut s);
        let mut s = SimStats::new();
        lin.is_selected(3, &mut s);
        assert_eq!(s.collision_searches, 3, "scan of 2 selected + append slot");
        assert_eq!(s.warp_cycles, 6);
        assert_eq!(s.atomic_ops, 0, "read-only probe takes no atomic");

        let mut bm = Detector::new(DetectorKind::paper_default(), 16);
        let mut s = SimStats::new();
        bm.claim_round(&[Some(3), Some(9)], &mut s);
        let mut s = SimStats::new();
        bm.is_selected(3, &mut s);
        assert_eq!(s.collision_searches, 1, "single bit test");
        assert_eq!(s.atomic_ops, 0);
    }
}
