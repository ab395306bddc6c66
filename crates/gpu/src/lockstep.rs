//! Lockstep atomic-operation modeling.
//!
//! When the 32 lanes of a warp issue atomic CAS/add operations in the same
//! instruction, the hardware serializes lanes that touch the same word.
//! C-SAW's strided bitmap (§IV-B) exists precisely to spread adjacent
//! vertices' bits across different 8-bit words and reduce that
//! serialization. This module executes one lockstep round of word-level
//! operations with deterministic lane priority (lowest lane wins, as
//! hardware's arbitrary-but-fixed order is modeled here) and counts the
//! serialization conflicts.

use crate::stats::{Ledger, SimStats};

/// Cycles per atomic slot: a global-memory read-modify-write round trip,
/// occupancy-adjusted. Lanes serialized on the same word each pay one.
pub const ATOMIC_CYCLES: u64 = 8;

/// Outcome of one lane's atomic compare-and-swap in a lockstep round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasOutcome {
    /// The lane's CAS observed the expected value and stored the new one.
    Won,
    /// Another lane (or a previous round) already changed the word.
    Lost,
}

/// Reusable working buffers for [`lockstep_test_and_set_into`]: the
/// active-lane list, the word-address scratch, and the outcome lanes.
/// Owning one per worker makes steady-state lockstep rounds
/// allocation-free (the buffers are cleared, never dropped).
#[derive(Debug, Default, Clone)]
pub struct LockstepScratch {
    /// Active `(lane, bit)` pairs of the current round.
    active: Vec<(usize, usize)>,
    /// Word addresses of the active lanes (sorted to find conflicts).
    words: Vec<usize>,
    /// Per-lane outcomes of the current round.
    pub out: Vec<Option<CasOutcome>>,
}

impl LockstepScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Executes one lockstep round of test-and-set operations on a bit array.
///
/// `requests[i] = Some(bit_index)` means lane `i` atomically tests-and-sets
/// that bit; `None` means the lane is inactive. `word_of` maps a bit index
/// to its storage word (contiguous vs. strided bitmaps differ only here).
///
/// Leaves one [`CasOutcome`] per active request, in lane order, in
/// `scratch.out`. Conflicts (two active lanes addressing the same *word*
/// in this round) are counted into `stats.atomic_conflicts` — note that
/// hardware serializes on word granularity even when the *bits* differ,
/// which is why 8-bit words beat 32-bit words (§IV-B) and strided beats
/// contiguous.
pub fn lockstep_test_and_set_into<L: Ledger>(
    bits: &mut [bool],
    requests: &[Option<usize>],
    word_of: impl Fn(usize) -> usize,
    scratch: &mut LockstepScratch,
    stats: &mut L,
) {
    scratch.active.clear();
    scratch
        .active
        .extend(requests.iter().enumerate().filter_map(|(lane, r)| r.map(|bit| (lane, bit))));

    // Count same-word serialization within this round: only the cost
    // model reads the word addresses, so an unmodeled ledger skips them.
    if L::MODELED {
        scratch.words.clear();
        scratch.words.extend(scratch.active.iter().map(|&(_, bit)| word_of(bit)));
        scratch.words.sort_unstable();
        let (mut conflicts, mut max_queue) = (0u64, 0u64);
        for w in scratch.words.chunk_by(|a, b| a == b) {
            // k lanes on one word: k atomic ops, k-1 serialized behind
            // the first; the round takes as long as its deepest queue.
            conflicts += (w.len() - 1) as u64;
            max_queue = max_queue.max(w.len() as u64);
        }
        stats.charge_atomics(scratch.active.len() as u64, conflicts);
        stats.charge_cycles(ATOMIC_CYCLES * max_queue);
    }

    // Apply in lane order (lowest lane wins a contended bit).
    scratch.out.clear();
    scratch.out.resize(requests.len(), None);
    for &(lane, bit) in &scratch.active {
        if bits[bit] {
            scratch.out[lane] = Some(CasOutcome::Lost);
        } else {
            bits[bit] = true;
            scratch.out[lane] = Some(CasOutcome::Won);
        }
    }
}

/// Allocating convenience wrapper over [`lockstep_test_and_set_into`]:
/// returns the outcomes as a fresh `Vec`. Hot paths hold a
/// [`LockstepScratch`] and call the `_into` form instead.
pub fn lockstep_test_and_set(
    bits: &mut [bool],
    requests: &[Option<usize>],
    word_of: impl Fn(usize) -> usize,
    stats: &mut SimStats,
) -> Vec<Option<CasOutcome>> {
    let mut scratch = LockstepScratch::new();
    lockstep_test_and_set_into(bits, requests, word_of, &mut scratch, stats);
    scratch.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_lane_wins() {
        let mut bits = vec![false; 8];
        let mut s = SimStats::new();
        let out = lockstep_test_and_set(&mut bits, &[Some(3)], |b| b, &mut s);
        assert_eq!(out, vec![Some(CasOutcome::Won)]);
        assert!(bits[3]);
        assert_eq!(s.atomic_ops, 1);
        assert_eq!(s.atomic_conflicts, 0);
    }

    #[test]
    fn same_bit_second_lane_loses() {
        let mut bits = vec![false; 8];
        let mut s = SimStats::new();
        let out = lockstep_test_and_set(&mut bits, &[Some(2), Some(2)], |b| b, &mut s);
        assert_eq!(out, vec![Some(CasOutcome::Won), Some(CasOutcome::Lost)]);
        assert_eq!(s.atomic_conflicts, 1);
    }

    #[test]
    fn already_set_bit_loses_without_conflict() {
        let mut bits = vec![false; 8];
        bits[5] = true;
        let mut s = SimStats::new();
        let out = lockstep_test_and_set(&mut bits, &[Some(5)], |b| b, &mut s);
        assert_eq!(out, vec![Some(CasOutcome::Lost)]);
        assert_eq!(s.atomic_conflicts, 0);
    }

    #[test]
    fn word_mapping_determines_conflicts() {
        // Bits 0 and 1: same 8-bit word contiguous (word_of = b/8),
        // different words strided (word_of = b%2 here, a 2-way stride).
        let mut bits = vec![false; 16];
        let mut s_cont = SimStats::new();
        lockstep_test_and_set(&mut bits, &[Some(0), Some(1)], |b| b / 8, &mut s_cont);
        let mut bits2 = vec![false; 16];
        let mut s_str = SimStats::new();
        lockstep_test_and_set(&mut bits2, &[Some(0), Some(1)], |b| b % 2, &mut s_str);
        assert_eq!(s_cont.atomic_conflicts, 1);
        assert_eq!(s_str.atomic_conflicts, 0);
    }

    #[test]
    fn inactive_lanes_are_skipped() {
        let mut bits = vec![false; 4];
        let mut s = SimStats::new();
        let out = lockstep_test_and_set(&mut bits, &[None, Some(1), None], |b| b, &mut s);
        assert_eq!(out, vec![None, Some(CasOutcome::Won), None]);
        assert_eq!(s.atomic_ops, 1);
    }

    #[test]
    fn cycles_equal_deepest_queue() {
        let mut bits = vec![false; 32];
        let mut s = SimStats::new();
        // Three lanes on word 0, one on word 1 → round costs 3 cycles.
        lockstep_test_and_set(&mut bits, &[Some(0), Some(1), Some(2), Some(8)], |b| b / 8, &mut s);
        assert_eq!(s.warp_cycles, 3 * ATOMIC_CYCLES);
        assert_eq!(s.atomic_conflicts, 2);
    }
}
