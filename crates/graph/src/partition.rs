//! Contiguous vertex-range graph partitioning (paper §V-A).
//!
//! C-SAW deliberately rejects METIS-style topology-aware partitioning and
//! 2-D partitioning: sampling needs *every* edge of a vertex in one place to
//! compute transition probabilities, and partition lookup must be O(1) for
//! bulk asynchronous scheduling. The chosen scheme assigns each partition a
//! contiguous, (near-)equal range of vertices together with all their
//! neighbor lists.

use crate::csr::Csr;
use crate::types::VertexId;
use std::ops::Range;

/// One partition: the vertex range `[start, end)` and the range of CSR
/// entries holding those vertices' neighbor lists. A partition is a view
/// of the graph's own arrays, never a copy: the runtimes read adjacency
/// through their storage and bill a partition by [`Partition::size_bytes`].
#[derive(Debug, Clone)]
pub struct Partition {
    /// Partition index.
    pub id: usize,
    /// First vertex (inclusive).
    pub start: VertexId,
    /// One past the last vertex.
    pub end: VertexId,
    /// CSR entries of the owned vertices: `row_ptr[start]..row_ptr[end]`.
    pub edges: Range<usize>,
    /// Whether the graph carries edge weights.
    pub weighted: bool,
}

impl Partition {
    /// Number of vertices owned by this partition.
    pub fn num_vertices(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Number of CSR entries held.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether global vertex `v` belongs to this partition.
    #[inline]
    pub fn owns(&self, v: VertexId) -> bool {
        v >= self.start && v < self.end
    }

    /// Bytes this partition occupies when resident on the device — a
    /// rebased row pointer, its column entries and their weights, if any.
    /// The unit the transfer engine bills.
    pub fn size_bytes(&self) -> usize {
        let weight_bytes = if self.weighted { std::mem::size_of::<f32>() } else { 0 };
        (self.num_vertices() + 1) * std::mem::size_of::<usize>()
            + self.num_edges() * (std::mem::size_of::<VertexId>() + weight_bytes)
    }
}

/// A full partitioning of a graph into `k` contiguous vertex ranges.
#[derive(Debug, Clone)]
pub struct PartitionSet {
    parts: Vec<Partition>,
    /// Range boundaries; `boundaries[i]..boundaries[i+1]` is partition `i`.
    boundaries: Vec<VertexId>,
    /// Whether ranges are equal-width (O(1) arithmetic lookup) or
    /// edge-balanced (binary-search lookup).
    uniform: bool,
}

impl PartitionSet {
    /// Splits `g` into `k` contiguous equal vertex ranges (the last range
    /// absorbs the remainder). O(1) partition lookup per vertex — the
    /// paper's §V-A scheme.
    pub fn equal_ranges(g: &Csr, k: usize) -> Self {
        assert!(k >= 1, "need at least one partition");
        let n = g.num_vertices();
        let per = n.div_ceil(k);
        let mut boundaries = Vec::with_capacity(k + 1);
        for id in 0..k {
            boundaries.push((id * per).min(n) as VertexId);
        }
        boundaries.push(n as VertexId);
        Self::from_boundaries(g, boundaries, true)
    }

    /// Splits `g` into `k` contiguous vertex ranges balanced by **edge
    /// count** — still all-neighbors-together and contiguous (the §V-A
    /// requirements) but with near-equal partition *bytes*, which evens
    /// out transfer times and kernel workloads on skewed graphs. An
    /// extension ablated against [`PartitionSet::equal_ranges`]; lookup
    /// costs O(log k) instead of O(1).
    pub fn edge_balanced(g: &Csr, k: usize) -> Self {
        assert!(k >= 1, "need at least one partition");
        let n = g.num_vertices();
        let total = g.num_edges();
        let mut boundaries: Vec<VertexId> = Vec::with_capacity(k + 1);
        for id in 0..k {
            let target = total * id / k;
            // First vertex whose CSR offset reaches the target.
            let cut = g.row_ptr().partition_point(|&p| p < target).min(n);
            let cut = (cut as VertexId).max(boundaries.last().copied().unwrap_or(0));
            boundaries.push(cut);
        }
        boundaries.push(n as VertexId);
        Self::from_boundaries(g, boundaries, false)
    }

    fn from_boundaries(g: &Csr, boundaries: Vec<VertexId>, uniform: bool) -> Self {
        let k = boundaries.len() - 1;
        let mut parts = Vec::with_capacity(k);
        for id in 0..k {
            let (start, end) = (boundaries[id], boundaries[id + 1]);
            let edges = g.row_ptr()[start as usize]..g.row_ptr()[end as usize];
            parts.push(Partition { id, start, end, edges, weighted: g.is_weighted() });
        }
        PartitionSet { parts, boundaries, uniform }
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when there are no partitions (never produced by
    /// [`PartitionSet::equal_ranges`], which requires `k >= 1`).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The partitions.
    pub fn parts(&self) -> &[Partition] {
        &self.parts
    }

    /// Partition that owns vertex `v` — constant time for equal ranges
    /// (the property §V-A calls out as essential for bulk asynchronous
    /// sampling), O(log k) for edge-balanced ranges.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> usize {
        if self.uniform {
            // Equal ranges: direct arithmetic, no search.
            let per = self.boundaries[1].max(1);
            ((v / per) as usize).min(self.parts.len() - 1)
        } else {
            (self.boundaries.partition_point(|&b| b <= v) - 1).min(self.parts.len() - 1)
        }
    }

    /// Borrow a partition by id.
    pub fn get(&self, id: usize) -> &Partition {
        &self.parts[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{ring_lattice, toy_graph};

    #[test]
    fn covers_every_vertex_exactly_once() {
        let g = ring_lattice(100, 2);
        let ps = PartitionSet::equal_ranges(&g, 7);
        let mut seen = vec![0u32; 100];
        for p in ps.parts() {
            for v in p.start..p.end {
                seen[v as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    /// Each partition's edge range is exactly its vertices' CSR entries.
    fn assert_edge_ranges(g: &Csr, ps: &PartitionSet) {
        for p in ps.parts() {
            let rp = g.row_ptr();
            assert_eq!(p.edges, rp[p.start as usize]..rp[p.end as usize], "partition {}", p.id);
            assert_eq!(p.weighted, g.is_weighted());
        }
    }

    #[test]
    fn preserves_neighbor_lists() {
        let g = toy_graph();
        assert_edge_ranges(&g, &PartitionSet::equal_ranges(&g, 3));
    }

    #[test]
    fn partition_of_is_consistent() {
        let g = ring_lattice(50, 1);
        for k in 1..=10 {
            let ps = PartitionSet::equal_ranges(&g, k);
            for v in 0..50u32 {
                let id = ps.partition_of(v);
                assert!(ps.get(id).owns(v), "v={v} k={k} id={id}");
            }
        }
    }

    #[test]
    fn edge_counts_sum_to_total() {
        let g = toy_graph();
        let ps = PartitionSet::equal_ranges(&g, 4);
        let total: usize = ps.parts().iter().map(|p| p.num_edges()).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn more_partitions_than_vertices() {
        let g = toy_graph(); // 13 vertices
        let ps = PartitionSet::equal_ranges(&g, 20);
        let total: usize = ps.parts().iter().map(|p| p.num_vertices()).sum();
        assert_eq!(total, 13);
        for v in 0..13u32 {
            assert!(ps.get(ps.partition_of(v)).owns(v));
        }
    }

    #[test]
    fn weighted_partitions_carry_weights() {
        let g = toy_graph().with_unit_weights();
        let ps = PartitionSet::equal_ranges(&g, 3);
        assert_edge_ranges(&g, &ps);
        // Weights add four bytes an entry to the billed size.
        let unweighted = PartitionSet::equal_ranges(&toy_graph(), 3);
        for (w, u) in ps.parts().iter().zip(unweighted.parts()) {
            assert_eq!(w.size_bytes(), u.size_bytes() + 4 * u.num_edges());
        }
    }

    #[test]
    fn single_partition_is_whole_graph() {
        let g = toy_graph();
        let ps = PartitionSet::equal_ranges(&g, 1);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.get(0).num_edges(), g.num_edges());
        assert!(!ps.is_empty());
    }

    #[test]
    fn size_bytes_scales_with_content() {
        let g = toy_graph();
        let ps = PartitionSet::equal_ranges(&g, 2);
        assert!(ps.get(0).size_bytes() > 0);
    }

    #[test]
    fn edge_balanced_covers_and_preserves() {
        let g = crate::generators::rmat(9, 8, crate::generators::RmatParams::GRAPH500, 3);
        let ps = PartitionSet::edge_balanced(&g, 5);
        let total_v: usize = ps.parts().iter().map(|p| p.num_vertices()).sum();
        let total_e: usize = ps.parts().iter().map(|p| p.num_edges()).sum();
        assert_eq!(total_v, g.num_vertices());
        assert_eq!(total_e, g.num_edges());
        assert_edge_ranges(&g, &ps);
        for v in 0..g.num_vertices() as u32 {
            assert!(ps.get(ps.partition_of(v)).owns(v));
        }
    }

    #[test]
    fn edge_balanced_beats_equal_ranges_on_skew() {
        // On a skewed graph the max partition byte size should shrink.
        let g = crate::generators::rmat(10, 8, crate::generators::RmatParams::GRAPH500, 4);
        let max_bytes =
            |ps: &PartitionSet| ps.parts().iter().map(Partition::size_bytes).max().unwrap();
        let eq = PartitionSet::equal_ranges(&g, 4);
        let bal = PartitionSet::edge_balanced(&g, 4);
        assert!(
            max_bytes(&bal) < max_bytes(&eq),
            "balanced {} vs equal {}",
            max_bytes(&bal),
            max_bytes(&eq)
        );
    }

    #[test]
    fn edge_balanced_degenerate_cases() {
        let g = toy_graph();
        let one = PartitionSet::edge_balanced(&g, 1);
        assert_eq!(one.get(0).num_edges(), g.num_edges());
        // More partitions than vertices still covers once.
        let many = PartitionSet::edge_balanced(&g, 30);
        let total: usize = many.parts().iter().map(|p| p.num_vertices()).sum();
        assert_eq!(total, 13);
        let empty = PartitionSet::edge_balanced(&Csr::empty(0), 3);
        assert_eq!(empty.parts().iter().map(|p| p.num_vertices()).sum::<usize>(), 0);
    }
}
