//! Compressed Sparse Row graph storage.
//!
//! This is the single graph representation used by the whole workspace.
//! Sampling requires *all* neighbors of a vertex to be visible at once to
//! compute transition probabilities (paper §V-A), which CSR provides as a
//! contiguous slice per vertex — the property the out-of-memory partitioner
//! relies on.

use crate::types::{Edge, VertexId, Weight};

/// A graph in Compressed Sparse Row form with optional edge weights.
///
/// Invariants (checked by [`Csr::validate`] and maintained by
/// [`crate::builder::CsrBuilder`]):
/// - `row_ptr.len() == num_vertices + 1`, `row_ptr[0] == 0`,
///   `row_ptr` is non-decreasing and ends at `col.len()`.
/// - every entry of `col` is `< num_vertices`.
/// - `weights`, when present, has `col.len()` entries, all finite and `> 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    row_ptr: Vec<usize>,
    col: Vec<VertexId>,
    weights: Option<Vec<Weight>>,
}

impl Csr {
    /// Builds a CSR directly from raw parts. Panics if the invariants don't
    /// hold — use [`crate::builder::CsrBuilder`] for untrusted input.
    pub fn from_parts(
        row_ptr: Vec<usize>,
        col: Vec<VertexId>,
        weights: Option<Vec<Weight>>,
    ) -> Self {
        let g = Csr { row_ptr, col, weights };
        g.validate().expect("invalid CSR parts");
        g
    }

    /// An empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Csr { row_ptr: vec![0; n + 1], col: Vec::new(), weights: None }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed edges (CSR entries).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.row_ptr[v + 1] - self.row_ptr[v]
    }

    /// The neighbor list of `v` as a slice.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.col[self.row_ptr[v]..self.row_ptr[v + 1]]
    }

    /// The weight list of `v`, if the graph is weighted.
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&[Weight]> {
        let w = self.weights.as_ref()?;
        let v = v as usize;
        Some(&w[self.row_ptr[v]..self.row_ptr[v + 1]])
    }

    /// Weight of the `i`-th edge of `v` (1.0 for unweighted graphs).
    #[inline]
    pub fn edge_weight(&self, v: VertexId, i: usize) -> Weight {
        match &self.weights {
            Some(w) => w[self.row_ptr[v as usize] + i],
            None => 1.0,
        }
    }

    /// CSR edge index range of `v`'s adjacency.
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.row_ptr[v]..self.row_ptr[v + 1]
    }

    /// True if the graph stores per-edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Whether `u` appears in `v`'s neighbor list. Neighbor lists are kept
    /// sorted by the builder, so this is a binary search; node2vec's
    /// `ISNEIGHBOR` predicate (paper Fig. 3a) calls this per candidate.
    #[inline]
    pub fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.neighbors(v).binary_search(&u).is_ok()
    }

    /// Raw row pointer array (for the partitioner and transfer engine).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column array.
    #[inline]
    pub fn col(&self) -> &[VertexId] {
        &self.col
    }

    /// Raw weight array, if present.
    #[inline]
    pub fn weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// In-memory footprint of the CSR arrays in bytes, mirroring the
    /// "Size (of CSR)" column of Table II. Counts 8-byte row offsets,
    /// 4-byte vertex ids and, when present, 4-byte weights.
    pub fn size_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col.len() * std::mem::size_of::<VertexId>()
            + self.weights.as_ref().map_or(0, |w| w.len() * std::mem::size_of::<Weight>())
    }

    /// Iterator over all directed edges.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |v| {
            self.edge_range(v).map(move |e| Edge {
                src: v,
                dst: self.col[e],
                weight: self.weights.as_ref().map_or(1.0, |w| w[e]),
            })
        })
    }

    /// Checks every structural invariant; returns a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_ptr.is_empty() {
            return Err("row_ptr must have at least one entry".into());
        }
        if self.row_ptr[0] != 0 {
            return Err("row_ptr[0] must be 0".into());
        }
        if *self.row_ptr.last().unwrap() != self.col.len() {
            return Err(format!(
                "row_ptr must end at col.len() ({} != {})",
                self.row_ptr.last().unwrap(),
                self.col.len()
            ));
        }
        if self.row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("row_ptr must be non-decreasing".into());
        }
        let n = self.num_vertices() as VertexId;
        if let Some(&bad) = self.col.iter().find(|&&c| c >= n) {
            return Err(format!("column entry {bad} out of range (n = {n})"));
        }
        if let Some(w) = &self.weights {
            if w.len() != self.col.len() {
                return Err("weights must have one entry per edge".into());
            }
            if w.iter().any(|x| !x.is_finite() || *x <= 0.0) {
                return Err("weights must be finite and positive".into());
            }
        }
        Ok(())
    }

    /// The transpose (reverse) graph: every edge (v, u) becomes (u, v),
    /// weights following their edges. For symmetrized graphs this is the
    /// identity; for directed graphs it yields the in-edge view (walks on
    /// the transpose are reverse walks).
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut row_ptr = vec![0usize; n + 1];
        for &u in &self.col {
            row_ptr[u as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cursor = row_ptr.clone();
        let mut col = vec![0 as VertexId; self.col.len()];
        let mut weights = self.weights.as_ref().map(|_| vec![0.0 as Weight; self.col.len()]);
        for v in 0..n as VertexId {
            for e in self.edge_range(v) {
                let u = self.col[e] as usize;
                let slot = cursor[u];
                cursor[u] += 1;
                col[slot] = v;
                if let (Some(ws), Some(src)) = (weights.as_mut(), self.weights.as_ref()) {
                    ws[slot] = src[e];
                }
            }
        }
        // Counting-sort order leaves each adjacency sorted by source id
        // because sources are visited in increasing order.
        Csr { row_ptr, col, weights }
    }

    /// Attaches unit weights, turning an unweighted graph into a weighted
    /// one (used by tests and the weighted-bias benchmarks).
    pub fn with_unit_weights(mut self) -> Self {
        if self.weights.is_none() {
            self.weights = Some(vec![1.0; self.col.len()]);
        }
        self
    }

    /// Replaces the weight array. Panics on length mismatch.
    pub fn with_weights(mut self, weights: Vec<Weight>) -> Self {
        assert_eq!(weights.len(), self.col.len(), "one weight per edge");
        self.weights = Some(weights);
        self.validate().expect("invalid weights");
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Csr {
        // 0 - 1 - 2 (directed both ways)
        Csr::from_parts(vec![0, 1, 3, 4], vec![1, 0, 2, 1], None)
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(!g.is_weighted());
        assert_eq!(g.edge_weight(1, 0), 1.0);
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn has_edge_uses_sorted_adjacency() {
        let g = path3();
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn edges_iterator_covers_all() {
        let g = path3();
        let edges: Vec<_> = g.edges().map(|e| (e.src, e.dst)).collect();
        assert_eq!(edges, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }

    #[test]
    fn weighted_views() {
        let g = path3().with_weights(vec![1.0, 2.0, 3.0, 4.0]);
        assert!(g.is_weighted());
        assert_eq!(g.neighbor_weights(1).unwrap(), &[2.0, 3.0]);
        assert_eq!(g.edge_weight(2, 0), 4.0);
    }

    #[test]
    fn unit_weights_idempotent() {
        let g = path3().with_weights(vec![5.0; 4]).with_unit_weights();
        assert_eq!(g.edge_weight(0, 0), 5.0, "existing weights preserved");
    }

    #[test]
    #[should_panic(expected = "invalid CSR parts")]
    fn from_parts_rejects_bad_row_ptr() {
        Csr::from_parts(vec![0, 2, 1], vec![0, 1], None);
    }

    #[test]
    #[should_panic(expected = "invalid CSR parts")]
    fn from_parts_rejects_out_of_range_column() {
        Csr::from_parts(vec![0, 1], vec![7], None);
    }

    #[test]
    fn validate_rejects_nonpositive_weights() {
        let g = Csr { row_ptr: vec![0, 1], col: vec![0], weights: Some(vec![0.0]) };
        assert!(g.validate().is_err());
    }

    #[test]
    fn transpose_reverses_directed_edges() {
        // 0 -> 1, 0 -> 2, 2 -> 1
        let g = Csr::from_parts(vec![0, 2, 2, 3], vec![1, 2, 1], None);
        let t = g.transpose();
        assert_eq!(t.neighbors(1), &[0, 2]);
        assert_eq!(t.neighbors(2), &[0]);
        assert!(t.neighbors(0).is_empty());
        assert!(t.validate().is_ok());
        // Double transpose is the identity.
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn transpose_of_symmetric_graph_is_identity() {
        let g = crate::generators::toy_graph();
        assert_eq!(g.transpose(), g);
    }

    #[test]
    fn transpose_carries_weights() {
        // 0 -> 1 (w 2.5) and 1 -> 0 (w 7.0).
        let g = Csr::from_parts(vec![0, 1, 2], vec![1, 0], Some(vec![2.5, 7.0]));
        let t = g.transpose();
        assert_eq!(t.neighbor_weights(1).unwrap(), &[2.5]);
        assert_eq!(t.neighbor_weights(0).unwrap(), &[7.0]);
    }

    #[test]
    fn size_bytes_counts_all_arrays() {
        let g = path3();
        assert_eq!(g.size_bytes(), 4 * 8 + 4 * 4);
        let gw = path3().with_unit_weights();
        assert_eq!(gw.size_bytes(), 4 * 8 + 4 * 4 + 4 * 4);
    }
}
