//! Edge-list → CSR construction.
//!
//! The builder accepts arbitrary (possibly duplicated, self-looped,
//! unsorted) edge lists and produces a valid [`Csr`]. Sampling frameworks
//! conventionally work on symmetrized graphs (the paper samples SNAP graphs
//! as undirected), so symmetrization is a builder option.

use crate::csr::Csr;
use crate::types::{VertexId, Weight};

/// Incremental CSR builder.
///
/// ```
/// use csaw_graph::CsrBuilder;
/// let g = CsrBuilder::new()
///     .symmetrize(true)
///     .add_edge(0, 1)
///     .add_edge(1, 2)
///     .build();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct CsrBuilder {
    edges: Vec<(VertexId, VertexId, Weight)>,
    num_vertices: Option<usize>,
    symmetrize: bool,
    dedup: bool,
    drop_self_loops: bool,
    weighted: bool,
}

impl CsrBuilder {
    /// A builder with default policies: keep direction, dedup duplicates,
    /// drop self loops, unweighted output.
    pub fn new() -> Self {
        CsrBuilder {
            edges: Vec::new(),
            num_vertices: None,
            symmetrize: false,
            dedup: true,
            drop_self_loops: true,
            weighted: false,
        }
    }

    /// Forces the vertex count (otherwise inferred as max id + 1).
    pub fn with_num_vertices(mut self, n: usize) -> Self {
        self.num_vertices = Some(n);
        self
    }

    /// Adds the reverse of every edge (undirected interpretation).
    pub fn symmetrize(mut self, yes: bool) -> Self {
        self.symmetrize = yes;
        self
    }

    /// Removes duplicate (src, dst) pairs, keeping the first weight.
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Removes self loops (default true; random walks over self loops are
    /// legal but the paper's datasets have them stripped).
    pub fn drop_self_loops(mut self, yes: bool) -> Self {
        self.drop_self_loops = yes;
        self
    }

    /// Emits a weight array in the built CSR.
    pub fn weighted(mut self, yes: bool) -> Self {
        self.weighted = yes;
        self
    }

    /// Appends an unweighted edge.
    pub fn add_edge(mut self, src: VertexId, dst: VertexId) -> Self {
        self.edges.push((src, dst, 1.0));
        self
    }

    /// Appends a weighted edge.
    pub fn add_weighted_edge(mut self, src: VertexId, dst: VertexId, w: Weight) -> Self {
        self.edges.push((src, dst, w));
        self
    }

    /// Appends many unweighted edges.
    pub fn extend_edges(mut self, it: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        self.edges.extend(it.into_iter().map(|(s, d)| (s, d, 1.0)));
        self
    }

    /// Consumes the builder and produces the CSR: adjacency lists come
    /// out sorted by destination, which `Csr::has_edge` relies on.
    pub fn build(self) -> Csr {
        let CsrBuilder { mut edges, num_vertices, symmetrize, dedup, drop_self_loops, weighted } =
            self;

        if drop_self_loops {
            edges.retain(|&(s, d, _)| s != d);
        }
        let inferred = edges.iter().map(|&(s, d, _)| s.max(d) as usize + 1).max().unwrap_or(0);
        let n = num_vertices.unwrap_or(inferred).max(inferred);
        if weighted {
            build_weighted(edges, n, symmetrize, dedup)
        } else {
            build_unweighted(edges, n, symmetrize, dedup)
        }
    }
}

/// The weighted build: one sort of the whole edge list by (src, dst).
/// Dedup keeps the *first* weight, so the sort is stable.
fn build_weighted(
    mut edges: Vec<(VertexId, VertexId, Weight)>,
    n: usize,
    symmetrize: bool,
    dedup: bool,
) -> Csr {
    if symmetrize {
        // In place: one exact reservation, no second edge list.
        let m = edges.len();
        edges.reserve_exact(m);
        for i in 0..m {
            let (s, d, w) = edges[i];
            edges.push((d, s, w));
        }
    }
    edges.sort_by_key(|e| (e.0, e.1));
    if dedup {
        edges.dedup_by_key(|e| (e.0, e.1));
    }
    let mut row_ptr = vec![0usize; n + 1];
    for &(s, _, _) in &edges {
        row_ptr[s as usize + 1] += 1;
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let col = edges.iter().map(|&(_, d, _)| d).collect();
    let weights = edges.iter().map(|&(_, _, w)| w).collect();
    Csr::from_parts(row_ptr, col, Some(weights))
}

/// The unweighted build, without a second copy of the edge list: count
/// degrees (both directions when symmetrizing), scatter each edge into
/// its source's row of `col`, drop the edge list, then sort and dedup
/// each row in place and compact. Equal entries are indistinguishable,
/// so this gives the same rows as the weighted build's global sort.
fn build_unweighted(
    edges: Vec<(VertexId, VertexId, Weight)>,
    n: usize,
    symmetrize: bool,
    dedup: bool,
) -> Csr {
    let mut row_ptr = vec![0usize; n + 1];
    for &(s, d, _) in &edges {
        row_ptr[s as usize + 1] += 1;
        if symmetrize {
            row_ptr[d as usize + 1] += 1;
        }
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    // `row_ptr[s]` is row s's write cursor; once every edge is placed it
    // holds the row's end, and shifting by one restores the starts.
    let mut col = vec![0 as VertexId; row_ptr[n]];
    let mut place = |s: VertexId, d: VertexId| {
        col[row_ptr[s as usize]] = d;
        row_ptr[s as usize] += 1;
    };
    for &(s, d, _) in &edges {
        place(s, d);
        if symmetrize {
            place(d, s);
        }
    }
    drop(edges);
    row_ptr.copy_within(0..n, 1);
    row_ptr[0] = 0;

    let mut kept = 0;
    for i in 0..n {
        let (start, end) = (row_ptr[i], row_ptr[i + 1]);
        col[start..end].sort_unstable();
        row_ptr[i] = kept;
        for k in start..end {
            if !(dedup && k > start && col[k] == col[k - 1]) {
                col[kept] = col[k];
                kept += 1;
            }
        }
    }
    row_ptr[n] = kept;
    col.truncate(kept);
    col.shrink_to_fit();
    Csr::from_parts(row_ptr, col, None)
}

/// Builds a CSR from a plain (src, dst) slice with default policies plus
/// symmetrization — the common case for the paper's datasets.
pub fn undirected_from_pairs(pairs: &[(VertexId, VertexId)]) -> Csr {
    CsrBuilder::new().symmetrize(true).extend_edges(pairs.iter().copied()).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_adjacency() {
        let g = CsrBuilder::new().add_edge(0, 2).add_edge(0, 1).add_edge(2, 0).build();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn dedup_removes_duplicates() {
        let g = CsrBuilder::new().add_edge(0, 1).add_edge(0, 1).add_edge(0, 1).build();
        assert_eq!(g.num_edges(), 1);
        let g2 = CsrBuilder::new().dedup(false).add_edge(0, 1).add_edge(0, 1).build();
        assert_eq!(g2.num_edges(), 2);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let g = CsrBuilder::new().add_edge(1, 1).add_edge(0, 1).build();
        assert_eq!(g.num_edges(), 1);
        let g2 = CsrBuilder::new().drop_self_loops(false).add_edge(1, 1).build();
        assert_eq!(g2.num_edges(), 1);
        assert_eq!(g2.neighbors(1), &[1]);
    }

    #[test]
    fn symmetrize_adds_reverse_edges() {
        let g = undirected_from_pairs(&[(0, 1), (1, 2)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn symmetrize_dedups_bidirectional_input() {
        let g = undirected_from_pairs(&[(0, 1), (1, 0)]);
        assert_eq!(g.num_edges(), 2); // one each way, not four
    }

    #[test]
    fn explicit_vertex_count_pads_isolated_vertices() {
        let g = CsrBuilder::new().with_num_vertices(10).add_edge(0, 1).build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn inferred_count_wins_when_larger() {
        let g = CsrBuilder::new().with_num_vertices(2).add_edge(0, 5).build();
        assert_eq!(g.num_vertices(), 6);
    }

    #[test]
    fn weighted_build_keeps_first_weight_on_dedup() {
        let g = CsrBuilder::new()
            .weighted(true)
            .add_weighted_edge(0, 1, 2.5)
            .add_weighted_edge(0, 1, 9.0)
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 0), 2.5);
    }

    #[test]
    fn shuffled_duplicated_input_builds_the_sorted_csr() {
        let sorted: Vec<(VertexId, VertexId)> =
            vec![(0, 1), (0, 3), (1, 1), (1, 2), (2, 0), (2, 3), (3, 1), (3, 3), (4, 4)];
        // The same edges shuffled, then every one repeated in reverse.
        let mut messy: Vec<_> =
            [5usize, 2, 8, 0, 7, 3, 1, 6, 4].iter().map(|&i| sorted[i]).collect();
        messy.extend(sorted.iter().rev().copied());
        for symmetrize in [false, true] {
            for drop_self_loops in [true, false] {
                let build = |edges: &[(VertexId, VertexId)]| {
                    CsrBuilder::new()
                        .symmetrize(symmetrize)
                        .drop_self_loops(drop_self_loops)
                        .extend_edges(edges.iter().copied())
                        .build()
                };
                let (a, b) = (build(&sorted), build(&messy));
                let ctx = format!("symmetrize={symmetrize} drop_self_loops={drop_self_loops}");
                assert_eq!(a.row_ptr(), b.row_ptr(), "{ctx}");
                assert_eq!(a.col(), b.col(), "{ctx}");
                assert_eq!(b.has_edge(1, 1), !drop_self_loops, "{ctx}");
                for v in 0..b.num_vertices() as VertexId {
                    assert!(b.neighbors(v).windows(2).all(|w| w[0] < w[1]), "{ctx} v{v}");
                }
            }
        }
    }

    #[test]
    fn empty_build() {
        let g = CsrBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
