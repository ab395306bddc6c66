//! [`GraphView`]: the uniform read surface over a base — a plain CSR or
//! a paged (disk-backed) adjacency source — under an optional epoch
//! overlay of a mutable graph.
//!
//! Algorithm hooks and the step kernel read adjacency through this view
//! instead of `&Csr`, so the same code serves the static path (the
//! overlay is `None` and every call forwards straight to the CSR — the
//! compiler sees a branch on a `Copy` option, not a vtable), walks over
//! a [`crate::dynamic::MutableGraph`] snapshot where mutated vertices
//! resolve to their merged overlay adjacency, and — through
//! [`PagedAdjacency`] — walks over a graph whose neighbor lists live in
//! an on-disk store and are decoded into a bounded RAM pool on demand,
//! with or without an overlay above it.

use crate::csr::Csr;
use crate::dynamic::{OverlayState, VertexDelta};
use crate::types::{VertexId, Weight};

/// Adjacency served page-at-a-time from a backing store rather than a
/// resident CSR. The disk tier's residency pool implements this; the
/// contract is *logical equality* with the source CSR: for every vertex,
/// [`PagedAdjacency::neighbors`] must return exactly the slice the
/// in-memory CSR would (same ids, same order), which is what keeps
/// disk-backed sampling output bit-identical.
///
/// Implementations may mutate interior caches during `neighbors` /
/// `neighbor_weights` (on-demand decode), but returned slices must stay
/// valid for the lifetime of the `&self` borrow — the residency pool
/// guarantees this by deferring deallocation to its `&mut` maintenance
/// points.
pub trait PagedAdjacency: std::fmt::Debug {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Number of directed edges.
    fn num_edges(&self) -> usize;
    /// True if the graph stores per-edge weights.
    fn is_weighted(&self) -> bool;
    /// Every vertex's out-degree, indexed by vertex id, resident in RAM:
    /// hooks probe degrees of arbitrary vertices, and the degree-bias
    /// lane reads one for every neighbor, so a degree must not require
    /// decoding a neighbor list.
    fn degrees(&self) -> &[u32];
    /// The neighbor list of `v` as a sorted slice.
    fn neighbors(&self, v: VertexId) -> &[VertexId];
    /// The weight list of `v`, if the graph is weighted.
    fn neighbor_weights(&self, v: VertexId) -> Option<&[Weight]>;
}

/// The storage a view reads base adjacency from.
#[derive(Debug, Clone, Copy)]
enum Base<'a> {
    /// A resident CSR.
    Csr(&'a Csr),
    /// A paged (disk-backed) adjacency source.
    Paged(&'a dyn PagedAdjacency),
}

/// A borrowed, copyable read view of a graph at a fixed epoch: a base
/// (a resident CSR or a paged source) under an optional mutation overlay.
///
/// For vertices untouched by the overlay, every accessor returns exactly
/// what the base [`Csr`] would — same slices, same order — which is what
/// makes snapshot walks bit-identical to walks on the compacted CSR. The
/// same contract binds paged sources (see [`PagedAdjacency`]), so an
/// overlay over either base serves the same logical graph.
#[derive(Debug, Clone, Copy)]
pub struct GraphView<'a> {
    base: Base<'a>,
    overlay: Option<&'a OverlayState>,
}

impl<'a> GraphView<'a> {
    /// View over a bare CSR (no overlay).
    #[inline]
    pub fn new(base: &'a Csr) -> Self {
        GraphView { base: Base::Csr(base), overlay: None }
    }

    /// View over a paged (disk-backed) adjacency source.
    #[inline]
    pub fn paged(paged: &'a dyn PagedAdjacency) -> Self {
        GraphView { base: Base::Paged(paged), overlay: None }
    }

    /// This view's base under `overlay` (used by
    /// [`crate::dynamic::GraphSnapshot::view`] and by snapshot accesses
    /// over the disk tier); `None` serves the base alone.
    #[inline]
    pub fn with_overlay(self, overlay: Option<&'a OverlayState>) -> Self {
        GraphView { overlay, ..self }
    }

    /// The underlying base CSR (adjacency of *mutated* vertices differs
    /// from it — use the view accessors for logical adjacency).
    ///
    /// # Panics
    /// Panics for paged views, which have no resident CSR.
    #[inline]
    pub fn base(&self) -> &'a Csr {
        match self.base {
            Base::Csr(base) => base,
            Base::Paged(_) => panic!("paged GraphView has no resident base CSR"),
        }
    }

    /// Number of vertices (mutations never add vertices).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        match self.base {
            Base::Csr(base) => base.num_vertices(),
            Base::Paged(p) => p.num_vertices(),
        }
    }

    /// Number of directed edges in the logical graph.
    #[inline]
    pub fn num_edges(&self) -> usize {
        let base = match self.base {
            Base::Csr(base) => base.num_edges(),
            Base::Paged(p) => p.num_edges(),
        };
        (base as i64 + self.overlay.map_or(0, OverlayState::edge_delta)) as usize
    }

    /// Out-degree of `v` in the logical graph.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        // Base first, then the overlay within each arm: degree bias pays
        // this once per edge, and testing the overlay first cost
        // `neighbor_biased` 5–8%.
        match self.base {
            Base::Csr(base) => {
                self.delta(v).map_or_else(|| base.degree(v), |d| d.neighbors().len())
            }
            Base::Paged(p) => self
                .delta(v)
                .map_or_else(|| p.degrees()[v as usize] as usize, |d| d.neighbors().len()),
        }
    }

    /// Appends `degree(u) as f64` for every `u` in `us` to `out` — the
    /// degree-bias lane of a whole adjacency in one call, in one tight
    /// loop over the base's degrees: `row_ptr[u + 1] − row_ptr[u]` for a
    /// CSR, the resident degree slice for a paged base. Under an overlay
    /// the loop tests each vertex's dirty bit first, and only a mutated
    /// vertex reads its merged delta.
    pub fn degree_lane(&self, us: &[VertexId], out: &mut Vec<f64>) {
        match (self.base, self.overlay) {
            (Base::Csr(base), None) => {
                let rp = base.row_ptr();
                out.extend(us.iter().map(|&u| (rp[u as usize + 1] - rp[u as usize]) as f64));
            }
            (Base::Paged(p), None) => {
                let deg = p.degrees();
                out.extend(us.iter().map(|&u| deg[u as usize] as f64));
            }
            (Base::Csr(base), Some(o)) => {
                let rp = base.row_ptr();
                overlay_lane(o, us, out, |u| rp[u + 1] - rp[u]);
            }
            (Base::Paged(p), Some(o)) => {
                let deg = p.degrees();
                overlay_lane(o, us, out, |u| deg[u] as usize);
            }
        }
    }

    /// The neighbor list of `v` as a sorted slice.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        match self.base {
            Base::Csr(base) => self.delta(v).map_or_else(|| base.neighbors(v), |d| d.neighbors()),
            Base::Paged(p) => self.delta(v).map_or_else(|| p.neighbors(v), |d| d.neighbors()),
        }
    }

    /// The weight list of `v`, if the graph is weighted.
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&'a [Weight]> {
        match self.base {
            Base::Csr(base) => {
                self.delta(v).map_or_else(|| base.neighbor_weights(v), |d| d.weights())
            }
            Base::Paged(p) => self.delta(v).map_or_else(|| p.neighbor_weights(v), |d| d.weights()),
        }
    }

    /// `v`'s merged overlay adjacency, if the overlay mutated `v`.
    #[inline]
    fn delta(&self, v: VertexId) -> Option<&'a VertexDelta> {
        self.overlay.and_then(|o| o.delta(v))
    }

    /// Weight of the `i`-th edge of `v` (1.0 for unweighted graphs).
    #[inline]
    pub fn edge_weight(&self, v: VertexId, i: usize) -> Weight {
        self.neighbor_weights(v).map_or(1.0, |w| w[i])
    }

    /// True if the graph stores per-edge weights (a property of the base;
    /// overlays on an unweighted graph stay unweighted).
    #[inline]
    pub fn is_weighted(&self) -> bool {
        match self.base {
            Base::Csr(base) => base.is_weighted(),
            Base::Paged(p) => p.is_weighted(),
        }
    }

    /// Whether `u` appears in `v`'s neighbor list (binary search — both
    /// base and overlay adjacencies are kept sorted).
    #[inline]
    pub fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.neighbors(v).binary_search(&u).is_ok()
    }

    /// Average out-degree of the logical graph.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }
}

/// [`GraphView::degree_lane`] under overlay `o`: `base(u)` unless `u`'s
/// dirty bit is set ([`OverlayState::delta`] tests it before its map).
#[inline(always)]
fn overlay_lane(
    o: &OverlayState,
    us: &[VertexId],
    out: &mut Vec<f64>,
    base: impl Fn(usize) -> usize,
) {
    out.extend(
        us.iter()
            .map(|&u| o.delta(u).map_or_else(|| base(u as usize), |d| d.neighbors().len()) as f64),
    );
}

impl<'a> From<&'a Csr> for GraphView<'a> {
    #[inline]
    fn from(base: &'a Csr) -> Self {
        GraphView::new(base)
    }
}

impl Csr {
    /// A [`GraphView`] of this CSR (no overlay).
    #[inline]
    pub fn view(&self) -> GraphView<'_> {
        GraphView::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{EdgeEdit, MutableGraph};

    #[test]
    fn bare_view_matches_csr() {
        let g = crate::generators::toy_graph();
        let v = g.view();
        assert_eq!(v.num_vertices(), g.num_vertices());
        assert_eq!(v.num_edges(), g.num_edges());
        for x in 0..g.num_vertices() as VertexId {
            assert_eq!(v.degree(x), g.degree(x));
            assert_eq!(v.neighbors(x), g.neighbors(x));
            assert_eq!(v.neighbor_weights(x), g.neighbor_weights(x));
        }
        assert_eq!(v.is_weighted(), g.is_weighted());
        assert!((v.avg_degree() - g.avg_degree()).abs() < 1e-12);
    }

    #[test]
    fn overlay_view_resolves_mutated_vertices_only() {
        let g = crate::generators::toy_graph();
        let base_deg0 = g.degree(0);
        let base_n1 = g.neighbors(1).to_vec();
        let mut mg = MutableGraph::new(g);
        let far = (mg.snapshot().view().num_vertices() - 1) as VertexId;
        mg.apply_batch(&[EdgeEdit::Insert { src: 0, dst: far, weight: 1.0 }]).unwrap();
        let snap = mg.snapshot();
        let v = snap.view();
        assert_eq!(v.degree(0), base_deg0 + 1);
        assert!(v.has_edge(0, far));
        assert_eq!(v.neighbors(1), &base_n1[..], "untouched vertex serves base slice");
    }

    /// A trivially paged source: a CSR and its degrees behind the trait
    /// object.
    #[derive(Debug)]
    struct PagedCsr(Csr, Vec<u32>);

    impl PagedCsr {
        fn new(g: Csr) -> Self {
            let degrees = (0..g.num_vertices() as VertexId).map(|v| g.degree(v) as u32).collect();
            PagedCsr(g, degrees)
        }
    }

    impl PagedAdjacency for PagedCsr {
        fn num_vertices(&self) -> usize {
            self.0.num_vertices()
        }
        fn num_edges(&self) -> usize {
            self.0.num_edges()
        }
        fn is_weighted(&self) -> bool {
            self.0.is_weighted()
        }
        fn degrees(&self) -> &[u32] {
            &self.1
        }
        fn neighbors(&self, v: VertexId) -> &[VertexId] {
            self.0.neighbors(v)
        }
        fn neighbor_weights(&self, v: VertexId) -> Option<&[Weight]> {
            self.0.neighbor_weights(v)
        }
    }

    #[test]
    fn paged_view_matches_csr() {
        let g = crate::generators::toy_graph().with_unit_weights();
        let paged = PagedCsr::new(g.clone());
        let v = GraphView::paged(&paged);
        assert_eq!(v.num_vertices(), g.num_vertices());
        assert_eq!(v.num_edges(), g.num_edges());
        assert!(v.is_weighted());
        for x in 0..g.num_vertices() as VertexId {
            assert_eq!(v.degree(x), g.degree(x));
            assert_eq!(v.neighbors(x), g.neighbors(x));
            assert_eq!(v.neighbor_weights(x), g.neighbor_weights(x));
            if g.degree(x) > 0 {
                assert_eq!(v.edge_weight(x, 0), g.edge_weight(x, 0));
            }
        }
        assert!((v.avg_degree() - g.avg_degree()).abs() < 1e-12);
    }

    /// The lane equals per-vertex `degree` on every base, with and
    /// without an overlay that inserts and deletes edges.
    #[test]
    fn degree_lane_matches_degree_on_every_base() {
        let g = crate::generators::rmat(7, 4, crate::generators::RmatParams::MILD, 3);
        let n = g.num_vertices() as VertexId;
        let paged = PagedCsr::new(g.clone());
        let mut mg = MutableGraph::new(g.clone());
        let hub = (6..n).max_by_key(|&v| g.degree(v)).unwrap();
        let gone = g.neighbors(hub)[0];
        mg.apply_batch(&[
            EdgeEdit::Insert { src: 0, dst: n - 1, weight: 1.0 },
            EdgeEdit::Insert { src: 5, dst: 9, weight: 1.0 },
            EdgeEdit::Delete { src: hub, dst: gone },
        ])
        .unwrap();
        let snap = mg.snapshot();
        let overlay = snap.view().overlay;
        assert!(overlay.is_some());
        let us: Vec<VertexId> = (0..n).chain([hub, 0, 5, hub]).collect();
        for view in [
            g.view(),
            g.view().with_overlay(overlay),
            GraphView::paged(&paged),
            GraphView::paged(&paged).with_overlay(overlay),
        ] {
            let mut lane = vec![-1.0];
            view.degree_lane(&us, &mut lane);
            let want: Vec<f64> =
                [-1.0].into_iter().chain(us.iter().map(|&u| view.degree(u) as f64)).collect();
            assert_eq!(lane, want);
        }
        assert_eq!(snap.view().degree(hub), g.degree(hub) - 1);
        assert_eq!(snap.view().degree(0), g.degree(0) + 1);
    }

    #[test]
    #[should_panic(expected = "no resident base CSR")]
    fn paged_view_has_no_base() {
        let paged = PagedCsr::new(crate::generators::toy_graph());
        let v = GraphView::paged(&paged);
        let _ = v.base();
    }
}
