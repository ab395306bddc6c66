//! The bias-centric user API (paper §III, Fig. 2a).
//!
//! C-SAW observes that every traversal-based sampling and random-walk
//! algorithm reduces to *bias-based vertex selection* repeated over a
//! frontier. Users supply three hooks:
//!
//! - `VERTEXBIAS(v)` — bias of a frontier-pool candidate (Eq. 2);
//! - `EDGEBIAS(e)`   — bias of a neighbor reached via edge `e` (Eq. 3);
//! - `UPDATE(e)`     — which vertex joins the frontier pool after `e`'s
//!   endpoint is sampled (Eq. 4; also implements jump/restart/filtering).
//!
//! plus the structural parameters in [`AlgoConfig`]. The framework owns
//! everything else: CTPS construction, warp-parallel selection, collision
//! mitigation, queues, out-of-memory scheduling.

use csaw_gpu::Philox;
use csaw_graph::{GraphView, VertexId, Weight};

/// A candidate edge `(v, u)` handed to `EDGEBIAS`/`UPDATE`: `u` is a
/// neighbor of frontier vertex `v`. `prev` is the vertex the instance
/// explored immediately before `v` (the paper's `SOURCE(e.v)`), which
/// second-order algorithms like node2vec consult.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCand {
    /// Frontier (source) vertex.
    pub v: VertexId,
    /// Candidate neighbor.
    pub u: VertexId,
    /// Weight of edge (v, u); 1.0 on unweighted graphs.
    pub weight: Weight,
    /// Vertex explored at the preceding step of this instance, if any.
    pub prev: Option<VertexId>,
}

/// What `UPDATE` decides to do with a sampled edge (paper Eq. 4: "It can
/// return any vertex to provide maximum flexibility").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateAction {
    /// Add this vertex to the frontier pool (the common case: the sampled
    /// neighbor itself).
    Add(VertexId),
    /// Add nothing (e.g. a visited-vertex filter rejected the candidate).
    Discard,
}

/// How many neighbors SELECT draws per frontier vertex per step — the
/// `NeighborSize` axis of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NeighborSize {
    /// A fixed count (neighbor sampling, random walks use 1).
    Constant(usize),
    /// Every neighbor (snowball sampling).
    All,
    /// Geometric with burning probability `pf` (forest fire sampling):
    /// mean `pf / (1 - pf)` neighbors per vertex, as in Leskovec &
    /// Faloutsos.
    Geometric {
        /// Burning probability.
        pf: f64,
    },
}

impl NeighborSize {
    /// Realizes the neighbor count for a vertex of degree `deg`.
    pub fn realize(&self, deg: usize, rng: &mut Philox) -> usize {
        match *self {
            NeighborSize::Constant(k) => k.min(deg),
            NeighborSize::All => deg,
            NeighborSize::Geometric { pf } => {
                debug_assert!((0.0..1.0).contains(&pf));
                let mut k = 0usize;
                while k < deg && rng.chance(pf) {
                    k += 1;
                }
                k
            }
        }
    }
}

/// How the per-step frontier is drawn from the frontier pool — the
/// `FrontierSize`/`VERTEXBIAS` axis (Fig. 2b line 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierMode {
    /// Every pool vertex is a frontier vertex and expands independently
    /// with its own neighbor pool (neighbor/forest-fire/snowball sampling,
    /// ordinary walks with a pool of one).
    IndependentPerVertex,
    /// All frontier vertices share one neighbor pool and SELECT draws
    /// `NeighborSize` from the union (layer sampling, §II-A).
    SharedLayer,
    /// One pool vertex is selected per step by `VERTEXBIAS` and the sampled
    /// neighbor replaces it (multi-dimensional random walk, Fig. 4).
    BiasedReplace,
}

/// Structural configuration of an algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoConfig {
    /// Sampling depth (hops) for traversal sampling, or walk length for
    /// random walks.
    pub depth: usize,
    /// Neighbors selected per frontier vertex (per layer for
    /// [`FrontierMode::SharedLayer`]).
    pub neighbor_size: NeighborSize,
    /// Frontier discipline.
    pub frontier: FrontierMode,
    /// Sampling-without-replacement: a vertex joins the frontier pool at
    /// most once per instance (§II-A: traversal sampling "avoids sampling
    /// the same vertex more than once"; random walks set this false).
    pub without_replacement: bool,
}

/// A sampling or random-walk algorithm expressed through the three C-SAW
/// hooks. Defaults give an unbiased algorithm whose frontier grows by the
/// sampled neighbors — override only what differs, exactly like the
/// paper's Fig. 3 listings.
pub trait Algorithm: Sync + Send {
    /// Human-readable algorithm name (used by the harness output).
    fn name(&self) -> &'static str;

    /// Structural parameters.
    fn config(&self) -> AlgoConfig;

    /// `VERTEXBIAS` (Eq. 2): bias of pool candidate `v`. Default: uniform.
    fn vertex_bias(&self, _g: GraphView<'_>, _v: VertexId) -> f64 {
        1.0
    }

    /// `EDGEBIAS` (Eq. 3): bias of neighbor `e.u`. Default: uniform.
    fn edge_bias(&self, _g: GraphView<'_>, _e: &EdgeCand) -> f64 {
        1.0
    }

    /// `EDGEBIAS` over a whole adjacency — the paper's unit of work
    /// (§IV-A: a warp fills all `d` lanes of a vertex, then scans them):
    /// appends the bias of every edge `(v, neighbors[i])` to `out`, in
    /// neighbor order. `weights` is `v`'s weight slice (`None` on
    /// unweighted graphs, where every edge weighs 1.0). The step kernel
    /// calls this once per expansion. The default calls
    /// [`Algorithm::edge_bias`] per edge; override it only to produce the
    /// very same values faster, e.g. a bias that reads nothing but the
    /// edge weight or `degree(u)` ([`GraphView::degree_lane`]). Debug
    /// builds check every lane against `edge_bias` bit for bit.
    fn edge_bias_lane(
        &self,
        g: GraphView<'_>,
        v: VertexId,
        prev: Option<VertexId>,
        neighbors: &[VertexId],
        weights: Option<&[Weight]>,
        out: &mut Vec<f64>,
    ) {
        out.extend(neighbors.iter().enumerate().map(|(i, &u)| {
            let weight = weights.map_or(1.0, |w| w[i]);
            self.edge_bias(g, &EdgeCand { v, u, weight, prev })
        }));
    }

    /// Declares that [`Algorithm::edge_bias`] returns `1.0` for *every*
    /// edge, letting the step kernel fill the bias lane with `1.0`s
    /// directly instead of calling [`Algorithm::edge_bias_lane`].
    /// Conservative default `false`; algorithms that override `edge_bias`
    /// must leave it `false` (debug builds verify the claim against the
    /// hook). Purely a fast path: stats charges and sampled output are
    /// identical either way.
    fn edge_bias_is_uniform(&self) -> bool {
        false
    }

    /// Declares that [`Algorithm::edge_bias`] depends only on the edge
    /// itself — not on `prev` or any other walk state — so a vertex's CTPS
    /// is the same on every visit and may be cached across instances
    /// ([`crate::ctps_cache::CtpsCache`]). Uniform bias is trivially
    /// static, hence the default. Second-order algorithms (node2vec) and
    /// walk-state-dependent biases must return `false`. Like
    /// `edge_bias_is_uniform`, purely an optimization flag: sampled output
    /// and stats charges are identical either way.
    fn edge_bias_is_static(&self) -> bool {
        self.edge_bias_is_uniform()
    }

    /// An a-priori upper bound on [`Algorithm::edge_bias`] over *all* of
    /// `v`'s candidate edges in the state `prev`, or `None` when no cheap
    /// bound exists. A sound bound lets the adaptive kernel serve
    /// dynamic-bias expansions by rejection: propose a uniform candidate,
    /// evaluate only *its* bias against `uniform() * bound`, instead of
    /// materializing all `degree(v)` biases for ITS. The bound must
    /// dominate every candidate's bias — an under-estimate silently clips
    /// the distribution — and must cost far less than a full bias pass
    /// (ideally O(1)) or it defeats the purpose. Default: no bound,
    /// which keeps the kernel on ITS.
    fn edge_bias_bound(
        &self,
        _g: GraphView<'_>,
        _v: VertexId,
        _prev: Option<VertexId>,
    ) -> Option<f64> {
        None
    }

    /// `UPDATE` (Eq. 4): vertex added to the frontier pool after sampling
    /// `e`. Receives the instance's home seed (for restarts) and an RNG
    /// (for probabilistic jumps). Default: add the sampled neighbor.
    fn update(
        &self,
        _g: GraphView<'_>,
        e: &EdgeCand,
        _home: VertexId,
        _rng: &mut Philox,
    ) -> UpdateAction {
        UpdateAction::Add(e.u)
    }

    /// Hook for walk-style algorithms that may refuse a move *before* it is
    /// recorded (metropolis-hastings stays at `v` with some probability).
    /// Returning `None` keeps the proposed edge; returning `Some(w)`
    /// replaces the move's destination with `w`.
    fn accept(&self, _g: GraphView<'_>, _e: &EdgeCand, _rng: &mut Philox) -> Option<VertexId> {
        None
    }

    /// What to do when frontier vertex `v` has no neighbors: terminate the
    /// instance's path through `v` (default), or continue elsewhere — a
    /// jump target for random walk with jump, the home seed for random
    /// walk with restart.
    fn on_dead_end(
        &self,
        _g: GraphView<'_>,
        _v: VertexId,
        _home: VertexId,
        _rng: &mut Philox,
    ) -> UpdateAction {
        UpdateAction::Discard
    }
}

/// Forwarding impls so dynamically chosen algorithms (registry lookups,
/// service requests) run through the generic engine without a bespoke
/// adapter: `Sampler::new(&g, &boxed)` monomorphizes over the box.
macro_rules! forward_algorithm {
    ($ty:ty) => {
        impl Algorithm for $ty {
            fn name(&self) -> &'static str {
                (**self).name()
            }
            fn config(&self) -> AlgoConfig {
                (**self).config()
            }
            fn vertex_bias(&self, g: GraphView<'_>, v: VertexId) -> f64 {
                (**self).vertex_bias(g, v)
            }
            fn edge_bias(&self, g: GraphView<'_>, e: &EdgeCand) -> f64 {
                (**self).edge_bias(g, e)
            }
            fn edge_bias_lane(
                &self,
                g: GraphView<'_>,
                v: VertexId,
                prev: Option<VertexId>,
                neighbors: &[VertexId],
                weights: Option<&[Weight]>,
                out: &mut Vec<f64>,
            ) {
                (**self).edge_bias_lane(g, v, prev, neighbors, weights, out)
            }
            fn edge_bias_is_uniform(&self) -> bool {
                (**self).edge_bias_is_uniform()
            }
            fn edge_bias_is_static(&self) -> bool {
                (**self).edge_bias_is_static()
            }
            fn edge_bias_bound(
                &self,
                g: GraphView<'_>,
                v: VertexId,
                prev: Option<VertexId>,
            ) -> Option<f64> {
                (**self).edge_bias_bound(g, v, prev)
            }
            fn update(
                &self,
                g: GraphView<'_>,
                e: &EdgeCand,
                home: VertexId,
                rng: &mut Philox,
            ) -> UpdateAction {
                (**self).update(g, e, home, rng)
            }
            fn accept(&self, g: GraphView<'_>, e: &EdgeCand, rng: &mut Philox) -> Option<VertexId> {
                (**self).accept(g, e, rng)
            }
            fn on_dead_end(
                &self,
                g: GraphView<'_>,
                v: VertexId,
                home: VertexId,
                rng: &mut Philox,
            ) -> UpdateAction {
                (**self).on_dead_end(g, v, home, rng)
            }
        }
    };
}

forward_algorithm!(Box<dyn Algorithm>);
forward_algorithm!(std::sync::Arc<dyn Algorithm>);
forward_algorithm!(&dyn Algorithm);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_size_constant_clamps_to_degree() {
        let mut rng = Philox::new(1);
        assert_eq!(NeighborSize::Constant(5).realize(3, &mut rng), 3);
        assert_eq!(NeighborSize::Constant(2).realize(9, &mut rng), 2);
        assert_eq!(NeighborSize::All.realize(7, &mut rng), 7);
    }

    #[test]
    fn geometric_mean_matches_pf() {
        let mut rng = Philox::new(2);
        let pf = 0.7;
        let n = 50_000;
        let total: usize =
            (0..n).map(|_| NeighborSize::Geometric { pf }.realize(usize::MAX, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        let expect = pf / (1.0 - pf); // ≈ 2.333
        assert!((mean - expect).abs() < 0.1, "mean {mean} vs {expect}");
    }

    #[test]
    fn geometric_caps_at_degree() {
        let mut rng = Philox::new(3);
        for _ in 0..1000 {
            assert!(NeighborSize::Geometric { pf: 0.99 }.realize(4, &mut rng) <= 4);
        }
    }

    struct Uniform;
    impl Algorithm for Uniform {
        fn name(&self) -> &'static str {
            "uniform"
        }
        fn config(&self) -> AlgoConfig {
            AlgoConfig {
                depth: 1,
                neighbor_size: NeighborSize::Constant(1),
                frontier: FrontierMode::IndependentPerVertex,
                without_replacement: false,
            }
        }
    }

    #[test]
    fn defaults_are_unbiased_and_additive() {
        let g = csaw_graph::generators::toy_graph();
        let a = Uniform;
        assert_eq!(a.vertex_bias(g.view(), 0), 1.0);
        let e = EdgeCand { v: 8, u: 7, weight: 1.0, prev: None };
        assert_eq!(a.edge_bias(g.view(), &e), 1.0);
        let mut rng = Philox::new(0);
        assert_eq!(a.update(g.view(), &e, 8, &mut rng), UpdateAction::Add(7));
        assert_eq!(a.accept(g.view(), &e, &mut rng), None);
    }
}
