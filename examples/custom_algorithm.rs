//! Writing a *new* algorithm against the C-SAW API — the expressiveness
//! requirement of §III-B ("not only support the known sampling algorithms
//! ... but also prepare to support emerging ones").
//!
//! We build a **similarity-biased explorer**: a sampler whose edge bias
//! rewards neighbors that share many neighbors with the current vertex
//! (a dynamic, structure-dependent bias none of the built-ins has), with
//! a restart to escape dense pockets. Only the three hooks are written;
//! selection, collision handling, frontiers, and statistics all come from
//! the framework.
//!
//! ```text
//! cargo run --release --example custom_algorithm
//! ```

use csaw::core::api::*;
use csaw::core::engine::Sampler;
use csaw::gpu::Philox;
use csaw::graph::datasets;
use csaw::graph::GraphView;

/// Samples 2 neighbors per vertex per hop, biased by Jaccard-ish overlap
/// with the current vertex, restarting 10% of updates.
struct SimilarityExplorer {
    depth: usize,
}

impl SimilarityExplorer {
    fn overlap(g: GraphView<'_>, a: u32, b: u32) -> usize {
        // Sorted-list intersection size.
        let (mut i, mut j) = (0, 0);
        let (na, nb) = (g.neighbors(a), g.neighbors(b));
        let mut common = 0;
        while i < na.len() && j < nb.len() {
            match na[i].cmp(&nb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        common
    }
}

impl Algorithm for SimilarityExplorer {
    fn name(&self) -> &'static str {
        "similarity-explorer"
    }
    fn config(&self) -> AlgoConfig {
        AlgoConfig {
            depth: self.depth,
            neighbor_size: NeighborSize::Constant(2),
            frontier: FrontierMode::IndependentPerVertex,
            without_replacement: true,
        }
    }
    // EDGEBIAS: 1 + |N(v) ∩ N(u)| — prefer structurally similar neighbors.
    // The kernel asks for a vertex's whole lane at once through
    // `edge_bias_lane`, whose default calls this once per edge. Overriding
    // the lane hook pays off when the lane has a cheaper bulk form, such as
    // `GraphView::degree_lane` for a degree bias. A sorted-list intersection
    // per neighbor has none, so the default is the right choice here.
    fn edge_bias(&self, g: GraphView<'_>, e: &EdgeCand) -> f64 {
        1.0 + Self::overlap(g, e.v, e.u) as f64
    }
    // UPDATE: occasionally refuse to expand (a probabilistic frontier
    // filter, the paper's example use of UPDATE).
    fn update(
        &self,
        _g: GraphView<'_>,
        e: &EdgeCand,
        _home: u32,
        rng: &mut Philox,
    ) -> UpdateAction {
        if rng.chance(0.1) {
            UpdateAction::Discard
        } else {
            UpdateAction::Add(e.u)
        }
    }
}

fn main() {
    let spec = datasets::by_abbr("WG").expect("registry has WG");
    let g = spec.build();
    println!("graph: {} stand-in — {} vertices\n", spec.name, g.num_vertices());

    let algo = SimilarityExplorer { depth: 3 };
    let seeds: Vec<u32> =
        (0..256u32).map(|i| (i * 2_654_435_761u32) % g.num_vertices() as u32).collect();
    let out = Sampler::new(&g, &algo).run_single_seeds(&seeds);

    // Does the similarity bias do anything? Compare the triangle density
    // of its sample against an unbiased sampler with the same shape.
    let unbiased = csaw::core::algorithms::UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let base = Sampler::new(&g, &unbiased).run_single_seeds(&seeds);

    let clustering = |o: &csaw::core::SampleOutput| {
        let (sub, _) = o.induce_subgraph();
        csaw::graph::quality::clustering_coefficient(&sub)
    };
    let (ours, theirs) = (clustering(&out), clustering(&base));
    println!(
        "sampled edges: similarity {}, unbiased {}",
        out.sampled_edges(),
        base.sampled_edges()
    );
    println!("sample clustering: similarity {ours:.4} vs unbiased {theirs:.4}");
    assert!(
        ours > theirs,
        "similarity bias should harvest denser neighborhoods ({ours} vs {theirs})"
    );
    println!("\ncustom bias measurably changed what got sampled — three hooks, no framework code touched.");
}
