//! Quickstart: sample the paper's toy graph (Fig. 1a) with a few of the
//! Table-I algorithms and print what comes back.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use csaw::core::algorithms::{BiasedRandomWalk, Node2Vec, Snowball, UnbiasedNeighborSampling};
use csaw::core::engine::Sampler;
use csaw::gpu::config::DeviceConfig;
use csaw::graph::generators::toy_graph;

fn main() {
    let g = toy_graph();
    println!(
        "toy graph: {} vertices, {} directed edges, avg degree {:.2}\n",
        g.num_vertices(),
        g.num_edges(),
        g.avg_degree()
    );

    // 1. A degree-biased random walk from the hub's neighborhood.
    let walk = BiasedRandomWalk { length: 8 };
    let out = Sampler::new(&g, &walk).run_single_seeds(&[8]);
    println!("biased random walk from v8: {:?}", out.instances[0]);

    // 2. Unbiased neighbor sampling, 2 neighbors per vertex, 2 hops.
    let ns = UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 };
    let out = Sampler::new(&g, &ns).run_single_seeds(&[8]);
    println!("neighbor sampling (NS=2, depth=2) from v8: {:?}", out.instances[0]);

    // 3. Snowball to depth 1 = exactly the neighborhood.
    let snow = Snowball { depth: 1 };
    let out = Sampler::new(&g, &snow).run_single_seeds(&[8]);
    println!("snowball depth 1 from v8: {:?}", out.instances[0]);

    // 4. A node2vec walk that likes going home (small p), modeled: a
    //    modeled sampler charges the paper's cost model on every step, so
    //    its output carries the counters a V100's kernel time is read from.
    let n2v = Node2Vec { length: 8, p: 0.25, q: 4.0 };
    let out = Sampler::new(&g, &n2v).modeled().run_single_seeds(&[0]);
    println!("node2vec (p=0.25, q=4) from v0: {:?}", out.instances[0]);

    // The modeled run's counters priced on a V100.
    let dev = DeviceConfig::v100();
    println!(
        "\nlast run: {} sampled edges, {} RNG draws, {:.3} µs simulated kernel time",
        out.sampled_edges(),
        out.stats.rng_draws,
        out.kernel_seconds(&dev) * 1e6
    );
}
