//! Generate a Deepwalk/node2vec walk corpus — the workload that motivates
//! GPU random walk in the paper's introduction (vertex embeddings for
//! graph learning).
//!
//! Produces the standard skip-gram training input: `walks_per_vertex`
//! truncated walks from every vertex, here on the LiveJournal stand-in.
//! Prints corpus statistics a downstream word2vec-style trainer cares
//! about (token count, vertex coverage, hub exposure).
//!
//! ```text
//! cargo run --release --example deepwalk_corpus
//! ```

use csaw::core::algorithms::{Node2Vec, SimpleRandomWalk};
use csaw::core::engine::Sampler;
use csaw::gpu::config::DeviceConfig;
use csaw::gpu::Device;
use csaw::graph::datasets;

fn main() {
    let spec = datasets::by_abbr("LJ").expect("registry has LJ");
    let g = spec.build();
    println!(
        "graph: {} stand-in — {} vertices, {} edges",
        spec.name,
        g.num_vertices(),
        g.num_edges()
    );

    let walks_per_vertex = 2;
    let walk_length = 40;
    let seeds: Vec<u32> = (0..g.num_vertices() as u32)
        .flat_map(|v| std::iter::repeat_n(v, walks_per_vertex))
        .collect();

    // Plain Deepwalk corpus, modeled on a V100 (the device attached to
    // each sampler is what gives the report a simulated kernel time).
    let dw = SimpleRandomWalk { length: walk_length };
    let out = Sampler::new(&g, &dw).with_device(Device::v100()).run_single_seeds(&seeds);
    report("deepwalk", &g, &out);

    // node2vec corpus with exploration bias (q < 1 favors going outward).
    let n2v = Node2Vec { length: walk_length, p: 1.0, q: 0.5 };
    let out = Sampler::new(&g, &n2v).with_device(Device::v100()).run_single_seeds(&seeds);
    report("node2vec(p=1,q=0.5)", &g, &out);
}

fn report(name: &str, g: &csaw::graph::Csr, out: &csaw::core::SampleOutput) {
    let tokens: u64 = out.sampled_edges() + out.instances.len() as u64; // walk vertices
    let mut visits = vec![0u32; g.num_vertices()];
    for inst in &out.instances {
        for &(_, u) in inst {
            visits[u as usize] += 1;
        }
    }
    let covered = visits.iter().filter(|&&c| c > 0).count();
    let max_visits = visits.iter().max().copied().unwrap_or(0);
    let dev = DeviceConfig::v100();
    println!(
        "{name}: {} walks, {tokens} corpus tokens, coverage {:.1}% of vertices, \
         hottest vertex visited {max_visits}x",
        out.instances.len(),
        100.0 * covered as f64 / g.num_vertices() as f64,
    );
    println!(
        "    simulated kernel: {:.3} ms ({:.1}M sampled edges/s); host wall: {:.3} s",
        out.kernel_seconds(&dev) * 1e3,
        out.seps(&dev) / 1e6,
        out.wall_seconds
    );
}
