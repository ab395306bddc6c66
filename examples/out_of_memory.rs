//! Out-of-memory sampling: walk a graph whose CSR exceeds the (simulated)
//! device memory, watching the §V optimization ladder pay off.
//!
//! Uses the Friendster stand-in with a deliberately tiny device, 4
//! partitions, 2 streams, and room for 2 resident partitions — the exact
//! Fig. 13 frame.
//!
//! ```text
//! cargo run --release --example out_of_memory
//! ```

use csaw::core::algorithms::UnbiasedNeighborSampling;
use csaw::core::engine::RunOptions;
use csaw::gpu::config::DeviceConfig;
use csaw::graph::datasets;
use csaw::oom::{OomConfig, OomRunner};

fn main() {
    let spec = datasets::by_abbr("FR").expect("registry has FR (Friendster)");
    let g = spec.build();
    println!(
        "graph: {} stand-in — {} vertices, {} edges, CSR {:.1} MB (exceeds the toy device)",
        spec.name,
        g.num_vertices(),
        g.num_edges(),
        g.size_bytes() as f64 / 1e6
    );

    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<u32> =
        (0..512u32).map(|i| (i * 2_654_435_761u32) % g.num_vertices() as u32).collect();
    let dev = DeviceConfig::tiny(1 << 20);

    println!(
        "\n{:<12} {:>10} {:>10} {:>12} {:>10}",
        "config", "transfers", "rounds", "sim time ms", "speedup"
    );
    let mut base_time = None;
    for (label, cfg) in OomConfig::figure13_ladder() {
        let out = OomRunner::new(&g, &algo, cfg).with_device(dev).run(&seeds);
        let t = out.sim_seconds;
        let base = *base_time.get_or_insert(t);
        println!(
            "{:<12} {:>10} {:>10} {:>12.3} {:>9.2}x",
            label,
            out.transfers,
            out.rounds,
            t * 1e3,
            base / t
        );
        // Correctness invariant (§V-B): the sample is identical no matter
        // which optimizations are on.
        assert!(out.sample.sampled_edges() > 0);
    }

    // The sampled output is scheduling-independent: verify baseline and
    // fully-optimized runs produce the same edge sets (expansion *order*
    // within an instance depends on queue drain order, the set does not).
    let a = OomRunner::new(&g, &algo, OomConfig::baseline()).with_device(dev).run(&seeds);
    let b = OomRunner::new(&g, &algo, OomConfig::full()).with_device(dev).run(&seeds);
    assert_eq!(a.sample.sorted_instances(), b.sample.sorted_instances());
    println!("\nscheduling-independence check passed: identical samples across configs");

    // How the fully-optimized run actually overlapped copies and kernels:
    println!("\n{}", csaw::oom::timeline::render(&b.events, 64));

    // §V-D also applies out of memory: split the instances across GPUs,
    // each running its own Fig. 8 loop with its own transfers.
    println!("multi-GPU out-of-memory (each device pages the graph itself):");
    for gpus in [1usize, 2, 4] {
        let multi = csaw::oom::MultiGpu::new(gpus);
        let out = multi.run_oom(&g, &algo, &seeds, OomConfig::full(), RunOptions::default());
        println!(
            "  {gpus} GPU(s): {:.3} ms, {} total transfers",
            out.total_seconds() * 1e3,
            out.transfers
        );
    }
}
