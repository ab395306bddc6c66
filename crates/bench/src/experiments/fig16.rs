//! Fig. 16 — sensitivity of biased neighbor sampling to NeighborSize and
//! instance count.
//!
//! (a) Depth 3, 16k instances (scaled), NeighborSize ∈ {1, 2, 4, 8};
//! (b) NeighborSize 8, instances ∈ {2k, 4k, 8k, 16k} (scaled).
//! Reported in simulated kernel milliseconds, like the paper's
//! "Sampling time (ms)" axis.

use crate::experiments::graph_for;
use crate::report::{ms, Table};
use crate::scale::{seeds, Scale};
use csaw_core::algorithms::BiasedNeighborSampling;
use csaw_core::engine::Sampler;
use csaw_gpu::config::DeviceConfig;
use csaw_gpu::Device;
use csaw_graph::datasets;

/// Fig. 16a: NeighborSize sweep.
pub fn fig16a(scale: Scale) -> Table {
    let dev = DeviceConfig::v100();
    let instances = *scale.fig16_instances().last().unwrap();
    let mut t = Table::new(
        format!(
            "Fig. 16a - sampling time (ms), NeighborSize sweep, depth 3, {instances} instances"
        ),
        &["graph", "NS=1", "NS=2", "NS=4", "NS=8"],
    );
    for spec in datasets::ALL {
        let g = graph_for(&spec);
        let s = seeds(instances, g.num_vertices());
        let mut cells = vec![spec.abbr.to_string()];
        for ns in [1usize, 2, 4, 8] {
            let algo = BiasedNeighborSampling { neighbor_size: ns, depth: 3 };
            let out = Sampler::new(&g, &algo).with_device(Device::v100()).run_single_seeds(&s);
            cells.push(ms(out.kernel_seconds(&dev)));
        }
        t.row(cells);
    }
    t
}

/// Fig. 16b: instance-count sweep.
pub fn fig16b(scale: Scale) -> Table {
    let dev = DeviceConfig::v100();
    let counts = scale.fig16_instances();
    let header: Vec<String> = std::iter::once("graph".to_string())
        .chain(counts.iter().map(|c| format!("n={c}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig. 16b - sampling time (ms), instance sweep, NeighborSize 8, depth 3",
        &header_refs,
    );
    for spec in datasets::ALL {
        let g = graph_for(&spec);
        let mut cells = vec![spec.abbr.to_string()];
        for &n in &counts {
            let s = seeds(n, g.num_vertices());
            let algo = BiasedNeighborSampling { neighbor_size: 8, depth: 3 };
            let out = Sampler::new(&g, &algo).with_device(Device::v100()).run_single_seeds(&s);
            cells.push(ms(out.kernel_seconds(&dev)));
        }
        t.row(cells);
    }
    t
}

/// Both panels.
pub fn fig16(scale: Scale) -> Vec<Table> {
    vec![fig16a(scale), fig16b(scale)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_grows_with_neighbor_size() {
        let spec = datasets::by_abbr("RE").unwrap();
        let g = graph_for(&spec);
        let dev = DeviceConfig::v100();
        let s = seeds(64, g.num_vertices());
        let t = |ns| {
            let algo = BiasedNeighborSampling { neighbor_size: ns, depth: 3 };
            Sampler::new(&g, &algo)
                .with_device(Device::v100())
                .run_single_seeds(&s)
                .kernel_seconds(&dev)
        };
        assert!(t(8) > t(1), "NS=8 must cost more than NS=1");
    }

    #[test]
    fn time_grows_with_instances() {
        let spec = datasets::by_abbr("AM").unwrap();
        let g = graph_for(&spec);
        let dev = DeviceConfig::v100();
        let algo = BiasedNeighborSampling { neighbor_size: 8, depth: 3 };
        let t = |n| {
            let s = seeds(n, g.num_vertices());
            Sampler::new(&g, &algo)
                .with_device(Device::v100())
                .run_single_seeds(&s)
                .kernel_seconds(&dev)
        };
        assert!(t(256) > t(32));
    }
}
