//! Table II dataset registry.
//!
//! The paper evaluates ten SNAP/KONECT graphs. We cannot ship those, so each
//! entry here is a *scaled synthetic stand-in*: an R-MAT graph whose average
//! degree matches the paper graph and whose vertex count preserves the
//! relative size ordering (FR and TW stay the two giants that exceed the
//! simulated GPU memory). The paper's own trend analysis keys on average
//! degree and degree skew, both of which the stand-ins preserve.
//!
//! Users with the real datasets can load them through [`crate::io`] and run
//! every experiment unchanged.

use crate::csr::Csr;
use crate::generators::rmat::{rmat, RmatParams};

/// Static description of one Table II dataset and its synthetic stand-in.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Paper abbreviation (AM, AS, CP, LJ, OR, RE, WG, YE, FR, TW).
    pub abbr: &'static str,
    /// Full dataset name as in Table II.
    pub name: &'static str,
    /// Vertex count of the real graph.
    pub paper_vertices: u64,
    /// Directed edge count of the real graph.
    pub paper_edges: u64,
    /// Average degree reported in Table II.
    pub paper_avg_degree: f64,
    /// log2 of the stand-in's vertex count.
    pub scale: u32,
    /// Undirected edges per vertex for the stand-in generator.
    pub edge_factor: usize,
    /// Whether the real graph exceeds a single V100's 16 GB memory
    /// (FR and TW in the paper) — drives the out-of-memory experiments.
    pub exceeds_gpu_memory: bool,
    /// Generator seed, fixed so every run sees identical graphs.
    pub seed: u64,
}

impl DatasetSpec {
    /// Builds the synthetic stand-in graph.
    pub fn build(&self) -> Csr {
        // Mild skew for web/citation/routing graphs, Graph500 skew for the
        // social networks — matches the qualitative skew of the originals.
        let params = match self.abbr {
            "CP" | "WG" | "AS" | "AM" => RmatParams::MILD,
            _ => RmatParams::GRAPH500,
        };
        rmat(self.scale, self.edge_factor, params, self.seed)
    }

    /// Builds the stand-in with heavy-tailed synthetic edge weights for
    /// weighted-bias algorithms. Real-scale graphs put 3–6 orders of
    /// magnitude between the lightest and heaviest bias in a neighbor
    /// pool (hub degrees); the scaled stand-ins compress that range, so
    /// the weights restore it: Pareto-like `w = min((1-u)^(-1.5), 1000)` with `u`
    /// hashed per-edge, deterministic. The clamp keeps the repeated-
    /// sampling baseline's retry counts finite, as real degree ranges do.
    pub fn build_weighted(&self) -> Csr {
        let g = self.build();
        let weights = g
            .col()
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                // Hash (i, u) to a uniform in [0, 1).
                let mut x = (i as u64) << 32 | u as u64;
                x ^= x >> 33;
                x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                x ^= x >> 33;
                let unif = (x >> 11) as f64 / (1u64 << 53) as f64;
                (1.0 - unif).powf(-1.5).min(1000.0) as f32
            })
            .collect();
        g.with_weights(weights)
    }
}

/// All ten Table II datasets, in the paper's order.
pub const ALL: [DatasetSpec; 10] = [
    DatasetSpec {
        abbr: "AM",
        name: "Amazon0601",
        paper_vertices: 400_000,
        paper_edges: 3_400_000,
        paper_avg_degree: 8.39,
        scale: 12,
        edge_factor: 4,
        exceeds_gpu_memory: false,
        seed: 0xA3,
    },
    DatasetSpec {
        abbr: "AS",
        name: "As-skitter",
        paper_vertices: 1_700_000,
        paper_edges: 11_100_000,
        paper_avg_degree: 6.54,
        scale: 14,
        edge_factor: 3,
        exceeds_gpu_memory: false,
        seed: 0xA5,
    },
    DatasetSpec {
        abbr: "CP",
        name: "cit-Patents",
        paper_vertices: 3_800_000,
        paper_edges: 16_500_000,
        paper_avg_degree: 4.38,
        scale: 15,
        edge_factor: 2,
        exceeds_gpu_memory: false,
        seed: 0xC9,
    },
    DatasetSpec {
        abbr: "LJ",
        name: "LiveJournal",
        paper_vertices: 4_800_000,
        paper_edges: 68_900_000,
        paper_avg_degree: 14.23,
        scale: 15,
        edge_factor: 7,
        exceeds_gpu_memory: false,
        seed: 0x17,
    },
    DatasetSpec {
        abbr: "OR",
        name: "Orkut",
        paper_vertices: 3_100_000,
        paper_edges: 117_200_000,
        paper_avg_degree: 38.14,
        scale: 15,
        edge_factor: 19,
        exceeds_gpu_memory: false,
        seed: 0x08,
    },
    DatasetSpec {
        abbr: "RE",
        name: "Reddit",
        paper_vertices: 200_000,
        paper_edges: 11_600_000,
        paper_avg_degree: 49.82,
        scale: 11,
        edge_factor: 25,
        exceeds_gpu_memory: false,
        seed: 0x8E,
    },
    DatasetSpec {
        abbr: "WG",
        name: "web-Google",
        paper_vertices: 800_000,
        paper_edges: 5_100_000,
        paper_avg_degree: 5.83,
        scale: 13,
        edge_factor: 3,
        exceeds_gpu_memory: false,
        seed: 0x36,
    },
    DatasetSpec {
        abbr: "YE",
        name: "Yelp",
        paper_vertices: 700_000,
        paper_edges: 6_900_000,
        paper_avg_degree: 9.73,
        scale: 13,
        edge_factor: 5,
        exceeds_gpu_memory: false,
        seed: 0x7E,
    },
    DatasetSpec {
        abbr: "FR",
        name: "Friendster",
        paper_vertices: 65_600_000,
        paper_edges: 1_800_000_000,
        paper_avg_degree: 27.53,
        scale: 17,
        edge_factor: 14,
        exceeds_gpu_memory: true,
        seed: 0xF4,
    },
    DatasetSpec {
        abbr: "TW",
        name: "Twitter",
        paper_vertices: 41_600_000,
        paper_edges: 1_500_000_000,
        paper_avg_degree: 35.25,
        scale: 17,
        edge_factor: 18,
        exceeds_gpu_memory: true,
        seed: 0x70,
    },
];

/// The eight in-memory graphs used by Figs. 10–12 (FR/TW excluded there).
pub fn in_memory() -> Vec<DatasetSpec> {
    ALL.iter().copied().filter(|d| !d.exceeds_gpu_memory).collect()
}

/// Looks up a dataset by its paper abbreviation (case-insensitive).
pub fn by_abbr(abbr: &str) -> Option<DatasetSpec> {
    ALL.iter().copied().find(|d| d.abbr.eq_ignore_ascii_case(abbr))
}

/// A dataset paired with its built stand-in graph.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The Table II description.
    pub spec: DatasetSpec,
    /// The built stand-in.
    pub graph: Csr,
}

impl Dataset {
    /// Builds the stand-in for `spec`.
    pub fn build(spec: DatasetSpec) -> Self {
        Dataset { graph: spec.build(), spec }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_ten_in_paper_order() {
        let abbrs: Vec<_> = ALL.iter().map(|d| d.abbr).collect();
        assert_eq!(abbrs, vec!["AM", "AS", "CP", "LJ", "OR", "RE", "WG", "YE", "FR", "TW"]);
    }

    #[test]
    fn in_memory_excludes_giants() {
        let mem = in_memory();
        assert_eq!(mem.len(), 8);
        assert!(mem.iter().all(|d| d.abbr != "FR" && d.abbr != "TW"));
    }

    #[test]
    fn lookup_by_abbr() {
        assert_eq!(by_abbr("lj").unwrap().name, "LiveJournal");
        assert!(by_abbr("XX").is_none());
    }

    #[test]
    fn standin_avg_degree_tracks_paper() {
        // Spot-check a low- and a high-degree dataset: realized average
        // degree should land within 2x of the paper value (dedup and
        // symmetrization both move it, but the ordering must hold).
        let cp = by_abbr("CP").unwrap().build();
        let re = by_abbr("RE").unwrap().build();
        assert!(cp.avg_degree() < 10.0, "CP stand-in too dense: {}", cp.avg_degree());
        assert!(re.avg_degree() > 20.0, "RE stand-in too sparse: {}", re.avg_degree());
        assert!(re.avg_degree() > 3.0 * cp.avg_degree());
    }

    #[test]
    fn giants_are_biggest() {
        let fr = by_abbr("FR").unwrap();
        let tw = by_abbr("TW").unwrap();
        for d in ALL.iter().filter(|d| !d.exceeds_gpu_memory) {
            assert!(fr.scale >= d.scale);
            assert!(tw.scale >= d.scale);
        }
    }

    #[test]
    fn weighted_standin_is_heavy_tailed() {
        let g = by_abbr("AM").unwrap().build_weighted();
        assert!(g.is_weighted());
        let ws = g.weights().unwrap();
        assert!(ws.iter().all(|&w| w >= 1.0 && w.is_finite()));
        let max = ws.iter().cloned().fold(0.0f32, f32::max);
        assert!(max > 50.0, "tail should reach far: max {max}");
        let median_ish = {
            let mut v: Vec<f32> = ws.to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        assert!(median_ish < 3.0, "bulk stays light: median {median_ish}");
    }

    #[test]
    fn builds_are_deterministic() {
        let a = by_abbr("WG").unwrap().build();
        let b = by_abbr("WG").unwrap().build();
        assert_eq!(a, b);
    }
}
