//! Degree statistics: the quantities the paper's analysis keys on
//! (average degree, skew) and the ones EXPERIMENTS.md reports for the
//! synthetic stand-ins.

use crate::csr::Csr;

/// Summary statistics of a graph's degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of directed CSR entries.
    pub edges: usize,
    /// Mean out-degree.
    pub avg: f64,
    /// Maximum out-degree.
    pub max: usize,
    /// Median out-degree.
    pub median: usize,
    /// Fraction of vertices with degree 0.
    pub isolated_frac: f64,
    /// Coefficient of variation (stddev / mean) — the skew proxy: ~0 for
    /// regular graphs, ≲1 for ER, ≫1 for power-law graphs.
    pub cv: f64,
    /// Fraction of all edges owned by the top 1% highest-degree vertices —
    /// a second skew measure that is robust to the long flat tail.
    pub top1pct_edge_share: f64,
}

/// Computes [`DegreeStats`] in one pass plus a sort.
pub fn degree_stats(g: &Csr) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            vertices: 0,
            edges: 0,
            avg: 0.0,
            max: 0,
            median: 0,
            isolated_frac: 0.0,
            cv: 0.0,
            top1pct_edge_share: 0.0,
        };
    }
    let mut degs: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
    let avg = g.avg_degree();
    let var = degs.iter().map(|&d| (d as f64 - avg).powi(2)).sum::<f64>() / n as f64;
    let isolated = degs.iter().filter(|&&d| d == 0).count();
    degs.sort_unstable();
    let top = (n / 100).max(1);
    let top_edges: usize = degs[n - top..].iter().sum();
    DegreeStats {
        vertices: n,
        edges: g.num_edges(),
        avg,
        max: *degs.last().unwrap(),
        median: degs[n / 2],
        isolated_frac: isolated as f64 / n as f64,
        cv: if avg > 0.0 { var.sqrt() / avg } else { 0.0 },
        top1pct_edge_share: if g.num_edges() > 0 {
            top_edges as f64 / g.num_edges() as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, ring_lattice, rmat, RmatParams};
    use crate::Csr;

    #[test]
    fn regular_graph_has_zero_cv() {
        let s = degree_stats(&ring_lattice(64, 2));
        assert_eq!(s.avg, 4.0);
        assert_eq!(s.max, 4);
        assert_eq!(s.median, 4);
        assert!(s.cv.abs() < 1e-12);
        assert_eq!(s.isolated_frac, 0.0);
    }

    #[test]
    fn rmat_is_more_skewed_than_er() {
        let r = degree_stats(&rmat(11, 8, RmatParams::GRAPH500, 2));
        let e = degree_stats(&erdos_renyi(2048, 2048 * 8, 2));
        assert!(r.cv > 2.0 * e.cv, "rmat cv {} vs er cv {}", r.cv, e.cv);
        assert!(r.top1pct_edge_share > e.top1pct_edge_share);
    }

    #[test]
    fn empty_graph_stats() {
        let s = degree_stats(&Csr::empty(0));
        assert_eq!(s.vertices, 0);
        assert_eq!(s.avg, 0.0);
    }

    #[test]
    fn isolated_fraction_counts() {
        let g = Csr::from_parts(vec![0, 2, 2, 2], vec![1, 2], None);
        let s = degree_stats(&g);
        assert!((s.isolated_frac - 2.0 / 3.0).abs() < 1e-12);
    }
}
