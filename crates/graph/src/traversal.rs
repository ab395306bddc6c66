//! Exact traversal utilities: BFS distances, connected components, and
//! reachability — the ground-truth machinery the quality metrics and
//! tests validate samples against.

use crate::csr::Csr;
use crate::types::VertexId;
use std::collections::VecDeque;

/// BFS hop distances from `source`; unreachable vertices get `u32::MAX`.
pub fn bfs_distances(g: &Csr, source: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    if n == 0 {
        return dist;
    }
    dist[source as usize] = 0;
    let mut q = VecDeque::from([source]);
    while let Some(v) = q.pop_front() {
        let dv = dist[v as usize];
        for &u in g.neighbors(v) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = dv + 1;
                q.push_back(u);
            }
        }
    }
    dist
}

/// Connected-component labels (undirected interpretation: follows
/// out-edges; on symmetrized graphs these are the true components).
/// Returns `(labels, component_count)`.
pub fn connected_components(g: &Csr) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    for s in 0..n as VertexId {
        if label[s as usize] != u32::MAX {
            continue;
        }
        label[s as usize] = count;
        let mut q = VecDeque::from([s]);
        while let Some(v) = q.pop_front() {
            for &u in g.neighbors(v) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = count;
                    q.push_back(u);
                }
            }
        }
        count += 1;
    }
    (label, count as usize)
}

/// Number of vertices reachable from `source` (including itself).
pub fn reachable_count(g: &Csr, source: VertexId) -> usize {
    bfs_distances(g, source).iter().filter(|&&d| d != u32::MAX).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{ring_lattice, toy_graph};
    use crate::CsrBuilder;

    #[test]
    fn bfs_distances_on_toy_graph() {
        let g = toy_graph();
        let d = bfs_distances(&g, 8);
        assert_eq!(d[8], 0);
        assert_eq!(d[7], 1);
        assert_eq!(d[5], 1);
        assert_eq!(d[12], 2); // via 9/10/11
        assert_eq!(d[1], 3); // 8-7-0-1
        assert!(d.iter().all(|&x| x != u32::MAX), "toy graph is connected");
    }

    #[test]
    fn bfs_on_ring_is_circular_distance() {
        let g = ring_lattice(10, 1);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[5], 5);
        assert_eq!(d[9], 1);
        assert_eq!(d[3], 3);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = CsrBuilder::new()
            .with_num_vertices(7)
            .symmetrize(true)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(4, 5)
            .build();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 4); // {0,1,2}, {3}, {4,5}, {6}
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn reachability_counts() {
        let g = toy_graph();
        assert_eq!(reachable_count(&g, 0), 13);
        let h = CsrBuilder::new().with_num_vertices(4).add_edge(0, 1).build();
        assert_eq!(reachable_count(&h, 0), 2);
        assert_eq!(reachable_count(&h, 3), 1);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(0);
        assert!(bfs_distances(&g, 0).is_empty());
        assert_eq!(connected_components(&g).1, 0);
    }
}
