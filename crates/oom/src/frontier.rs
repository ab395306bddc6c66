//! Frontier queues (paper §IV-B "Data Structures" and §V-C).
//!
//! A frontier queue is "a structure of three arrays — `VertexID`,
//! `InstanceID`, and `CurrDepth` — to keep track of the sampling process."
//! In-memory sampling uses one queue; the out-of-memory runtime keeps one
//! queue *per partition* and batches entries from many instances into it
//! (batched multi-instance sampling, §V-C).

use csaw_graph::VertexId;

/// One queued frontier entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierEntry {
    /// The vertex to expand.
    pub vertex: VertexId,
    /// Which sampling instance it belongs to (batched sampling works on
    /// any entry "no matter whether they are from the same or different
    /// instances").
    pub instance: u32,
    /// The instance's depth when this vertex was enqueued — prevents an
    /// instance from sampling beyond the configured depth even under
    /// out-of-order partition scheduling (§V-B "Correctness").
    pub depth: u32,
    /// The vertex explored immediately before this one in its instance
    /// (the paper's `SOURCE(e.v)`), carried through the queue so
    /// second-order algorithms (node2vec) work out of memory. An
    /// extension over the paper's three-array queue.
    pub prev: Option<VertexId>,
}

impl FrontierEntry {
    /// A first-order entry with no predecessor.
    pub fn new(vertex: VertexId, instance: u32, depth: u32) -> Self {
        FrontierEntry { vertex, instance, depth, prev: None }
    }
}

/// Structure-of-arrays frontier queue.
#[derive(Debug, Clone, Default)]
pub struct FrontierQueue {
    vertex: Vec<VertexId>,
    instance: Vec<u32>,
    depth: Vec<u32>,
    prev: Vec<Option<VertexId>>,
}

impl FrontierQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue length.
    pub fn len(&self) -> usize {
        self.vertex.len()
    }

    /// Whether the queue is empty (a partition with an empty queue is
    /// released from device memory, §V-B).
    pub fn is_empty(&self) -> bool {
        self.vertex.is_empty()
    }

    /// Pushes an entry.
    pub fn push(&mut self, e: FrontierEntry) {
        self.vertex.push(e.vertex);
        self.instance.push(e.instance);
        self.depth.push(e.depth);
        self.prev.push(e.prev);
    }

    /// Pops the most recently pushed entry.
    pub fn pop(&mut self) -> Option<FrontierEntry> {
        let vertex = self.vertex.pop()?;
        Some(FrontierEntry {
            vertex,
            instance: self.instance.pop().unwrap(),
            depth: self.depth.pop().unwrap(),
            prev: self.prev.pop().unwrap(),
        })
    }

    /// Drains every entry (the per-kernel batch grab).
    pub fn drain_all(&mut self) -> Vec<FrontierEntry> {
        let out = self.iter().collect();
        self.vertex.clear();
        self.instance.clear();
        self.depth.clear();
        self.prev.clear();
        out
    }

    /// Iterates without consuming.
    pub fn iter(&self) -> impl Iterator<Item = FrontierEntry> + '_ {
        (0..self.len()).map(move |i| FrontierEntry {
            vertex: self.vertex[i],
            instance: self.instance[i],
            depth: self.depth[i],
            prev: self.prev[i],
        })
    }

    /// Entry at index `i`.
    pub fn get(&self, i: usize) -> FrontierEntry {
        FrontierEntry {
            vertex: self.vertex[i],
            instance: self.instance[i],
            depth: self.depth[i],
            prev: self.prev[i],
        }
    }
}

impl Extend<FrontierEntry> for FrontierQueue {
    fn extend<T: IntoIterator<Item = FrontierEntry>>(&mut self, iter: T) {
        for e in iter {
            self.push(e);
        }
    }
}

impl FromIterator<FrontierEntry> for FrontierQueue {
    fn from_iter<T: IntoIterator<Item = FrontierEntry>>(iter: T) -> Self {
        let mut q = FrontierQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(vertex: VertexId, instance: u32, depth: u32) -> FrontierEntry {
        FrontierEntry::new(vertex, instance, depth)
    }

    #[test]
    fn push_pop_lifo() {
        let mut q = FrontierQueue::new();
        q.push(e(1, 0, 0));
        q.push(e(2, 1, 3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(e(2, 1, 3)));
        assert_eq!(q.pop(), Some(e(1, 0, 0)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_returns_in_insertion_order() {
        let mut q: FrontierQueue = [e(5, 0, 1), e(7, 2, 1), e(9, 1, 2)].into_iter().collect();
        let all = q.drain_all();
        assert_eq!(all, vec![e(5, 0, 1), e(7, 2, 1), e(9, 1, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn soa_arrays_stay_aligned() {
        let mut q = FrontierQueue::new();
        for i in 0..100 {
            q.push(e(i, i * 2, i * 3));
        }
        for i in 0..100 {
            let x = q.get(i as usize);
            assert_eq!((x.vertex, x.instance, x.depth), (i, i * 2, i * 3));
        }
    }

    #[test]
    fn batched_entries_mix_instances() {
        // The §V-C property: one queue holds entries of many instances,
        // including duplicate vertices from different instances.
        let q: FrontierQueue = [e(4, 0, 1), e(4, 1, 2), e(4, 2, 0)].into_iter().collect();
        let vertices: Vec<_> = q.iter().map(|x| x.vertex).collect();
        assert_eq!(vertices, vec![4, 4, 4]);
        let instances: Vec<_> = q.iter().map(|x| x.instance).collect();
        assert_eq!(instances, vec![0, 1, 2]);
    }
}
