//! Block-diagonal packing of many subgraphs for batched inference.
//!
//! A ranking query scores one subgraph per candidate; packing those
//! subgraphs into a single node matrix turns the per-candidate R-GCN
//! loop into a few large kernel calls. The packed layout is
//! block-diagonal: subgraph `i`'s nodes occupy the contiguous row range
//! `offsets[i]..offsets[i + 1]` (its *segment*), and every edge is
//! re-indexed into that global row space, so no edge ever crosses a
//! segment boundary.
//!
//! Edges are grouped by relation **globally** (ascending relation id),
//! each group listing its edges in (segment, edge id) order. Restricted
//! to one segment, that is the (relation, edge id) order the tape
//! aggregates a subgraph's messages in, which is what keeps the batched
//! layer bitwise-identical to the per-subgraph path (see `DESIGN.md`
//! § batched inference).

use crate::subgraph::Subgraph;
use std::collections::BTreeMap;

/// All edges of one relation across the packed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelEdgeGroup {
    /// Relation index in the shared relation space.
    pub rel: usize,
    /// Packed (segment-offset) source row per edge, in (segment,
    /// within-segment edge id) order.
    pub srcs: Vec<u32>,
    /// Packed destination row per edge, aligned with `srcs`.
    pub dsts: Vec<u32>,
}

/// A batch of subgraphs packed into one block-diagonal edge list.
///
/// Borrows the subgraphs: packing only re-indexes edges, the node
/// payloads (ids, labels) stay where they are.
#[derive(Debug)]
pub struct BatchedSubgraphs<'a> {
    graphs: &'a [Subgraph],
    /// Node-row offset per segment; `offsets[len]` is the total.
    offsets: Vec<usize>,
    by_rel: Vec<RelEdgeGroup>,
}

impl<'a> BatchedSubgraphs<'a> {
    /// Packs `graphs` in order. Every subgraph becomes one segment even
    /// when empty of edges (endpoint-only subgraphs still get scored).
    pub fn pack(graphs: &'a [Subgraph]) -> Self {
        let mut offsets = Vec::with_capacity(graphs.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for sg in graphs {
            total += sg.num_nodes();
            offsets.push(total);
        }
        let mut groups: BTreeMap<usize, RelEdgeGroup> = BTreeMap::new();
        for (si, sg) in graphs.iter().enumerate() {
            let off = offsets[si] as u32;
            for e in &sg.edges {
                let g = groups.entry(e.rel.index()).or_insert_with(|| RelEdgeGroup {
                    rel: e.rel.index(),
                    srcs: Vec::new(),
                    dsts: Vec::new(),
                });
                g.srcs.push(off + e.src);
                g.dsts.push(off + e.dst);
            }
        }
        BatchedSubgraphs { graphs, offsets, by_rel: groups.into_values().collect() }
    }

    /// The packed subgraphs, in segment order.
    pub fn graphs(&self) -> &'a [Subgraph] {
        self.graphs
    }

    /// Number of segments (= subgraphs) in the batch.
    pub fn num_graphs(&self) -> usize {
        self.graphs.len()
    }

    /// Total packed node-row count.
    pub fn total_nodes(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// The packed row range of segment `i`.
    pub fn segment(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Per-relation edge groups, ascending by relation id.
    pub fn by_rel(&self) -> &[RelEdgeGroup] {
        &self.by_rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Adjacency;
    use crate::store::TripleStore;
    use crate::subgraph::{ExtractionMode, SubgraphExtractor};
    use crate::triple::Triple;
    use crate::vocab::EntityId;

    fn subgraphs() -> Vec<Subgraph> {
        let store = TripleStore::from_triples([
            Triple::from_raw(0, 0, 1),
            Triple::from_raw(1, 1, 2),
            Triple::from_raw(2, 0, 3),
            Triple::from_raw(4, 2, 5),
        ]);
        let adj = Adjacency::from_store(&store, 6);
        let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
        vec![
            ex.extract(EntityId(0), EntityId(2), None),
            ex.extract(EntityId(4), EntityId(5), None),
            ex.extract(EntityId(0), EntityId(4), None), // bridging
        ]
    }

    #[test]
    fn offsets_partition_rows() {
        let sgs = subgraphs();
        let b = BatchedSubgraphs::pack(&sgs);
        assert_eq!(b.num_graphs(), 3);
        let mut covered = 0;
        for (i, sg) in sgs.iter().enumerate() {
            let r = b.segment(i);
            assert_eq!(r.start, covered);
            assert_eq!(r.len(), sg.num_nodes());
            covered = r.end;
        }
        assert_eq!(covered, b.total_nodes());
    }

    #[test]
    fn groups_are_sorted_and_segment_scoped() {
        let sgs = subgraphs();
        let b = BatchedSubgraphs::pack(&sgs);
        let rels: Vec<usize> = b.by_rel().iter().map(|g| g.rel).collect();
        let mut sorted = rels.clone();
        sorted.sort_unstable();
        assert_eq!(rels, sorted, "relation groups must ascend");
        for g in b.by_rel() {
            assert_eq!(g.srcs.len(), g.dsts.len());
            assert!(!g.srcs.is_empty());
            // Every edge stays inside one segment, and edges run in
            // ascending segment order.
            let seg_of = |row: u32| {
                (0..b.num_graphs())
                    .find(|&si| b.segment(si).contains(&(row as usize)))
                    .expect("row outside every segment")
            };
            let segs: Vec<usize> = g.srcs.iter().map(|&s| seg_of(s)).collect();
            for (&d, &si) in g.dsts.iter().zip(&segs) {
                assert_eq!(seg_of(d), si, "edge crosses a segment boundary");
            }
            assert!(segs.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn edge_counts_preserved() {
        let sgs = subgraphs();
        let b = BatchedSubgraphs::pack(&sgs);
        let packed: usize = b.by_rel().iter().map(|g| g.srcs.len()).sum();
        let original: usize = sgs.iter().map(Subgraph::num_edges).sum();
        assert_eq!(packed, original);
    }

    #[test]
    fn empty_batch() {
        let b = BatchedSubgraphs::pack(&[]);
        assert_eq!(b.num_graphs(), 0);
        assert_eq!(b.total_nodes(), 0);
        assert!(b.by_rel().is_empty());
    }
}
