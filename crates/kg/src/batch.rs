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
//! each group listing its edges in (segment, edge id) order, all groups
//! side by side in two flat `srcs`/`dsts` arrays filled by one counting
//! sort. Restricted to one segment, that is the (relation, edge id)
//! order the tape aggregates a subgraph's messages in, which is what
//! keeps the batched layer bitwise-identical to the per-subgraph path
//! (see `DESIGN.md` § batched inference).

use crate::subgraph::Subgraph;

/// All edges of one relation across the packed batch: a view into the
/// pack's flat edge arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelEdgeGroup<'b> {
    /// Relation index in the shared relation space.
    pub rel: usize,
    /// Packed (segment-offset) source row per edge, in (segment,
    /// within-segment edge id) order.
    pub srcs: &'b [u32],
    /// Packed destination row per edge, aligned with `srcs`.
    pub dsts: &'b [u32],
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
    /// Relation id of each nonempty group, ascending.
    rels: Vec<usize>,
    /// Group `g` holds edges `bounds[g]..bounds[g + 1]` of the flat
    /// arrays below; `bounds[rels.len()]` is the edge total.
    bounds: Vec<usize>,
    /// Packed source row per edge, grouped by ascending relation, each
    /// group in (segment, edge id) order.
    srcs: Vec<u32>,
    /// Packed destination row per edge, aligned with `srcs`.
    dsts: Vec<u32>,
}

impl<'a> BatchedSubgraphs<'a> {
    /// Packs `graphs` in order. Every subgraph becomes one segment even
    /// when empty of edges (endpoint-only subgraphs still get scored).
    ///
    /// One counting sort: a pass counts the edges of each relation, a
    /// prefix sum turns the counts into each group's first slot, and a
    /// second pass in (segment, edge id) order writes every edge into
    /// the next free slot of its relation. Both flat arrays are
    /// allocated once at their final length.
    pub fn pack(graphs: &'a [Subgraph]) -> Self {
        let mut offsets = Vec::with_capacity(graphs.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        // `next[r]` counts relation r's edges here, and after the prefix
        // sum below holds the slot its next edge goes to.
        let mut next: Vec<usize> = Vec::new();
        for sg in graphs {
            total += sg.num_nodes();
            offsets.push(total);
            for e in &sg.edges {
                let r = e.rel.index();
                if r >= next.len() {
                    next.resize(r + 1, 0);
                }
                next[r] += 1;
            }
        }
        let mut rels = Vec::new();
        let mut bounds = vec![0];
        let mut start = 0usize;
        for (r, slot) in next.iter_mut().enumerate() {
            let count = *slot;
            *slot = start;
            if count > 0 {
                start += count;
                rels.push(r);
                bounds.push(start);
            }
        }
        let mut srcs = vec![0u32; start];
        let mut dsts = vec![0u32; start];
        for (sg, &off) in graphs.iter().zip(&offsets) {
            let off = off as u32;
            for e in &sg.edges {
                let slot = &mut next[e.rel.index()];
                srcs[*slot] = off + e.src;
                dsts[*slot] = off + e.dst;
                *slot += 1;
            }
        }
        BatchedSubgraphs { graphs, offsets, rels, bounds, srcs, dsts }
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

    /// Per-relation edge groups, ascending by relation id; relations
    /// without an edge in the batch have no group.
    pub fn by_rel(&self) -> impl ExactSizeIterator<Item = RelEdgeGroup<'_>> + '_ {
        self.rels.iter().zip(self.bounds.windows(2)).map(|(&rel, w)| RelEdgeGroup {
            rel,
            srcs: &self.srcs[w[0]..w[1]],
            dsts: &self.dsts[w[0]..w[1]],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Adjacency;
    use crate::store::TripleStore;
    use crate::subgraph::{ExtractionMode, LocalEdge, SubgraphExtractor};
    use crate::triple::Triple;
    use crate::vocab::{EntityId, RelationId};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

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
        let rels: Vec<usize> = b.by_rel().map(|g| g.rel).collect();
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
        let packed: usize = b.by_rel().map(|g| g.srcs.len()).sum();
        let original: usize = sgs.iter().map(Subgraph::num_edges).sum();
        assert_eq!(packed, original);
    }

    #[test]
    fn empty_batch() {
        let b = BatchedSubgraphs::pack(&[]);
        assert_eq!(b.num_graphs(), 0);
        assert_eq!(b.total_nodes(), 0);
        assert_eq!(b.by_rel().len(), 0);
    }

    /// The grouping the counting sort replaces: a `BTreeMap` from
    /// relation to growing `(srcs, dsts)` lists, filled in (segment, edge
    /// id) order.
    fn btreemap_grouping(graphs: &[Subgraph]) -> Vec<(usize, Vec<u32>, Vec<u32>)> {
        let mut groups: BTreeMap<usize, (Vec<u32>, Vec<u32>)> = BTreeMap::new();
        let mut off = 0u32;
        for sg in graphs {
            for e in &sg.edges {
                let g = groups.entry(e.rel.index()).or_default();
                g.0.push(off + e.src);
                g.1.push(off + e.dst);
            }
            off += sg.num_nodes() as u32;
        }
        groups.into_iter().map(|(rel, (srcs, dsts))| (rel, srcs, dsts)).collect()
    }

    /// A random subgraph: 2 to 12 nodes and up to 30 edges over up to
    /// `rels` relations, repeated (src, rel) pairs and parallel edges
    /// included; a quarter of them are edgeless.
    fn random_subgraph(rels: u32, rng: &mut ChaCha8Rng) -> Subgraph {
        let n = rng.gen_range(2..13u32);
        let n_e = if rng.gen_range(0..4) == 0 { 0 } else { rng.gen_range(1..31) };
        let edges = (0..n_e)
            .map(|_| LocalEdge {
                src: rng.gen_range(0..n),
                rel: RelationId(rng.gen_range(0..rels)),
                dst: rng.gen_range(0..n),
            })
            .collect();
        Subgraph {
            nodes: (0..n).map(EntityId).collect(),
            edges,
            dist_head: vec![0; n as usize],
            dist_tail: vec![0; n as usize],
        }
    }

    /// `pack` equals the `BTreeMap` grouping group for group, edge for
    /// edge, on random subgraph sets: the empty batch, batches of only
    /// edgeless subgraphs, sparse relation ids and dense ones.
    #[test]
    fn pack_matches_the_btreemap_grouping() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        for case in 0..200 {
            let count = if case == 0 { 0 } else { rng.gen_range(1..9) };
            let rels = [1, 3, 40][case % 3];
            let mut sgs: Vec<Subgraph> =
                (0..count).map(|_| random_subgraph(rels, &mut rng)).collect();
            if case % 10 == 1 {
                sgs.iter_mut().for_each(|sg| sg.edges.clear());
            }
            let b = BatchedSubgraphs::pack(&sgs);
            let got: Vec<(usize, Vec<u32>, Vec<u32>)> =
                b.by_rel().map(|g| (g.rel, g.srcs.to_vec(), g.dsts.to_vec())).collect();
            assert_eq!(got, btreemap_grouping(&sgs), "case {case}");
            assert_eq!(b.by_rel().len(), got.len(), "case {case}");
            assert_eq!(b.total_nodes(), sgs.iter().map(Subgraph::num_nodes).sum::<usize>());
        }
    }
}
