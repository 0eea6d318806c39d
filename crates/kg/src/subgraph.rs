//! Enclosing-subgraph extraction around a candidate link.
//!
//! For a triple `(e_i, r_k, e_j)` GSM reasons over the subgraph induced
//! by the t-hop neighborhoods of the two endpoints. Two extraction
//! modes exist (Section IV-C2 of the paper):
//!
//! * [`ExtractionMode::Intersection`] — GraIL's rule: keep only nodes in
//!   `N_t(e_i) ∩ N_t(e_j)`, pruning any node with `d(i,u) > t` or
//!   `d(j,u) > t`. For a bridging link this intersection is *empty*
//!   apart from the endpoints — the "topological limitation".
//! * [`ExtractionMode::Union`] — the paper's improved labeling: keep
//!   `N_t(e_i) ∪ N_t(e_j)` and record `d(·,u) = -1` where the distance
//!   exceeds `t` or the node is unreachable. These one-sided nodes
//!   "simulate the disconnected nodes" that bridging links produce.
//!
//! Distances are computed with the opposite endpoint blocked, matching
//! the paper's `d(i,u)` = shortest path not passing through `e_j`.

use crate::adjacency::Adjacency;
use crate::bfs::{bounded_distances, sparse_bounded_distances, UNREACHED};
use crate::triple::Triple;
use crate::vocab::{EntityId, RelationId};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Handles for the extraction metrics, registered once and bumped on
/// every [`SubgraphExtractor::extract`]. All additive — totals are
/// thread-count-invariant under `extract_batch`.
struct ExtractionObs {
    extractions: dekg_obs::metrics::Counter,
    disconnected: dekg_obs::metrics::Counter,
    nodes: dekg_obs::metrics::Histogram,
    edges: dekg_obs::metrics::Histogram,
}

fn extraction_obs() -> &'static ExtractionObs {
    static OBS: OnceLock<ExtractionObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = dekg_obs::metrics::global();
        const SIZE_BOUNDS: &[u64] = &[2, 4, 8, 16, 32, 64, 128, 256, 512];
        ExtractionObs {
            extractions: reg.counter("dekg_kg_extractions_total"),
            disconnected: reg.counter("dekg_kg_extractions_disconnected_total"),
            nodes: reg.histogram("dekg_kg_subgraph_nodes", SIZE_BOUNDS),
            edges: reg.histogram("dekg_kg_subgraph_edges", SIZE_BOUNDS),
        }
    })
}

/// Node-retention policy for extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractionMode {
    /// GraIL: `N_t(h) ∩ N_t(t)` with both distances within the bound.
    Intersection,
    /// DEKG-ILP: `N_t(h) ∪ N_t(t)`; out-of-bound distances become −1.
    Union,
}

/// An edge of the extracted subgraph in local node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalEdge {
    /// Local index of the head.
    pub src: u32,
    /// Relation of the original triple.
    pub rel: RelationId,
    /// Local index of the tail.
    pub dst: u32,
}

/// The enclosing subgraph around one candidate link.
///
/// Node 0 is always the head `e_i` and node 1 the tail `e_j`, matching
/// the unique labels `(0,1)` and `(1,0)` the paper assigns them. Edge
/// direction is preserved from the backing store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subgraph {
    /// Global ids of the retained nodes; `nodes[0] = head`, `nodes[1] = tail`.
    pub nodes: Vec<EntityId>,
    /// Induced edges in local indices (target link excluded).
    pub edges: Vec<LocalEdge>,
    /// `d(head, u)` per local node, −1 when unreached/over-bound.
    pub dist_head: Vec<i32>,
    /// `d(tail, u)` per local node, −1 when unreached/over-bound.
    pub dist_tail: Vec<i32>,
}

impl Subgraph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True when no path (within the extraction bound) connects the two
    /// endpoints — the signature of a bridging link's subgraph.
    pub fn is_disconnected(&self) -> bool {
        // Head is connected to tail iff the tail's distance-from-head is
        // a real value (node 1 is the tail).
        self.dist_head[1] == UNREACHED
    }

    /// The paper's node label `(d(i,u), d(j,u))` for local node `u`.
    pub fn label(&self, u: usize) -> (i32, i32) {
        (self.dist_head[u], self.dist_tail[u])
    }
}

/// The fixed endpoint's truncated-BFS distance map, computed once per
/// ranking query and reused across candidates — see
/// [`SubgraphExtractor::cache_source`].
///
/// A ranking query `(h, r, ?)` extracts one subgraph per candidate
/// tail, and each extraction runs BFS from `h` with the *candidate*
/// blocked. This cache stores the **unblocked** BFS from the fixed
/// endpoint. Blocking a node only changes a BFS when that node is
/// expanded, and `bounded_distances`/`sparse_bounded_distances` check
/// the hop bound *before* the block check — so the cached (unblocked)
/// run is identical to the blocked run, traversal order included,
/// whenever the blocked candidate
///
/// * is the source itself (the block is a no-op by definition),
/// * was never reached by the unblocked BFS, or
/// * was reached only at the hop bound (never expanded either way).
///
/// In a GraIL-style protocol the vast majority of sampled candidates
/// fall outside the fixed endpoint's t-hop neighborhood, so hit rates
/// are high (`dekg_eval_bfs_cache_hits_total` tracks them). On a miss
/// the extractor simply runs the blocked BFS fresh; either way the
/// resulting subgraph is bit-identical to [`SubgraphExtractor::extract`].
#[derive(Debug, Clone)]
pub struct QueryExtractionCache {
    source: EntityId,
    hops: u32,
    /// Unblocked `(node, distance)` list in BFS discovery order.
    sparse: Vec<(EntityId, i32)>,
    /// The same distances keyed for the O(1) reuse test.
    dist: HashMap<EntityId, i32>,
}

impl QueryExtractionCache {
    /// The fixed endpoint this cache was built on.
    pub fn source(&self) -> EntityId {
        self.source
    }

    /// True when the cached unblocked BFS equals the BFS that blocks
    /// `other` (see the type-level docs for why these cases suffice).
    fn reusable_against(&self, other: EntityId) -> bool {
        if other == self.source {
            return true;
        }
        match self.dist.get(&other) {
            None => true,
            Some(&d) => d as u32 >= self.hops,
        }
    }
}

/// Thread-local scratch for the sparse collection step: generation-
/// stamped distance and local-index arrays replacing per-call hash
/// maps. A generation bump is an O(1) reset, so steady-state extraction
/// allocates only the output `Subgraph`. Lookups are exact, so the
/// produced subgraphs are identical to the map-based implementation.
#[derive(Debug, Default)]
struct CollectScratch {
    /// Head-side distances; `dist_h[i]` valid iff `stamp_h[i] == gen`.
    stamp_h: Vec<u32>,
    dist_h: Vec<i32>,
    /// Tail-side distances.
    stamp_t: Vec<u32>,
    dist_t: Vec<i32>,
    /// Global-id → local-index map over the retained nodes.
    stamp_l: Vec<u32>,
    local: Vec<u32>,
    gen: u32,
}

impl CollectScratch {
    fn begin(&mut self, num_entities: usize) {
        if self.stamp_h.len() < num_entities {
            self.stamp_h.resize(num_entities, 0);
            self.dist_h.resize(num_entities, 0);
            self.stamp_t.resize(num_entities, 0);
            self.dist_t.resize(num_entities, 0);
            self.stamp_l.resize(num_entities, 0);
            self.local.resize(num_entities, 0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamp_h.fill(0);
            self.stamp_t.fill(0);
            self.stamp_l.fill(0);
            self.gen = 1;
        }
    }
}

/// Extractor bound to one graph (store + adjacency).
///
/// Every production path — [`Self::extract`], [`Self::extract_batch`]
/// and [`Self::extract_with_cached_source`] — runs the sparse
/// visited-set BFS, whose cost scales with the t-hop neighborhood.
/// [`Self::extract_dense_reference`] keeps the seed's dense `O(|E|)`
/// implementation as the test oracle those paths are pinned against;
/// it is not a runtime option.
///
/// ```
/// use dekg_kg::{Adjacency, EntityId, ExtractionMode, SubgraphExtractor, Triple, TripleStore};
///
/// // Two disconnected components: {0,1} and {2,3} — a miniature DEKG.
/// let store = TripleStore::from_triples([
///     Triple::from_raw(0, 0, 1),
///     Triple::from_raw(2, 0, 3),
/// ]);
/// let adj = Adjacency::from_store(&store, 4);
///
/// // Union extraction around the bridging pair (0, 2) keeps both
/// // sides; the subgraph is disconnected, which GSM's labeling handles.
/// let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
/// let sg = ex.extract(EntityId(0), EntityId(2), None);
/// assert!(sg.is_disconnected());
/// assert_eq!(sg.num_nodes(), 4);
///
/// // GraIL's intersection mode collapses to the endpoints — the
/// // "topological limitation".
/// let grail = SubgraphExtractor::new(&adj, 2, ExtractionMode::Intersection);
/// assert_eq!(grail.extract(EntityId(0), EntityId(2), None).num_nodes(), 2);
/// ```
#[derive(Debug)]
pub struct SubgraphExtractor<'a> {
    adj: &'a Adjacency,
    hops: u32,
    mode: ExtractionMode,
}

impl<'a> SubgraphExtractor<'a> {
    /// Creates an extractor performing `hops`-hop extraction.
    ///
    /// # Panics
    /// If `hops == 0`.
    pub fn new(adj: &'a Adjacency, hops: u32, mode: ExtractionMode) -> Self {
        assert!(hops > 0, "subgraph extraction needs at least 1 hop");
        SubgraphExtractor { adj, hops, mode }
    }

    /// The hop bound `t`.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// The retention mode.
    pub fn mode(&self) -> ExtractionMode {
        self.mode
    }

    /// Extracts the enclosing subgraph around `(head, ·, tail)`.
    ///
    /// `exclude` is removed from the induced edge set — pass the target
    /// triple during training so the model cannot read the answer off
    /// the graph. Both endpoints are always retained, even when
    /// completely isolated (the bridging-link case).
    pub fn extract(&self, head: EntityId, tail: EntityId, exclude: Option<Triple>) -> Subgraph {
        let _span = dekg_obs::span!("extract_subgraph");
        let sg = self.extract_sparse(head, tail, exclude);
        let obs = extraction_obs();
        obs.extractions.inc();
        if sg.is_disconnected() {
            obs.disconnected.inc();
        }
        obs.nodes.observe(sg.num_nodes() as u64);
        obs.edges.observe(sg.num_edges() as u64);
        sg
    }

    /// Extracts subgraphs for many links in parallel.
    ///
    /// Fan-out uses the ambient `rayon` thread count (see
    /// [`rayon::ThreadPool::install`]); extraction is read-only over the
    /// shared adjacency and results come back in input order, so the
    /// output is identical to calling [`Self::extract`] in a serial
    /// loop — at any thread count. Small batches, and any batch when
    /// only one worker is available, skip the fork-join machinery and
    /// run the serial loop directly: splitting a handful of BFS calls
    /// across workers costs more than it saves.
    pub fn extract_batch(&self, links: &[(EntityId, EntityId, Option<Triple>)]) -> Vec<Subgraph> {
        use rayon::prelude::*;
        const MIN_PARALLEL_LINKS: usize = 32;
        if links.len() < MIN_PARALLEL_LINKS || rayon::current_num_threads() <= 1 {
            return links
                .iter()
                .map(|&(head, tail, exclude)| self.extract(head, tail, exclude))
                .collect();
        }
        links.par_iter().map(|&(head, tail, exclude)| self.extract(head, tail, exclude)).collect()
    }

    /// Precomputes the truncated-BFS distance map of one *fixed*
    /// endpoint so it can be reused across every candidate of a ranking
    /// query — see [`QueryExtractionCache`] for the reuse condition.
    pub fn cache_source(&self, source: EntityId) -> QueryExtractionCache {
        let sparse = sparse_bounded_distances(self.adj, source, self.hops, None);
        let dist: HashMap<EntityId, i32> = sparse.iter().copied().collect();
        QueryExtractionCache { source, hops: self.hops, sparse, dist }
    }

    /// Extracts the enclosing subgraph around `(head, ·, tail)` reusing
    /// `cache` for whichever endpoint it was built on. Returns the
    /// subgraph and whether the cached BFS was reusable (`false` means a
    /// fresh blocked BFS ran for the cached side too).
    ///
    /// Output is bit-identical to [`Self::extract`] for the same
    /// arguments (see [`QueryExtractionCache`] for why), and the same
    /// extraction metrics are recorded.
    ///
    /// # Panics
    /// If `cache` was built by a different extractor configuration
    /// (hop bound mismatch) or on neither endpoint.
    pub fn extract_with_cached_source(
        &self,
        cache: &QueryExtractionCache,
        head: EntityId,
        tail: EntityId,
        exclude: Option<Triple>,
    ) -> (Subgraph, bool) {
        let _span = dekg_obs::span!("extract_subgraph");
        assert_eq!(cache.hops, self.hops, "cache hop bound mismatch");
        assert!(cache.source == head || cache.source == tail, "cache source is neither endpoint");
        // The varying endpoint is the one blocked in the cached side's
        // BFS; the cached (unblocked) run is reusable iff blocking that
        // node would not have changed the traversal.
        let (hit, sparse_h, sparse_t);
        if cache.source == head {
            hit = cache.reusable_against(tail);
            sparse_h = if hit {
                cache.sparse.clone()
            } else {
                sparse_bounded_distances(self.adj, head, self.hops, Some(tail))
            };
            sparse_t = sparse_bounded_distances(self.adj, tail, self.hops, Some(head));
        } else {
            hit = cache.reusable_against(head);
            sparse_h = sparse_bounded_distances(self.adj, head, self.hops, Some(tail));
            sparse_t = if hit {
                cache.sparse.clone()
            } else {
                sparse_bounded_distances(self.adj, tail, self.hops, Some(head))
            };
        }
        let sg = self.collect_sparse(head, tail, &sparse_h, &sparse_t, exclude);
        let obs = extraction_obs();
        obs.extractions.inc();
        if sg.is_disconnected() {
            obs.disconnected.inc();
        }
        obs.nodes.observe(sg.num_nodes() as u64);
        obs.edges.observe(sg.num_edges() as u64);
        (sg, hit)
    }

    /// The dense reference extraction — the test oracle [`Self::extract`]
    /// is pinned against, bit for bit. It is the seed implementation:
    /// dense distance vectors plus a scan over every entity in the
    /// graph, `O(|E|)` per call regardless of how small the enclosing
    /// subgraph is. It records no extraction metrics; production code
    /// never calls it.
    pub fn extract_dense_reference(
        &self,
        head: EntityId,
        tail: EntityId,
        exclude: Option<Triple>,
    ) -> Subgraph {
        let dist_h = bounded_distances(self.adj, head, self.hops, Some(tail));
        let dist_t = bounded_distances(self.adj, tail, self.hops, Some(head));

        // Collect retained nodes: endpoints first, then the rest in
        // ascending global id for determinism.
        let mut nodes: Vec<EntityId> = vec![head, tail];
        let mut local = self.endpoint_locals(head, tail);
        for idx in 0..self.adj.num_entities() {
            let e = EntityId(idx as u32);
            if e == head || e == tail {
                continue;
            }
            let dh = dist_h[idx];
            let dt = dist_t[idx];
            let keep = match self.mode {
                ExtractionMode::Intersection => dh != UNREACHED && dt != UNREACHED,
                ExtractionMode::Union => dh != UNREACHED || dt != UNREACHED,
            };
            if keep {
                local.insert(e, nodes.len() as u32);
                nodes.push(e);
            }
        }

        let dist_head: Vec<i32> = nodes.iter().map(|e| dist_h[e.index()]).collect();
        let dist_tail: Vec<i32> = nodes.iter().map(|e| dist_t[e.index()]).collect();
        let edges = self.induce_edges(&nodes, &local, exclude);
        Subgraph { nodes, edges, dist_head, dist_tail }
    }

    /// Sparse implementation: visited-set BFS plus collection over the
    /// union of the two neighborhoods. Cost scales with the extracted
    /// subgraph. Produces output bit-identical to
    /// [`Self::extract_dense_reference`]: BFS distances are unique per
    /// node, and non-endpoint nodes are sorted into the same
    /// ascending-global-id order the dense entity scan yields.
    fn extract_sparse(&self, head: EntityId, tail: EntityId, exclude: Option<Triple>) -> Subgraph {
        let sparse_h = sparse_bounded_distances(self.adj, head, self.hops, Some(tail));
        let sparse_t = sparse_bounded_distances(self.adj, tail, self.hops, Some(head));
        self.collect_sparse(head, tail, &sparse_h, &sparse_t, exclude)
    }

    /// Shared collection step of the sparse path: node union (or
    /// intersection), canonical ordering, labels and induced edges from
    /// the two sides' `(node, distance)` lists. Non-endpoint nodes are
    /// sorted into ascending global id, so the result does not depend
    /// on the discovery order of the input lists — which is what lets
    /// [`Self::extract_with_cached_source`] substitute a cached BFS.
    fn collect_sparse(
        &self,
        head: EntityId,
        tail: EntityId,
        sparse_h: &[(EntityId, i32)],
        sparse_t: &[(EntityId, i32)],
        exclude: Option<Triple>,
    ) -> Subgraph {
        thread_local! {
            static SCRATCH: std::cell::RefCell<CollectScratch> =
                std::cell::RefCell::new(CollectScratch::default());
        }
        SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            let c = &mut *s;
            c.begin(self.adj.num_entities());
            for &(e, d) in sparse_h {
                c.stamp_h[e.index()] = c.gen;
                c.dist_h[e.index()] = d;
            }
            for &(e, d) in sparse_t {
                c.stamp_t[e.index()] = c.gen;
                c.dist_t[e.index()] = d;
            }

            let mut rest: Vec<EntityId> = match self.mode {
                ExtractionMode::Intersection => sparse_h
                    .iter()
                    .map(|&(e, _)| e)
                    .filter(|e| c.stamp_t[e.index()] == c.gen && *e != head && *e != tail)
                    .collect(),
                ExtractionMode::Union => {
                    let mut both: Vec<EntityId> = sparse_h
                        .iter()
                        .chain(sparse_t.iter())
                        .map(|&(e, _)| e)
                        .filter(|e| *e != head && *e != tail)
                        .collect();
                    both.sort_unstable();
                    both.dedup();
                    both
                }
            };
            rest.sort_unstable();

            // Endpoint local slots (a degenerate self-link aliases both
            // slots to local 0, as in `endpoint_locals`), then the rest
            // in ascending global id.
            let mut nodes: Vec<EntityId> = vec![head, tail];
            c.stamp_l[head.index()] = c.gen;
            c.local[head.index()] = 0;
            c.stamp_l[tail.index()] = c.gen;
            c.local[tail.index()] = if tail != head { 1 } else { 0 };
            for e in rest {
                c.stamp_l[e.index()] = c.gen;
                c.local[e.index()] = nodes.len() as u32;
                nodes.push(e);
            }

            let dist_head: Vec<i32> = nodes
                .iter()
                .map(
                    |e| if c.stamp_h[e.index()] == c.gen { c.dist_h[e.index()] } else { UNREACHED },
                )
                .collect();
            let dist_tail: Vec<i32> = nodes
                .iter()
                .map(
                    |e| if c.stamp_t[e.index()] == c.gen { c.dist_t[e.index()] } else { UNREACHED },
                )
                .collect();

            // Induced edges, deduplicated via the Out orientation —
            // identical iteration order to `induce_edges`, with the
            // membership test on the stamped local map.
            let mut edges = Vec::new();
            for (li, &e) in nodes.iter().enumerate() {
                for n in self.adj.neighbors(e) {
                    if n.orientation != crate::adjacency::Orientation::Out {
                        continue;
                    }
                    let triple = Triple::new(e, n.rel, n.entity);
                    if Some(triple) == exclude {
                        continue;
                    }
                    if c.stamp_l[n.entity.index()] == c.gen {
                        edges.push(LocalEdge {
                            src: li as u32,
                            rel: n.rel,
                            dst: c.local[n.entity.index()],
                        });
                    }
                }
            }
            Subgraph { nodes, edges, dist_head, dist_tail }
        })
    }

    /// Local-index slots for the two endpoints (dense reference path —
    /// the sparse path stamps the same slots into [`CollectScratch`]).
    /// A degenerate self-link
    /// keeps two local slots aliasing one global node so labels
    /// (0,1)/(1,0) still exist.
    fn endpoint_locals(&self, head: EntityId, tail: EntityId) -> HashMap<EntityId, u32> {
        let mut local = HashMap::new();
        local.insert(head, 0);
        if tail != head {
            local.insert(tail, 1);
        } else {
            local.insert(tail, 0);
        }
        local
    }

    /// Induced directed edges over `nodes`, deduplicated via the Out
    /// orientation (every stored triple appears exactly once as Out).
    fn induce_edges(
        &self,
        nodes: &[EntityId],
        local: &HashMap<EntityId, u32>,
        exclude: Option<Triple>,
    ) -> Vec<LocalEdge> {
        let mut edges = Vec::new();
        for (li, &e) in nodes.iter().enumerate() {
            for n in self.adj.neighbors(e) {
                if n.orientation != crate::adjacency::Orientation::Out {
                    continue;
                }
                let triple = Triple::new(e, n.rel, n.entity);
                if Some(triple) == exclude {
                    continue;
                }
                if let Some(&lj) = local.get(&n.entity) {
                    edges.push(LocalEdge { src: li as u32, rel: n.rel, dst: lj });
                }
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TripleStore;

    fn t(h: u32, r: u32, ta: u32) -> Triple {
        Triple::from_raw(h, r, ta)
    }

    /// Two components: {0,1,2,3} chained and {4,5} chained — a DEKG-like
    /// layout where (0, r, 4) would be a bridging link.
    fn two_component_graph() -> (TripleStore, Adjacency) {
        let store = TripleStore::from_triples([t(0, 0, 1), t(1, 0, 2), t(2, 0, 3), t(4, 1, 5)]);
        let adj = Adjacency::from_store(&store, 6);
        (store, adj)
    }

    #[test]
    fn enclosing_link_intersection() {
        // Triangle 0-1-2 plus pendant 3.
        let store = TripleStore::from_triples([t(0, 0, 1), t(1, 0, 2), t(2, 0, 0), t(2, 0, 3)]);
        let adj = Adjacency::from_store(&store, 4);
        let ex = SubgraphExtractor::new(&adj, 1, ExtractionMode::Intersection);
        let sg = ex.extract(EntityId(0), EntityId(1), None);
        // 1-hop intersection around (0,1): node 2 is adjacent to both.
        assert_eq!(sg.nodes, vec![EntityId(0), EntityId(1), EntityId(2)]);
        assert!(!sg.is_disconnected());
        assert_eq!(sg.label(0), (0, 1));
        assert_eq!(sg.label(1), (1, 0));
        assert_eq!(sg.label(2), (1, 1));
    }

    #[test]
    fn union_keeps_one_sided_nodes() {
        let store = TripleStore::from_triples([t(0, 0, 1), t(1, 0, 2), t(2, 0, 0), t(2, 0, 3)]);
        let adj = Adjacency::from_store(&store, 4);
        let ex = SubgraphExtractor::new(&adj, 1, ExtractionMode::Union);
        let sg = ex.extract(EntityId(0), EntityId(1), None);
        // Node 3 is 1 hop from neither 0 nor 1? d(0,3)=2 (through 2), so
        // it is NOT within 1 hop of either endpoint: excluded.
        assert_eq!(sg.nodes.len(), 3);
        let ex2 = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
        let sg2 = ex2.extract(EntityId(0), EntityId(1), None);
        assert!(sg2.nodes.contains(&EntityId(3)));
    }

    #[test]
    fn bridging_link_subgraph_is_disconnected() {
        let (_, adj) = two_component_graph();
        let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
        let sg = ex.extract(EntityId(0), EntityId(4), None);
        assert!(sg.is_disconnected());
        // Head side: 0,1,2 within 2 hops; tail side: 4,5.
        assert_eq!(sg.num_nodes(), 5);
        // The tail's dist-from-head is -1 and vice versa.
        assert_eq!(sg.label(1), (UNREACHED, 0));
        assert_eq!(sg.label(0), (0, UNREACHED));
    }

    #[test]
    fn bridging_link_intersection_collapses() {
        // GraIL-mode extraction on a bridging link keeps only endpoints.
        let (_, adj) = two_component_graph();
        let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Intersection);
        let sg = ex.extract(EntityId(0), EntityId(4), None);
        assert_eq!(sg.num_nodes(), 2);
        assert_eq!(sg.num_edges(), 0);
    }

    #[test]
    fn target_edge_excluded() {
        let store = TripleStore::from_triples([t(0, 0, 1), t(1, 0, 2), t(2, 0, 0)]);
        let adj = Adjacency::from_store(&store, 3);
        let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
        let with = ex.extract(EntityId(0), EntityId(1), None);
        let without = ex.extract(EntityId(0), EntityId(1), Some(t(0, 0, 1)));
        assert_eq!(with.num_edges(), without.num_edges() + 1);
        assert!(!without.edges.iter().any(|e| e.src == 0 && e.dst == 1 && e.rel == RelationId(0)));
    }

    #[test]
    fn distances_avoid_opposite_endpoint() {
        // 0 - 1 - 2: from 0 with 1 as tail, node 2 must be unreachable
        // because the only path passes through the tail.
        let store = TripleStore::from_triples([t(0, 0, 1), t(1, 0, 2)]);
        let adj = Adjacency::from_store(&store, 3);
        let ex = SubgraphExtractor::new(&adj, 3, ExtractionMode::Union);
        let sg = ex.extract(EntityId(0), EntityId(1), None);
        let li = sg.nodes.iter().position(|&e| e == EntityId(2)).unwrap();
        assert_eq!(sg.dist_head[li], UNREACHED);
        assert_eq!(sg.dist_tail[li], 1);
    }

    #[test]
    fn edge_directions_preserved() {
        let store = TripleStore::from_triples([t(1, 3, 0)]);
        let adj = Adjacency::from_store(&store, 2);
        let ex = SubgraphExtractor::new(&adj, 1, ExtractionMode::Union);
        let sg = ex.extract(EntityId(0), EntityId(1), None);
        // local 0 = head = entity 0, local 1 = tail = entity 1; the edge
        // runs 1 -> 0 in global terms, so locally src=1, dst=0.
        assert_eq!(sg.edges, vec![LocalEdge { src: 1, rel: RelationId(3), dst: 0 }]);
    }

    #[test]
    fn isolated_endpoints_still_present() {
        let store = TripleStore::from_triples([t(0, 0, 1)]);
        let adj = Adjacency::from_store(&store, 4);
        let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
        let sg = ex.extract(EntityId(2), EntityId(3), None);
        assert_eq!(sg.num_nodes(), 2);
        assert_eq!(sg.num_edges(), 0);
        assert!(sg.is_disconnected());
    }

    /// Sparse extraction must agree bit-for-bit with the dense reference
    /// on every (head, tail, mode, hops, exclude) combination over a
    /// given adjacency.
    fn assert_matches_dense_reference(adj: &Adjacency, num_entities: u32) {
        for mode in [ExtractionMode::Intersection, ExtractionMode::Union] {
            for hops in 1..4 {
                let ex = SubgraphExtractor::new(adj, hops, mode);
                for h in 0..num_entities {
                    for ta in 0..num_entities {
                        let (head, tail) = (EntityId(h), EntityId(ta));
                        for exclude in [None, Some(Triple::new(head, RelationId(0), tail))] {
                            assert_eq!(
                                ex.extract(head, tail, exclude),
                                ex.extract_dense_reference(head, tail, exclude),
                                "mode={mode:?} hops={hops} head={h} tail={ta} \
                                 exclude={exclude:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_backend_matches_dense_reference() {
        let (_, adj) = two_component_graph();
        assert_matches_dense_reference(&adj, 6);
        // Triangle + pendant, including self-loop-ish degenerate pairs.
        let store = TripleStore::from_triples([t(0, 0, 1), t(1, 0, 2), t(2, 0, 0), t(2, 1, 3)]);
        let adj = Adjacency::from_store(&store, 5);
        assert_matches_dense_reference(&adj, 5);
    }

    #[test]
    fn extract_batch_matches_serial_loop() {
        let (_, adj) = two_component_graph();
        let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
        let links: Vec<(EntityId, EntityId, Option<Triple>)> = (0..6u32)
            .flat_map(|h| (0..6u32).map(move |ta| (EntityId(h), EntityId(ta), None)))
            .collect();
        let serial: Vec<Subgraph> =
            links.iter().map(|&(h, ta, ex2)| ex.extract(h, ta, ex2)).collect();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let batch = pool.install(|| ex.extract_batch(&links));
        assert_eq!(batch, serial);
    }

    #[test]
    #[should_panic(expected = "at least 1 hop")]
    fn zero_hops_rejected() {
        let (_, adj) = two_component_graph();
        SubgraphExtractor::new(&adj, 0, ExtractionMode::Union);
    }

    /// Cached-source extraction must be bit-identical to the plain path
    /// for every (head, tail) pair, whether the cache hits or misses,
    /// with the cache on either endpoint.
    #[test]
    fn cached_source_extraction_matches_plain() {
        let stores = [
            two_component_graph().0,
            // Triangle + pendant: dense enough that many candidates sit
            // inside the fixed endpoint's neighborhood (cache misses).
            TripleStore::from_triples([t(0, 0, 1), t(1, 0, 2), t(2, 0, 0), t(2, 1, 3)]),
        ];
        for store in &stores {
            let adj = Adjacency::from_store(store, 6);
            for hops in 1..4 {
                let ex = SubgraphExtractor::new(&adj, hops, ExtractionMode::Union);
                for fixed in 0..6u32 {
                    let cache = ex.cache_source(EntityId(fixed));
                    for other in 0..6u32 {
                        // Cache on the head side…
                        let (sg, _) = ex.extract_with_cached_source(
                            &cache,
                            EntityId(fixed),
                            EntityId(other),
                            None,
                        );
                        assert_eq!(sg, ex.extract(EntityId(fixed), EntityId(other), None));
                        // …and on the tail side.
                        let (sg, _) = ex.extract_with_cached_source(
                            &cache,
                            EntityId(other),
                            EntityId(fixed),
                            None,
                        );
                        assert_eq!(sg, ex.extract(EntityId(other), EntityId(fixed), None));
                    }
                }
            }
        }
    }

    #[test]
    fn cache_hits_when_candidate_is_far() {
        let (_, adj) = two_component_graph();
        let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
        let cache = ex.cache_source(EntityId(0));
        // Node 4 is in the other component — never reached → hit.
        let (_, hit) = ex.extract_with_cached_source(&cache, EntityId(0), EntityId(4), None);
        assert!(hit);
        // Node 1 is one hop away and would be expanded → miss.
        let (_, hit) = ex.extract_with_cached_source(&cache, EntityId(0), EntityId(1), None);
        assert!(!hit);
        // Node 2 sits exactly at the hop bound — reached but never
        // expanded, so blocking it changes nothing → hit.
        let (_, hit) = ex.extract_with_cached_source(&cache, EntityId(0), EntityId(2), None);
        assert!(hit);
        // The source itself: blocking the start is a no-op → hit.
        let (_, hit) = ex.extract_with_cached_source(&cache, EntityId(0), EntityId(0), None);
        assert!(hit);
    }

    #[test]
    fn small_extract_batch_takes_serial_path() {
        // Below the parallel threshold the batch must still match the
        // serial loop exactly (it *is* the serial loop).
        let (_, adj) = two_component_graph();
        let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
        let links = vec![(EntityId(0), EntityId(4), None), (EntityId(1), EntityId(2), None)];
        let serial: Vec<Subgraph> =
            links.iter().map(|&(h, ta, ex2)| ex.extract(h, ta, ex2)).collect();
        assert_eq!(ex.extract_batch(&links), serial);
    }
}
