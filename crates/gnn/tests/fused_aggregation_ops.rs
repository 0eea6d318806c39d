//! The R-GCN layer handles all relations at once: per layer and per
//! subgraph the tape records one `RelMatmul` for the messages, one
//! `ScatterAddRows` and one aggregate `Add` however many relations the
//! subgraph holds, and none of them for a subgraph without edges. No
//! `ConcatRows` joins per-relation message blocks, and the forward
//! `Matmul` count does not grow with the relation count. With bases, the
//! relation weights are composed by one `Matmul` per layer at mount, not
//! per subgraph.
//!
//! The kernel profiler's tables are process-global, so this binary
//! holds a single test.

use dekg_gnn::{LabelingMode, SubgraphEncoder, SubgraphEncoderConfig};
use dekg_kg::{Adjacency, EntityId, ExtractionMode, SubgraphExtractor, Triple, TripleStore};
use dekg_tensor::{prof, Graph, ParamStore};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn one_scatter_and_one_aggregate_add_per_layer_per_subgraph() {
    let num_relations = 5;
    let layers = 3;
    let store =
        TripleStore::from_triples((0..num_relations as u32).map(|r| Triple::from_raw(r, r, r + 1)));
    let adj = Adjacency::from_store(&store, 10);
    let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
    let sgs = [
        ex.extract(EntityId(0), EntityId(2), None), // a chain of relations
        ex.extract(EntityId(2), EntityId(4), None), // another chain
        ex.extract(EntityId(8), EntityId(9), None), // edgeless
    ];
    let with_edges = sgs.iter().filter(|sg| sg.num_edges() > 0).count() as u64;
    assert_eq!(with_edges, 2);
    let rels_seen = |i: usize| {
        let mut r: Vec<_> = sgs[i].edges.iter().map(|e| e.rel.index()).collect();
        r.sort_unstable();
        r.dedup();
        r.len()
    };
    assert!(rels_seen(1) >= 3, "the pin needs a subgraph with many relations");

    for num_bases in [None, Some(2)] {
        let cfg = SubgraphEncoderConfig {
            num_relations,
            hops: 2,
            dim: 4,
            layers,
            attn_dim: 2,
            edge_dropout: 0.0,
            labeling: LabelingMode::Improved,
            num_bases,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let enc = SubgraphEncoder::new(cfg, "gsm", &mut ps, &mut rng);

        let mut g = Graph::new();
        prof::reset();
        prof::set_enabled(true);
        let mounted = enc.mount(&mut g, &ps);
        for sg in &sgs {
            enc.encode_mounted(&mut g, &mounted, sg, None);
        }
        prof::set_enabled(false);

        let snap = prof::snapshot();
        let calls = |op: &str| snap.ops.iter().find(|o| o.op == op).map_or(0, |o| o.forward_calls);
        let layers = layers as u64;
        let subgraphs = sgs.len() as u64;
        assert_eq!(calls("RelMatmul"), layers * with_edges, "{num_bases:?}");
        assert_eq!(calls("ScatterAddRows"), layers * with_edges, "{num_bases:?}");
        assert_eq!(calls("ConcatRows"), 0, "{num_bases:?}");
        // Self term for every subgraph; attention logit and its widening
        // where edges are; with bases, one composition per layer at mount.
        let compositions = if num_bases.is_some() { layers } else { 0 };
        assert_eq!(
            calls("Matmul"),
            layers * (subgraphs + 2 * with_edges) + compositions,
            "{num_bases:?}"
        );
        // Self term + bias for every subgraph, + aggregate where edges are.
        assert_eq!(calls("Add"), layers * (subgraphs + with_edges), "{num_bases:?}");
        assert_eq!(calls("Sigmoid"), layers * with_edges, "{num_bases:?}");
    }
}
