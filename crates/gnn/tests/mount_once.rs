//! A tape mounts each parameter once: however many times a step calls
//! [`SubgraphEncoder::encode`] (which mounts on every call), the tape
//! records one `Param` leaf per parameter and, with bases, one
//! composition `Matmul` and one `Reshape` per layer.
//!
//! The kernel profiler's tables are process-global, so this binary
//! holds a single test.

use dekg_gnn::{LabelingMode, SubgraphEncoder, SubgraphEncoderConfig};
use dekg_kg::{Adjacency, EntityId, ExtractionMode, SubgraphExtractor, Triple, TripleStore};
use dekg_tensor::{prof, Graph, ParamStore};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn repeated_encodes_mount_each_parameter_and_composition_once() {
    let num_relations = 4;
    let layers = 2u64;
    let store =
        TripleStore::from_triples((0..num_relations as u32).map(|r| Triple::from_raw(r, r, r + 1)));
    let adj = Adjacency::from_store(&store, 6);
    let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
    let sgs = [
        ex.extract(EntityId(0), EntityId(2), None),
        ex.extract(EntityId(1), EntityId(3), None),
        ex.extract(EntityId(2), EntityId(4), None),
    ];
    assert!(sgs.iter().all(|sg| sg.num_edges() > 0));
    let encodes = 4 * sgs.len() as u64;

    // (Param calls, Matmul calls, Reshape calls) for `encodes` calls of
    // `encode` on one tape.
    let count = |num_bases: Option<usize>| {
        let cfg = SubgraphEncoderConfig {
            num_relations,
            hops: 2,
            dim: 4,
            layers: layers as usize,
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
        for sg in sgs.iter().cycle().take(encodes as usize) {
            enc.encode(&mut g, &ps, sg, true, &mut rng);
        }
        prof::set_enabled(false);
        let snap = prof::snapshot();
        let calls = |op: &str| snap.ops.iter().find(|o| o.op == op).map_or(0, |o| o.forward_calls);
        assert_eq!(calls("Param"), ps.len() as u64, "{num_bases:?}: one leaf per parameter");
        (calls("Matmul"), calls("Reshape"))
    };

    let (full_matmuls, full_reshapes) = count(None);
    // Self term, attention logit and its widening, per layer per encode.
    assert_eq!(full_matmuls, 3 * layers * encodes);
    // The pooled graph row, once per encode.
    assert_eq!(full_reshapes, encodes);
    let (based_matmuls, based_reshapes) = count(Some(2));
    assert_eq!(based_matmuls, full_matmuls + layers, "one composition per layer per tape");
    assert_eq!(based_reshapes, full_reshapes + layers, "one stack reshape per layer per tape");
}
