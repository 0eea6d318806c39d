//! GSM — GNN-based Subgraph Modeling.
//!
//! GSM extends GraIL's subgraph reasoning with the improved node
//! labeling of Section IV-C2 (via [`dekg_kg::ExtractionMode::Union`] +
//! [`dekg_gnn::LabelingMode::Improved`]). Given the enclosing subgraph
//! `G(e_i, r_k, e_j)`, an L-layer R-GCN with edge attention produces
//! node embeddings; the topological score is the linear readout of
//! Eq. 11:
//!
//! ```text
//! φ_tpo = [ h_G ⊕ h_i ⊕ h_j ⊕ r_k^tpo ] · W
//! ```

use dekg_gnn::{BatchedEncodeWorkspace, MountedRgcnLayer, SubgraphEncoder, SubgraphEncoderConfig};
use dekg_kg::{BatchedSubgraphs, Subgraph};
use dekg_tensor::{init, kernels, Graph, ParamId, ParamStore, Var};
use rand::Rng;

/// Reusable buffers for [`Gsm::score_subgraphs_batched`]: the batched
/// encoder workspace plus the packed readout/score matrices. Keep one
/// per worker thread (e.g. in a `thread_local`) and steady-state
/// batched scoring performs no heap allocation at all.
#[derive(Debug, Default, Clone)]
pub struct InferenceWorkspace {
    enc: BatchedEncodeWorkspace,
    /// `[b, 4d]` concatenated readout rows.
    cat: Vec<f32>,
    /// `[b]` score column.
    scores: Vec<f32>,
}

impl InferenceWorkspace {
    /// An empty workspace; buffers grow on first use and are reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Every GSM parameter mounted on one tape, from [`Gsm::mount`]; valid
/// on that tape and on the tapes forked from it afterwards.
#[derive(Debug, Clone)]
pub struct MountedGsm {
    layers: Vec<MountedRgcnLayer>,
    rel_tpo: Var,
    w_out: Var,
}

/// The GSM parameters: the subgraph encoder plus the topological
/// relation embeddings `r^tpo` and the scoring matrix `W`.
#[derive(Debug, Clone)]
pub struct Gsm {
    encoder: SubgraphEncoder,
    dim: usize,
    /// `r^tpo ∈ R^{|R| × d}`.
    rel_tpo: ParamId,
    /// `W ∈ R^{4d × 1}` scoring the concatenated readout.
    w_out: ParamId,
}

impl Gsm {
    /// Registers GSM parameters under `prefix`.
    pub fn new(
        encoder_cfg: SubgraphEncoderConfig,
        prefix: &str,
        params: &mut ParamStore,
        rng: &mut impl Rng,
    ) -> Self {
        let dim = encoder_cfg.dim;
        let num_relations = encoder_cfg.num_relations;
        let encoder = SubgraphEncoder::new(encoder_cfg, &format!("{prefix}.encoder"), params, rng);
        let rel_tpo = params
            .insert(format!("{prefix}.rel_tpo"), init::xavier_uniform([num_relations, dim], rng));
        let w_out =
            params.insert(format!("{prefix}.w_out"), init::xavier_uniform([4 * dim, 1], rng));
        Gsm { encoder, dim, rel_tpo, w_out }
    }

    /// Embedding dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying encoder (exposes hops/labeling configuration).
    pub fn encoder(&self) -> &SubgraphEncoder {
        &self.encoder
    }

    /// Scores one candidate link given its extracted subgraph.
    ///
    /// Returns a scalar (`[1, 1]`) Var. `train` enables edge dropout.
    pub fn score_subgraph(
        &self,
        g: &mut Graph,
        params: &ParamStore,
        sg: &Subgraph,
        rel: dekg_kg::RelationId,
        train: bool,
        rng: &mut impl Rng,
    ) -> Var {
        let mounted = self.mount(g, params);
        let edge_keep = self.encoder.edge_mask(sg, train, rng);
        self.score_mounted(g, &mounted, sg, rel, edge_keep.as_deref())
    }

    /// Every GSM parameter on tape `g`: the encoder's layers (basis
    /// weights composed), `r^tpo` and `W`. Mounting before
    /// [`Graph::fork`] lets the forked tapes score with
    /// [`Gsm::score_mounted`] and no `ParamStore`.
    pub fn mount(&self, g: &mut Graph, params: &ParamStore) -> MountedGsm {
        MountedGsm {
            layers: self.encoder.mount(g, params),
            rel_tpo: g.param(params, self.rel_tpo),
            w_out: g.param(params, self.w_out),
        }
    }

    /// [`Gsm::score_subgraph`] against mounted parameters with a
    /// pre-drawn edge mask (see [`SubgraphEncoder::edge_mask`]); it draws
    /// no randomness.
    pub fn score_mounted(
        &self,
        g: &mut Graph,
        mounted: &MountedGsm,
        sg: &Subgraph,
        rel: dekg_kg::RelationId,
        edge_keep: Option<&[bool]>,
    ) -> Var {
        let enc = self.encoder.encode_mounted(g, &mounted.layers, sg, edge_keep);
        let r = g.gather_rows(mounted.rel_tpo, &[rel.index()]);
        let cat = g.concat_cols(&[enc.graph, enc.head, enc.tail, r]);
        g.matmul(cat, mounted.w_out)
    }

    /// Scores many subgraphs on one tape: one [`Gsm::score_subgraph`]
    /// per item, no dropout (evaluation semantics). Returns the raw
    /// `f32` scores. The batched engine's pins use this path as their
    /// oracle (see [`crate::reference::TapeReference`]).
    pub fn score_subgraphs_eval(
        &self,
        params: &ParamStore,
        items: &[(&Subgraph, dekg_kg::RelationId)],
    ) -> Vec<f32> {
        // Eval never draws randomness; the encoder signature needs one.
        use rand::SeedableRng;
        // lint: hermetic-ok — eval path draws nothing; the constant seed feeds an encoder signature that demands an Rng
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let mut g = Graph::new();
        items
            .iter()
            .map(|(sg, rel)| {
                let s = self.score_subgraph(&mut g, params, sg, *rel, false, &mut rng);
                g.value(s).item()
            })
            .collect()
    }

    /// Scores a block-diagonal batch of subgraphs (`rels[i]` pairing
    /// with segment `i`) through the batched encoder, appending one
    /// score per segment to `out`.
    ///
    /// Bitwise identical to [`Gsm::score_subgraphs_eval`] over the same
    /// (subgraph, relation) pairs: the batched encoder is pinned to the
    /// tape encoder segment by segment, and the final
    /// `[b, 4d] × [4d, 1]` readout matmul computes each row exactly as
    /// the tape's per-candidate `[1, 4d]` matmul does (rows are
    /// independent).
    ///
    /// # Panics
    /// If `rels.len() != batch.num_graphs()`.
    pub fn score_subgraphs_batched(
        &self,
        params: &ParamStore,
        batch: &BatchedSubgraphs<'_>,
        rels: &[dekg_kg::RelationId],
        ws: &mut InferenceWorkspace,
        out: &mut Vec<f32>,
    ) {
        let b = batch.num_graphs();
        assert_eq!(rels.len(), b, "one relation per packed subgraph");
        if b == 0 {
            return;
        }
        self.encoder.encode_inference_batched(params, batch, &mut ws.enc);
        self.readout(params, rels, |i| i, ws, out);
    }

    /// Scores one subgraph under many relations — the `(h, ?, t)`
    /// relation-prediction fast path, where every candidate shares the
    /// same enclosing subgraph. Encodes once and appends one score per
    /// relation to `out`, each bitwise identical to scoring
    /// `(sg, rels[i])` through [`Gsm::score_subgraphs_eval`] (which
    /// would re-encode the identical subgraph per candidate and get the
    /// identical encoding back).
    pub fn score_subgraph_multi_rel(
        &self,
        params: &ParamStore,
        sg: &Subgraph,
        rels: &[dekg_kg::RelationId],
        ws: &mut InferenceWorkspace,
        out: &mut Vec<f32>,
    ) {
        if rels.is_empty() {
            return;
        }
        let graphs = std::slice::from_ref(sg);
        let batch = BatchedSubgraphs::pack(graphs);
        self.encoder.encode_inference_batched(params, &batch, &mut ws.enc);
        self.readout(params, rels, |_| 0, ws, out);
    }

    /// The φ_tpo readout (Eq. 13) over the encodings in `ws.enc`: row
    /// `i` concatenates segment `seg(i)`'s graph, head and tail
    /// embeddings with `r^tpo[rels[i]]`, and one `[b, 4d] × [4d, 1]`
    /// matmul appends the `b = rels.len()` scores to `out`.
    fn readout(
        &self,
        params: &ParamStore,
        rels: &[dekg_kg::RelationId],
        seg: impl Fn(usize) -> usize,
        ws: &mut InferenceWorkspace,
        out: &mut Vec<f32>,
    ) {
        let rel_tpo = params.get(self.rel_tpo);
        let w = params.get(self.w_out).data();
        let d = self.dim;
        let b = rels.len();
        ws.cat.resize(b * 4 * d, 0.0);
        for (i, rel) in rels.iter().enumerate() {
            let s = seg(i) * d..(seg(i) + 1) * d;
            let row = &mut ws.cat[i * 4 * d..(i + 1) * 4 * d];
            row[..d].copy_from_slice(&ws.enc.graph[s.clone()]);
            row[d..2 * d].copy_from_slice(&ws.enc.heads[s.clone()]);
            row[2 * d..3 * d].copy_from_slice(&ws.enc.tails[s]);
            row[3 * d..].copy_from_slice(rel_tpo.row(rel.index()));
        }
        ws.scores.resize(b, 0.0);
        kernels::matmul(&ws.cat, w, &mut ws.scores, b, 4 * d, 1);
        out.extend_from_slice(&ws.scores);
    }

    /// The endpoint embeddings `(h_i^L, h_j^L)` of a subgraph — used by
    /// the Fig. 8 heat-map case study.
    pub fn embed_endpoints(
        &self,
        params: &ParamStore,
        sg: &Subgraph,
        rng: &mut impl Rng,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut g = Graph::new();
        let enc = self.encoder.encode(&mut g, params, sg, false, rng);
        (g.value(enc.head).row(0).to_vec(), g.value(enc.tail).row(0).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dekg_gnn::LabelingMode;
    use dekg_kg::{
        Adjacency, EntityId, ExtractionMode, RelationId, SubgraphExtractor, Triple, TripleStore,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cfg() -> SubgraphEncoderConfig {
        SubgraphEncoderConfig {
            num_relations: 3,
            hops: 2,
            dim: 8,
            layers: 2,
            attn_dim: 4,
            edge_dropout: 0.3,
            labeling: LabelingMode::Improved,
            num_bases: None,
        }
    }

    fn setup() -> (ParamStore, Gsm, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let gsm = Gsm::new(cfg(), "gsm", &mut ps, &mut rng);
        (ps, gsm, rng)
    }

    fn chain() -> (TripleStore, Adjacency) {
        let store = TripleStore::from_triples([
            Triple::from_raw(0, 0, 1),
            Triple::from_raw(1, 1, 2),
            Triple::from_raw(2, 2, 3),
        ]);
        let adj = Adjacency::from_store(&store, 4);
        (store, adj)
    }

    #[test]
    fn scalar_score_shape() {
        let (ps, gsm, mut rng) = setup();
        let (_, adj) = chain();
        let sg = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union).extract(
            EntityId(0),
            EntityId(3),
            None,
        );
        let mut g = Graph::new();
        let s = gsm.score_subgraph(&mut g, &ps, &sg, RelationId(1), false, &mut rng);
        assert_eq!(g.shape(s).dims(), &[1, 1]);
        assert!(g.value(s).item().is_finite());
    }

    #[test]
    fn relation_changes_score() {
        let (ps, gsm, mut rng) = setup();
        let (_, adj) = chain();
        let sg = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union).extract(
            EntityId(0),
            EntityId(3),
            None,
        );
        let mut g = Graph::new();
        let s0 = gsm.score_subgraph(&mut g, &ps, &sg, RelationId(0), false, &mut rng);
        let s1 = gsm.score_subgraph(&mut g, &ps, &sg, RelationId(1), false, &mut rng);
        assert_ne!(g.value(s0).item(), g.value(s1).item());
    }

    #[test]
    fn disconnected_subgraph_scoreable() {
        // The whole point of GSM: a bridging link's two-component
        // subgraph still yields a usable score.
        let (ps, gsm, mut rng) = setup();
        let store =
            TripleStore::from_triples([Triple::from_raw(0, 0, 1), Triple::from_raw(2, 1, 3)]);
        let adj = Adjacency::from_store(&store, 4);
        let sg = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union).extract(
            EntityId(0),
            EntityId(2),
            None,
        );
        assert!(sg.is_disconnected());
        let mut g = Graph::new();
        let s = gsm.score_subgraph(&mut g, &ps, &sg, RelationId(0), false, &mut rng);
        assert!(g.value(s).item().is_finite());
    }

    #[test]
    fn training_signal_reaches_all_parts() {
        let (ps, gsm, mut rng) = setup();
        let (_, adj) = chain();
        let sg = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union).extract(
            EntityId(0),
            EntityId(3),
            None,
        );
        let mut g = Graph::new();
        let s = gsm.score_subgraph(&mut g, &ps, &sg, RelationId(1), false, &mut rng);
        let sq = g.square(s);
        let loss = g.sum_all(sq);
        let grads = g.backward(loss);
        // W, r_tpo and at least one encoder weight must receive grads.
        assert!(grads.get(ps.id_of("gsm.w_out").unwrap()).is_some());
        assert!(grads.get(ps.id_of("gsm.rel_tpo").unwrap()).is_some());
        assert!(grads.get(ps.id_of("gsm.encoder.layer0.w_self").unwrap()).is_some());
    }

    #[test]
    fn inference_scores_bitwise_match_tape_scores() {
        // The eval protocol ranks with the batched forward-only engine;
        // if it drifted from the tape by even one ULP, rankings could
        // differ between training-time probes and evaluation.
        for num_bases in [None, Some(2)] {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let mut ps = ParamStore::new();
            let gsm =
                Gsm::new(SubgraphEncoderConfig { num_bases, ..cfg() }, "gsm", &mut ps, &mut rng);
            let (_, adj) = chain();
            let extractor = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
            let sgs: Vec<_> = [(0, 3), (1, 2), (0, 2), (2, 3)]
                .iter()
                .map(|&(h, t)| extractor.extract(EntityId(h), EntityId(t), None))
                .collect();
            let rels: Vec<RelationId> =
                (0..sgs.len()).map(|i| RelationId((i % 3) as u32)).collect();
            let items: Vec<(&Subgraph, RelationId)> =
                sgs.iter().zip(rels.iter().copied()).collect();
            let tape = gsm.score_subgraphs_eval(&ps, &items);
            let mut ws = InferenceWorkspace::new();
            let mut fast = Vec::new();
            gsm.score_subgraphs_batched(
                &ps,
                &BatchedSubgraphs::pack(&sgs),
                &rels,
                &mut ws,
                &mut fast,
            );
            assert_eq!(tape, fast, "num_bases {num_bases:?}");
        }
    }

    #[test]
    fn endpoint_embeddings_have_dim_width() {
        let (ps, gsm, mut rng) = setup();
        let (_, adj) = chain();
        let sg = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union).extract(
            EntityId(1),
            EntityId(2),
            None,
        );
        let (h, t) = gsm.embed_endpoints(&ps, &sg, &mut rng);
        assert_eq!(h.len(), 8);
        assert_eq!(t.len(), 8);
    }
}
