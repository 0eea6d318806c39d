//! The multi-layer subgraph encoder used by GSM and the GraIL/TACT
//! baselines.

use crate::labeling::{feature_width, node_features, LabelingMode};
use crate::rgcn::{BatchedLayerScratch, RgcnLayer, RgcnLayerConfig};
use dekg_kg::{BatchedSubgraphs, Subgraph};
use dekg_tensor::{kernels, Graph, ParamStore, Var};
use rand::Rng;

/// Configuration for a [`SubgraphEncoder`].
#[derive(Debug, Clone)]
pub struct SubgraphEncoderConfig {
    /// Number of relations in the shared space.
    pub num_relations: usize,
    /// Hop bound `t` the subgraphs were extracted with.
    pub hops: u32,
    /// Hidden/output embedding width of every layer.
    pub dim: usize,
    /// Number of R-GCN layers `L`.
    pub layers: usize,
    /// Per-relation attention embedding width.
    pub attn_dim: usize,
    /// Edge dropout rate `β` applied during training.
    pub edge_dropout: f32,
    /// Node labeling mode (Improved for DEKG-ILP, Grail for baselines).
    pub labeling: LabelingMode,
    /// Optional basis decomposition for relation weights.
    pub num_bases: Option<usize>,
}

impl SubgraphEncoderConfig {
    /// The paper's defaults: `t = 2` hops, `d = 32`, `L = 3`, `β = 0.5`.
    pub fn paper_defaults(num_relations: usize) -> Self {
        SubgraphEncoderConfig {
            num_relations,
            hops: 2,
            dim: 32,
            layers: 3,
            attn_dim: 8,
            edge_dropout: 0.5,
            labeling: LabelingMode::Improved,
            num_bases: None,
        }
    }
}

/// The encoder outputs for one subgraph: everything Eq. 11 consumes.
#[derive(Debug, Clone, Copy)]
pub struct EncodedSubgraph {
    /// All node embeddings `h^L` as `[n, dim]`.
    pub nodes: Var,
    /// Average-pooled graph embedding `h_G^L` as `[1, dim]` (Eq. 10).
    pub graph: Var,
    /// Head embedding `h_i^L` as `[1, dim]`.
    pub head: Var,
    /// Tail embedding `h_j^L` as `[1, dim]`.
    pub tail: Var,
}

/// A stack of [`RgcnLayer`]s with labeling-based input features and
/// average-pool readout.
#[derive(Debug, Clone)]
pub struct SubgraphEncoder {
    cfg: SubgraphEncoderConfig,
    layers: Vec<RgcnLayer>,
}

impl SubgraphEncoder {
    /// Registers all layer parameters under `prefix`.
    ///
    /// # Panics
    /// If `layers == 0`.
    pub fn new(
        cfg: SubgraphEncoderConfig,
        prefix: &str,
        params: &mut ParamStore,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(cfg.layers > 0, "encoder needs at least one layer");
        let mut layers = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            let in_dim = if l == 0 { feature_width(cfg.hops) } else { cfg.dim };
            layers.push(RgcnLayer::new(
                RgcnLayerConfig {
                    num_relations: cfg.num_relations,
                    in_dim,
                    out_dim: cfg.dim,
                    attn_dim: cfg.attn_dim,
                    num_bases: cfg.num_bases,
                },
                &format!("{prefix}.layer{l}"),
                params,
                rng,
            ));
        }
        SubgraphEncoder { cfg, layers }
    }

    /// The encoder configuration.
    pub fn config(&self) -> &SubgraphEncoderConfig {
        &self.cfg
    }

    /// Encodes one subgraph. `train` enables edge dropout.
    pub fn encode(
        &self,
        g: &mut Graph,
        params: &ParamStore,
        sg: &Subgraph,
        train: bool,
        rng: &mut impl Rng,
    ) -> EncodedSubgraph {
        let mounted = self.mount(g, params);
        let edge_keep = self.edge_mask(sg, train, rng);
        self.encode_mounted(g, &mounted, sg, edge_keep.as_deref())
    }

    /// The edge-dropout mask one training encode of `sg` applies, shared
    /// by all layers as in GraIL: one `f32` draw per edge from `rng`, in
    /// edge order, keeping an edge with probability `1 - β`. `None`
    /// (and no draw) outside training or with `β = 0`.
    pub fn edge_mask(&self, sg: &Subgraph, train: bool, rng: &mut impl Rng) -> Option<Vec<bool>> {
        (train && self.cfg.edge_dropout > 0.0).then(|| {
            let keep = 1.0 - self.cfg.edge_dropout;
            (0..sg.num_edges()).map(|_| rng.gen::<f32>() < keep).collect()
        })
    }

    /// Every layer's parameter handles on tape `g`; they can encode many
    /// subgraphs on that tape. The tape keeps one leaf per parameter and
    /// one basis composition per layer, so mounting again (as
    /// [`SubgraphEncoder::encode`] does on every call) returns the same
    /// handles and records nothing new.
    pub fn mount(&self, g: &mut Graph, params: &ParamStore) -> Vec<crate::rgcn::MountedRgcnLayer> {
        self.layers.iter().map(|l| l.mount(g, params)).collect()
    }

    /// Encodes one subgraph against pre-mounted layer handles, edges
    /// masked by `edge_keep` (see [`SubgraphEncoder::edge_mask`]). It
    /// draws no randomness, so a step can draw every mask first and
    /// encode on any thread.
    pub fn encode_mounted(
        &self,
        g: &mut Graph,
        mounted: &[crate::rgcn::MountedRgcnLayer],
        sg: &Subgraph,
        edge_keep: Option<&[bool]>,
    ) -> EncodedSubgraph {
        assert_eq!(mounted.len(), self.layers.len(), "mounted handle count mismatch");
        let feats = node_features(sg, self.cfg.hops, self.cfg.labeling);
        let mut h = g.constant(feats);
        for (layer, m) in self.layers.iter().zip(mounted) {
            h = layer.forward_mounted(g, m, sg, h, edge_keep);
        }

        let graph_vec = g.mean_axis0(h); // [dim]
        let graph = g.reshape(graph_vec, [1, self.cfg.dim]);
        let head = g.gather_rows(h, &[0]);
        let tail = g.gather_rows(h, &[1]);
        EncodedSubgraph { nodes: h, graph, head, tail }
    }

    /// Forward-only encoding (no tape, no dropout) over a
    /// block-diagonal pack of subgraphs, bitwise identical to calling
    /// [`SubgraphEncoder::encode`] with `train = false` per subgraph
    /// (see [`RgcnLayer::forward_inference_batched`] for the
    /// layer-level argument; the readout below replicates the tape's
    /// `mean_axis0`, accumulating each segment's rows in order and
    /// scaling by the same `1/n`).
    ///
    /// Results land in `ws` (`graph`/`heads`/`tails`, one row per
    /// segment); all buffers are reused across calls.
    pub fn encode_inference_batched(
        &self,
        params: &ParamStore,
        batch: &BatchedSubgraphs<'_>,
        ws: &mut BatchedEncodeWorkspace,
    ) {
        let n = batch.total_nodes();
        let hops = self.cfg.hops;
        let width = (hops + 1) as usize;
        let feat_w = feature_width(hops);

        // Packed one-hot label features + the label list the layer-0
        // self-term gather reads. Same values, same panics as
        // `node_features` on each subgraph.
        ws.labels.clear();
        ws.h_a.clear();
        ws.h_a.resize(n * feat_w, 0.0);
        let mut base = 0usize;
        for sg in batch.graphs() {
            for u in 0..sg.num_nodes() {
                let (dh, dt) = sg.label(u);
                ws.labels.push((dh, dt));
                let row = &mut ws.h_a[(base + u) * feat_w..(base + u + 1) * feat_w];
                if dh >= 0 {
                    assert!((dh as u32) <= hops, "distance {dh} exceeds labeling bound {hops}");
                    row[dh as usize] = 1.0;
                }
                if dt >= 0 {
                    assert!((dt as u32) <= hops, "distance {dt} exceeds labeling bound {hops}");
                    row[width + dt as usize] = 1.0;
                }
            }
            base += sg.num_nodes();
        }

        // Ping-pong through the layer stack: h_a is always the input,
        // h_b the output, swapped after every layer.
        for (l, layer) in self.layers.iter().enumerate() {
            let labels = if l == 0 { Some(ws.labels.as_slice()) } else { None };
            layer.forward_inference_batched(
                params,
                batch,
                &ws.h_a,
                labels,
                &mut ws.h_b,
                &mut ws.scratch,
            );
            std::mem::swap(&mut ws.h_a, &mut ws.h_b);
        }
        let h = &ws.h_a;

        // Segment readout: mean-pool each segment's rows (accumulated
        // in row order, then scaled — as the tape's mean_axis0 does)
        // plus the head/tail rows at each segment's start.
        let dim = self.cfg.dim;
        let b = batch.num_graphs();
        ws.graph.clear();
        ws.graph.resize(b * dim, 0.0);
        ws.heads.resize(b * dim, 0.0);
        ws.tails.resize(b * dim, 0.0);
        for i in 0..b {
            let r = batch.segment(i);
            let seg_n = r.len();
            let pooled = &mut ws.graph[i * dim..(i + 1) * dim];
            for row in h[r.start * dim..r.end * dim].chunks_exact(dim) {
                kernels::add_assign(pooled, row);
            }
            let inv = if seg_n == 0 { 0.0 } else { 1.0 / seg_n as f32 };
            for x in pooled.iter_mut() {
                *x *= inv;
            }
            ws.heads[i * dim..(i + 1) * dim]
                .copy_from_slice(&h[r.start * dim..(r.start + 1) * dim]);
            ws.tails[i * dim..(i + 1) * dim]
                .copy_from_slice(&h[(r.start + 1) * dim..(r.start + 2) * dim]);
        }
    }
}

/// Reusable buffers for [`SubgraphEncoder::encode_inference_batched`]:
/// the ping-pong packed node matrices, the packed label list, the
/// per-layer scratch, and the readout outputs. One instance per worker
/// thread makes steady-state batched scoring allocation-free.
#[derive(Debug, Default, Clone)]
pub struct BatchedEncodeWorkspace {
    h_a: Vec<f32>,
    h_b: Vec<f32>,
    labels: Vec<(i32, i32)>,
    scratch: BatchedLayerScratch,
    /// Mean-pooled graph embedding per segment, row-major `[b, dim]`.
    pub graph: Vec<f32>,
    /// Head (local node 0) embedding per segment, `[b, dim]`.
    pub heads: Vec<f32>,
    /// Tail (local node 1) embedding per segment, `[b, dim]`.
    pub tails: Vec<f32>,
}

impl BatchedEncodeWorkspace {
    /// An empty workspace; buffers grow on first use and are reused.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dekg_kg::{Adjacency, EntityId, ExtractionMode, SubgraphExtractor, Triple, TripleStore};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn chain_subgraph() -> Subgraph {
        let store = TripleStore::from_triples([
            Triple::from_raw(0, 0, 1),
            Triple::from_raw(1, 1, 2),
            Triple::from_raw(2, 0, 3),
        ]);
        let adj = Adjacency::from_store(&store, 4);
        SubgraphExtractor::new(&adj, 2, ExtractionMode::Union).extract(
            EntityId(0),
            EntityId(3),
            None,
        )
    }

    fn tiny_cfg() -> SubgraphEncoderConfig {
        SubgraphEncoderConfig {
            num_relations: 2,
            hops: 2,
            dim: 8,
            layers: 2,
            attn_dim: 4,
            edge_dropout: 0.5,
            labeling: LabelingMode::Improved,
            num_bases: None,
        }
    }

    #[test]
    fn encode_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let enc = SubgraphEncoder::new(tiny_cfg(), "gsm", &mut ps, &mut rng);
        let sg = chain_subgraph();
        let mut g = Graph::new();
        let out = enc.encode(&mut g, &ps, &sg, false, &mut rng);
        assert_eq!(g.shape(out.nodes).dims(), &[sg.num_nodes(), 8]);
        assert_eq!(g.shape(out.graph).dims(), &[1, 8]);
        assert_eq!(g.shape(out.head).dims(), &[1, 8]);
        assert_eq!(g.shape(out.tail).dims(), &[1, 8]);
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let enc = SubgraphEncoder::new(tiny_cfg(), "gsm", &mut ps, &mut rng);
        let sg = chain_subgraph();

        let run = |rng_seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
            let mut g = Graph::new();
            let out = enc.encode(&mut g, &ps, &sg, false, &mut rng);
            g.value(out.graph).clone()
        };
        // Different RNG streams, same eval output (no dropout at eval).
        assert_eq!(run(10), run(99));
    }

    #[test]
    fn train_mode_uses_dropout() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let enc = SubgraphEncoder::new(
            SubgraphEncoderConfig { edge_dropout: 0.9, ..tiny_cfg() },
            "gsm",
            &mut ps,
            &mut rng,
        );
        let sg = chain_subgraph();
        let mut g_eval = Graph::new();
        let eval = enc.encode(&mut g_eval, &ps, &sg, false, &mut rng);
        let mut g_train = Graph::new();
        let train = enc.encode(&mut g_train, &ps, &sg, true, &mut rng);
        // With 90% edge dropout the outputs should differ w.h.p.
        assert_ne!(g_eval.value(eval.graph).data(), g_train.value(train.graph).data());
    }

    #[test]
    fn encoder_tape_passes_differential_check() {
        // The full R-GCN stack — gather/scatter message passing,
        // attention, edge dropout — re-executed by the f64 reference
        // interpreter must match the optimized kernels on every node
        // value and every parameter gradient.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut ps = ParamStore::new();
        let enc = SubgraphEncoder::new(tiny_cfg(), "gsm", &mut ps, &mut rng);
        let sg = chain_subgraph();
        let mut g = Graph::new();
        let out = enc.encode(&mut g, &ps, &sg, true, &mut rng);
        let pooled = g.sum_all(out.graph);
        let head = g.sum_all(out.head);
        let loss = g.add(pooled, head);
        let diags = g.diff_check(loss, Some(&ps));
        assert!(diags.is_empty(), "encoder tape should be clean: {diags:?}");
    }

    /// Bit patterns, so `-0.0` and `+0.0` (equal as floats) differ.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Packs `sgs`, encodes the pack forward-only, and requires every
    /// segment's node rows, pooled graph row and endpoint rows to equal
    /// the tape encoding of that subgraph alone, bit for bit.
    fn assert_batched_matches_tape(enc: &SubgraphEncoder, ps: &ParamStore, sgs: &[Subgraph]) {
        let batch = dekg_kg::BatchedSubgraphs::pack(sgs);
        let mut ws = BatchedEncodeWorkspace::new();
        enc.encode_inference_batched(ps, &batch, &mut ws);
        let dim = enc.config().dim;
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for (i, sg) in sgs.iter().enumerate() {
            let mut g = Graph::new();
            let tape = enc.encode(&mut g, ps, sg, false, &mut rng);
            let rows = batch.segment(i);
            let ctx = format!("segment {i}, {:?}", enc.config());
            assert_eq!(
                bits(g.value(tape.nodes).data()),
                bits(&ws.h_a[rows.start * dim..rows.end * dim]),
                "nodes: {ctx}"
            );
            let row = i * dim..(i + 1) * dim;
            let pairs = [
                ("graph", tape.graph, &ws.graph),
                ("head", tape.head, &ws.heads),
                ("tail", tape.tail, &ws.tails),
            ];
            for (what, var, packed) in pairs {
                assert_eq!(bits(g.value(var).data()), bits(&packed[row.clone()]), "{what}: {ctx}");
            }
        }
    }

    #[test]
    fn inference_path_is_bitwise_identical_to_tape() {
        // The forward-only path must reproduce the tape path bit for
        // bit — evaluation ranks with one, training probes the other.
        // Exercised with and without basis decomposition and under
        // both labeling modes.
        for (num_bases, labeling) in [
            (None, LabelingMode::Improved),
            (None, LabelingMode::Grail),
            (Some(3), LabelingMode::Improved),
            (Some(3), LabelingMode::Grail),
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut ps = ParamStore::new();
            let enc = SubgraphEncoder::new(
                SubgraphEncoderConfig { num_bases, labeling, ..tiny_cfg() },
                "gsm",
                &mut ps,
                &mut rng,
            );
            assert_batched_matches_tape(&enc, &ps, &[chain_subgraph()]);
        }
    }

    #[test]
    fn inference_path_handles_edgeless_subgraphs() {
        let store = TripleStore::from_triples([Triple::from_raw(3, 0, 4)]);
        let adj = Adjacency::from_store(&store, 5);
        let sg = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union).extract(
            EntityId(0),
            EntityId(1),
            None,
        );
        assert_eq!(sg.num_edges(), 0);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut ps = ParamStore::new();
        let enc = SubgraphEncoder::new(tiny_cfg(), "gsm", &mut ps, &mut rng);
        assert_batched_matches_tape(&enc, &ps, &[sg]);
    }

    /// A mixed bag of subgraphs: connected, disconnected/bridging,
    /// edgeless, self-link-degenerate, and multi-relation.
    fn mixed_subgraphs() -> Vec<Subgraph> {
        let store = TripleStore::from_triples([
            Triple::from_raw(0, 0, 1),
            Triple::from_raw(1, 1, 2),
            Triple::from_raw(2, 0, 3),
            Triple::from_raw(4, 1, 5),
            Triple::from_raw(5, 0, 4),
        ]);
        let adj = Adjacency::from_store(&store, 8);
        let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
        vec![
            ex.extract(EntityId(0), EntityId(3), None), // chain, rels {0,1}
            ex.extract(EntityId(0), EntityId(4), None), // bridging: disconnected
            ex.extract(EntityId(6), EntityId(7), None), // isolated endpoints: edgeless
            ex.extract(EntityId(4), EntityId(5), None), // two-cycle, rels {0,1}
            ex.extract(EntityId(1), EntityId(1), None), // degenerate self-link
            ex.extract(EntityId(2), EntityId(0), None), // reversed endpoints
        ]
    }

    #[test]
    fn batched_encoding_is_bitwise_identical_per_subgraph() {
        // Packing must not leak between segments: every segment of a
        // mixed pack reproduces its own tape encoding bit for bit —
        // with and without basis decomposition, under both labelings.
        for num_bases in [None, Some(2)] {
            for labeling in [LabelingMode::Improved, LabelingMode::Grail] {
                let mut rng = ChaCha8Rng::seed_from_u64(21);
                let mut ps = ParamStore::new();
                let enc = SubgraphEncoder::new(
                    SubgraphEncoderConfig { num_bases, labeling, ..tiny_cfg() },
                    "gsm",
                    &mut ps,
                    &mut rng,
                );
                assert_batched_matches_tape(&enc, &ps, &mixed_subgraphs());
            }
        }
    }

    #[test]
    fn batched_encoding_matches_tape_on_aggregation_edge_cases() {
        // The fused aggregation's corner cases, packed together:
        // * zero surviving edges (the tape skips the add, so must the
        //   batched engine);
        // * nodes with no incoming edge inside a segment that has edges
        //   (their aggregate row is an explicit `+0.0` on both paths);
        // * every relation with exactly one edge (one-row messages);
        // * one destination fed by three edges of one relation and one of
        //   another (f32 sums of three or more terms depend on order, so
        //   this pins the scatter order across and within relations).
        let store = TripleStore::from_triples([
            Triple::from_raw(0, 0, 1),
            Triple::from_raw(1, 1, 2),
            Triple::from_raw(3, 0, 4),
            Triple::from_raw(3, 1, 5),
            Triple::from_raw(6, 0, 8),
            Triple::from_raw(7, 0, 8),
            Triple::from_raw(9, 0, 8),
            Triple::from_raw(12, 1, 8),
        ]);
        let adj = Adjacency::from_store(&store, 13);
        let ex = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union);
        let sgs = vec![
            ex.extract(EntityId(10), EntityId(11), None), // edgeless
            ex.extract(EntityId(0), EntityId(2), None),   // one edge per relation
            ex.extract(EntityId(4), EntityId(5), None),   // node 3: no incoming edge
            ex.extract(EntityId(6), EntityId(8), None),   // fan-in over two relations
        ];
        assert_eq!(sgs[0].num_edges(), 0);
        let per_rel =
            |sg: &Subgraph, r: usize| sg.edges.iter().filter(|e| e.rel.index() == r).count();
        assert!((0..2).all(|r| per_rel(&sgs[1], r) == 1));
        assert!(sgs[2].nodes.contains(&EntityId(3)));
        assert!(sgs[2].edges.iter().all(|e| sgs[2].nodes[e.dst as usize] != EntityId(3)));
        let into_8 = |r: usize| {
            let sg = &sgs[3];
            let dst_8 = sg.nodes.iter().position(|&v| v == EntityId(8)).expect("node 8") as u32;
            sg.edges.iter().filter(|e| e.dst == dst_8 && e.rel.index() == r).count()
        };
        assert_eq!((into_8(0), into_8(1)), (3, 1));

        for num_bases in [None, Some(2)] {
            let mut rng = ChaCha8Rng::seed_from_u64(23);
            let mut ps = ParamStore::new();
            let enc = SubgraphEncoder::new(
                SubgraphEncoderConfig { num_bases, ..tiny_cfg() },
                "gsm",
                &mut ps,
                &mut rng,
            );
            assert_batched_matches_tape(&enc, &ps, &sgs);

            // Signed zeros: W_self zeroed and the bias at -0.0 make every
            // self term the sum `+0.0 + -0.0`, so message-free rows are
            // exact zeros, and their sign bits must match the tape's.
            // (No f32 kernel here yields a `-0.0` self term: matmul sums
            // start from `+0.0`.)
            let ids: Vec<_> = ps
                .iter()
                .filter(|(_, name, _)| name.ends_with(".w_self") || name.ends_with(".bias"))
                .map(|(id, name, _)| (id, name.ends_with(".bias")))
                .collect();
            for (id, is_bias) in ids {
                let fill = if is_bias { -0.0 } else { 0.0 };
                ps.get_mut(id).data_mut().fill(fill);
            }
            assert_batched_matches_tape(&enc, &ps, &sgs);
        }
    }

    #[test]
    fn batched_workspace_reuse_is_stable() {
        // Re-running with a dirty workspace (larger previous batch,
        // different relation mix) must not leak state between calls.
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut ps = ParamStore::new();
        let enc = SubgraphEncoder::new(tiny_cfg(), "gsm", &mut ps, &mut rng);
        let sgs = mixed_subgraphs();
        let mut ws = BatchedEncodeWorkspace::new();
        let big = dekg_kg::BatchedSubgraphs::pack(&sgs);
        enc.encode_inference_batched(&ps, &big, &mut ws);
        let first = ws.graph.clone();
        // A smaller batch, then the big one again.
        let small = dekg_kg::BatchedSubgraphs::pack(&sgs[2..3]);
        enc.encode_inference_batched(&ps, &small, &mut ws);
        enc.encode_inference_batched(&ps, &big, &mut ws);
        assert_eq!(ws.graph, first);
    }

    #[test]
    fn paper_defaults_sane() {
        let cfg = SubgraphEncoderConfig::paper_defaults(14);
        assert_eq!(cfg.dim, 32);
        assert_eq!(cfg.hops, 2);
        assert_eq!(cfg.layers, 3);
        assert_eq!(cfg.edge_dropout, 0.5);
    }

    #[test]
    fn graph_embedding_is_node_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let enc = SubgraphEncoder::new(tiny_cfg(), "gsm", &mut ps, &mut rng);
        let sg = chain_subgraph();
        let mut g = Graph::new();
        let out = enc.encode(&mut g, &ps, &sg, false, &mut rng);
        let nodes = g.value(out.nodes).clone();
        let graph = g.value(out.graph).clone();
        let n = sg.num_nodes();
        for d in 0..8 {
            let mean: f32 = (0..n).map(|u| nodes.at(&[u, d])).sum::<f32>() / n as f32;
            assert!((mean - graph.at(&[0, d])).abs() < 1e-5);
        }
    }
}
