//! One R-GCN layer with GraIL-style edge attention.
//!
//! Per layer `l` (Eq. 8–9 of the paper):
//!
//! ```text
//! a_i = Σ_{r} Σ_{s ∈ N_r(i)}  α_{s,r,i} · W_r · h_s      (AGGREGATE)
//! h_i = relu( W_self · h_i + a_i + b )                    (COMBINE)
//! ```
//!
//! with `α = sigmoid(w_att · [h_s ⊕ h_t ⊕ q_r])` the per-edge attention
//! over source embedding, destination embedding and a per-relation
//! attention embedding `q_r`.
//!
//! Per-relation weights may optionally use basis decomposition
//! (Schlichtkrull et al., 2018): `W_r = Σ_b a_{rb} V_b` — the
//! `num_bases` knob in [`RgcnLayerConfig`], exercised by the ablation
//! benches.
//!
//! On the autograd tape one layer over one subgraph records a fixed
//! number of ops whatever the relation count: one gather of the source
//! embeddings shared by messages and attention, one block-row
//! [`Graph::rel_matmul`] computing every edge's `W_r · h_s` against a
//! stack of relation weights (with bases, one `[U, B] · [B, in·out]`
//! matmul first composes the U relations the subgraph uses), one
//! attention matmul, and one scatter and one add for the aggregate.

use dekg_kg::{BatchedSubgraphs, Subgraph};
use dekg_tensor::{init, kernels, Graph, ParamId, ParamStore, Tensor, Var};
use rand::Rng;

/// Surviving edge indices ordered by (relation id, edge id) — the
/// order every tape aggregation runs in (and the batched forward
/// reproduces per segment). The sort is stable, so each relation's
/// edges keep their subgraph order.
fn edges_by_relation(sg: &Subgraph, edge_keep: Option<&[bool]>) -> Vec<usize> {
    let mut ids: Vec<usize> =
        (0..sg.num_edges()).filter(|&i| edge_keep.map_or(true, |m| m[i])).collect();
    ids.sort_by_key(|&i| sg.edges[i].rel.index());
    ids
}

/// Configuration for one layer.
#[derive(Debug, Clone)]
pub struct RgcnLayerConfig {
    /// Number of relations in the shared space.
    pub num_relations: usize,
    /// Input embedding width.
    pub in_dim: usize,
    /// Output embedding width.
    pub out_dim: usize,
    /// Width of the per-relation attention embedding `q_r`.
    pub attn_dim: usize,
    /// `Some(b)` enables basis decomposition with `b` bases.
    pub num_bases: Option<usize>,
}

/// A single message-passing layer with registered parameters.
#[derive(Debug, Clone)]
pub struct RgcnLayer {
    cfg: RgcnLayerConfig,
    /// Either the full stack `[R * in, out]`, or with bases the pair
    /// (`coeffs [R, B]`, `bases [B, in * out]`).
    rel_weights: RelWeights,
    w_self: ParamId,
    bias: ParamId,
    attn_embed: ParamId,
    w_attn: ParamId,
}

#[derive(Debug, Clone)]
enum RelWeights {
    Full(ParamId),
    Bases { coeffs: ParamId, bases: ParamId },
}

impl RgcnLayer {
    /// Registers the layer's parameters into `params` under `prefix`.
    ///
    /// # Panics
    /// If any dimension is zero or `num_bases == Some(0)`.
    pub fn new(
        cfg: RgcnLayerConfig,
        prefix: &str,
        params: &mut ParamStore,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(cfg.num_relations > 0 && cfg.in_dim > 0 && cfg.out_dim > 0 && cfg.attn_dim > 0);
        let rel_weights = match cfg.num_bases {
            None => RelWeights::Full(params.insert(
                format!("{prefix}.w_rel"),
                init::xavier_uniform([cfg.num_relations * cfg.in_dim, cfg.out_dim], rng),
            )),
            Some(b) => {
                assert!(b > 0, "num_bases must be positive");
                RelWeights::Bases {
                    coeffs: params.insert(
                        format!("{prefix}.basis_coeffs"),
                        init::xavier_uniform([cfg.num_relations, b], rng),
                    ),
                    bases: params.insert(
                        format!("{prefix}.bases"),
                        init::xavier_uniform([b, cfg.in_dim * cfg.out_dim], rng),
                    ),
                }
            }
        };
        let w_self = params.insert(
            format!("{prefix}.w_self"),
            init::xavier_uniform([cfg.in_dim, cfg.out_dim], rng),
        );
        let bias = params.insert(format!("{prefix}.bias"), Tensor::zeros([cfg.out_dim]));
        let attn_embed = params.insert(
            format!("{prefix}.attn_embed"),
            init::xavier_uniform([cfg.num_relations, cfg.attn_dim], rng),
        );
        let w_attn = params.insert(
            format!("{prefix}.w_attn"),
            init::xavier_uniform([2 * cfg.in_dim + cfg.attn_dim, 1], rng),
        );
        RgcnLayer { cfg, rel_weights, w_self, bias, attn_embed, w_attn }
    }

    /// The layer configuration.
    pub fn config(&self) -> &RgcnLayerConfig {
        &self.cfg
    }

    /// Mounts the layer's parameters onto a tape once, so many
    /// subgraphs can share them (batched scoring). The mounted handles
    /// are only valid for `g`.
    pub fn mount(&self, g: &mut Graph, params: &ParamStore) -> MountedRgcnLayer {
        MountedRgcnLayer {
            w_self: g.param(params, self.w_self),
            bias: g.param(params, self.bias),
            attn_embed: g.param(params, self.attn_embed),
            w_attn: g.param(params, self.w_attn),
            rel_weights: match &self.rel_weights {
                RelWeights::Full(w) => MountedRelWeights::Full(g.param(params, *w)),
                RelWeights::Bases { coeffs, bases } => MountedRelWeights::Bases {
                    coeffs: g.param(params, *coeffs),
                    bases: g.param(params, *bases),
                },
            },
        }
    }

    /// Runs the layer over `sg` given node embeddings `h [n, in_dim]`,
    /// returning `[n, out_dim]`.
    ///
    /// `edge_keep` optionally masks edges (edge dropout): edges whose
    /// slot is `false` send no message this pass.
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &ParamStore,
        sg: &Subgraph,
        h: Var,
        edge_keep: Option<&[bool]>,
    ) -> Var {
        let mounted = self.mount(g, params);
        self.forward_mounted(g, &mounted, sg, h, edge_keep)
    }

    /// Like [`RgcnLayer::forward`] but reusing pre-mounted parameters.
    pub fn forward_mounted(
        &self,
        g: &mut Graph,
        mounted: &MountedRgcnLayer,
        sg: &Subgraph,
        h: Var,
        edge_keep: Option<&[bool]>,
    ) -> Var {
        let _span = dekg_obs::span!("rgcn_layer");
        let n = sg.num_nodes();
        let (h_rows, in_dim) = g.shape(h).as_matrix();
        assert_eq!(h_rows, n, "embedding row count must match subgraph nodes");
        assert_eq!(in_dim, self.cfg.in_dim, "embedding width mismatch");
        if let Some(mask) = edge_keep {
            assert_eq!(mask.len(), sg.num_edges(), "edge mask length mismatch");
        }

        let self_msg = g.matmul(h, mounted.w_self);
        let bias_b = g.broadcast_row(mounted.bias, n);
        let acc = g.add(self_msg, bias_b);

        let edge_ids = edges_by_relation(sg, edge_keep);
        if edge_ids.is_empty() {
            // No message reaches any node: the self term stands alone,
            // with no empty gather, scatter or add on the tape.
            return g.relu(acc);
        }
        let srcs: Vec<usize> = edge_ids.iter().map(|&i| sg.edges[i].src as usize).collect();
        let dsts: Vec<usize> = edge_ids.iter().map(|&i| sg.edges[i].dst as usize).collect();
        let rels: Vec<usize> = edge_ids.iter().map(|&i| sg.edges[i].rel.index()).collect();

        // Messages W_r · h_s for every edge in one block-row matmul over
        // a stack of `[in, out]` relation weights. With full weights the
        // stack is the parameter itself and an edge's block is its
        // relation id. With bases, only the U relations this subgraph
        // uses are composed, in one `[U, B] · [B, in·out]` matmul whose
        // row u is `W_{used[u]}` flattened, and an edge's block is its
        // relation's position in `used`.
        let h_src = g.gather_rows(h, &srcs);
        let msgs = match mounted.rel_weights {
            MountedRelWeights::Full(all) => g.rel_matmul(h_src, all, &rels),
            MountedRelWeights::Bases { coeffs, bases } => {
                let mut used = rels.clone();
                used.dedup(); // rels is sorted: one entry per relation
                let blocks: Vec<usize> =
                    rels.iter().map(|r| used.partition_point(|u| u < r)).collect();
                let c = g.gather_rows(coeffs, &used); // [U, B]
                let flat = g.matmul(c, bases); // [U, in*out]
                let stack = g.reshape(flat, [used.len() * self.cfg.in_dim, self.cfg.out_dim]);
                g.rel_matmul(h_src, stack, &blocks)
            }
        }; // [E, out]

        // Attention for every edge at once: sigmoid([h_s ⊕ h_t ⊕ q_r] · w_att).
        let h_dst = g.gather_rows(h, &dsts);
        let q = g.gather_rows(mounted.attn_embed, &rels);
        let att_in = g.concat_cols(&[h_src, h_dst, q]);
        let att_logit = g.matmul(att_in, mounted.w_attn); // [E, 1]
        let att = g.sigmoid(att_logit);
        let ones_row = g.constant(Tensor::ones([1, self.cfg.out_dim]));
        let att_wide = g.matmul(att, ones_row); // [E, out]

        // AGGREGATE as one sum: a single scatter and a single add.
        let weighted = g.mul(msgs, att_wide);
        let agg = g.scatter_add_rows(weighted, &dsts, n);
        let acc = g.add(acc, agg);
        g.relu(acc)
    }

    /// Forward-only evaluation of the layer over a block-diagonal batch
    /// of subgraphs: no tape, no dropout. Bitwise identical, segment by
    /// segment, to [`RgcnLayer::forward_mounted`] with
    /// `edge_keep = None` on each subgraph — that identity is what lets
    /// evaluation take this path while training keeps the autograd
    /// tape.
    ///
    /// Why the identity holds, kernel by kernel:
    ///
    /// * every matmul here and on the tape is one `kernels::matmul`.
    ///   Whichever register path its shape selects (eight row chains for
    ///   the `n = 1` logits, a 32-wide register row for messages, the
    ///   self term and the basis composition), each element gets the
    ///   scalar loop's additions in the scalar loop's order, so a row's
    ///   bits depend on that row of `a` and on `b` alone: not on how many
    ///   rows share the call, nor on whether the row lands in a full
    ///   eight-row group or the remainder;
    /// * the self term is either one big `matmul` (whose rows are
    ///   computed independently, so packing rows changes nothing) or,
    ///   for the one-hot label features of layer 0, a row gather
    ///   implemented as `0 + w_row` adds in ascending one-hot column
    ///   order — exactly the FLOPs the zero-skip `matmul` performs on a
    ///   one-hot row (`labels` selects this);
    /// * per relation group, messages and attention logits for all
    ///   segments' edges run as one packed matmul each. Matmul rows are
    ///   independent, so each edge's message and logit equal the tape's.
    ///   The tape's `rel_matmul` runs one matmul per run of equal
    ///   relations against that relation's `[in, out]` block, and one
    ///   matmul computes the logits for all of a subgraph's edges;
    /// * with bases, `W_r` here is the `[1, B] · [B, in·out]` product of
    ///   row `r` of the coefficients. The tape composes all used
    ///   relations in one `[U, B]` matmul, whose row for `r` is computed
    ///   by exactly the same loop, so each block has the same bits;
    /// * `agg` is zeroed once and every group scatters into it, groups in
    ///   global ascending relation order, edges within a group in
    ///   (segment, edge id) order. Restricted to one destination row,
    ///   that is the tape's (relation, edge id) order, so each row of
    ///   `agg` is the same left-to-right sum `0 + m_1·a_1 + m_2·a_2 + …`
    ///   as the tape's single `scatter_add_rows`;
    /// * `agg` is added to the self term once, and only to the rows of
    ///   segments with at least one edge — exactly where the tape records
    ///   its add (it records none for an edgeless subgraph). In a segment
    ///   with edges every row gets the add, zero rows included, as on the
    ///   tape, so even the sign of a zero follows the tape's op sequence;
    /// * each message is scaled by its attention weight directly, where
    ///   the tape first widens the weight with a ones-matmul — `x * 1.0`
    ///   is exact in f32, so the products are bit-equal.
    ///
    /// `h` is the packed `[total_nodes, in_dim]` input; the output is
    /// written into `out` (resized, no allocation in the steady state).
    /// `labels` carries each packed node's `(d_head, d_tail)` pair and
    /// must be `Some` exactly when `h` is the layer-0 one-hot feature
    /// matrix.
    pub fn forward_inference_batched(
        &self,
        params: &ParamStore,
        batch: &BatchedSubgraphs<'_>,
        h: &[f32],
        labels: Option<&[(i32, i32)]>,
        out: &mut Vec<f32>,
        scratch: &mut BatchedLayerScratch,
    ) {
        let _span = dekg_obs::span!("rgcn_layer_inference");
        let n = batch.total_nodes();
        let in_dim = self.cfg.in_dim;
        let out_dim = self.cfg.out_dim;
        let attn_dim = self.cfg.attn_dim;
        debug_assert_eq!(h.len(), n * in_dim, "packed embedding shape mismatch");
        let w_self = params.get(self.w_self).data();
        let bias = params.get(self.bias).data();
        let attn_embed = params.get(self.attn_embed);
        let w_attn = params.get(self.w_attn).data();

        // Self term: acc = h · W_self (+ bias per row below).
        out.resize(n * out_dim, 0.0);
        match labels {
            None => kernels::matmul(h, w_self, out, n, in_dim, out_dim),
            Some(lbl) => {
                // One-hot gather: replicate the zero-skip matmul's work
                // on a one-hot row — zero the row, then += the selected
                // W_self rows in ascending column order (the head block
                // precedes the tail block).
                debug_assert_eq!(lbl.len(), n, "label count mismatch");
                let width = in_dim / 2;
                for (row, &(dh, dt)) in out.chunks_exact_mut(out_dim).zip(lbl) {
                    row.fill(0.0);
                    if dh >= 0 {
                        kernels::add_assign(row, &w_self[dh as usize * out_dim..][..out_dim]);
                    }
                    if dt >= 0 {
                        let p = width + dt as usize;
                        kernels::add_assign(row, &w_self[p * out_dim..][..out_dim]);
                    }
                }
            }
        }
        for row in out.chunks_exact_mut(out_dim) {
            for (x, &b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }

        let att_width = 2 * in_dim + attn_dim;
        scratch.agg.clear();
        scratch.agg.resize(n * out_dim, 0.0);
        for group in batch.by_rel() {
            let rel = group.rel;
            let n_e = group.srcs.len();
            let w_r: &[f32] = match &self.rel_weights {
                // The tape's rel_matmul reads block `rel` of the full
                // stack: rows rel*in..(rel+1)*in, this very slice.
                RelWeights::Full(all) => {
                    let stacked = params.get(*all).data();
                    &stacked[rel * in_dim * out_dim..(rel + 1) * in_dim * out_dim]
                }
                RelWeights::Bases { coeffs, bases } => {
                    let c = params.get(*coeffs);
                    let num_bases = c.shape().as_matrix().1;
                    scratch.w_r.resize(in_dim * out_dim, 0.0);
                    kernels::matmul(
                        c.row(rel),
                        params.get(*bases).data(),
                        &mut scratch.w_r,
                        1,
                        num_bases,
                        in_dim * out_dim,
                    );
                    &scratch.w_r
                }
            };

            // Gather h_src and assemble [h_s ⊕ h_t ⊕ q_r] per edge,
            // across all participating segments at once.
            scratch.h_src.resize(n_e * in_dim, 0.0);
            scratch.att_in.resize(n_e * att_width, 0.0);
            let q_r = attn_embed.row(rel);
            for (row, (&s, &d)) in group.srcs.iter().zip(&group.dsts).enumerate() {
                let (s, d) = (s as usize, d as usize);
                scratch.h_src[row * in_dim..(row + 1) * in_dim]
                    .copy_from_slice(&h[s * in_dim..(s + 1) * in_dim]);
                let cat = &mut scratch.att_in[row * att_width..(row + 1) * att_width];
                cat[..in_dim].copy_from_slice(&h[s * in_dim..(s + 1) * in_dim]);
                cat[in_dim..2 * in_dim].copy_from_slice(&h[d * in_dim..(d + 1) * in_dim]);
                cat[2 * in_dim..].copy_from_slice(q_r);
            }

            scratch.msgs.resize(n_e * out_dim, 0.0);
            kernels::matmul(&scratch.h_src, w_r, &mut scratch.msgs, n_e, in_dim, out_dim);
            scratch.att.resize(n_e, 0.0);
            kernels::matmul(&scratch.att_in, w_attn, &mut scratch.att, n_e, att_width, 1);
            for a in &mut scratch.att {
                *a = 1.0 / (1.0 + (-*a).exp());
            }

            for (row, &d) in group.dsts.iter().enumerate() {
                let d = d as usize;
                let a = scratch.att[row];
                let dst_row = &mut scratch.agg[d * out_dim..(d + 1) * out_dim];
                for (x, &m) in
                    dst_row.iter_mut().zip(&scratch.msgs[row * out_dim..(row + 1) * out_dim])
                {
                    *x += m * a;
                }
            }
        }

        for (i, sg) in batch.graphs().iter().enumerate() {
            if sg.num_edges() > 0 {
                let r = batch.segment(i);
                kernels::add_assign(
                    &mut out[r.start * out_dim..r.end * out_dim],
                    &scratch.agg[r.start * out_dim..r.end * out_dim],
                );
            }
        }

        for x in out.iter_mut() {
            *x = x.max(0.0);
        }
    }
}

/// Parameter handles of one layer mounted on a specific tape — see
/// [`RgcnLayer::mount`].
#[derive(Debug, Clone, Copy)]
pub struct MountedRgcnLayer {
    w_self: Var,
    bias: Var,
    attn_embed: Var,
    w_attn: Var,
    rel_weights: MountedRelWeights,
}

#[derive(Debug, Clone, Copy)]
enum MountedRelWeights {
    Full(Var),
    Bases { coeffs: Var, bases: Var },
}

/// Reusable buffers for [`RgcnLayer::forward_inference_batched`]: every
/// per-relation intermediate (gathered sources, attention input,
/// messages, logits and the composed basis weight) plus the layer's
/// scatter target. Buffers grow to the high-water mark and are then
/// reused — zero allocations in the steady state.
#[derive(Debug, Default, Clone)]
pub struct BatchedLayerScratch {
    h_src: Vec<f32>,
    att_in: Vec<f32>,
    msgs: Vec<f32>,
    att: Vec<f32>,
    agg: Vec<f32>,
    w_r: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dekg_kg::{Adjacency, EntityId, ExtractionMode, SubgraphExtractor, Triple, TripleStore};
    use dekg_tensor::optim::{Optimizer, Sgd};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_subgraph() -> Subgraph {
        // 0 -> 1 (r0), 1 -> 2 (r1), 2 -> 0 (r0); extract around (0, 2).
        let store = TripleStore::from_triples([
            Triple::from_raw(0, 0, 1),
            Triple::from_raw(1, 1, 2),
            Triple::from_raw(2, 0, 0),
        ]);
        let adj = Adjacency::from_store(&store, 3);
        SubgraphExtractor::new(&adj, 2, ExtractionMode::Union).extract(
            EntityId(0),
            EntityId(2),
            None,
        )
    }

    fn cfg(bases: Option<usize>) -> RgcnLayerConfig {
        RgcnLayerConfig { num_relations: 2, in_dim: 4, out_dim: 3, attn_dim: 2, num_bases: bases }
    }

    #[test]
    fn forward_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let layer = RgcnLayer::new(cfg(None), "l0", &mut ps, &mut rng);
        let sg = toy_subgraph();
        let mut g = Graph::new();
        let h = g.constant(init::normal([sg.num_nodes(), 4], 0.0, 1.0, &mut rng));
        let out = layer.forward(&mut g, &ps, &sg, h, None);
        assert_eq!(g.shape(out).dims(), &[sg.num_nodes(), 3]);
        assert!(!g.value(out).has_non_finite());
    }

    #[test]
    fn forward_with_bases_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let layer = RgcnLayer::new(cfg(Some(2)), "l0", &mut ps, &mut rng);
        let sg = toy_subgraph();
        let mut g = Graph::new();
        let h = g.constant(init::normal([sg.num_nodes(), 4], 0.0, 1.0, &mut rng));
        let out = layer.forward(&mut g, &ps, &sg, h, None);
        assert_eq!(g.shape(out).dims(), &[sg.num_nodes(), 3]);
    }

    #[test]
    fn bases_reduce_parameter_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut full = ParamStore::new();
        let big = RgcnLayerConfig {
            num_relations: 50,
            in_dim: 8,
            out_dim: 8,
            attn_dim: 4,
            num_bases: None,
        };
        RgcnLayer::new(big.clone(), "l", &mut full, &mut rng);
        let mut based = ParamStore::new();
        RgcnLayer::new(RgcnLayerConfig { num_bases: Some(4), ..big }, "l", &mut based, &mut rng);
        assert!(based.num_scalars() < full.num_scalars());
    }

    #[test]
    fn empty_edge_subgraph_still_works() {
        // Bridging link between two isolated entities.
        let store = TripleStore::from_triples([Triple::from_raw(3, 0, 4)]);
        let adj = Adjacency::from_store(&store, 5);
        let sg = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union).extract(
            EntityId(0),
            EntityId(1),
            None,
        );
        assert_eq!(sg.num_edges(), 0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let layer = RgcnLayer::new(cfg(None), "l0", &mut ps, &mut rng);
        let mut g = Graph::new();
        let h = g.constant(Tensor::ones([2, 4]));
        let out = layer.forward(&mut g, &ps, &sg, h, None);
        assert_eq!(g.shape(out).dims(), &[2, 3]);
    }

    #[test]
    fn edge_mask_blocks_messages() {
        let sg = toy_subgraph();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut ps = ParamStore::new();
        let layer = RgcnLayer::new(cfg(None), "l0", &mut ps, &mut rng);

        let mut g_all = Graph::new();
        let h1 = g_all.constant(Tensor::ones([sg.num_nodes(), 4]));
        let out_all = layer.forward(&mut g_all, &ps, &sg, h1, None);

        let mut g_none = Graph::new();
        let h2 = g_none.constant(Tensor::ones([sg.num_nodes(), 4]));
        let mask = vec![false; sg.num_edges()];
        let out_none = layer.forward(&mut g_none, &ps, &sg, h2, Some(&mask));

        // Some coordinate must differ once messages are suppressed.
        assert_ne!(g_all.value(out_all).data(), g_none.value(out_none).data());
    }

    #[test]
    fn layer_gradients_match_central_differences() {
        // Numerical gradient check through the full layer (attention,
        // block-row message matmul, scatter aggregation, relu) for every
        // parameter scalar of a tiny configuration.
        let sg = toy_subgraph();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let small = RgcnLayerConfig {
            num_relations: 2,
            in_dim: 2,
            out_dim: 2,
            attn_dim: 2,
            num_bases: None,
        };
        let mut ps = ParamStore::new();
        let layer = RgcnLayer::new(small, "l", &mut ps, &mut rng);
        let feats = init::normal([sg.num_nodes(), 2], 0.0, 1.0, &mut rng);

        let loss_of = |ps: &ParamStore| -> (f32, dekg_tensor::GradStore) {
            let mut g = Graph::new();
            let h = g.constant(feats.clone());
            let out = layer.forward(&mut g, ps, &sg, h, None);
            let sq = g.square(out);
            let loss = g.sum_all(sq);
            let grads = g.backward(loss);
            (g.value(loss).item(), grads)
        };
        let (_, analytic) = loss_of(&ps);

        let eps = 1e-3f32;
        let ids: Vec<_> = ps.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            let n = ps.get(id).numel();
            for i in 0..n {
                let orig = ps.get(id).data()[i];
                ps.get_mut(id).data_mut()[i] = orig + eps;
                let (fp, _) = loss_of(&ps);
                ps.get_mut(id).data_mut()[i] = orig - eps;
                let (fm, _) = loss_of(&ps);
                ps.get_mut(id).data_mut()[i] = orig;
                let numeric = (fp - fm) / (2.0 * eps);
                let a = analytic.get(id).map_or(0.0, |g| g.data()[i]);
                // relu kinks make a few coordinates noisy; tolerate a
                // generous relative error but catch sign/major errors.
                assert!(
                    (numeric - a).abs() < 5e-2 * (1.0 + numeric.abs().max(a.abs())),
                    "param {} [{i}]: numeric {numeric} vs analytic {a}",
                    ps.name_of(id)
                );
            }
        }
    }

    #[test]
    fn shared_relation_gradients_match_central_differences() {
        // Two subgraphs on one tape, both using relations 0 and 1 through
        // one mounting: every shared parameter's gradient sums both
        // subgraphs' fused aggregations (and the sparse GatherRows
        // backward adds into an already-filled slot). Checked against
        // central differences for both weight layouts, with an edge mask
        // on the second subgraph.
        let first = toy_subgraph();
        let store = TripleStore::from_triples([
            Triple::from_raw(0, 1, 1),
            Triple::from_raw(1, 0, 2),
            Triple::from_raw(2, 1, 3),
            Triple::from_raw(0, 0, 3),
        ]);
        let adj = Adjacency::from_store(&store, 4);
        let second = SubgraphExtractor::new(&adj, 2, ExtractionMode::Union).extract(
            EntityId(0),
            EntityId(3),
            None,
        );
        let mut mask = vec![true; second.num_edges()];
        mask[0] = false;
        for num_bases in [None, Some(2)] {
            let mut rng = ChaCha8Rng::seed_from_u64(100);
            let small =
                RgcnLayerConfig { num_relations: 2, in_dim: 2, out_dim: 2, attn_dim: 2, num_bases };
            let mut ps = ParamStore::new();
            let layer = RgcnLayer::new(small, "l", &mut ps, &mut rng);
            let feats_a = init::normal([first.num_nodes(), 2], 0.0, 1.0, &mut rng);
            let feats_b = init::normal([second.num_nodes(), 2], 0.0, 1.0, &mut rng);

            let loss_of = |ps: &ParamStore| -> (f32, dekg_tensor::GradStore) {
                let mut g = Graph::new();
                let mounted = layer.mount(&mut g, ps);
                let ha = g.constant(feats_a.clone());
                let hb = g.constant(feats_b.clone());
                let out_a = layer.forward_mounted(&mut g, &mounted, &first, ha, None);
                let out_b = layer.forward_mounted(&mut g, &mounted, &second, hb, Some(&mask));
                let sq_a = g.square(out_a);
                let sq_b = g.square(out_b);
                let la = g.sum_all(sq_a);
                let lb = g.sum_all(sq_b);
                let loss = g.add(la, lb);
                let grads = g.backward(loss);
                (g.value(loss).item(), grads)
            };
            let (_, analytic) = loss_of(&ps);

            let eps = 1e-3f32;
            let ids: Vec<_> = ps.iter().map(|(id, _, _)| id).collect();
            for id in ids {
                for i in 0..ps.get(id).numel() {
                    let orig = ps.get(id).data()[i];
                    ps.get_mut(id).data_mut()[i] = orig + eps;
                    let (fp, _) = loss_of(&ps);
                    ps.get_mut(id).data_mut()[i] = orig - eps;
                    let (fm, _) = loss_of(&ps);
                    ps.get_mut(id).data_mut()[i] = orig;
                    let numeric = (fp - fm) / (2.0 * eps);
                    let a = analytic.get(id).map_or(0.0, |g| g.data()[i]);
                    assert!(
                        (numeric - a).abs() < 5e-2 * (1.0 + numeric.abs().max(a.abs())),
                        "{num_bases:?} param {} [{i}]: numeric {numeric} vs analytic {a}",
                        ps.name_of(id)
                    );
                }
            }
        }
    }

    #[test]
    fn gradients_flow_and_training_reduces_loss() {
        let sg = toy_subgraph();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut ps = ParamStore::new();
        let layer = RgcnLayer::new(cfg(None), "l0", &mut ps, &mut rng);
        let feats = init::normal([sg.num_nodes(), 4], 0.0, 1.0, &mut rng);
        let target = Tensor::full([sg.num_nodes(), 3], 0.5);
        let mut opt = Sgd::new(0.05);

        let loss_at = |ps: &ParamStore| {
            let mut g = Graph::new();
            let h = g.constant(feats.clone());
            let out = layer.forward(&mut g, ps, &sg, h, None);
            let t = g.constant(target.clone());
            let d = g.sub(out, t);
            let sq = g.square(d);
            let loss = g.mean_all(sq);
            (g.value(loss).item(), g.backward(loss))
        };

        let (initial, _) = loss_at(&ps);
        for _ in 0..60 {
            let (_, grads) = loss_at(&ps);
            assert!(!grads.is_empty(), "layer parameters must receive gradients");
            opt.step(&mut ps, &grads);
        }
        let (fin, _) = loss_at(&ps);
        assert!(fin < initial * 0.7, "loss should drop: {initial} -> {fin}");
    }
}
