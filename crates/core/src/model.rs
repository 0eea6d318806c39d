//! The combined DEKG-ILP model (Eq. 13) and its [`LinkPredictor`] /
//! [`TrainableModel`] implementations.

use crate::clrm::Clrm;
use crate::config::DekgIlpConfig;
use crate::gsm::{Gsm, InferenceWorkspace};
use crate::traits::{InferenceGraph, LinkPredictor, TrainReport, TrainableModel};
use dekg_datasets::DekgDataset;
use dekg_gnn::SubgraphEncoderConfig;
use dekg_kg::{BatchedSubgraphs, Subgraph, SubgraphExtractor, Triple};
use dekg_tensor::{Graph, ParamStore};
use rand::{RngCore, SeedableRng};
use std::cell::RefCell;
use std::sync::OnceLock;

/// The structure the batched engine detects in a score batch. Ranking
/// queries produced by the eval protocol always share the
/// non-predicted slots: `[truth, candidates…]` of a tail query share
/// the head, of a head query the tail, of a relation query both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryShape {
    /// All triples share head *and* tail — one extraction serves all.
    FixedPair,
    /// All triples share the head; candidates vary the tail.
    FixedHead,
    /// All triples share the tail; candidates vary the head.
    FixedTail,
    /// No shared endpoint (training probes, serve `score` requests):
    /// packed like an entity query, minus the BFS reuse.
    Mixed,
}

impl QueryShape {
    fn detect(triples: &[Triple]) -> QueryShape {
        let h0 = triples[0].head;
        let t0 = triples[0].tail;
        let all_h = triples.iter().all(|t| t.head == h0);
        let all_t = triples.iter().all(|t| t.tail == t0);
        match (all_h, all_t) {
            (true, true) => QueryShape::FixedPair,
            (true, false) => QueryShape::FixedHead,
            (false, true) => QueryShape::FixedTail,
            (false, false) => QueryShape::Mixed,
        }
    }
}

/// Handles for the batched-engine metrics. `batch_nodes` observes the
/// packed node total once per `score_batch` call, Mixed batches
/// included (summed across chunks, so the recorded value is invariant
/// to the batch-size knob and thread count); the cache counters tally
/// per-candidate BFS reuse on entity queries.
struct BatchedObs {
    bfs_cache_hits: dekg_obs::metrics::Counter,
    bfs_cache_misses: dekg_obs::metrics::Counter,
    batch_nodes: dekg_obs::metrics::Histogram,
}

fn batched_obs() -> &'static BatchedObs {
    static OBS: OnceLock<BatchedObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = dekg_obs::metrics::global();
        BatchedObs {
            bfs_cache_hits: reg.counter("dekg_eval_bfs_cache_hits_total"),
            bfs_cache_misses: reg.counter("dekg_eval_bfs_cache_misses_total"),
            batch_nodes: reg
                .histogram("dekg_eval_batch_nodes", &[16, 64, 256, 1024, 4096, 16384, 65536]),
        }
    })
}

thread_local! {
    /// Per-worker scoring workspace. The rayon shim spawns scoped threads
    /// per parallel map, so it stays warm within one `evaluate` pass's
    /// worker (inside it, nested maps run inline) and across a serve
    /// worker's requests (each worker runs on its own thread); there,
    /// steady-state batched scoring is allocation-free.
    static WORKSPACE: RefCell<InferenceWorkspace> = RefCell::new(InferenceWorkspace::new());
}

/// DEKG-ILP: CLRM ⊕ GSM.
///
/// Construct with [`DekgIlp::new`], train with
/// [`TrainableModel::fit`], score with [`LinkPredictor::score_batch`].
/// Ablation variants are selected through
/// [`DekgIlpConfig::ablation`].
#[derive(Debug)]
pub struct DekgIlp {
    cfg: DekgIlpConfig,
    params: ParamStore,
    /// `None` under the `-R` ablation (no semantic module at all).
    clrm: Option<Clrm>,
    gsm: Gsm,
    num_relations: usize,
    /// Candidates packed per block-diagonal batch. Scores are
    /// bitwise-invariant to this knob (a tested invariant); it only
    /// trades peak memory against packing amortization.
    eval_batch: usize,
}

impl DekgIlp {
    /// Allocates a model sized for `dataset`'s relation space.
    ///
    /// # Panics
    /// If the config fails [`DekgIlpConfig::validate`].
    pub fn new(cfg: DekgIlpConfig, dataset: &DekgDataset, mut rng: &mut dyn RngCore) -> Self {
        cfg.validate();
        let num_relations = dataset.num_relations;
        let mut params = ParamStore::new();
        let clrm = cfg
            .ablation
            .use_semantic
            .then(|| Clrm::new(num_relations, cfg.dim, "clrm", &mut params, &mut rng));
        let gsm = Gsm::new(
            SubgraphEncoderConfig {
                num_relations,
                hops: cfg.hops,
                dim: cfg.dim,
                layers: cfg.gnn_layers,
                attn_dim: cfg.attn_dim,
                edge_dropout: cfg.edge_dropout,
                labeling: cfg.labeling_mode(),
                num_bases: cfg.num_bases,
            },
            "gsm",
            &mut params,
            &mut rng,
        );
        DekgIlp { cfg, params, clrm, gsm, num_relations, eval_batch: 64 }
    }

    /// Candidates packed per block-diagonal batch.
    pub fn eval_batch(&self) -> usize {
        self.eval_batch
    }

    /// Scores a pre-packed batch through the GSM into a caller-owned
    /// workspace — the batched engine's inner loop with the extraction,
    /// packing and thread-dispatch layers peeled off. This is the entry
    /// point the allocation sanitizer drives (`perf --alloc-check`):
    /// once `ws` and `out` are warm, repeated calls must not touch the
    /// heap. Scores match [`LinkPredictor::score_batch`] bitwise.
    pub fn score_packed(
        &self,
        batch: &BatchedSubgraphs<'_>,
        rels: &[dekg_kg::RelationId],
        ws: &mut crate::gsm::InferenceWorkspace,
        out: &mut Vec<f32>,
    ) {
        self.gsm.score_subgraphs_batched(&self.params, batch, rels, ws, out);
    }

    /// Sets the packing size. Clamped to at least 1.
    /// Scores do not depend on this value — only peak memory and
    /// parallel grain do.
    pub fn set_eval_batch(&mut self, batch: usize) {
        self.eval_batch = batch.max(1);
    }

    /// The model configuration.
    pub fn config(&self) -> &DekgIlpConfig {
        &self.cfg
    }

    /// Mutable configuration access.
    ///
    /// Structural fields (dim, layers, hops, ablation) must not change
    /// after construction — the parameters are already allocated; the
    /// training-schedule fields (epochs, lr, σ, …) may. Used by
    /// [`crate::train::train_with_validation`] to run epoch chunks.
    pub fn config_mut(&mut self) -> &mut DekgIlpConfig {
        &mut self.cfg
    }

    /// The parameter store (for checkpointing via `dekg_tensor::serialize`).
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Mutable parameter access (training, checkpoint restore).
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.params
    }

    /// The CLRM module, when the semantic branch is enabled.
    pub fn clrm(&self) -> Option<&Clrm> {
        self.clrm.as_ref()
    }

    /// The GSM module.
    pub fn gsm(&self) -> &Gsm {
        &self.gsm
    }

    /// Relation-space size the model was built for.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Writes the model to one self-describing checkpoint file: its
    /// [`DekgIlpConfig`] as JSON in the format's meta section, then its
    /// parameters. The file lands through one atomic rename of a synced
    /// temp file, so a reader of `path` sees the previous checkpoint or
    /// this one, whole — never a torn mix, and never one save's weights
    /// with another's config.
    pub fn save_checkpoint(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let meta = serde_json::to_string(&self.cfg).map_err(std::io::Error::other)?;
        let bytes = dekg_tensor::serialize::encode(&self.params, meta.as_bytes());
        write_file_atomic(path.as_ref(), |file| std::io::Write::write_all(file, &bytes))
    }

    /// Restores parameters from a checkpoint produced by
    /// [`DekgIlp::save_checkpoint`] on a model with the same
    /// configuration and relation space. The file's own config is not
    /// consulted: its parameter set must match this model's.
    ///
    /// Every parameter is checked before any is overwritten, so a
    /// failed load leaves the model unchanged.
    ///
    /// # Errors
    /// IO failures, a corrupt checkpoint, or one whose parameter set
    /// does not match this model's (count, names or shapes — a
    /// different config, ablation or relation space).
    pub fn load_checkpoint(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
        let bytes = std::fs::read(path)?;
        let (restored, _meta) = dekg_tensor::serialize::decode(&bytes)?;
        Ok(self.install(&restored)?)
    }

    /// Rebuilds a trained model from the checkpoint file at `path`,
    /// written by [`DekgIlp::save_checkpoint`]. The file is read once;
    /// from that one buffer come the [`DekgIlpConfig`] (its meta
    /// section) and the weights, so the architecture and the parameters
    /// always come from the same save. The init RNG seed is irrelevant
    /// since every parameter is overwritten, so two restores of the
    /// same file are bitwise-identical models. This is the one entry
    /// point every consumer of a checkpoint shares (`dekg evaluate`,
    /// `dekg predict`, the `dekg serve` daemon's hot-swap path).
    ///
    /// # Errors
    /// IO failures, a corrupt checkpoint, a malformed or out-of-range
    /// config, or weights that do not match the architecture the same
    /// file's config describes (a [`CheckpointMismatch`], found before
    /// the model is allocated).
    pub fn restore(
        path: &str,
        dataset: &DekgDataset,
    ) -> Result<DekgIlp, Box<dyn std::error::Error + Send + Sync>> {
        let bytes = std::fs::read(path)?;
        let (restored, meta) = dekg_tensor::serialize::decode(&bytes)?;
        let cfg = config_from_meta(meta)?;
        // The config sets what `new` allocates: hold it against the
        // stored weights first, so a small file cannot declare a large
        // model.
        let declared: std::collections::BTreeMap<String, Vec<usize>> =
            declared_shapes(&cfg, dataset.num_relations, restored.len())?.into_iter().collect();
        check_params(&restored, declared.len(), |name| declared.get(name).map(Vec::as_slice))?;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let mut model = DekgIlp::new(cfg, dataset, &mut rng);
        model.install(&restored)?;
        Ok(model)
    }

    /// Overwrites every parameter with its namesake in `restored`,
    /// after checking the whole set (count, names, shapes) so that a
    /// mismatch changes nothing.
    fn install(&mut self, restored: &ParamStore) -> Result<(), CheckpointMismatch> {
        let params = &self.params;
        check_params(restored, params.len(), |name| {
            params.id_of(name).map(|id| params.get(id).shape().dims())
        })?;
        for (_, name, value) in restored.iter() {
            // Every name was found above.
            if let Some(id) = self.params.id_of(name) {
                *self.params.get_mut(id) = value.clone();
            }
        }
        Ok(())
    }

    /// Scores triples: φ_sem on a fresh tape plus φ_tpo through the
    /// batched engine (no dropout).
    ///
    /// Exposed for the training loop and explain tooling; external users
    /// go through [`LinkPredictor::score_batch`].
    pub(crate) fn score_internal(&self, graph: &InferenceGraph, triples: &[Triple]) -> Vec<f32> {
        if triples.is_empty() {
            return Vec::new();
        }
        let _span = dekg_obs::span!("score_batch");
        let sem = self.sem_scores(graph, triples);
        let tpo = self.tpo_batched(&self.extractor(graph), triples);
        sem.iter().zip(&tpo).map(|(s, t)| s + t).collect()
    }

    /// φ_sem for every triple, on one tape over the whole batch; zeros
    /// under the `-R` ablation.
    pub(crate) fn sem_scores(&self, graph: &InferenceGraph, triples: &[Triple]) -> Vec<f32> {
        let mut sem = vec![0.0f32; triples.len()];
        if let Some(clrm) = &self.clrm {
            let mut g = Graph::new();
            let s = clrm.score(&mut g, &self.params, &graph.tables, triples);
            sem.copy_from_slice(g.value(s).data());
        }
        sem
    }

    /// The subgraph extractor φ_tpo scoring runs on.
    pub(crate) fn extractor<'g>(&self, graph: &'g InferenceGraph) -> SubgraphExtractor<'g> {
        SubgraphExtractor::new(&graph.adjacency, self.cfg.hops, self.cfg.extraction_mode())
    }

    /// φ_tpo via the batched candidate-ranking engine.
    ///
    /// Detects the query shape, reuses a fixed endpoint's truncated BFS
    /// across candidates, packs candidate subgraphs block-diagonally
    /// (`eval_batch` per pack) and scores each pack with one forward
    /// pass through a reusable workspace. Every decision preserves
    /// bitwise equality with per-candidate tape scoring
    /// ([`crate::reference::TapeReference`]): cached BFS reuse is gated
    /// on the exact-equality condition
    /// ([`dekg_kg::QueryExtractionCache`]), the block-diagonal kernels
    /// preserve per-subgraph accumulation order, and packs are
    /// independent so chunking/threading cannot reorder float sums.
    fn tpo_batched(&self, extractor: &SubgraphExtractor<'_>, triples: &[Triple]) -> Vec<f32> {
        use rayon::prelude::*;
        let shape = QueryShape::detect(triples);
        if shape == QueryShape::FixedPair {
            // Relation query (h, ?, t): one extraction and one encode
            // serve every candidate relation.
            let sg = extractor.extract(triples[0].head, triples[0].tail, None);
            let rels: Vec<dekg_kg::RelationId> = triples.iter().map(|t| t.rel).collect();
            batched_obs().batch_nodes.observe(sg.num_nodes() as u64);
            return WORKSPACE.with(|ws| {
                let mut ws = ws.borrow_mut();
                let mut out = Vec::with_capacity(triples.len());
                self.gsm.score_subgraph_multi_rel(&self.params, &sg, &rels, &mut ws, &mut out);
                out
            });
        }
        // Entity query: one endpoint is fixed across the batch — BFS it
        // once. Mixed batches have nothing to reuse and extract plainly;
        // both fan packs out over the ambient rayon pool.
        let cache = match shape {
            QueryShape::FixedHead => Some(extractor.cache_source(triples[0].head)),
            QueryShape::FixedTail => Some(extractor.cache_source(triples[0].tail)),
            _ => None,
        };
        let chunks: Vec<&[Triple]> = triples.chunks(self.eval_batch.max(1)).collect();
        let packs: Vec<(Vec<f32>, usize, u64, u64)> = chunks
            .par_iter()
            .map(|chunk| {
                let mut hits = 0u64;
                let mut misses = 0u64;
                let subgraphs: Vec<Subgraph> = chunk
                    .iter()
                    .map(|t| match &cache {
                        Some(cache) => {
                            let (sg, hit) =
                                extractor.extract_with_cached_source(cache, t.head, t.tail, None);
                            if hit {
                                hits += 1;
                            } else {
                                misses += 1;
                            }
                            sg
                        }
                        None => extractor.extract(t.head, t.tail, None),
                    })
                    .collect();
                let batch = BatchedSubgraphs::pack(&subgraphs);
                let rels: Vec<dekg_kg::RelationId> = chunk.iter().map(|t| t.rel).collect();
                let nodes = batch.total_nodes();
                let scores = WORKSPACE.with(|ws| {
                    let mut ws = ws.borrow_mut();
                    let mut out = Vec::with_capacity(chunk.len());
                    self.gsm.score_subgraphs_batched(
                        &self.params,
                        &batch,
                        &rels,
                        &mut ws,
                        &mut out,
                    );
                    out
                });
                (scores, nodes, hits, misses)
            })
            .collect();
        // Record metrics once per batch from pack-level sums, so the
        // snapshot is invariant to both `eval_batch` and thread count.
        let obs = batched_obs();
        obs.batch_nodes.observe(packs.iter().map(|p| p.1 as u64).sum());
        obs.bfs_cache_hits.add(packs.iter().map(|p| p.2).sum());
        obs.bfs_cache_misses.add(packs.iter().map(|p| p.3).sum());
        packs.into_iter().flat_map(|p| p.0).collect()
    }
}

impl LinkPredictor for DekgIlp {
    fn name(&self) -> &'static str {
        self.cfg.ablation.variant_name()
    }

    fn score_batch(&self, graph: &InferenceGraph, triples: &[Triple]) -> Vec<f32> {
        self.score_internal(graph, triples)
    }

    fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }
}

impl TrainableModel for DekgIlp {
    fn fit(&mut self, dataset: &DekgDataset, rng: &mut dyn RngCore) -> TrainReport {
        crate::train::train(self, dataset, rng)
    }
}

/// The [`DekgIlpConfig`] a checkpoint's meta section carries: UTF-8,
/// then JSON, then the range checks, each failure a message.
/// Why a checkpoint's weights do not fit a model: the one its own
/// config declares ([`DekgIlp::restore`]) or the one they are loaded
/// into ([`DekgIlp::load_checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointMismatch {
    /// The file stores a different number of parameters.
    Count {
        /// Parameters in the file.
        stored: usize,
        /// Parameters the model has.
        expected: usize,
    },
    /// A stored parameter the model has no slot for.
    Unknown(String),
    /// A stored parameter of a different shape.
    Shape {
        /// The parameter's name.
        name: String,
        /// Its shape in the file.
        stored: Vec<usize>,
        /// Its shape in the model.
        expected: Vec<usize>,
    },
    /// The declared architecture's sizes overflow `usize`.
    Overflow,
}

impl std::fmt::Display for CheckpointMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Count { stored, expected } => {
                write!(f, "checkpoint has {stored} parameters, model expects {expected}")
            }
            Self::Unknown(name) => write!(f, "checkpoint parameter {name:?} unknown to this model"),
            Self::Shape { name, stored, expected } => {
                write!(f, "shape mismatch for {name:?}: checkpoint {stored:?}, model {expected:?}")
            }
            Self::Overflow => write!(f, "checkpoint config declares an architecture too large"),
        }
    }
}

impl std::error::Error for CheckpointMismatch {}

/// Checks every parameter of `restored` against a model of `expected`
/// parameters, where `shape_of` gives a model parameter's shape by name.
fn check_params<'a>(
    restored: &ParamStore,
    expected: usize,
    shape_of: impl Fn(&str) -> Option<&'a [usize]>,
) -> Result<(), CheckpointMismatch> {
    if restored.len() != expected {
        return Err(CheckpointMismatch::Count { stored: restored.len(), expected });
    }
    for (_, name, value) in restored.iter() {
        let dims = shape_of(name).ok_or_else(|| CheckpointMismatch::Unknown(name.to_owned()))?;
        if dims != value.shape().dims() {
            return Err(CheckpointMismatch::Shape {
                name: name.to_owned(),
                stored: value.shape().dims().to_vec(),
                expected: dims.to_vec(),
            });
        }
    }
    Ok(())
}

/// The name and shape of every parameter [`DekgIlp::new`] registers
/// for `cfg` over `num_relations` relations, from the sizes alone, so
/// [`DekgIlp::restore`] can hold a checkpoint's config against its
/// weights before allocating a model (a test pins this list to `new`).
/// The count is checked against the `stored` count first, so a config
/// declaring many layers allocates nothing beyond what the file backs.
fn declared_shapes(
    cfg: &DekgIlpConfig,
    num_relations: usize,
    stored: usize,
) -> Result<Vec<(String, Vec<usize>)>, CheckpointMismatch> {
    let per_layer = if cfg.num_bases.is_some() { 6 } else { 5 };
    let semantic = if cfg.ablation.use_semantic { 2 } else { 0 };
    let expected = cfg
        .gnn_layers
        .checked_mul(per_layer)
        .and_then(|n| n.checked_add(semantic + 2))
        .ok_or(CheckpointMismatch::Overflow)?;
    if stored != expected {
        return Err(CheckpointMismatch::Count { stored, expected });
    }
    let mul = |a: usize, b: usize| a.checked_mul(b).ok_or(CheckpointMismatch::Overflow);
    let (r, d) = (num_relations, cfg.dim);
    let mut out = Vec::with_capacity(expected);
    if cfg.ablation.use_semantic {
        out.push(("clrm.features".to_owned(), vec![r, d]));
        out.push(("clrm.rel_sem".to_owned(), vec![r, d]));
    }
    for l in 0..cfg.gnn_layers {
        let p = format!("gsm.encoder.layer{l}");
        let in_dim = if l == 0 { dekg_gnn::labeling::feature_width(cfg.hops) } else { d };
        match cfg.num_bases {
            None => out.push((format!("{p}.w_rel"), vec![mul(r, in_dim)?, d])),
            Some(b) => {
                out.push((format!("{p}.basis_coeffs"), vec![r, b]));
                out.push((format!("{p}.bases"), vec![b, mul(in_dim, d)?]));
            }
        }
        out.push((format!("{p}.w_self"), vec![in_dim, d]));
        out.push((format!("{p}.bias"), vec![d]));
        out.push((format!("{p}.attn_embed"), vec![r, cfg.attn_dim]));
        let attn_in =
            mul(2, in_dim)?.checked_add(cfg.attn_dim).ok_or(CheckpointMismatch::Overflow)?;
        out.push((format!("{p}.w_attn"), vec![attn_in, 1]));
    }
    out.push(("gsm.rel_tpo".to_owned(), vec![r, d]));
    out.push(("gsm.w_out".to_owned(), vec![mul(4, d)?, 1]));
    Ok(out)
}

fn config_from_meta(meta: &[u8]) -> Result<DekgIlpConfig, String> {
    let text =
        std::str::from_utf8(meta).map_err(|e| format!("checkpoint config is not UTF-8: {e}"))?;
    let cfg: DekgIlpConfig =
        serde_json::from_str(text).map_err(|e| format!("parsing checkpoint config: {e}"))?;
    cfg.try_validate().map_err(|e| format!("invalid checkpoint config: {e}"))?;
    Ok(cfg)
}

/// Replaces the file at `path` with what `write` puts into it,
/// crash-consistently. The bytes go to a temp file in the same
/// directory, which is synced and then renamed over `path` — one atomic
/// step on POSIX filesystems — and the directory is synced so the
/// rename survives a crash. A concurrent reader, or one after a crash
/// mid-write, finds either the old contents or the new ones; a failed
/// write (an error from `write` included) leaves `path` untouched and
/// removes its temp file.
///
/// # Errors
/// IO failures creating, writing, syncing or renaming the temp file, or
/// a `path` without a file name.
fn write_file_atomic(
    path: &std::path::Path,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        write(&mut file)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    // Make the rename itself durable: it lives in the directory entry.
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ablation;
    use crate::reference::TapeReference;
    use dekg_datasets::{generate, DatasetProfile, RawKg, SplitKind, SynthConfig};
    use dekg_kg::EntityId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_dataset() -> DekgDataset {
        let profile = DatasetProfile::table2(RawKg::Wn18rr, SplitKind::Eq).scaled(0.02);
        generate(&SynthConfig::for_profile(profile, 11))
    }

    #[test]
    fn construction_and_scoring() {
        let d = tiny_dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = DekgIlp::new(DekgIlpConfig::quick(), &d, &mut rng);
        let graph = InferenceGraph::from_dataset(&d);
        let scores = model.score_batch(&graph, &d.test_bridging[..3.min(d.test_bridging.len())]);
        assert_eq!(scores.len(), 3.min(d.test_bridging.len()));
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn scoring_is_deterministic() {
        let d = tiny_dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = DekgIlp::new(DekgIlpConfig::quick(), &d, &mut rng);
        let graph = InferenceGraph::from_dataset(&d);
        let batch = &d.test_enclosing[..2.min(d.test_enclosing.len())];
        assert_eq!(model.score_batch(&graph, batch), model.score_batch(&graph, batch));
    }

    #[test]
    fn scoring_paths_are_bitwise_identical() {
        // Train briefly so parameters are away from init, then check
        // the production engine against the tape on real test links (a
        // Mixed batch: no shared endpoint).
        let d = tiny_dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let cfg = DekgIlpConfig { epochs: 1, ..DekgIlpConfig::quick() };
        let mut model = DekgIlp::new(cfg, &d, &mut rng);
        model.fit(&d, &mut rng);
        let graph = InferenceGraph::from_dataset(&d);
        let batch: Vec<Triple> =
            d.test_enclosing.iter().chain(&d.test_bridging).copied().take(12).collect();
        assert_eq!(QueryShape::detect(&batch), QueryShape::Mixed);
        let tape = TapeReference::new(&model).score_batch(&graph, &batch);
        for eb in [1usize, 5, 64] {
            model.set_eval_batch(eb);
            assert_eq!(model.score_batch(&graph, &batch), tape, "eval_batch {eb}");
        }
    }

    #[test]
    fn batched_path_matches_per_candidate_on_ranking_shapes() {
        // Ranking-shaped batches exercise the FixedHead / FixedTail /
        // FixedPair engines; scores must be bitwise identical to the
        // per-candidate tape for every shape and any eval_batch.
        let d = tiny_dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let cfg = DekgIlpConfig { epochs: 1, ..DekgIlpConfig::quick() };
        let mut model = DekgIlp::new(cfg, &d, &mut rng);
        model.fit(&d, &mut rng);
        let graph = InferenceGraph::from_dataset(&d);
        let t0 = d.test_bridging[0];
        let n = d.num_entities() as u32;
        let tail_query: Vec<Triple> = (0..20u32)
            .map(|i| Triple { head: t0.head, rel: t0.rel, tail: EntityId((i * 7) % n) })
            .collect();
        let head_query: Vec<Triple> = (0..20u32)
            .map(|i| Triple { head: EntityId((i * 5) % n), rel: t0.rel, tail: t0.tail })
            .collect();
        let rel_query: Vec<Triple> = (0..d.num_relations)
            .map(|r| Triple { head: t0.head, rel: dekg_kg::RelationId(r as u32), tail: t0.tail })
            .collect();
        for batch in [&tail_query, &head_query, &rel_query] {
            let per_candidate = TapeReference::new(&model).score_batch(&graph, batch);
            for eb in [1usize, 3, 64] {
                model.set_eval_batch(eb);
                assert_eq!(model.score_batch(&graph, batch), per_candidate);
            }
        }
    }

    #[test]
    fn ablation_r_has_no_clrm() {
        let d = tiny_dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let cfg =
            DekgIlpConfig { ablation: Ablation::without_semantic(), ..DekgIlpConfig::quick() };
        let model = DekgIlp::new(cfg, &d, &mut rng);
        assert!(model.clrm().is_none());
        assert_eq!(model.name(), "DEKG-ILP-R");
        // Still scores (topological only).
        let graph = InferenceGraph::from_dataset(&d);
        let s = model.score(&graph, &d.test_bridging[0]);
        assert!(s.is_finite());
    }

    #[test]
    fn parameter_count_components() {
        let d = tiny_dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let full = DekgIlp::new(DekgIlpConfig::quick(), &d, &mut rng);
        let mut rng2 = ChaCha8Rng::seed_from_u64(0);
        let cfg_r =
            DekgIlpConfig { ablation: Ablation::without_semantic(), ..DekgIlpConfig::quick() };
        let no_sem = DekgIlp::new(cfg_r, &d, &mut rng2);
        // CLRM adds exactly 2·|R|·d parameters.
        let expected_extra = 2 * d.num_relations * full.config().dim;
        assert_eq!(full.num_parameters(), no_sem.num_parameters() + expected_extra);
    }

    #[test]
    fn empty_batch_is_fine() {
        let d = tiny_dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = DekgIlp::new(DekgIlpConfig::quick(), &d, &mut rng);
        let graph = InferenceGraph::from_dataset(&d);
        assert!(model.score_batch(&graph, &[]).is_empty());
    }

    /// The bytes [`DekgIlp::save_checkpoint`] writes for `model`.
    fn checkpoint_bytes(model: &DekgIlp) -> Vec<u8> {
        let meta = serde_json::to_string(model.config()).unwrap();
        dekg_tensor::serialize::encode(model.params(), meta.as_bytes()).to_vec()
    }

    /// Every leftover temp file next to `path` (the writer's own naming).
    fn temp_files_beside(path: &std::path::Path) -> Vec<std::path::PathBuf> {
        let prefix = format!(".{}.tmp-", path.file_name().unwrap().to_string_lossy());
        let mut found: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with(&prefix))
            .collect();
        found.sort();
        found
    }

    #[test]
    fn failed_or_partial_checkpoint_write_keeps_the_previous_one_loadable() {
        let d = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("dekg_atomic_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let old = DekgIlp::new(DekgIlpConfig::quick(), &d, &mut rng);
        old.save_checkpoint(&path).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();

        // A writer that fails half-way through a different model's
        // checkpoint: the error surfaces, and nothing of it lands.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let new = DekgIlp::new(DekgIlpConfig::quick(), &d, &mut rng);
        let new_bytes = checkpoint_bytes(&new);
        let failed = write_file_atomic(&path, |file| {
            use std::io::Write;
            file.write_all(&new_bytes[..new_bytes.len() / 2])?;
            Err(std::io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), old_bytes);
        assert!(temp_files_beside(&path).is_empty(), "a failed write must clean up");

        // A writer killed mid-write leaves a torn temp file behind; the
        // checkpoint itself still restores the previous model exactly.
        let torn = dir.join(".model.bin.tmp-0-0");
        std::fs::write(&torn, &new_bytes[..new_bytes.len() / 2]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut restored = DekgIlp::new(DekgIlpConfig::quick(), &d, &mut rng);
        restored.load_checkpoint(&path).unwrap();
        assert_eq!(checkpoint_bytes(&restored), old_bytes);

        // The next complete save replaces the checkpoint as a whole.
        new.save_checkpoint(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), new_bytes);
        assert_eq!(temp_files_beside(&path), vec![torn]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn declared_shapes_match_what_new_registers() {
        let d = tiny_dataset();
        let quick = DekgIlpConfig::quick();
        for cfg in [
            quick.clone(),
            DekgIlpConfig { num_bases: Some(3), ..quick.clone() },
            DekgIlpConfig { ablation: Ablation::without_semantic(), ..quick.clone() },
            DekgIlpConfig { hops: 3, gnn_layers: 3, attn_dim: 5, ..quick },
            DekgIlpConfig::paper(),
        ] {
            let model = DekgIlp::new(cfg.clone(), &d, &mut ChaCha8Rng::seed_from_u64(0));
            let registered: Vec<(String, Vec<usize>)> = model
                .params
                .iter()
                .map(|(_, name, value)| (name.to_owned(), value.shape().dims().to_vec()))
                .collect();
            let declared = declared_shapes(&cfg, d.num_relations, registered.len());
            assert_eq!(declared, Ok(registered), "{cfg:?}");
        }
    }

    /// Restore's config parse on byte-level edits of a real checkpoint's
    /// meta section: every case is a validated config or an error
    /// message, never a panic.
    mod config_meta_fuzz {
        use super::super::config_from_meta;
        use crate::config::DekgIlpConfig;
        use proptest::prelude::*;

        /// A byte to write: mostly digits (listed twice, so drawn twice
        /// as often) and JSON syntax, so that edits often stay parseable
        /// and reach the range checks; sometimes any ASCII or any byte.
        fn edit_bytes() -> impl Strategy<Value = u8> {
            let syntax: Vec<u8> = b"-.e\"{}[],:ntf".to_vec();
            prop_oneof![
                any::<u8>(),
                0u8..128,
                b'0'..=b'9',
                b'0'..=b'9',
                (0..syntax.len()).prop_map(move |i| syntax[i]),
            ]
        }

        /// Field values to swap in whole: zeros, negatives, fractions,
        /// out-of-type and out-of-range numbers.
        const VALUES: [&[u8]; 10] = [
            b"0",
            b"-1",
            b"0.5",
            b"1",
            b"1e40",
            b"-0.0",
            b"null",
            b"true",
            b"\"x\"",
            b"4294967296",
        ];

        /// Replaces the value after the `at`-th colon (up to the next
        /// `,` or `}`) with `value`.
        fn replace_value(meta: &mut Vec<u8>, at: usize, value: &[u8]) {
            let colons: Vec<usize> =
                meta.iter().enumerate().filter(|(_, &b)| b == b':').map(|(i, _)| i).collect();
            if colons.is_empty() {
                return;
            }
            let start = colons[at % colons.len()] + 1;
            let end = meta[start..]
                .iter()
                .position(|&b| b == b',' || b == b'}')
                .map_or(meta.len(), |k| start + k);
            meta.splice(start..end, value.iter().copied());
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn mutated_checkpoint_configs_parse_or_fail_typed(
                edits in prop::collection::vec((any::<usize>(), 0u8..4, edit_bytes()), 1..4),
            ) {
                let mut meta = serde_json::to_string(&DekgIlpConfig::quick()).unwrap().into_bytes();
                for (at, kind, byte) in edits {
                    let n = meta.len();
                    match kind {
                        0 if n > 0 => meta[at % n] = byte,
                        1 if n > 0 => {
                            meta.remove(at % n);
                        }
                        2 => meta.insert(at % (n + 1), byte),
                        _ => replace_value(&mut meta, at, VALUES[usize::from(byte) % VALUES.len()]),
                    }
                }
                match config_from_meta(&meta) {
                    Ok(cfg) => prop_assert!(cfg.try_validate().is_ok()),
                    Err(msg) => prop_assert!(msg.contains("checkpoint config"), "{msg}"),
                }
            }
        }
    }
}
