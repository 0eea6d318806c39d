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
    /// Per-worker scoring workspace: rayon pool threads persist across
    /// queries, so steady-state batched scoring is allocation-free.
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

    /// Writes the trained parameters to a binary checkpoint file,
    /// crash-consistently (see [`write_file_atomic`]): a reader of
    /// `path` sees the previous checkpoint or this one, never a torn mix.
    pub fn save_checkpoint(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        write_file_atomic(path, &dekg_tensor::serialize::encode(&self.params))
    }

    /// Restores parameters from a checkpoint produced by
    /// [`DekgIlp::save_checkpoint`] on a model with the same
    /// configuration and relation space.
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
        let restored = dekg_tensor::serialize::decode(&bytes)?;
        if restored.len() != self.params.len() {
            return Err(format!(
                "checkpoint has {} parameters, model expects {}",
                restored.len(),
                self.params.len()
            )
            .into());
        }
        let mut ids = Vec::with_capacity(restored.len());
        for (_, name, value) in restored.iter() {
            let id = self
                .params
                .id_of(name)
                .ok_or_else(|| format!("checkpoint parameter {name:?} unknown to this model"))?;
            let expected = self.params.get(id).shape();
            if !expected.same_as(value.shape()) {
                return Err(format!(
                    "shape mismatch for {name:?}: checkpoint {:?}, model {:?}",
                    value.shape().dims(),
                    expected.dims()
                )
                .into());
            }
            ids.push(id);
        }
        for (id, (_, _, value)) in ids.into_iter().zip(restored.iter()) {
            *self.params.get_mut(id) = value.clone();
        }
        Ok(())
    }

    /// Rebuilds a trained model from a checkpoint pair: `<path>` (the
    /// binary weights written by [`DekgIlp::save_checkpoint`]) plus
    /// `<path>.json` (the [`DekgIlpConfig`] the training CLI writes
    /// alongside). The architecture is reconstructed from the config —
    /// the init RNG seed is irrelevant since every parameter is
    /// overwritten by the checkpoint — so two restores of the same pair
    /// are bitwise-identical models. This is the one entry point every
    /// consumer of a checkpoint shares (`dekg evaluate`, `dekg predict`,
    /// the `dekg serve` daemon's hot-swap path).
    ///
    /// # Errors
    /// IO failures, a malformed or out-of-range config, a corrupt
    /// checkpoint, or a weights file that does not match the
    /// architecture its own `.json` describes.
    pub fn restore(
        path: &str,
        dataset: &DekgDataset,
    ) -> Result<DekgIlp, Box<dyn std::error::Error + Send + Sync>> {
        let cfg_path = format!("{path}.json");
        let cfg_text = std::fs::read_to_string(&cfg_path)
            .map_err(|e| format!("reading model config {cfg_path}: {e}"))?;
        let cfg: DekgIlpConfig = serde_json::from_str(&cfg_text)
            .map_err(|e| format!("parsing model config {cfg_path}: {e}"))?;
        cfg.try_validate().map_err(|e| format!("invalid model config {cfg_path}: {e}"))?;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let mut model = DekgIlp::new(cfg, dataset, &mut rng);
        model.load_checkpoint(path)?;
        Ok(model)
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

/// Replaces the file at `path` with `bytes` crash-consistently. The
/// bytes go to a temp file in the same directory, which is synced and
/// then renamed over `path` — one atomic step on POSIX filesystems —
/// and the directory is synced so the rename survives a crash. A
/// concurrent reader, or one after a crash mid-write, finds either the
/// old contents or the new ones; a failed write leaves `path` untouched
/// and removes its temp file. Checkpoints and their `.json` config
/// sidecars are written through here.
///
/// # Errors
/// IO failures creating, writing, syncing or renaming the temp file, or
/// a `path` without a file name.
pub fn write_file_atomic(path: impl AsRef<std::path::Path>, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    write_file_atomic_with(path.as_ref(), |file| file.write_all(bytes))
}

/// [`write_file_atomic`] with the payload produced by `write` into the
/// temp file; an error from `write` aborts before the rename.
fn write_file_atomic_with(
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
        let new_bytes = dekg_tensor::serialize::encode(new.params()).to_vec();
        let failed = write_file_atomic_with(&path, |file| {
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
        assert_eq!(dekg_tensor::serialize::encode(restored.params()).to_vec(), old_bytes);

        // The next complete save replaces the checkpoint as a whole.
        new.save_checkpoint(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), new_bytes);
        assert_eq!(temp_files_beside(&path), vec![torn]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
