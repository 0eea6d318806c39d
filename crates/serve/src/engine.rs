//! The ranking engine behind the daemon: one immutable graph view plus
//! an atomically swappable model handle.
//!
//! The expensive, checkpoint-independent state — the loaded dataset,
//! the derived [`InferenceGraph`] and the evaluation filter store — is
//! built once at startup and shared immutably by every worker. The
//! model itself lives behind `RwLock<Arc<ModelGeneration>>`: a request
//! clones the `Arc` once (a read lock held for nanoseconds) and scores
//! against that generation for its whole lifetime, so a concurrent
//! [`RankEngine::reload`] can swap in a new checkpoint without a
//! single in-flight request observing a half-updated model. The old
//! generation is freed when its last in-flight request finishes.
//!
//! Reloads are serialized by a dedicated mutex and do all slow work
//! (reading and decoding the checkpoint file) *outside* the write
//! lock — the swap itself is one pointer store.

use dekg_core::{DekgIlp, InferenceGraph};
use dekg_datasets::{loader, DekgDataset};
use dekg_kg::TripleStore;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// One loaded checkpoint: the model plus its provenance.
#[derive(Debug)]
pub struct ModelGeneration {
    /// The restored model, scoring through its batched engine.
    pub model: DekgIlp,
    /// Path of the checkpoint file this generation was restored from.
    pub ckpt_path: String,
    /// Monotone generation counter: 1 for the startup load, +1 per reload.
    pub generation: u64,
}

/// The daemon's shared ranking state. See the module docs.
#[derive(Debug)]
pub struct RankEngine {
    dataset: DekgDataset,
    graph: InferenceGraph,
    filter: TripleStore,
    current: RwLock<Arc<ModelGeneration>>,
    /// Serializes reloads and owns the generation counter.
    reload_serial: Mutex<u64>,
}

impl RankEngine {
    /// Loads a dataset directory and a checkpoint file into a ready
    /// engine. This is the slow path every warm request skips: dataset
    /// IO, adjacency/component-table derivation, filter construction
    /// and checkpoint restore all happen here, once.
    ///
    /// The filter store matches `dekg evaluate` exactly:
    /// `G ∪ G' ∪ valid ∪ test_enclosing ∪ test_bridging`, so filtered
    /// ranks served over HTTP are bitwise-identical to the CLI's.
    ///
    /// # Errors
    /// Dataset or checkpoint IO/parse failures, as a displayable error.
    pub fn load(data_dir: &str, ckpt: &str) -> Result<RankEngine, String> {
        let dataset = loader::load_dir(data_dir, data_dir)
            .map_err(|e| format!("loading dataset {data_dir}: {e}"))?;
        let graph = InferenceGraph::from_dataset(&dataset);
        let mut filter = graph.store.clone();
        for t in dataset.valid.iter().chain(&dataset.test_enclosing).chain(&dataset.test_bridging) {
            filter.insert(*t);
        }
        let model = DekgIlp::restore(ckpt, &dataset)
            .map_err(|e| format!("restoring checkpoint {ckpt}: {e}"))?;
        dekg_obs::log_info!(
            "engine loaded: {} ({} entities, {} relations), checkpoint {ckpt} (generation 1)",
            dataset.name,
            dataset.num_entities(),
            dataset.num_relations
        );
        Ok(RankEngine {
            dataset,
            graph,
            filter,
            current: RwLock::new(Arc::new(ModelGeneration {
                model,
                ckpt_path: ckpt.to_owned(),
                generation: 1,
            })),
            reload_serial: Mutex::new(1),
        })
    }

    /// The loaded dataset (vocabulary lookups, split membership).
    pub fn dataset(&self) -> &DekgDataset {
        &self.dataset
    }

    /// The shared inference graph view.
    pub fn graph(&self) -> &InferenceGraph {
        &self.graph
    }

    /// The evaluation filter store (`G ∪ G' ∪ valid ∪ tests`).
    pub fn filter(&self) -> &TripleStore {
        &self.filter
    }

    /// The current model generation. Cheap: one read lock, one `Arc`
    /// clone. Callers keep scoring against the returned generation even
    /// if a reload swaps the current one mid-request.
    pub fn model(&self) -> Arc<ModelGeneration> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Hot-swaps the model from a checkpoint file — `ckpt` when given,
    /// else the current generation's path (re-read from disk). The new
    /// model is fully restored *before* the swap; in-flight requests
    /// keep their generation. Returns the new generation number.
    ///
    /// # Errors
    /// Checkpoint restore failures — the current generation stays
    /// installed and keeps serving.
    pub fn reload(&self, ckpt: Option<&str>) -> Result<u64, String> {
        // One reload at a time; concurrent requests queue here while
        // the serving path stays wait-free.
        let mut serial = self.reload_serial.lock().unwrap_or_else(PoisonError::into_inner);
        let path = match ckpt {
            Some(p) => p.to_owned(),
            None => self.model().ckpt_path.clone(),
        };
        let model = DekgIlp::restore(&path, &self.dataset)
            .map_err(|e| format!("restoring checkpoint {path}: {e}"))?;
        *serial += 1;
        let generation = *serial;
        let fresh = Arc::new(ModelGeneration { model, ckpt_path: path.clone(), generation });
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = fresh;
        crate::serve_obs().reloads.inc();
        dekg_obs::log_info!("model hot-swapped from {path} (generation {generation})");
        Ok(generation)
    }
}
