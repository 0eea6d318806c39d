//! Workload inputs: a synthetic FB15k-237 EQ dataset and an untrained,
//! seeded checkpoint pair, written to disk so each workload's set-up
//! can load them the way the CLI and the daemon do.

use dekg_core::{DekgIlp, DekgIlpConfig, InferenceGraph};
use dekg_datasets::{generate, loader, DatasetProfile, DekgDataset, RawKg, SplitKind, SynthConfig};
use dekg_kg::TripleStore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::time::Duration;

/// Salt separating the model-initialization stream from other streams
/// of the same run seed.
const MODEL_SALT: u64 = 0x005E_ED0F_DEC6;

/// Pause before each set-up repetition. Within one run, the host's state
/// moves a millisecond-scale set-up by half from one moment to the next;
/// after a pause each repetition starts from the same idle state, and
/// the repetitions span seconds rather than one moment.
const SETUP_PAUSE: Duration = Duration::from_millis(50);

/// Paths of one workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Dataset directory (GraIL TSV layout).
    pub data: String,
    /// Checkpoint path; the config sidecar is `<ckpt>.json`.
    pub ckpt: String,
}

/// Generates the dataset at `scale` from `data_seed` and writes it plus
/// an untrained checkpoint pair initialized from `model_seed` under
/// `dir`.
///
/// # Errors
/// IO failures writing the inputs.
pub fn write_inputs(
    dir: &Path,
    data_seed: u64,
    model_seed: u64,
    scale: f64,
) -> Result<Inputs, String> {
    let data_dir = dir.join("data");
    std::fs::create_dir_all(&data_dir)
        .map_err(|e| format!("creating {}: {e}", data_dir.display()))?;
    let profile = DatasetProfile::table2(RawKg::Fb15k237, SplitKind::Eq).scaled(scale);
    let dataset = generate(&SynthConfig::for_profile(profile, data_seed));
    loader::save_dir(&dataset, &data_dir).map_err(|e| format!("writing dataset: {e}"))?;
    let data = data_dir.to_string_lossy().into_owned();
    // Initialize against the dataset as loaded from disk, so relation
    // ids follow the loader's interning order exactly as at serve time.
    let loaded = loader::load_dir(&data, &data).map_err(|e| format!("reloading dataset: {e}"))?;
    let ckpt = dir.join("model.dekg").to_string_lossy().into_owned();
    let cfg = DekgIlpConfig::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(model_seed ^ MODEL_SALT);
    let model = DekgIlp::new(cfg.clone(), &loaded, &mut rng);
    model.save_checkpoint(&ckpt).map_err(|e| format!("writing checkpoint: {e}"))?;
    let sidecar =
        serde_json::to_string_pretty(&cfg).map_err(|e| format!("encoding config: {e}"))?;
    std::fs::write(format!("{ckpt}.json"), sidecar).map_err(|e| format!("writing config: {e}"))?;
    Ok(Inputs { data, ckpt })
}

/// The inference-side view of the inputs: what `evaluate` and the
/// daemon load.
pub struct Loaded {
    /// The dataset as loaded from disk.
    pub dataset: DekgDataset,
    /// `G ∪ G'` with its adjacency and relation tables.
    pub graph: InferenceGraph,
    /// The restored checkpoint.
    pub model: DekgIlp,
}

/// Loads the dataset, builds the `InferenceGraph` and restores the
/// checkpoint.
///
/// # Errors
/// Load or restore failures.
pub fn load(inputs: &Inputs) -> Result<Loaded, String> {
    let dataset = loader::load_dir(&inputs.data, &inputs.data)
        .map_err(|e| format!("loading dataset: {e}"))?;
    let graph = InferenceGraph::from_dataset(&dataset);
    let model = DekgIlp::restore(&inputs.ckpt, &dataset).map_err(|e| format!("restoring: {e}"))?;
    Ok(Loaded { dataset, graph, model })
}

/// The filter store `evaluate` and the daemon build:
/// `G ∪ G' ∪ valid ∪ tests`.
pub fn filter_store(l: &Loaded) -> TripleStore {
    let mut filter = l.graph.store.clone();
    for t in l.dataset.valid.iter().chain(&l.dataset.test_enclosing).chain(&l.dataset.test_bridging)
    {
        filter.insert(*t);
    }
    filter
}

/// Runs a workload's set-up `reps` times, each after [`SETUP_PAUSE`],
/// and returns the last result with every repetition's seconds. `once`
/// receives the previous repetition's result to release first, and
/// returns its own result with the seconds that count as set-up.
///
/// # Errors
/// The first failing repetition's error.
pub fn repeat_setup<T>(
    reps: usize,
    mut once: impl FnMut(Option<T>) -> Result<(T, f64), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut last = None;
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        std::thread::sleep(SETUP_PAUSE);
        let (value, s) = once(last.take())?;
        secs.push(s);
        last = Some(value);
    }
    Ok((last.expect("at least one repetition"), secs))
}
