//! Shared fixture for the serve integration tests: a tiny synthetic
//! dataset plus an (untrained) checkpoint file on disk, and helpers to
//! boot a daemon over them. Untrained weights are fine — every test
//! here is about *fidelity* (serve output ≡ library output), which is
//! independent of model quality.

use dekg_core::{DekgIlp, DekgIlpConfig};
use dekg_datasets::{generate, loader, DatasetProfile, DekgDataset, RawKg, SplitKind, SynthConfig};
use dekg_serve::{RankEngine, ServeConfig, Server};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

/// On-disk dataset + checkpoint, cleaned up on drop.
pub struct Fixture {
    /// Root temp directory (removed on drop).
    pub dir: PathBuf,
    /// Dataset directory path.
    pub data: String,
    /// Checkpoint file path.
    pub ckpt: String,
    /// The dataset as the daemon will load it (from disk, so vocab
    /// interning order matches exactly).
    pub dataset: DekgDataset,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Builds the fixture under a `tag`-unique temp dir. `model_seed`
/// seeds the checkpoint's parameter initialization.
pub fn fixture(tag: &str, model_seed: u64) -> Fixture {
    let dir = std::env::temp_dir().join(format!("dekg-serve-test-{}-{tag}", std::process::id()));
    let data_dir = dir.join("data");
    std::fs::create_dir_all(&data_dir).unwrap();
    let profile = DatasetProfile::table2(RawKg::Wn18rr, SplitKind::Eq).scaled(0.02);
    let mut synth = SynthConfig::for_profile(profile, 21);
    synth.num_test_enclosing = 12;
    synth.num_test_bridging = 12;
    loader::save_dir(&generate(&synth), &data_dir).unwrap();
    let data = data_dir.to_string_lossy().into_owned();
    let dataset = loader::load_dir(&data, &data).unwrap();
    let ckpt = dir.join("model.dekg").to_string_lossy().into_owned();
    write_checkpoint(&dataset, &ckpt, model_seed);
    Fixture { dir, data, ckpt, dataset }
}

/// Writes the checkpoint of a freshly initialized small model.
pub fn write_checkpoint(dataset: &DekgDataset, path: &str, seed: u64) {
    small_model(dataset, 8, seed).save_checkpoint(path).unwrap();
}

/// A freshly initialized paper-config model of width `dim`.
pub fn small_model(dataset: &DekgDataset, dim: usize, seed: u64) -> DekgIlp {
    let cfg = DekgIlpConfig { dim, ..DekgIlpConfig::paper() };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    DekgIlp::new(cfg, dataset, &mut rng)
}

/// Boots a ready daemon over the fixture. Returns the server handle
/// and its dial address.
pub fn serve(fx: &Fixture, cfg: ServeConfig) -> (Server, String) {
    let server = Server::bind(cfg).unwrap();
    let addr = server.addr().to_string();
    server.install_engine(RankEngine::load(&fx.data, &fx.ckpt).unwrap());
    (server, addr)
}

/// `POST /rank` with a JSON body; returns `(status, body)`.
pub fn rank_call(addr: &str, body: &str) -> (u16, String) {
    dekg_serve::http_call(addr, "POST", "/rank", Some(body)).unwrap()
}

/// Stops a daemon and waits for it to drain.
pub fn stop(server: Server) {
    server.shutdown();
    server.join();
}
