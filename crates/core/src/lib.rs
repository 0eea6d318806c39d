#![warn(missing_docs)]

//! # dekg-core
//!
//! The paper's primary contribution: **DEKG-ILP**, a model predicting
//! both *enclosing* and *bridging* links for unseen entities in
//! disconnected emerging knowledge graphs.
//!
//! Two modules compose the final score `φ = φ_sem + φ_tpo` (Eq. 13):
//!
//! * [`clrm`] — **C**ontrastive **L**earning-based **R**elation-specific
//!   Feature **M**odeling: entity-independent semantic embeddings fused
//!   from learned per-relation features (Eq. 3), a DistMult decoder
//!   (Eq. 4) and a semantic-aware contrastive loss over
//!   relation-component-table perturbations (Eq. 5–7).
//! * [`gsm`] — **G**NN-based **S**ubgraph **M**odeling: GraIL-style
//!   subgraph reasoning with the improved node labeling that survives
//!   the "topological limitation" of bridging links (Eq. 8–11).
//!
//! [`model::DekgIlp`] wires the two together and [`train`] implements
//! Algorithm 1. [`mod@reference`] holds the tape-path scorer the batched
//! engine is pinned against. [`traits`] defines the [`traits::LinkPredictor`]
//! interface shared with every baseline in `dekg-baselines`.
//!
//! ```no_run
//! use dekg_core::prelude::*;
//! use dekg_datasets::{generate, DatasetProfile, RawKg, SplitKind, SynthConfig};
//! use rand::SeedableRng;
//!
//! let profile = DatasetProfile::table2(RawKg::Nell995, SplitKind::Eq).scaled(0.05);
//! let data = generate(&SynthConfig::for_profile(profile, 1));
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//!
//! let mut model = DekgIlp::new(DekgIlpConfig::quick(), &data, &mut rng);
//! model.fit(&data, &mut rng);
//!
//! let graph = InferenceGraph::from_dataset(&data);
//! let scores = model.score_batch(&graph, &data.test_bridging);
//! ```

pub mod clrm;
pub mod config;
pub mod explain;
pub mod gsm;
pub mod model;
pub mod profile;
pub mod reference;
pub mod train;
pub mod traits;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::config::{Ablation, DekgIlpConfig};
    pub use crate::model::DekgIlp;
    pub use crate::traits::{InferenceGraph, LinkPredictor, TrainReport, TrainableModel};
}

pub use config::{Ablation, DekgIlpConfig};
pub use model::{write_file_atomic, DekgIlp};
pub use profile::{
    profile_eval, profile_train, profile_train_paired, PairedProfile, ProfileReport,
};
pub use train::{
    batch_loss, batch_loss_parts, grad_check_dataset, prepare_batch, record_prepared,
    tape_check_dataset, BatchLossBreakdown, PreparedBatch,
};
pub use traits::{InferenceGraph, LinkPredictor, TrainReport, TrainableModel};
