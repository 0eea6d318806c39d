#![warn(missing_docs)]

//! # dekg
//!
//! Umbrella crate for the **DEKG-ILP** reproduction ("Disconnected
//! Emerging Knowledge Graph Oriented Inductive Link Prediction",
//! ICDE 2023). Re-exports the whole stack under one roof and hosts the
//! runnable examples and cross-crate integration tests.
//!
//! Layer map:
//!
//! * [`tensor`] — dense tensors + reverse-mode autograd + optimizers,
//! * [`kg`] — triple stores, adjacency, BFS, subgraph extraction,
//! * [`gnn`] — R-GCN with edge attention over extracted subgraphs,
//! * [`core`] — the paper's model: CLRM + GSM = DEKG-ILP,
//! * [`baselines`] — TransE, RotatE, ConvE, GEN, RuleN, GraIL, TACT,
//! * [`datasets`] — synthetic DEKG benchmarks calibrated to Table II,
//! * [`eval`] — filtered ranking, MRR/Hits@N, timing, reporting,
//! * [`obs`] — structured logging, metrics registry, JSONL event
//!   sinks and span timers instrumenting all of the above.
//!
//! ```no_run
//! use dekg::prelude::*;
//! use rand::SeedableRng;
//!
//! // 1. A small synthetic DEKG benchmark.
//! let profile = DatasetProfile::table2(RawKg::Nell995, SplitKind::Eq).scaled(0.05);
//! let data = generate(&SynthConfig::for_profile(profile, 1));
//!
//! // 2. Train DEKG-ILP on the original KG.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut model = DekgIlp::new(DekgIlpConfig::quick(), &data, &mut rng);
//! model.fit(&data, &mut rng);
//!
//! // 3. Evaluate on a 1:1 enclosing/bridging mix.
//! let graph = InferenceGraph::from_dataset(&data);
//! let mix = TestMix::build(&data, MixRatio::for_split(SplitKind::Eq));
//! let result = evaluate(&model, &graph, &data, &mix, &ProtocolConfig::sampled(50));
//! println!("MRR = {:.3}", result.overall.mrr);
//! ```

pub use dekg_baselines as baselines;
pub use dekg_core as core;
pub use dekg_datasets as datasets;
pub use dekg_eval as eval;
pub use dekg_gnn as gnn;
pub use dekg_kg as kg;
pub use dekg_obs as obs;
pub use dekg_tensor as tensor;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use dekg_baselines::{
        capability_of, Capability, ConvE, EmbeddingConfig, Gen, Grail, Mean, NeuralLp,
        NeuralLpConfig, RotatE, RuleN, SubgraphModelConfig, Tact, TransE,
    };
    pub use dekg_core::{
        Ablation, DekgIlp, DekgIlpConfig, InferenceGraph, LinkPredictor, TrainReport,
        TrainableModel,
    };
    pub use dekg_datasets::{
        generate, DatasetProfile, DatasetStats, DekgDataset, LinkClass, MixRatio, NegativeSampler,
        RawKg, SplitKind, SynthConfig, TestMix,
    };
    pub use dekg_eval::{evaluate, EvalResult, Metrics, PredictionTask, ProtocolConfig, Table};
    pub use dekg_kg::{
        Adjacency, ComponentTable, EntityId, ExtractionMode, KnowledgeGraph, RelationId, Subgraph,
        SubgraphExtractor, Triple, TripleStore, Vocab,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_importable() {
        use crate::prelude::*;
        // Smoke-check a couple of re-exports resolve to the right things.
        let cap = capability_of("DEKG-ILP");
        assert!(cap.dekg_bridging);
        let t = Triple::from_raw(0, 0, 1);
        assert_eq!(t.reversed().head, EntityId(1));
    }
}
