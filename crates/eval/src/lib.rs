#![warn(missing_docs)]

//! # dekg-eval
//!
//! The evaluation harness for the DEKG-ILP reproduction (Section V-C of
//! the paper):
//!
//! * **Filtered ranking** over all three prediction forms `(?, r, t)`,
//!   `(h, ?, t)` and `(h, r, ?)` — candidates that are known true
//!   triples (train ∪ emerging ∪ valid ∪ test) are removed before
//!   ranking, and ties receive their average rank.
//! * **MRR and Hits@{1, 5, 10}** aggregation with per-link-class
//!   (enclosing vs bridging) breakdowns for the Fig. 5 respective study.
//! * **Candidate sampling** — the paper ranks against every entity;
//!   at CPU scale the protocol optionally ranks against `K` sampled
//!   negatives instead (documented in `EXPERIMENTS.md`). `None`
//!   reproduces the full protocol.
//! * **Timing** helpers for Table IV / Fig. 7 and fixed-width table
//!   [`report`]ing for the experiment binaries.

pub mod metrics;
pub mod protocol;
pub mod ranking;
pub mod report;
pub mod timing;

pub use metrics::{Metrics, RankAccumulator};
pub use protocol::{
    effective_threads, evaluate, evaluate_with_filter, EvalResult, PredictionTask, ProtocolConfig,
};
pub use ranking::{filtered_rank, rank_of, RankQuery};
pub use report::Table;
pub use timing::{time_inference_per_50, EvalTiming, TimingResult};
