//! Timing harness for Table IV and Fig. 7.
//!
//! The paper reports training time per epoch (minutes) and average
//! inference time for 50 links (seconds). Absolute numbers are
//! hardware-bound; the reproduction cares about the *relative* ordering
//! (subgraph methods ≫ embedding methods).

use dekg_core::{InferenceGraph, LinkPredictor};
use dekg_kg::Triple;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One model's timing row.
///
/// `model` is an owned `String` so rows can be built for
/// dynamically-named configurations (ablations, thread-count sweeps),
/// not just compile-time model names.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimingResult {
    /// Model name.
    pub model: String,
    /// Training seconds per epoch.
    pub train_seconds_per_epoch: f64,
    /// Seconds to score 50 links.
    pub inference_seconds_per_50: f64,
    /// Parameter count.
    pub parameters: usize,
}

/// Wall-clock and throughput counters for one evaluation run, recorded
/// by `evaluate_with_filter` and carried on `EvalResult`. Timing is
/// measurement, not output: assert determinism on `Metrics` fields.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EvalTiming {
    /// End-to-end wall-clock seconds for the protocol run.
    pub wall_seconds: f64,
    /// Ranking queries executed (links × prediction forms).
    pub queries: usize,
    /// Test links evaluated.
    pub links: usize,
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// Queries per wall-clock second.
    pub queries_per_second: f64,
    /// The spans that closed during the run's query fan-out
    /// (`rank_query`, `score_batch`, `rgcn_layer_inference`,
    /// `extract_subgraph`, ...). They nest, and their seconds are
    /// CPU-seconds summed across workers; counts are deterministic.
    /// Empty when spans are disabled.
    pub spans: dekg_obs::SpanSnapshot,
}

impl EvalTiming {
    /// Builds the counters, deriving throughput from the wall clock.
    pub fn new(
        wall_seconds: f64,
        queries: usize,
        links: usize,
        threads: usize,
        spans: dekg_obs::SpanSnapshot,
    ) -> Self {
        let queries_per_second =
            if wall_seconds > 0.0 { queries as f64 / wall_seconds } else { 0.0 };
        EvalTiming { wall_seconds, queries, links, threads, queries_per_second, spans }
    }
}

/// Measures the average wall-clock time to score 50 links, cycling
/// through `links` as needed.
///
/// # Panics
/// If `links` is empty.
pub fn time_inference_per_50(
    model: &dyn LinkPredictor,
    graph: &InferenceGraph,
    links: &[Triple],
    repeats: usize,
) -> f64 {
    assert!(!links.is_empty(), "need links to time");
    let batch: Vec<Triple> = links.iter().copied().cycle().take(50).collect();
    // Warm-up pass (first-touch allocation noise).
    let _ = model.score_batch(graph, &batch[..batch.len().min(5)]);
    let repeats = repeats.max(1);
    let start = Instant::now();
    for _ in 0..repeats {
        let scores = model.score_batch(graph, &batch);
        std::hint::black_box(scores);
    }
    start.elapsed().as_secs_f64() / repeats as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dekg_datasets::{generate, DatasetProfile, RawKg, SplitKind, SynthConfig};

    struct Sleepy;

    impl LinkPredictor for Sleepy {
        fn name(&self) -> &'static str {
            "sleepy"
        }
        fn score_batch(&self, _g: &InferenceGraph, triples: &[Triple]) -> Vec<f32> {
            std::thread::sleep(std::time::Duration::from_millis(2));
            vec![0.0; triples.len()]
        }
        fn num_parameters(&self) -> usize {
            0
        }
    }

    struct Instant0;

    impl LinkPredictor for Instant0 {
        fn name(&self) -> &'static str {
            "instant"
        }
        fn score_batch(&self, _g: &InferenceGraph, triples: &[Triple]) -> Vec<f32> {
            vec![0.0; triples.len()]
        }
        fn num_parameters(&self) -> usize {
            0
        }
    }

    #[test]
    fn slower_model_times_higher() {
        let profile = DatasetProfile::table2(RawKg::Wn18rr, SplitKind::Eq).scaled(0.02);
        let d = generate(&SynthConfig::for_profile(profile, 1));
        let graph = InferenceGraph::from_dataset(&d);
        let links: Vec<Triple> = d.test_enclosing.clone();
        let slow = time_inference_per_50(&Sleepy, &graph, &links, 1);
        let fast = time_inference_per_50(&Instant0, &graph, &links, 1);
        assert!(slow > fast, "slow {slow} vs fast {fast}");
        assert!(slow >= 0.002);
    }
}
