//! `EvalTiming::spans` is the span-table delta of one evaluation run.
//!
//! The span table is process-global, so this check lives in its own
//! test binary: no other test can close spans while the run's
//! before/after snapshots bracket it.

use dekg_core::{DekgIlp, DekgIlpConfig, InferenceGraph};
use dekg_datasets::{MixRatio, TestMix};
use dekg_eval::{evaluate, ProtocolConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn eval_timing_carries_the_span_delta() {
    let d = dekg_datasets::tiny_fixture(6);
    let model = DekgIlp::new(DekgIlpConfig::quick(), &d, &mut ChaCha8Rng::seed_from_u64(1));
    let graph = InferenceGraph::from_dataset(&d);
    let mix = TestMix::build(&d, MixRatio { enclosing: 1, bridging: 1 });
    let cfg = ProtocolConfig { threads: 2, ..ProtocolConfig::sampled(5) };
    let timing = evaluate(&model, &graph, &d, &mix, &cfg).timing;

    assert!(timing.queries > 0);
    let rank = timing.spans.get("rank_query").copied().unwrap_or_default();
    assert_eq!(rank.count, timing.queries as u64, "one rank_query span per query");
    assert!(rank.seconds > 0.0);
    // The batched engine's nested spans closed inside the run as well.
    for name in ["score_batch", "extract_subgraph"] {
        assert!(timing.spans.get(name).is_some_and(|s| s.count > 0), "{name}: {:?}", timing.spans);
    }
}
