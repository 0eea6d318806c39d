//! `dekg profile` reports: hot-op attribution, forward-only eval
//! tapes, and the observer contract (profiling changes no bit).
//!
//! These tests live in their own binary because the kernel profiler's
//! enable flag and tables are process globals: any test elsewhere in
//! the same process that runs a backward pass while a profile is armed
//! would be counted into it. Within this binary every test takes
//! [`prof_lock`].

use dekg_core::{
    batch_loss_parts, prepare_batch, profile_eval, profile_train, profile_train_paired,
    record_prepared, DekgIlp, DekgIlpConfig, InferenceGraph,
};
use dekg_datasets::NegativeSampler;
use dekg_kg::Triple;
use dekg_tensor::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Serializes tests that arm (or run tapes beside) the process-global
/// profiler.
fn prof_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn train_profile_folds_structures_and_attributes_time() {
    let _guard = prof_lock();
    let d = dekg_datasets::tiny_fixture(1);
    let report = profile_train(&d, 0, 4, 2);
    assert_eq!(report.batches, 4);
    assert!(!report.ops.is_empty(), "hot-op table must not be empty");
    // 4 executions over 2 distinct shapes fold to ≤ 2 keys with 4
    // executions total (calls/bytes are deterministic; seconds are
    // measurement).
    assert!(report.tapes.len() <= 2, "tapes: {:?}", report.tapes);
    assert_eq!(report.tapes.iter().map(|t| t.executions).sum::<u64>(), 4);
    assert!(report.attributed_seconds() > 0.0);
    assert!(report.span_seconds > 0.0);
    // Hot-op table is sorted hottest-first.
    for w in report.ops.windows(2) {
        assert!(w[0].total_seconds() >= w[1].total_seconds());
    }
    // The rendered table mentions the measured coverage and at
    // least one known-hot op.
    let text = report.render();
    assert!(text.contains("coverage"), "{text}");
    assert!(text.contains("Matmul"), "{text}");
    // Metrics were exported under the baked-label naming scheme.
    let rendered = dekg_obs::metrics::global().render_prometheus();
    assert!(
        rendered.contains("dekg_tape_op_calls_total{op=\"Matmul\",phase=\"fwd\"}"),
        "{rendered}"
    );
}

#[test]
fn eval_profile_runs_forward_only() {
    let _guard = prof_lock();
    let d = dekg_datasets::tiny_fixture(2);
    let report = profile_eval(&d, 0, 2, 5);
    assert_eq!(report.batches, 2);
    assert!(!report.ops.is_empty());
    // Forward-only: no backward time anywhere.
    assert!(report.ops.iter().all(|o| o.backward_calls == 0), "{:?}", report.ops);
    assert!(report.attributed_seconds() > 0.0);
}

#[test]
fn profiling_does_not_change_training_results() {
    let _guard = prof_lock();
    let d = dekg_datasets::tiny_fixture(3);
    let runs = profile_train_paired(&d, 9, 3, 2, 2);
    // Every per-batch loss bit and the final batch's gradient bits,
    // profiler on vs off, in both rounds.
    assert!(runs.outputs_identical, "profiling must not change any loss or gradient bit");
    // The profiler-on executions (3 batches x 2 rounds over 2 shapes)
    // fill the report the coverage bar is judged on.
    let report = &runs.report;
    assert_eq!(report.batches, 6);
    assert!(report.tapes.len() <= 2, "tapes: {:?}", report.tapes);
    assert_eq!(report.tapes.iter().map(|t| t.executions).sum::<u64>(), 6);
    assert!(report.attributed_seconds() > 0.0 && report.span_seconds > 0.0);
    assert!(runs.unprofiled_seconds > 0.0, "{}", runs.unprofiled_seconds);
    assert!(runs.overhead_ratio.is_finite(), "{}", runs.overhead_ratio);
}

#[test]
fn split_batch_path_matches_fused_path() {
    // prepare_batch + record_prepared must consume the RNG stream
    // and build the tape exactly as the fused batch_loss_parts.
    let _guard = prof_lock();
    let d = dekg_datasets::tiny_fixture(4);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    // The profiling model shape (see `dekg_core::profile`).
    let cfg = DekgIlpConfig {
        dim: 96,
        num_contrastive: 2,
        gnn_layers: 2,
        attn_dim: 8,
        ..DekgIlpConfig::quick()
    };
    let model = DekgIlp::new(cfg, &d, &mut rng);
    let train_graph = InferenceGraph::training_view(&d);
    let sampler = NegativeSampler::new(0..d.num_original_entities as u32, vec![&d.original]);
    let batch: Vec<Triple> = d.original.triples().iter().copied().take(6).collect();

    let mut rng_a = ChaCha8Rng::seed_from_u64(13);
    let mut g_a = Graph::new();
    let fused = batch_loss_parts(&mut g_a, &model, &d, &train_graph, &sampler, &batch, &mut rng_a);

    let mut rng_b = ChaCha8Rng::seed_from_u64(13);
    let prepared = prepare_batch(&model, &sampler, &train_graph, &batch, &mut rng_b);
    let mut g_b = Graph::new();
    let split = record_prepared(&mut g_b, &model, &d, &train_graph, &prepared, &mut rng_b);

    assert_eq!(g_a.len(), g_b.len(), "same tape length");
    assert_eq!(
        g_a.value(fused.total).item().to_bits(),
        g_b.value(split.total).item().to_bits(),
        "bitwise-identical loss"
    );
}
