//! Parallel == serial, bitwise.
//!
//! The parallel hot paths — batch subgraph extraction, negative
//! sampling / epoch assembly, and the ranking protocol — all promise
//! results that are a pure function of their inputs and seeds,
//! independent of the worker thread count. These tests pin that
//! contract on the tiny fixture (and, for extraction against the dense
//! reference, on a generated FB15k-237-profile dataset): every
//! comparison is exact equality, not a tolerance.

use dekg::core::reference::TapeReference;
use dekg::prelude::*;
use dekg_datasets::{assemble_epoch, tiny_fixture};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool")
}

/// The metrics registry and JSONL sinks are process-global, and cargo
/// runs this binary's tests on parallel threads — every test below
/// takes this lock so `dekg_obs::reset()` in one test cannot shear a
/// snapshot comparison in another.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn batch_extraction_matches_serial() {
    let _obs = obs_lock();
    let data = tiny_fixture(3);
    let graph = InferenceGraph::from_dataset(&data);
    let links: Vec<(EntityId, EntityId, Option<Triple>)> = data
        .test_enclosing
        .iter()
        .chain(&data.test_bridging)
        .map(|t| (t.head, t.tail, None))
        .collect();
    let extractor = SubgraphExtractor::new(&graph.adjacency, 2, ExtractionMode::Union);

    let serial: Vec<Subgraph> =
        pool(1).install(|| links.iter().map(|&(h, t, ex)| extractor.extract(h, t, ex)).collect());
    let parallel = pool(4).install(|| extractor.extract_batch(&links));
    assert_eq!(serial, parallel);
}

/// The parallel sparse extraction equals the dense reference (the seed
/// implementation) on a generated FB15k-237-profile dataset, not only
/// on hand-built unit-test graphs: every test link plus a slice of the
/// original KG, in both modes, with and without the target excluded.
#[test]
fn batch_extraction_matches_dense_reference() {
    let _obs = obs_lock();
    let profile = DatasetProfile::table2(RawKg::Fb15k237, SplitKind::Eq).scaled(0.04);
    let mut synth = SynthConfig::for_profile(profile, 1);
    synth.num_test_enclosing = synth.num_test_enclosing.clamp(40, 120);
    synth.num_test_bridging = synth.num_test_bridging.clamp(40, 120);
    let data = generate(&synth);
    let graph = InferenceGraph::from_dataset(&data);
    let targets: Vec<Triple> = data
        .test_enclosing
        .iter()
        .chain(&data.test_bridging)
        .chain(data.original.triples().iter().take(120))
        .copied()
        .collect();
    for mode in [ExtractionMode::Intersection, ExtractionMode::Union] {
        let extractor = SubgraphExtractor::new(&graph.adjacency, 2, mode);
        let mut edges = [0usize; 2];
        for (exclude, total) in [false, true].into_iter().zip(&mut edges) {
            let links: Vec<(EntityId, EntityId, Option<Triple>)> =
                targets.iter().map(|t| (t.head, t.tail, exclude.then_some(*t))).collect();
            let dense: Vec<Subgraph> = links
                .iter()
                .map(|&(h, t, ex)| extractor.extract_dense_reference(h, t, ex))
                .collect();
            let sparse = pool(4).install(|| extractor.extract_batch(&links));
            assert_eq!(dense, sparse, "mode={mode:?} exclude={exclude}");
            *total = sparse.iter().map(Subgraph::num_edges).sum();
        }
        // The original-KG targets are in the graph, so excluding them
        // must remove edges — the `exclude` arm is really exercised.
        assert!(edges[1] < edges[0], "mode={mode:?}: exclusion removed no edge {edges:?}");
    }
}

#[test]
fn negative_sampling_matches_serial() {
    let _obs = obs_lock();
    let data = tiny_fixture(4);
    let sampler = NegativeSampler::new(
        0..data.num_original_entities as u32,
        vec![&data.original, &data.emerging],
    );
    let positives = data.original.triples();

    let serial = pool(1).install(|| assemble_epoch(positives, 8, 2, &sampler, 0xA11CE));
    let parallel = pool(4).install(|| assemble_epoch(positives, 8, 2, &sampler, 0xA11CE));
    assert_eq!(serial, parallel);
}

#[test]
fn eval_ranking_matches_serial() {
    let _obs = obs_lock();
    let data = tiny_fixture(5);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut model =
        DekgIlp::new(DekgIlpConfig { epochs: 1, ..DekgIlpConfig::quick() }, &data, &mut rng);
    model.fit(&data, &mut rng);
    let graph = InferenceGraph::from_dataset(&data);
    let mix = TestMix::build(&data, MixRatio::for_split(SplitKind::Eq));

    let mut protocol = ProtocolConfig::sampled(20);
    protocol.seed = 9;
    protocol.threads = 1;
    let serial = evaluate(&model, &graph, &data, &mix, &protocol);
    protocol.threads = 4;
    let parallel = evaluate(&model, &graph, &data, &mix, &protocol);

    assert_eq!(serial.overall, parallel.overall);
    assert_eq!(serial.enclosing, parallel.enclosing);
    assert_eq!(serial.bridging, parallel.bridging);
    assert_eq!(serial.by_task, parallel.by_task);
}

#[test]
fn training_matches_serial() {
    let _obs = obs_lock();
    // The full training loop — epoch assembly, extraction, autograd,
    // optimizer — under different pool sizes from the same seed.
    let data = tiny_fixture(6);
    let run = |threads: usize| {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut model =
            DekgIlp::new(DekgIlpConfig { epochs: 2, ..DekgIlpConfig::quick() }, &data, &mut rng);
        let report = pool(threads).install(|| model.fit(&data, &mut rng));
        (report.initial_loss, report.final_loss)
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn metrics_are_thread_count_invariant() {
    // The observability contract: every metric *value* — counters,
    // gauges, histogram buckets — is a pure function of the run's
    // inputs and seeds, independent of the worker thread count.
    let _obs = obs_lock();
    let data = tiny_fixture(7);
    let run = |threads: usize| -> dekg_obs::MetricsSnapshot {
        dekg_obs::reset();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut model =
            DekgIlp::new(DekgIlpConfig { epochs: 1, ..DekgIlpConfig::quick() }, &data, &mut rng);
        pool(threads).install(|| model.fit(&data, &mut rng));
        let graph = InferenceGraph::from_dataset(&data);
        let mix = TestMix::build(&data, MixRatio::for_split(SplitKind::Eq));
        let mut protocol = ProtocolConfig::sampled(10);
        protocol.seed = 9;
        protocol.threads = threads;
        evaluate(&model, &graph, &data, &mix, &protocol);
        dekg_obs::metrics_snapshot()
    };
    let serial = run(1);
    // Sanity: the instrumented paths actually fired.
    assert!(serial.counters["dekg_kg_extractions_total"] > 0);
    assert!(serial.counters["dekg_neg_corruptions_total"] > 0);
    assert!(serial.counters["dekg_eval_queries_total"] > 0);
    assert!(serial.counters["dekg_train_steps_total"] > 0);
    assert!(serial.histograms["dekg_kg_subgraph_nodes"].count > 0);
    let parallel = run(4);
    // Bitwise-equal snapshots: counters, gauges and every histogram
    // bucket. (Wall-clock lives in spans, not in the registry.)
    // Compare per-entry first for a readable failure.
    for (name, value) in &serial.counters {
        assert_eq!(value, &parallel.counters[name], "counter {name} diverged");
    }
    for (name, value) in &serial.gauges {
        assert_eq!(
            value.to_bits(),
            parallel.gauges[name].to_bits(),
            "gauge {name} diverged: {value} vs {}",
            parallel.gauges[name]
        );
    }
    for (name, value) in &serial.histograms {
        assert_eq!(value, &parallel.histograms[name], "histogram {name} diverged");
    }
    assert_eq!(serial, parallel);
}

#[test]
fn eval_is_batch_size_and_thread_invariant() {
    // The batched engine's packing size (`eval_batch`) and the worker
    // thread count are pure performance knobs: metrics, ranks AND the
    // observability snapshot must be bitwise-invariant to both. The
    // snapshot check covers `dekg_eval_batch_nodes` (observed once per
    // query with the pack total, not once per chunk) and the BFS cache
    // counters (deterministic sums over candidates).
    let _obs = obs_lock();
    let data = tiny_fixture(9);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut model =
        DekgIlp::new(DekgIlpConfig { epochs: 1, ..DekgIlpConfig::quick() }, &data, &mut rng);
    model.fit(&data, &mut rng);
    let graph = InferenceGraph::from_dataset(&data);
    let mix = TestMix::build(&data, MixRatio::for_split(SplitKind::Eq));

    let mut run = |eval_batch: usize, threads: usize| {
        dekg_obs::reset();
        model.set_eval_batch(eval_batch);
        let mut protocol = ProtocolConfig::sampled(12);
        protocol.seed = 11;
        protocol.threads = threads;
        let result = evaluate(&model, &graph, &data, &mix, &protocol);
        (result.overall, result.enclosing, result.bridging, dekg_obs::metrics_snapshot())
    };
    let base = run(64, 1);
    assert!(base.3.counters["dekg_eval_bfs_cache_hits_total"] > 0, "cache never hit");
    assert!(base.3.histograms["dekg_eval_batch_nodes"].count > 0, "no packs recorded");
    for (eval_batch, threads) in [(1, 1), (5, 1), (64, 4), (3, 4), (256, 2)] {
        let other = run(eval_batch, threads);
        assert_eq!(base.0, other.0, "eval_batch={eval_batch} threads={threads}");
        assert_eq!(base.1, other.1, "eval_batch={eval_batch} threads={threads}");
        assert_eq!(base.2, other.2, "eval_batch={eval_batch} threads={threads}");
        assert_eq!(base.3, other.3, "snapshot diverged: eval_batch={eval_batch} threads={threads}");
    }
    // …and every one of those runs equals the per-candidate tape.
    let mut protocol = ProtocolConfig::sampled(12);
    protocol.seed = 11;
    let tape = evaluate(&TapeReference::new(&model), &graph, &data, &mix, &protocol);
    assert_eq!((base.0, base.1, base.2), (tape.overall, tape.enclosing, tape.bridging));
}

#[test]
fn jsonl_sink_round_trips() {
    let _obs = obs_lock();
    let dir = std::env::temp_dir();
    let metrics_path = dir.join(format!("dekg_obs_m_{}.jsonl", std::process::id()));
    let trace_path = dir.join(format!("dekg_obs_t_{}.jsonl", std::process::id()));
    dekg_obs::reset();
    dekg_obs::set_metrics_path(metrics_path.to_str().unwrap()).unwrap();
    dekg_obs::set_trace_path(trace_path.to_str().unwrap()).unwrap();

    let data = tiny_fixture(8);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut model =
        DekgIlp::new(DekgIlpConfig { epochs: 1, ..DekgIlpConfig::quick() }, &data, &mut rng);
    model.fit(&data, &mut rng);
    dekg_obs::finish();
    dekg_obs::event::clear_sinks();

    for path in [&metrics_path, &trace_path] {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(!text.trim().is_empty(), "{} is empty", path.display());
        let mut kinds = Vec::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            // Schema: each line is a JSON object whose first key is the
            // "event" kind, and it round-trips byte-identically.
            let v = serde_json::parse_value(line).expect("line parses");
            assert_eq!(serde_json::to_string(&v).unwrap(), line, "round-trip mismatch");
            let serde::Value::Object(pairs) = &v else { panic!("event is not an object") };
            let Some((key, serde::Value::Str(kind))) = pairs.first() else {
                panic!("first key is not a string");
            };
            assert_eq!(key, "event");
            kinds.push(kind.clone());
        }
        std::fs::remove_file(path).ok();
        if path == &metrics_path {
            for required in ["train_step", "epoch", "metrics"] {
                assert!(kinds.iter().any(|k| k == required), "missing {required} event");
            }
        }
    }

    // The typed snapshot round-trips through the serde shims too.
    let snap = dekg_obs::metrics_snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    let back: dekg_obs::MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap, back);
}
