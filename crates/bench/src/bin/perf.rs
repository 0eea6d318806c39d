//! The tracked performance harness behind `BENCH_perf.json`.
//!
//! Times the three optimized hot paths on the synthetic FB15k-237
//! profile — enclosing-subgraph extraction, one training epoch, and the
//! full filtered-ranking evaluation — each as the *seed pipeline*
//! versus the current one. For extraction and training the seed is
//! dense `O(|E|)` extraction on one thread versus sparse extraction on
//! `--threads` workers; for evaluation the seed additionally scores
//! each candidate through the autograd tape
//! ([`dekg_core::reference::TapeReference`]), while the current
//! pipeline uses the batched candidate-ranking engine — a separate
//! `batched` section isolates that engine's win over the tape at the
//! same extraction backend and thread count, and a `serve` section boots the
//! `dekg serve` daemon to split its one-time startup cost from warm
//! per-request latency. Every timed pair is also checked for identical
//! output, so the speedups are measured against a bit-equal baseline,
//! not a different computation.
//!
//! ```sh
//! cargo run --release -p dekg-bench --bin perf
//! cargo run --release -p dekg-bench --bin perf -- --threads 2 --scale 0.05 --out /tmp/p.json
//! ```
//!
//! See the "Performance" section of `EXPERIMENTS.md` for how these
//! numbers relate to the paper's Table IV, and `DESIGN.md` for why the
//! parallel pipeline is bitwise-deterministic.

use dekg_core::reference::TapeReference;
use dekg_core::{DekgIlp, DekgIlpConfig, InferenceGraph, TrainableModel};
use dekg_datasets::{
    generate, item_rng, loader, DatasetProfile, DekgDataset, MixRatio, RawKg, SplitKind,
    SynthConfig, TestMix,
};
use dekg_eval::{evaluate, filtered_rank, EvalResult, ProtocolConfig, RankQuery};
use dekg_kg::{DistanceBackend, EntityId, SubgraphExtractor, Triple};
use dekg_serve::{http_call, RankEngine, ServeConfig, Server};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

/// Counting global allocator behind the `count-alloc` feature. Every
/// heap allocation (and growing reallocation) bumps one relaxed atomic;
/// `--alloc-check` reads it around the warmed batched scoring loop and
/// demands a delta of zero. Kept behind a feature because counting
/// perturbs the timing numbers this harness tracks.
#[cfg(feature = "count-alloc")]
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
    static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

    /// Delegates to [`System`], counting `alloc`/`realloc` calls and
    /// tracking live heap bytes plus their high-water mark.
    pub struct CountingAlloc;

    fn on_alloc(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let cur = CURRENT_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_BYTES.fetch_max(cur, Ordering::Relaxed);
    }

    // `GlobalAlloc` is an unsafe trait; this impl only forwards to the
    // system allocator around relaxed atomic bookkeeping.
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            on_alloc(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            on_alloc(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Total allocations so far (monotonic; read before/after a region).
    pub fn count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    /// Bytes currently live on the heap.
    pub fn current_bytes() -> u64 {
        CURRENT_BYTES.load(Ordering::Relaxed)
    }

    /// Resets the high-water mark to the current live size so a
    /// region's peak growth can be measured in isolation.
    pub fn reset_peak() {
        PEAK_BYTES.store(CURRENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// High-water mark of live heap bytes since the last [`reset_peak`].
    pub fn peak_bytes() -> u64 {
        PEAK_BYTES.load(Ordering::Relaxed)
    }
}

struct Opts {
    scale: f64,
    seed: u64,
    threads: usize,
    candidates: usize,
    epochs: usize,
    out: String,
    alloc_check: bool,
    compare: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 0.08,
            seed: 1,
            threads: 4,
            candidates: 30,
            epochs: 2,
            out: "BENCH_perf.json".into(),
            alloc_check: false,
            compare: None,
        }
    }
}

impl Opts {
    fn from_args() -> Self {
        let mut o = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = |i: usize| -> &str {
                args.get(i + 1).unwrap_or_else(|| panic!("flag {flag} needs a value"))
            };
            match flag {
                "--scale" => o.scale = value(i).parse().expect("--scale f64"),
                "--seed" => o.seed = value(i).parse().expect("--seed u64"),
                "--threads" => o.threads = value(i).parse().expect("--threads usize"),
                "--candidates" => o.candidates = value(i).parse().expect("--candidates usize"),
                "--epochs" => o.epochs = value(i).parse().expect("--epochs usize"),
                "--out" => o.out = value(i).to_owned(),
                "--compare" => o.compare = Some(value(i).to_owned()),
                "--alloc-check" => {
                    o.alloc_check = true;
                    i += 1;
                    continue;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale F --seed N --threads N --candidates N --epochs N \
                         --out FILE --alloc-check --compare BASELINE.json"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other:?} (try --help)"),
            }
            i += 2;
        }
        assert!(o.threads >= 1, "--threads must be at least 1");
        o
    }
}

/// One timed pipeline configuration.
#[derive(Serialize)]
struct Timed {
    backend: String,
    threads: usize,
    seconds: f64,
}

/// A timed section: baseline (seed pipeline) vs current, plus derived
/// speedup and the proof that both computed the same output.
#[derive(Serialize)]
struct Section {
    baseline: Timed,
    current: Timed,
    /// `baseline.seconds / current.seconds`.
    speedup: f64,
    /// Both variants produced bitwise-identical results.
    outputs_identical: bool,
}

fn section(baseline: Timed, current: Timed, outputs_identical: bool) -> Section {
    let speedup = if current.seconds > 0.0 { baseline.seconds / current.seconds } else { 0.0 };
    Section { baseline, current, speedup, outputs_identical }
}

/// The static tape analyzer's overhead profile: a cold analysis of one
/// production training-batch tape versus cache-served re-analysis of
/// structurally identical rebuilds, against the cost of recording the
/// tape itself (the thing any per-step analysis must amortize under).
#[derive(Serialize)]
struct TapecheckSection {
    /// Nodes in the analyzed training-batch tape.
    tape_nodes: usize,
    /// The memory plan's predicted peak for that tape.
    predicted_peak_bytes: usize,
    /// One full three-pass analysis, no cache.
    cold_analysis_seconds: f64,
    /// Recording the tape once (forward execution included).
    tape_build_seconds: f64,
    /// Steady-state cache-served analysis per rebuilt identical tape
    /// (one structure hash + lookup).
    cached_analysis_seconds: f64,
    /// Cache hits over steady-state iterations (must be 1.0).
    cache_hit_rate: f64,
    /// `cached_analysis_seconds / tape_build_seconds` — the per-step
    /// overhead `train --tape-report` adds once warm.
    amortized_overhead_ratio: f64,
}

/// Times the tape static analyzer on one production training-batch
/// tape: cold, then cache-served over identical rebuilds.
fn time_tapecheck(dataset: &DekgDataset, opts: &Opts) -> TapecheckSection {
    use dekg_datasets::NegativeSampler;

    let cfg = DekgIlpConfig { epochs: 1, ..DekgIlpConfig::quick() };
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let model = DekgIlp::new(cfg, dataset, &mut rng);
    let train_graph = InferenceGraph::training_view(dataset);
    let sampler =
        NegativeSampler::new(0..dataset.num_original_entities as u32, vec![&dataset.original]);
    let batch: Vec<Triple> = dataset.original.triples().iter().copied().take(8).collect();
    let build = || {
        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0x7a9e);
        let mut g = dekg_tensor::Graph::new();
        let parts = dekg_core::batch_loss_parts(
            &mut g,
            &model,
            dataset,
            &train_graph,
            &sampler,
            &batch,
            &mut rng,
        );
        (g, parts)
    };

    const ITERS: usize = 8;
    let start = Instant::now();
    let tapes: Vec<_> = (0..ITERS).map(|_| build()).collect();
    let tape_build_seconds = start.elapsed().as_secs_f64() / ITERS as f64;

    let (g, parts) = build();
    let observed = parts.observed_vars();
    let start = Instant::now();
    let report =
        dekg_tensor::tapecheck::tapecheck_with(&g, parts.total, &observed, Some(model.params()));
    let cold_analysis_seconds = start.elapsed().as_secs_f64();
    assert_eq!(report.errors(), 0, "perf harness training tape has shape errors");

    let mut cache = dekg_tensor::TapeCache::new();
    cache.analyze(&g, parts.total, &observed, Some(model.params()));
    let start = Instant::now();
    for (g2, p2) in &tapes {
        cache.analyze(g2, p2.total, &p2.observed_vars(), Some(model.params()));
    }
    let cached_analysis_seconds = start.elapsed().as_secs_f64() / ITERS as f64;
    let cache_hit_rate = cache.hits() as f64 / ITERS as f64;

    TapecheckSection {
        tape_nodes: report.num_nodes,
        predicted_peak_bytes: report.plan.peak_live_bytes,
        cold_analysis_seconds,
        tape_build_seconds,
        cached_analysis_seconds,
        cache_hit_rate,
        amortized_overhead_ratio: if tape_build_seconds > 0.0 {
            cached_analysis_seconds / tape_build_seconds
        } else {
            0.0
        },
    }
}

/// The serving daemon's cost profile: the one-time startup cost a
/// `dekg serve` operator pays before `/readyz` flips, against warm
/// per-request latency through the full HTTP → admission-batch →
/// batched-scoring path, with every served response checked byte-equal
/// to the library protocol's answer.
#[derive(Serialize)]
struct ServeSection {
    /// Scale of the serving dataset — fixed at [`SERVE_SCALE`], not
    /// `--scale`: this section measures load-once/answer-many
    /// economics, which need a serving-sized graph, not the timing
    /// microbenchmark's tiny slice (where startup would be noise).
    scale: f64,
    /// Everything `RankEngine::load` does once: dataset load, inference
    /// graph and filter construction, checkpoint restore.
    startup_seconds: f64,
    /// Concurrent clients driving the warm measurement.
    clients: usize,
    /// Total warm requests timed (after a full warm-up pass).
    requests: usize,
    /// Median warm request latency, wall time per `POST /rank`.
    warm_p50_latency_seconds: f64,
    /// 99th-percentile warm request latency.
    warm_p99_latency_seconds: f64,
    /// Warm requests served per second across all clients.
    throughput_rps: f64,
    /// Every served body byte-matched `filtered_rank` on the same
    /// checkpoint — the daemon's fidelity pin, measured under load.
    responses_identical: bool,
}

/// The serving dataset's scale (of the full synthetic FB15k-237 EQ
/// profile). Decoupled from `--scale`: the daemon's startup cost must
/// reflect a graph worth keeping resident, independent of how small
/// the timing microbenchmark's slice is.
const SERVE_SCALE: f64 = 1.0;

/// Boots a real `dekg-serve` daemon over a serving-scale dataset
/// (written to a temp dir, exactly as an operator would lay it out)
/// and measures cold startup versus warm concurrent request latency.
fn time_serve(opts: &Opts) -> ServeSection {
    let profile = DatasetProfile::table2(RawKg::Fb15k237, SplitKind::Eq).scaled(SERVE_SCALE);
    let mut synth = SynthConfig::for_profile(profile, opts.seed);
    synth.num_test_enclosing = synth.num_test_enclosing.clamp(12, 24);
    synth.num_test_bridging = synth.num_test_bridging.clamp(12, 24);
    let dataset = generate(&synth);
    let dir = std::env::temp_dir().join(format!("dekg-perf-serve-{}", std::process::id()));
    let data_dir = dir.join("data");
    std::fs::create_dir_all(&data_dir).expect("serve temp dir");
    loader::save_dir(&dataset, &data_dir).expect("save serve dataset");
    let data = data_dir.to_string_lossy().into_owned();
    // The daemon's view of the dataset is the disk round-trip (vocab
    // interning order comes from the files, not the generator).
    let served = loader::load_dir(&data, &data).expect("reload serve dataset");
    let ckpt = dir.join("model.dekg").to_string_lossy().into_owned();
    let cfg = DekgIlpConfig::quick();
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let model = DekgIlp::new(cfg.clone(), &served, &mut rng);
    model.save_checkpoint(&ckpt).expect("write serve checkpoint");
    let cfg_json = serde_json::to_string_pretty(&cfg).expect("render serve config");
    std::fs::write(format!("{ckpt}.json"), cfg_json).expect("write serve config");

    // Cold startup: everything the daemon does between `bind` and the
    // moment `/readyz` starts answering 200.
    let start = Instant::now();
    let engine = RankEngine::load(&data, &ckpt).expect("serve engine load");
    let startup_seconds = start.elapsed().as_secs_f64();

    // No admission linger: this probe measures per-request latency, so
    // the batcher should drain eagerly rather than wait out its window
    // (batching still happens whenever clients overlap).
    let cfg = ServeConfig { workers: opts.threads, max_wait_ms: 0, ..ServeConfig::default() };
    let server = Server::bind(cfg).expect("bind serve socket");
    let addr = server.addr().to_string();
    server.install_engine(engine);

    // The query set: tail-ranking the first held-out enclosing links,
    // with the expected reply reconstructed through the same library
    // entry points `dekg evaluate` uses.
    let links = served.test_enclosing.len().min(12);
    // Cheap probe queries: the section measures serving overhead (HTTP,
    // admission batching, warm workspaces), so a small candidate set
    // keeps the scoring work itself from drowning the measurement.
    let candidates = 4;
    let lib_model = DekgIlp::restore(&ckpt, &served).expect("restore serve checkpoint");
    let graph = InferenceGraph::from_dataset(&served);
    let mut filter = graph.store.clone();
    for t in served.valid.iter().chain(&served.test_enclosing).chain(&served.test_bridging) {
        filter.insert(*t);
    }
    let mut bodies = Vec::new();
    let mut expected = Vec::new();
    for li in 0..links {
        let t = served.test_enclosing[li];
        bodies.push(format!(
            "{{\"rank\": {{\"task\": \"tail\", \"head\": \"{}\", \"rel\": \"{}\", \
             \"tail\": \"{}\", \"candidates\": {candidates}, \"seed\": {}, \"index\": {li}}}}}",
            served.vocab.entity_name(t.head),
            served.vocab.relation_name(t.rel),
            served.vocab.entity_name(t.tail),
            opts.seed,
        ));
        let mut rng = item_rng(opts.seed, li as u64);
        let rank = filtered_rank(
            &lib_model,
            &graph,
            &RankQuery::Tail(t),
            &filter,
            Some(candidates),
            &mut rng,
        );
        let reply = serde_json::to_string(&serde::Value::Object(vec![
            ("task".to_owned(), serde::Value::Str("tail".to_owned())),
            ("rank".to_owned(), serde::Value::Num(serde::Number::F(rank))),
        ]))
        .expect("render expected reply");
        expected.push(reply);
    }

    // Warm-up passes: the first touch sizes every worker's scratch
    // workspace, the second settles lazy paging and branch caches.
    let mut identical = true;
    for _ in 0..2 {
        for (body, want) in bodies.iter().zip(&expected) {
            let (status, reply) =
                http_call(&addr, "POST", "/rank", Some(body)).expect("warm-up rank");
            identical &= status == 200 && reply == *want;
        }
    }

    const ROUNDS: usize = 10;
    let clients = dekg_eval::effective_threads(opts.threads).clamp(1, 4);
    let wall = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, bodies, expected) = (&addr, &bodies, &expected);
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let mut ok = true;
                    for round in 0..ROUNDS {
                        for i in 0..bodies.len() {
                            // Offset per client so concurrent admission
                            // batches mix different queries.
                            let qi = (i + c + round) % bodies.len();
                            let start = Instant::now();
                            let (status, reply) =
                                http_call(addr, "POST", "/rank", Some(&bodies[qi]))
                                    .expect("timed rank");
                            lat.push(start.elapsed().as_secs_f64());
                            ok &= status == 200 && reply == expected[qi];
                        }
                    }
                    (lat, ok)
                })
            })
            .collect();
        for handle in handles {
            let (lat, ok) = handle.join().expect("serve client thread");
            latencies.extend(lat);
            identical &= ok;
        }
    });
    let wall_seconds = wall.elapsed().as_secs_f64();

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);

    latencies.sort_by(f64::total_cmp);
    let requests = latencies.len();
    let percentile = |hundredths: usize| latencies[(requests - 1) * hundredths / 100];
    ServeSection {
        scale: SERVE_SCALE,
        startup_seconds,
        clients,
        requests,
        warm_p50_latency_seconds: percentile(50),
        warm_p99_latency_seconds: percentile(99),
        throughput_rps: if wall_seconds > 0.0 { requests as f64 / wall_seconds } else { 0.0 },
        responses_identical: identical,
    }
}

/// The per-op kernel profiler's observer contract, measured on the
/// production training tape: attribution coverage (how much of the
/// timed bracket the hot-op table explains), overhead (profiled vs
/// unprofiled wall time of the identical workload), and the bitwise
/// proof that arming the profiler changed no output.
#[derive(Serialize)]
struct ProfileSection {
    /// Tape executions profiled.
    batches: usize,
    /// Structurally distinct batch shapes those executions rotate over.
    distinct_structures: usize,
    /// Total tape nodes across the profiled executions.
    tape_nodes: u64,
    /// Seconds inside the tape-execution bracket of the profiled run.
    span_seconds: f64,
    /// Summed per-op kernel seconds the profiler attributed.
    attributed_seconds: f64,
    /// `attributed_seconds / span_seconds` — asserted ≥ 0.90.
    coverage: f64,
    /// Hottest op by total kernel time.
    hottest_op: String,
    /// Best-of-2 bracket seconds with the profiler off.
    unprofiled_seconds: f64,
    /// Best-of-2 bracket seconds with the profiler on.
    profiled_seconds: f64,
    /// `profiled / unprofiled - 1` — asserted < 0.05.
    overhead_ratio: f64,
    /// Loss and gradient bits identical with the profiler on and off.
    outputs_identical: bool,
}

/// Measures [`ProfileSection`]: one warm-up, then interleaved timed
/// runs of the identical workload per profiler state. The 5% overhead
/// bar is tighter than this machine's run-to-run jitter, so each
/// mode's estimate is the sum of *per-batch* minima across six
/// alternating rounds — a scheduler stall biases the comparison only
/// if it hits the same batch in every round of one mode. Rounds
/// alternate which mode runs first so monotonic drift (VM steal,
/// thermal) cannot systematically tax one mode either.
fn time_profile(dataset: &DekgDataset, opts: &Opts) -> ProfileSection {
    const BATCHES: usize = 8;
    const DISTINCT: usize = 2;
    let run = |profiled: bool| {
        dekg_core::profile_train_outputs(dataset, opts.seed, BATCHES, DISTINCT, profiled)
    };
    let fold_minima = |best: &mut [f64], sample: &[f64]| {
        for (b, s) in best.iter_mut().zip(sample) {
            *b = b.min(*s);
        }
    };
    let _ = run(false); // warm-up: page in the model, size caches
    let mut off_best = vec![f64::INFINITY; BATCHES];
    let mut on_best = vec![f64::INFINITY; BATCHES];
    let mut bits: Option<Vec<u32>> = None;
    let mut outputs_identical = true;
    for round in 0..6 {
        let first_profiled = round % 2 == 1;
        let (a, bits_a) = run(first_profiled);
        let (b, bits_b) = run(!first_profiled);
        let (off, on) = if first_profiled { (&b, &a) } else { (&a, &b) };
        fold_minima(&mut off_best, off);
        fold_minima(&mut on_best, on);
        outputs_identical &= bits_a == bits_b;
        let first = bits.get_or_insert(bits_a);
        outputs_identical &= *first == bits_b;
    }
    let unprofiled_seconds: f64 = off_best.iter().sum();
    let profiled_seconds: f64 = on_best.iter().sum();
    let report = dekg_core::profile_train(dataset, opts.seed, BATCHES, DISTINCT);
    ProfileSection {
        batches: report.batches,
        distinct_structures: DISTINCT,
        tape_nodes: report.nodes,
        span_seconds: report.span_seconds,
        attributed_seconds: report.attributed_seconds(),
        coverage: report.coverage(),
        hottest_op: report.ops.first().map(|o| o.op.to_string()).unwrap_or_default(),
        unprofiled_seconds,
        profiled_seconds,
        overhead_ratio: if unprofiled_seconds > 0.0 {
            profiled_seconds / unprofiled_seconds - 1.0
        } else {
            0.0
        },
        outputs_identical,
    }
}

#[derive(Serialize)]
struct Report {
    dataset: String,
    scale: f64,
    seed: u64,
    threads: usize,
    candidates: usize,
    epochs: usize,
    /// Worker threads actually available on this machine — on a 1-core
    /// host the parallel numbers measure overhead, and the speedups
    /// below come from the batched scoring engine and the sparse
    /// extraction backend, not from threads.
    available_parallelism: usize,
    extraction: Section,
    train_epoch: Section,
    eval: Section,
    /// The batched candidate-ranking engine against per-candidate tape
    /// scoring at the same (sparse) extraction backend and thread count
    /// — isolates what the engine itself (forward-only kernels,
    /// block-diagonal packing, BFS reuse) adds.
    batched: Section,
    /// Static tape analysis overhead: cold vs cache-served, relative to
    /// the cost of recording the tape itself.
    tapecheck: TapecheckSection,
    /// The `dekg serve` daemon: one-time startup vs warm request
    /// latency, responses pinned byte-equal to the library protocol.
    serve: ServeSection,
    /// The per-op kernel profiler's observer contract: attribution
    /// coverage, overhead and bitwise output identity.
    profile: ProfileSection,
    eval_queries: usize,
    /// The headline number: end-to-end evaluation, seed pipeline (tape
    /// scoring, dense extraction, serial) vs current (batched scoring,
    /// sparse extraction, `threads` workers).
    end_to_end_eval_speedup: f64,
}

fn pool(threads: usize) -> rayon::ThreadPool {
    // Clamp to the machine: oversubscribed pools measure scheduler
    // overhead, not the pipeline (the eval protocol clamps the same way).
    let threads = dekg_eval::effective_threads(threads);
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool")
}

/// Extraction section: every test link, dense/serial vs sparse/parallel.
fn time_extraction(dataset: &DekgDataset, graph: &InferenceGraph, threads: usize) -> Section {
    let links: Vec<(EntityId, EntityId, Option<Triple>)> = dataset
        .test_enclosing
        .iter()
        .chain(&dataset.test_bridging)
        .map(|t| (t.head, t.tail, None))
        .collect();
    let hops = 2;
    let dense = SubgraphExtractor::new(&graph.adjacency, hops, dekg_kg::ExtractionMode::Union)
        .with_backend(DistanceBackend::DenseReference);
    let sparse = SubgraphExtractor::new(&graph.adjacency, hops, dekg_kg::ExtractionMode::Union);

    let start = Instant::now();
    let base_out: Vec<_> = links.iter().map(|&(h, t, ex)| dense.extract(h, t, ex)).collect();
    let base_secs = start.elapsed().as_secs_f64();

    let p = pool(threads);
    let start = Instant::now();
    let cur_out = p.install(|| sparse.extract_batch(&links));
    let cur_secs = start.elapsed().as_secs_f64();

    section(
        Timed { backend: "dense".into(), threads: 1, seconds: base_secs },
        Timed { backend: "sparse".into(), threads, seconds: cur_secs },
        base_out == cur_out,
    )
}

/// One training epoch, seed pipeline vs current. Training draws from
/// the RNG stream, so "identical output" is checked on the final loss
/// of two runs from the same seed.
fn time_train_epoch(dataset: &DekgDataset, opts: &Opts) -> Section {
    let run = |backend: DistanceBackend, threads: usize| -> (f64, f32) {
        let cfg = DekgIlpConfig { epochs: 1, ..DekgIlpConfig::quick() };
        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
        let mut model = DekgIlp::new(cfg, dataset, &mut rng);
        model.set_distance_backend(backend);
        let p = pool(threads);
        let report = p.install(|| model.fit(dataset, &mut rng));
        (report.seconds, report.final_loss)
    };
    let (base_secs, base_loss) = run(DistanceBackend::DenseReference, 1);
    let (cur_secs, cur_loss) = run(DistanceBackend::Sparse, opts.threads);
    section(
        Timed { backend: "dense".into(), threads: 1, seconds: base_secs },
        Timed { backend: "sparse".into(), threads: opts.threads, seconds: cur_secs },
        base_loss == cur_loss,
    )
}

/// Full filtered-ranking evaluation, three ways: the seed pipeline
/// (per-candidate tape scoring, dense extraction, serial), the same
/// tape scoring at sparse extraction on `threads` workers, and the
/// batched candidate-ranking engine.
///
/// Returns the headline section (seed vs batched), the `batched`
/// section isolating the batched engine's own win over the tape at
/// equal extraction and threads, the query count and the batched
/// result.
fn time_eval(
    dataset: &DekgDataset,
    graph: &InferenceGraph,
    opts: &Opts,
) -> (Section, Section, usize, EvalResult) {
    let cfg = DekgIlpConfig { epochs: opts.epochs, ..DekgIlpConfig::quick() };
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let mut model = DekgIlp::new(cfg, dataset, &mut rng);
    model.fit(dataset, &mut rng);

    let mix = TestMix::build(dataset, MixRatio::for_split(SplitKind::Eq));
    let mut protocol = ProtocolConfig::sampled(opts.candidates);
    protocol.seed = opts.seed;

    // Baseline: the seed pipeline — scoring through the autograd tape,
    // dense extraction, one thread.
    protocol.threads = 1;
    model.set_distance_backend(DistanceBackend::DenseReference);
    let base = evaluate(&TapeReference::new(&model), graph, dataset, &mix, &protocol);

    // Tape scoring, sparse extraction, N threads: the `batched`
    // section's baseline.
    protocol.threads = opts.threads;
    model.set_distance_backend(DistanceBackend::Sparse);
    let tape = evaluate(&TapeReference::new(&model), graph, dataset, &mix, &protocol);

    // Current: the batched candidate-ranking engine.
    let batched = evaluate(&model, graph, dataset, &mix, &protocol);

    let metrics_eq = |a: &EvalResult, b: &EvalResult| {
        a.overall == b.overall && a.enclosing == b.enclosing && a.bridging == b.bridging
    };
    let current = || Timed {
        backend: "batched+sparse".into(),
        threads: opts.threads,
        seconds: batched.timing.wall_seconds,
    };
    let eval_section = section(
        Timed { backend: "tape+dense".into(), threads: 1, seconds: base.timing.wall_seconds },
        current(),
        metrics_eq(&base, &batched),
    );
    let batched_section = section(
        Timed {
            backend: "tape+sparse".into(),
            threads: opts.threads,
            seconds: tape.timing.wall_seconds,
        },
        current(),
        metrics_eq(&tape, &batched),
    );
    let queries = batched.timing.queries;
    (eval_section, batched_section, queries, batched)
}

/// The zero-allocation sanitizer: builds a small model, extracts and
/// packs one candidate batch, warms the scoring workspace, then runs
/// the batched scoring loop under the counting allocator and asserts
/// the steady state never touches the heap. Guards the
/// `InferenceWorkspace`/scratch-buffer discipline the batched engine
/// was built on — a stray `Vec::new()` in the hot loop fails this run.
#[cfg(feature = "count-alloc")]
fn alloc_check(opts: &Opts) {
    use dekg_kg::BatchedSubgraphs;

    let profile = DatasetProfile::table2(RawKg::Fb15k237, SplitKind::Eq).scaled(0.02);
    let mut synth = SynthConfig::for_profile(profile, opts.seed);
    synth.num_test_enclosing = synth.num_test_enclosing.clamp(8, 24);
    synth.num_test_bridging = synth.num_test_bridging.clamp(8, 24);
    let dataset = generate(&synth);
    let graph = InferenceGraph::from_dataset(&dataset);
    let cfg = DekgIlpConfig::quick();
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let model = DekgIlp::new(cfg, &dataset, &mut rng);

    // Extract and pack ONCE — the sanitizer isolates the scoring loop,
    // the one region the zero-allocation contract covers.
    let extractor = SubgraphExtractor::new(&graph.adjacency, 2, dekg_kg::ExtractionMode::Union);
    let links: Vec<(EntityId, EntityId, Option<Triple>)> =
        dataset.test_enclosing.iter().map(|t| (t.head, t.tail, None)).collect();
    let sgs = extractor.extract_batch(&links);
    let batch = BatchedSubgraphs::pack(&sgs);
    let rels: Vec<dekg_kg::RelationId> = dataset.test_enclosing.iter().map(|t| t.rel).collect();

    // Predicted memory bound: the tape-based formulation of the same
    // scoring work, analyzed statically. Each candidate's autograd tape
    // gets a liveness/buffer-reuse plan; the sum of the per-candidate
    // peaks is what an optimally-scheduled tape executor would need, so
    // the workspace-based batched engine must stay at or under it in
    // steady state (it reuses warmed buffers, so its delta is ~zero).
    let predicted_peak: usize = {
        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
        dataset
            .test_enclosing
            .iter()
            .zip(&sgs)
            .map(|(t, sg)| {
                let mut g = dekg_tensor::Graph::new();
                let score =
                    model.gsm().score_subgraph(&mut g, model.params(), sg, t.rel, false, &mut rng);
                let report = dekg_tensor::tapecheck::tapecheck_with(&g, score, &[], None);
                report.plan.peak_live_bytes
            })
            .sum()
    };

    let mut ws = dekg_core::gsm::InferenceWorkspace::new();
    let mut out: Vec<f32> = Vec::new();
    // Warm-up: the first call sizes every scratch buffer.
    model.score_packed(&batch, &rels, &mut ws, &mut out);
    let warm = out.clone();

    const ITERS: usize = 64;
    let before = alloc_counter::count();
    let live_before = alloc_counter::current_bytes();
    alloc_counter::reset_peak();
    for _ in 0..ITERS {
        out.clear();
        model.score_packed(&batch, &rels, &mut ws, &mut out);
    }
    let delta = alloc_counter::count() - before;
    let measured_peak_delta = alloc_counter::peak_bytes().saturating_sub(live_before) as usize;
    assert_eq!(out, warm, "steady-state batched scores drifted between iterations");
    println!(
        "alloc-check: {ITERS} warmed batched-scoring iterations \
         ({} candidates, {} packed nodes): {delta} heap allocations",
        rels.len(),
        batch.total_nodes(),
    );
    println!(
        "alloc-check: measured steady-state peak growth {measured_peak_delta} byte(s) vs \
         {predicted_peak} byte(s) predicted by the tape memory plan"
    );
    assert_eq!(
        delta, 0,
        "batched scoring loop allocated in steady state — a scratch buffer \
         is being rebuilt per call instead of reused from InferenceWorkspace"
    );
    assert!(
        measured_peak_delta <= predicted_peak,
        "steady-state batched scoring grew the heap by {measured_peak_delta} byte(s), more \
         than the {predicted_peak} byte(s) the static tape memory plan predicts"
    );
    record_alloc_check(&opts.out, ITERS, rels.len(), delta, predicted_peak, measured_peak_delta);
    println!("alloc-check: OK — steady-state batched scoring is allocation-free");
}

/// Merges an `alloc_check` section into the JSON report at `out`
/// (creating the file when absent), preserving every other key a prior
/// default `perf` run wrote.
#[cfg(feature = "count-alloc")]
fn record_alloc_check(
    out: &str,
    iters: usize,
    candidates: usize,
    allocations: u64,
    predicted_peak: usize,
    measured_peak_delta: usize,
) {
    use serde::{Number, Value};
    let num = |n: u64| Value::Num(Number::U(n));
    let section = Value::Object(vec![
        ("iterations".into(), num(iters as u64)),
        ("candidates".into(), num(candidates as u64)),
        ("steady_state_allocations".into(), num(allocations)),
        ("predicted_peak_bytes".into(), num(predicted_peak as u64)),
        ("measured_peak_delta_bytes".into(), num(measured_peak_delta as u64)),
    ]);
    let mut root = match std::fs::read_to_string(out) {
        Ok(text) => match serde_json::parse_value(&text) {
            Ok(Value::Object(pairs)) => pairs,
            _ => {
                eprintln!("{out}: existing report is not a JSON object; rewriting");
                Vec::new()
            }
        },
        Err(_) => Vec::new(),
    };
    match root.iter_mut().find(|(k, _)| k == "alloc_check") {
        Some((_, v)) => *v = section,
        None => root.push(("alloc_check".into(), section)),
    }
    let text = serde_json::to_string_pretty(&Value::Object(root)).expect("render alloc_check");
    if let Err(e) = std::fs::write(out, text) {
        eprintln!("could not write {out}: {e}");
        std::process::exit(1);
    }
    println!("alloc-check: predicted-vs-measured peak recorded in {out}");
}

#[cfg(not(feature = "count-alloc"))]
fn alloc_check(_opts: &Opts) {
    eprintln!(
        "--alloc-check needs the counting allocator: rebuild with \
         `cargo run --release -p dekg-bench --features count-alloc --bin perf -- --alloc-check`"
    );
    std::process::exit(2);
}

/// The ratio metrics the regression watchdog tracks: dotted paths into
/// the report JSON where *lower means slower* (speedups, attribution
/// coverage). A metric present in the baseline but missing from the
/// current report is also a failure — a tracked number can't silently
/// disappear.
const TRACKED_RATIOS: &[&str] = &[
    "extraction.speedup",
    "train_epoch.speedup",
    "eval.speedup",
    "batched.speedup",
    "end_to_end_eval_speedup",
    "profile.coverage",
];

/// How far a tracked ratio may drift below its baseline before the
/// watchdog calls it a regression. Perf boxes are noisy and several
/// sections time sub-second regions, so the bar is deliberately loose:
/// a real regression (lost parallelism, a pessimized kernel, attribution
/// hooks falling off a path) overshoots 40% drift; run-to-run jitter
/// does not.
const COMPARE_TOLERANCE: f64 = 0.6;

/// Follows a dotted path (`"eval.speedup"`) through nested JSON
/// objects to a number.
fn lookup(root: &serde::Value, path: &str) -> Option<f64> {
    let mut v = root;
    for key in path.split('.') {
        let serde::Value::Object(pairs) = v else { return None };
        v = &pairs.iter().find(|(k, _)| k == key)?.1;
    }
    match v {
        serde::Value::Num(serde::Number::I(i)) => Some(*i as f64),
        serde::Value::Num(serde::Number::U(u)) => Some(*u as f64),
        serde::Value::Num(serde::Number::F(f)) => Some(*f),
        _ => None,
    }
}

/// Collects every boolean field named `*identical*` anywhere in the
/// report — the output-fidelity pins (`outputs_identical`,
/// `responses_identical`) the watchdog refuses to see `false`.
fn collect_identity_pins(v: &serde::Value, prefix: &str, out: &mut Vec<(String, bool)>) {
    if let serde::Value::Object(pairs) = v {
        for (k, child) in pairs {
            let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
            match child {
                serde::Value::Bool(b) if k.contains("identical") => out.push((path, *b)),
                _ => collect_identity_pins(child, &path, out),
            }
        }
    }
}

/// `perf --compare BASELINE.json`: the perf-regression watchdog. A pure
/// file-vs-file check — no measurement — comparing the report at
/// `--out` (the current run, default `BENCH_perf.json`) against a
/// baseline report. Exits nonzero when any tracked speedup/coverage
/// ratio fell beyond [`COMPARE_TOLERANCE`], disappeared, or any
/// output-identity pin in the current report is `false`.
fn compare_reports(baseline_path: &str, current_path: &str) {
    let load = |path: &str| -> serde::Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perf --compare: cannot read {path}: {e}");
            std::process::exit(2);
        });
        serde_json::parse_value(&text).unwrap_or_else(|e| {
            eprintln!("perf --compare: {path} is not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let baseline = load(baseline_path);
    let current = load(current_path);
    let mut regressions = 0usize;
    for path in TRACKED_RATIOS {
        let Some(base) = lookup(&baseline, path) else {
            println!("  {path}: not in baseline, skipped");
            continue;
        };
        match lookup(&current, path) {
            None => {
                eprintln!(
                    "  {path}: REGRESSION — tracked in baseline ({base:.3}) but missing \
                           from {current_path}"
                );
                regressions += 1;
            }
            Some(cur) if cur < base * COMPARE_TOLERANCE => {
                eprintln!(
                    "  {path}: REGRESSION — {cur:.3} is below {:.3} ({:.0}% of the \
                     baseline {base:.3})",
                    base * COMPARE_TOLERANCE,
                    COMPARE_TOLERANCE * 100.0
                );
                regressions += 1;
            }
            Some(cur) => {
                println!("  {path}: ok ({cur:.3} vs baseline {base:.3})");
            }
        }
    }
    let mut pins = Vec::new();
    collect_identity_pins(&current, "", &mut pins);
    for (path, ok) in pins {
        if !ok {
            eprintln!("  {path}: REGRESSION — output-identity pin is false in {current_path}");
            regressions += 1;
        }
    }
    if regressions > 0 {
        eprintln!(
            "perf --compare: {regressions} regression(s) in {current_path} vs {baseline_path}"
        );
        std::process::exit(1);
    }
    println!("perf --compare: {current_path} holds every tracked ratio of {baseline_path}");
}

fn main() {
    // The tracked numbers must not include span-timer overhead, however
    // small — this harness measures the pipeline, not the telemetry.
    dekg_obs::set_spans_enabled(false);
    let opts = Opts::from_args();
    if let Some(baseline) = &opts.compare {
        compare_reports(baseline, &opts.out);
        return;
    }
    if opts.alloc_check {
        alloc_check(&opts);
        return;
    }
    let profile = DatasetProfile::table2(RawKg::Fb15k237, SplitKind::Eq).scaled(opts.scale);
    let mut synth = SynthConfig::for_profile(profile, opts.seed);
    synth.num_test_enclosing = synth.num_test_enclosing.clamp(40, 120);
    synth.num_test_bridging = synth.num_test_bridging.clamp(40, 120);
    let dataset = generate(&synth);
    let graph = InferenceGraph::from_dataset(&dataset);
    println!(
        "perf harness on {} (scale {:.2}, {} threads requested, {} available)",
        dataset.name,
        opts.scale,
        opts.threads,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    // Profiling overhead is measured first, while the process is quiet:
    // the later sections spin up thread pools and churn the heap, which
    // inflates run-to-run jitter well past the 5% bar this section asserts.
    println!("profiling the training tape…");
    let profile = time_profile(&dataset, &opts);
    println!(
        "  {} batches, {} nodes: {:.1}% coverage (hottest {}), overhead {:+.1}% \
         ({:.3}s off / {:.3}s on), identical: {}",
        profile.batches,
        profile.tape_nodes,
        profile.coverage * 100.0,
        profile.hottest_op,
        profile.overhead_ratio * 100.0,
        profile.unprofiled_seconds,
        profile.profiled_seconds,
        profile.outputs_identical
    );
    assert!(
        profile.outputs_identical,
        "arming the kernel profiler changed a loss or gradient bit — profiling must \
         observe, never participate"
    );
    assert!(
        profile.coverage >= 0.90,
        "hot-op table attributes only {:.1}% of the tape-execution bracket (bar: 90%) — \
         a kernel path is missing its profiler hook",
        profile.coverage * 100.0
    );
    assert!(
        profile.overhead_ratio < 0.05,
        "kernel profiling adds {:.1}% wall time (bar: 5%)",
        profile.overhead_ratio * 100.0
    );

    println!("timing subgraph extraction…");
    let extraction = time_extraction(&dataset, &graph, opts.threads);
    println!(
        "  dense/serial {:.3}s  sparse/{}t {:.3}s  speedup {:.2}x  identical: {}",
        extraction.baseline.seconds,
        opts.threads,
        extraction.current.seconds,
        extraction.speedup,
        extraction.outputs_identical
    );

    println!("timing one training epoch…");
    let train_epoch = time_train_epoch(&dataset, &opts);
    println!(
        "  dense/serial {:.2}s  sparse/{}t {:.2}s  speedup {:.2}x  identical loss: {}",
        train_epoch.baseline.seconds,
        opts.threads,
        train_epoch.current.seconds,
        train_epoch.speedup,
        train_epoch.outputs_identical
    );

    println!("timing full evaluation…");
    let (eval, batched, eval_queries, result) = time_eval(&dataset, &graph, &opts);
    println!(
        "  tape+dense/serial {:.2}s  batched+sparse/{}t {:.2}s  speedup {:.2}x  \
         identical metrics: {}  ({} queries, {:.1}/s)",
        eval.baseline.seconds,
        opts.threads,
        eval.current.seconds,
        eval.speedup,
        eval.outputs_identical,
        eval_queries,
        result.timing.queries_per_second
    );
    println!(
        "  batched engine vs tape (sparse/{}t): {:.2}s -> {:.2}s  speedup {:.2}x  \
         identical metrics: {}",
        opts.threads,
        batched.baseline.seconds,
        batched.current.seconds,
        batched.speedup,
        batched.outputs_identical
    );

    println!("timing tape static analysis…");
    let tapecheck = time_tapecheck(&dataset, &opts);
    println!(
        "  {} node(s): cold {:.4}s, cached {:.6}s/iter vs {:.4}s/tape build \
         (overhead {:.4}x, hit rate {:.2})",
        tapecheck.tape_nodes,
        tapecheck.cold_analysis_seconds,
        tapecheck.cached_analysis_seconds,
        tapecheck.tape_build_seconds,
        tapecheck.amortized_overhead_ratio,
        tapecheck.cache_hit_rate
    );
    assert!(
        (tapecheck.cache_hit_rate - 1.0).abs() < f64::EPSILON,
        "structurally identical rebuilt tapes missed the analysis cache"
    );
    assert!(
        tapecheck.amortized_overhead_ratio < 0.5,
        "cache-served tape analysis costs {:.3}x of tape recording — overhead is not \
         amortized to noise",
        tapecheck.amortized_overhead_ratio
    );

    println!("timing the serving daemon…");
    let serve = time_serve(&opts);
    println!(
        "  startup {:.3}s  warm p50 {:.5}s  p99 {:.5}s  {:.1} req/s \
         ({} requests from {} clients)  identical: {}",
        serve.startup_seconds,
        serve.warm_p50_latency_seconds,
        serve.warm_p99_latency_seconds,
        serve.throughput_rps,
        serve.requests,
        serve.clients,
        serve.responses_identical
    );
    assert!(
        serve.warm_p99_latency_seconds < serve.startup_seconds,
        "warm p99 request latency ({:.4}s) is not under the one-time startup cost \
         ({:.4}s) — the daemon's warm caches are not paying for themselves",
        serve.warm_p99_latency_seconds,
        serve.startup_seconds
    );

    let report = Report {
        dataset: dataset.name.clone(),
        scale: opts.scale,
        seed: opts.seed,
        threads: opts.threads,
        candidates: opts.candidates,
        epochs: opts.epochs,
        available_parallelism: std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get),
        end_to_end_eval_speedup: eval.speedup,
        extraction,
        train_epoch,
        eval,
        batched,
        tapecheck,
        serve,
        profile,
        eval_queries,
    };
    if let Err(e) = dekg_eval::report::save_json(std::path::Path::new(&opts.out), &report) {
        eprintln!("could not write {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!(
        "end-to-end eval speedup {:.2}x — report written to {}",
        report.end_to_end_eval_speedup, opts.out
    );
    assert!(
        report.extraction.outputs_identical
            && report.train_epoch.outputs_identical
            && report.eval.outputs_identical
            && report.batched.outputs_identical
            && report.serve.responses_identical,
        "parallel/sparse/batched/served pipeline diverged from its baseline"
    );
}
