//! The observer-contract harness behind `BENCH_perf.json`.
//!
//! End-to-end and per-stage speed is measured by `dekgbench` (see
//! `BENCHMARK.json`). This binary keeps the three contracts nothing
//! else checks, on the synthetic FB15k-237 profile, and asserts each
//! one during the run:
//!
//! * `--alloc-check`: the warmed batched scoring loop performs zero
//!   heap allocations, and its measured peak stays under the tape
//!   memory plan's prediction;
//! * `tapecheck`: cache-served static analysis of rebuilt training
//!   tapes hits the cache every time and costs under half of recording
//!   the tape;
//! * `profile`: the per-op kernel profiler attributes ≥ 90% of the
//!   tape-execution bracket, changes no loss or gradient bit, and adds
//!   under 5% wall time.
//!
//! ```sh
//! cargo run --release -p dekg-bench --bin perf
//! cargo run --release -p dekg-bench --bin perf -- --scale 0.04 --out /tmp/p.json
//! ```
//!
//! See the "Performance" section of `EXPERIMENTS.md` for the recorded
//! runs.

use dekg_core::{DekgIlp, DekgIlpConfig, InferenceGraph};
use dekg_datasets::{generate, DatasetProfile, DekgDataset, RawKg, SplitKind, SynthConfig};
use dekg_kg::Triple;
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
    out: String,
    alloc_check: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts { scale: 0.08, seed: 1, out: "BENCH_perf.json".into(), alloc_check: false }
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
                "--out" => o.out = value(i).to_owned(),
                "--alloc-check" => {
                    o.alloc_check = true;
                    i += 1;
                    continue;
                }
                "--help" | "-h" => {
                    eprintln!("flags: --scale F --seed N --out FILE --alloc-check");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other:?} (try --help)"),
            }
            i += 2;
        }
        o
    }
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

#[derive(Serialize)]
struct ProfileSection {
    /// Tape executions profiled.
    batches: usize,
    /// Structurally distinct batch shapes those executions rotate over.
    distinct_structures: usize,
    /// Total tape nodes across the profiled executions.
    tape_nodes: u64,
    /// Seconds inside the tape-execution bracket of the profiled runs.
    span_seconds: f64,
    /// Summed per-op kernel seconds the profiler attributed.
    attributed_seconds: f64,
    /// `attributed_seconds / span_seconds` — asserted ≥ 0.90.
    coverage: f64,
    /// Hottest op by total kernel time.
    hottest_op: String,
    /// Summed bracket seconds of the same executions with the profiler
    /// off (`span_seconds` is the profiler-on sum).
    unprofiled_seconds: f64,
    /// Median over all (round, batch) pairs of `on / off - 1` —
    /// asserted < 0.05.
    overhead_ratio: f64,
    /// Loss and gradient bits identical with the profiler on and off.
    outputs_identical: bool,
}

/// Measures [`ProfileSection`]. The 5% overhead bar is tighter than
/// this machine's run-to-run jitter, so the two profiler states are
/// paired per batch ([`dekg_core::profile_train_paired`]): one model,
/// each batch prepared once, and the two modes run back to back per
/// batch in alternating order over six rounds. The overhead is the
/// median of the per-pair ratios, so a scheduler stall moves one pair,
/// not the estimate. The profiled runs also yield the coverage table.
fn time_profile(dataset: &DekgDataset, opts: &Opts) -> ProfileSection {
    const BATCHES: usize = 8;
    const DISTINCT: usize = 2;
    const ROUNDS: usize = 6;
    let paired = dekg_core::profile_train_paired(dataset, opts.seed, BATCHES, DISTINCT, ROUNDS);
    let report = &paired.report;
    ProfileSection {
        batches: report.batches,
        distinct_structures: DISTINCT,
        tape_nodes: report.nodes,
        span_seconds: report.span_seconds,
        attributed_seconds: report.attributed_seconds(),
        coverage: report.coverage(),
        hottest_op: report.ops.first().map(|o| o.op.to_string()).unwrap_or_default(),
        unprofiled_seconds: paired.unprofiled_seconds,
        overhead_ratio: paired.overhead_ratio,
        outputs_identical: paired.outputs_identical,
    }
}

#[derive(Serialize)]
struct Report {
    dataset: String,
    scale: f64,
    seed: u64,
    /// Static tape analysis overhead: cold vs cache-served, relative to
    /// the cost of recording the tape itself.
    tapecheck: TapecheckSection,
    /// The per-op kernel profiler's observer contract: attribution
    /// coverage, overhead and bitwise output identity.
    profile: ProfileSection,
}

/// The zero-allocation sanitizer: builds a small model, extracts and
/// packs one candidate batch, warms the scoring workspace, then runs
/// the batched scoring loop under the counting allocator and asserts
/// the steady state never touches the heap. Guards the
/// `InferenceWorkspace`/scratch-buffer discipline the batched engine
/// was built on — a stray `Vec::new()` in the hot loop fails this run.
#[cfg(feature = "count-alloc")]
fn alloc_check(opts: &Opts) {
    use dekg_kg::{BatchedSubgraphs, EntityId, SubgraphExtractor};

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

fn main() {
    // The tracked numbers must not include span-timer overhead, however
    // small — this harness measures the profiler, not the telemetry.
    dekg_obs::set_spans_enabled(false);
    let opts = Opts::from_args();
    if opts.alloc_check {
        alloc_check(&opts);
        return;
    }
    let profile = DatasetProfile::table2(RawKg::Fb15k237, SplitKind::Eq).scaled(opts.scale);
    let dataset = generate(&SynthConfig::for_profile(profile, opts.seed));
    println!("perf harness on {} (scale {:.2})", dataset.name, opts.scale);

    // Profiling overhead is measured first, while the process is quiet:
    // the tapecheck section churns the heap, which inflates run-to-run
    // jitter toward the 5% bar this section asserts.
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
        profile.span_seconds,
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

    let report = Report {
        dataset: dataset.name.clone(),
        scale: opts.scale,
        seed: opts.seed,
        tapecheck,
        profile,
    };
    if let Err(e) = dekg_eval::report::save_json(std::path::Path::new(&opts.out), &report) {
        eprintln!("could not write {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("report written to {}", opts.out);
}
