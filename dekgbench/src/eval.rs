//! `eval-sampled`: the paper's filtered-ranking protocol through
//! `dekg_eval::evaluate` — all three prediction forms, K = 50 sampled
//! candidates, `nproc` threads — over the scale-0.25 dataset.
//!
//! Untraced runs time whole `evaluate` passes and each query's
//! `score_batch` call. Traced runs replay one pass through the public
//! calls `score_batch` makes (candidate filtering, `Clrm::score`,
//! `SubgraphExtractor`, `BatchedSubgraphs::pack`,
//! `DekgIlp::score_packed`, `Gsm::score_subgraph_multi_rel`) with a span
//! around each, and assert the replay's metrics bitwise equal to
//! `evaluate`'s.

use crate::fixture::{filter_store, Loaded};
use crate::layers::Shapes;
use crate::metrics::Outcome;
use crate::trace::{totals, Tracer};
use crate::{fixture, stats, sys, Ctx};
use dekg_core::gsm::InferenceWorkspace;
use dekg_core::{DekgIlp, InferenceGraph, LinkPredictor};
use dekg_datasets::{LinkClass, MixRatio, SplitKind, TestMix};
use dekg_eval::ranking::filtered_candidates;
use dekg_eval::{
    evaluate, rank_of, EvalResult, PredictionTask, ProtocolConfig, RankAccumulator, RankQuery,
};
use dekg_kg::{
    BatchedSubgraphs, EntityId, RelationId, Subgraph, SubgraphExtractor, Triple, TripleStore,
};
use dekg_tensor::Graph;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Dataset scale: 672 entities, 240 enclosing + bridging test links.
const SCALE: f64 = 0.25;
/// Sampled candidates per query.
const CANDIDATES: usize = 50;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Minimum timed passes per run.
const MIN_PASSES: usize = 3;

fn protocol(seed: u64) -> ProtocolConfig {
    ProtocolConfig {
        num_candidates: Some(CANDIDATES),
        tasks: PredictionTask::all().to_vec(),
        seed,
        threads: sys::nproc(),
    }
}

fn rank_query(task: PredictionTask, t: Triple) -> RankQuery {
    match task {
        PredictionTask::Head => RankQuery::Head(t),
        PredictionTask::Relation => RankQuery::Relation(t),
        PredictionTask::Tail => RankQuery::Tail(t),
    }
}

/// `(query index, truth, class, task)` in `evaluate`'s order.
fn queries(
    links: &[(Triple, LinkClass)],
    tasks: &[PredictionTask],
) -> Vec<(u64, Triple, LinkClass, PredictionTask)> {
    let mut out = Vec::with_capacity(links.len() * tasks.len());
    for (li, &(triple, class)) in links.iter().enumerate() {
        for (ti, &task) in tasks.iter().enumerate() {
            out.push(((li * tasks.len() + ti) as u64, triple, class, task));
        }
    }
    out
}

/// A `LinkPredictor` that times each `score_batch` call — one call per
/// ranking query inside `evaluate`.
struct Timed<'m> {
    inner: &'m DekgIlp,
    ms: Mutex<Vec<f64>>,
}

impl LinkPredictor for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn score_batch(&self, graph: &InferenceGraph, triples: &[Triple]) -> Vec<f32> {
        let started = Instant::now();
        let scores = self.inner.score_batch(graph, triples);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.ms.lock().unwrap_or_else(PoisonError::into_inner).push(ms);
        scores
    }
    fn num_parameters(&self) -> usize {
        self.inner.num_parameters()
    }
}

/// Scores `batch` on the autograd tape: `Clrm::score` over the batch
/// plus, per triple, `Gsm::score_subgraph` (dropout off) over a plain
/// `extract`. Shares no code path with the batched engine.
pub fn tape_scores(model: &DekgIlp, graph: &InferenceGraph, batch: &[Triple]) -> Vec<f32> {
    let cfg = model.config();
    let mut sem = vec![0.0f32; batch.len()];
    if let Some(clrm) = model.clrm() {
        let mut g = Graph::new();
        let s = clrm.score(&mut g, model.params(), &graph.tables, batch);
        sem.copy_from_slice(g.value(s).data());
    }
    let extractor = SubgraphExtractor::new(&graph.adjacency, cfg.hops, cfg.extraction_mode());
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
    batch
        .iter()
        .zip(sem)
        .map(|(t, s)| {
            let sg = extractor.extract(t.head, t.tail, None);
            let mut g = Graph::new();
            let v = model.gsm().score_subgraph(&mut g, model.params(), &sg, t.rel, false, &mut rng);
            s + g.value(v).item()
        })
        .collect()
}

/// Count of positions where `got` differs bitwise from `want`.
pub fn bitwise_mismatches(want: &[f32], got: &[f32]) -> usize {
    if want.len() != got.len() {
        return want.len().max(got.len());
    }
    want.iter().zip(got).filter(|(a, b)| a.to_bits() != b.to_bits()).count()
}

/// The output check: re-scores a fixed sample of ranking queries on the
/// tape and compares against `score_batch`. Returns `(checked, failed)`.
fn check_sample(
    l: &Loaded,
    filter: &TripleStore,
    links: &[(Triple, LinkClass)],
    seed: u64,
) -> (u64, u64) {
    let tasks = PredictionTask::all();
    let all = queries(links, &tasks);
    // One enclosing and one bridging link (the mix lists enclosing
    // first), every prediction form.
    let picks: Vec<usize> = [0, links.len() - 1]
        .into_iter()
        .flat_map(|li| (0..tasks.len()).map(move |ti| li * tasks.len() + ti))
        .collect();
    let mut failed = 0u64;
    for &i in &picks {
        let (qi, triple, _, task) = all[i];
        let query = rank_query(task, triple);
        let mut rng = dekg_datasets::item_rng(seed, qi);
        let candidates = filtered_candidates(
            &query,
            l.graph.num_entities,
            l.graph.num_relations,
            filter,
            Some(CANDIDATES),
            &mut rng,
        );
        let mut batch = vec![triple];
        batch.extend_from_slice(&candidates);
        let lib = l.model.score_batch(&l.graph, &batch);
        let reference = tape_scores(&l.model, &l.graph, &batch);
        let bad = bitwise_mismatches(&reference, &lib);
        if bad > 0 {
            eprintln!("eval-sampled: query {qi} ({task:?}): {bad} score(s) differ from the tape");
            failed += 1;
        }
    }
    (picks.len() as u64, failed)
}

fn metrics_equal(a: &EvalResult, b: &EvalResult) -> bool {
    a.overall == b.overall
        && a.enclosing == b.enclosing
        && a.bridging == b.bridging
        && a.by_task == b.by_task
}

/// Runs the workload.
///
/// # Errors
/// Input generation or load failures.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = fixture::write_inputs(&ctx.workdir, ctx.data_seed, ctx.seed, SCALE)?;
    sys::reset_peak_rss()?;
    let (l, setup) = fixture::repeat_setup(if ctx.trace { 1 } else { SETUP_REPS }, |prev| {
        drop(prev);
        let started = Instant::now();
        let l = fixture::load(&inputs)?;
        Ok((l, started.elapsed().as_secs_f64()))
    })?;
    let mix = TestMix::build(&l.dataset, MixRatio::for_split(SplitKind::Eq));
    let filter = filter_store(&l);
    let cfg = protocol(ctx.seed);
    let nq = (mix.links.len() * cfg.tasks.len()) as u64;

    let mut out = Outcome::default();
    let (checked, check_failed) = check_sample(&l, &filter, &mix.links, ctx.seed);
    out.attempted += checked;
    out.failed += check_failed;

    let timed = Timed { inner: &l.model, ms: Mutex::new(Vec::new()) };
    let mut qps = Vec::new();
    let mut reference: Option<EvalResult> = None;
    let started = Instant::now();
    let passes_wanted = if ctx.trace { 1 } else { MIN_PASSES };
    while qps.len() < passes_wanted || (!ctx.trace && started.elapsed().as_secs_f64() < ctx.seconds)
    {
        let t = Instant::now();
        let result = evaluate(&timed, &l.graph, &l.dataset, &mix, &cfg);
        qps.push(nq as f64 / t.elapsed().as_secs_f64());
        out.attempted += nq;
        match &reference {
            None => reference = Some(result),
            Some(first) if !metrics_equal(first, &result) => {
                eprintln!("eval-sampled: pass {} ranks differ from pass 1", qps.len());
                out.failed += nq;
            }
            Some(_) => {}
        }
    }
    let reference = reference.expect("at least one pass");
    let qps_median = stats::median(&qps);
    let latencies = timed.ms.into_inner().unwrap_or_else(PoisonError::into_inner);
    eprintln!(
        "eval-sampled: {} passes of {nq} queries; queries/s {}; score_batch per query {}; setup {} s",
        qps.len(),
        stats::describe_spread(&qps),
        stats::describe_ms(&latencies),
        stats::describe_spread(&setup),
    );

    if ctx.trace {
        out.set("eval.query_ms_p50", stats::percentile(&latencies, 50.0));
        out.set("eval.query_ms_p90", stats::percentile(&latencies, 90.0));
        traced(ctx, &l, &filter, &mix.links, &cfg, &reference, qps_median, &mut out)?;
    } else {
        out.set("setup_s", stats::median(&setup));
        out.set("throughput_per_s", qps_median);
    }
    Ok(out)
}

thread_local! {
    static WORKSPACE: RefCell<InferenceWorkspace> = RefCell::new(InferenceWorkspace::new());
}

/// Work counts of one replayed query.
#[derive(Debug, Default, Clone, Copy)]
struct QueryCounts {
    candidates: u64,
    clrm_calls: u64,
    bfs_calls: u64,
    extract_calls: u64,
    cache_hits: u64,
    cache_attempts: u64,
    shapes: Shapes,
    pack_calls: u64,
    pack_nodes: u64,
    packed_calls: u64,
    multi_rel_calls: u64,
}

impl QueryCounts {
    fn merge(&mut self, o: &QueryCounts) {
        self.candidates += o.candidates;
        self.clrm_calls += o.clrm_calls;
        self.bfs_calls += o.bfs_calls;
        self.extract_calls += o.extract_calls;
        self.cache_hits += o.cache_hits;
        self.cache_attempts += o.cache_attempts;
        self.shapes.merge(&o.shapes);
        self.pack_calls += o.pack_calls;
        self.pack_nodes += o.pack_nodes;
        self.packed_calls += o.packed_calls;
        self.multi_rel_calls += o.multi_rel_calls;
    }
}

/// Stages whose spans tile a replayed query.
const STAGES: [&str; 7] = [
    "eval.candidates",
    "clrm.score",
    "kg.bfs_source",
    "kg.extract",
    "kg.pack",
    "gsm.packed",
    "gsm.multi_rel",
];

/// Replays one query through the calls `score_batch` makes on its
/// batched path, timing each.
fn replay_query(
    tracer: &Tracer,
    l: &Loaded,
    filter: &TripleStore,
    seed: u64,
    (qi, triple, task): (u64, Triple, PredictionTask),
) -> (f64, QueryCounts) {
    let _query = tracer.span("eval.query", qi);
    let mut c = QueryCounts::default();
    let model = &l.model;
    let graph = &l.graph;
    let query = rank_query(task, triple);
    let mut rng = dekg_datasets::item_rng(seed, qi);
    let candidates = tracer.time("eval.candidates", qi, || {
        filtered_candidates(
            &query,
            graph.num_entities,
            graph.num_relations,
            filter,
            Some(CANDIDATES),
            &mut rng,
        )
    });
    c.candidates = candidates.len() as u64;
    let mut batch = Vec::with_capacity(candidates.len() + 1);
    batch.push(triple);
    batch.extend_from_slice(&candidates);

    let mut scores = tracer.time("clrm.score", qi, || {
        let mut sem = vec![0.0f32; batch.len()];
        if let Some(clrm) = model.clrm() {
            let mut g = Graph::new();
            let s = clrm.score(&mut g, model.params(), &graph.tables, &batch);
            sem.copy_from_slice(g.value(s).data());
        }
        sem
    });
    c.clrm_calls = 1;

    let cfg = model.config();
    let extractor = SubgraphExtractor::new(&graph.adjacency, cfg.hops, cfg.extraction_mode());
    let (h0, t0) = (batch[0].head, batch[0].tail);
    let all_h = batch.iter().all(|t| t.head == h0);
    let all_t = batch.iter().all(|t| t.tail == t0);
    let mut tpo = Vec::with_capacity(batch.len());
    if all_h && all_t {
        let sg = tracer.time("kg.extract", qi, || extractor.extract(h0, t0, None));
        c.extract_calls = 1;
        c.shapes.add(std::slice::from_ref(&sg));
        let rels: Vec<RelationId> = batch.iter().map(|t| t.rel).collect();
        tracer.time("gsm.multi_rel", qi, || {
            WORKSPACE.with(|ws| {
                model.gsm().score_subgraph_multi_rel(
                    model.params(),
                    &sg,
                    &rels,
                    &mut ws.borrow_mut(),
                    &mut tpo,
                );
            });
        });
        c.multi_rel_calls = 1;
    } else {
        assert!(all_h || all_t, "ranking batch without a shared endpoint: the protocol changed");
        let fixed: EntityId = if all_h { h0 } else { t0 };
        let cache = tracer.time("kg.bfs_source", qi, || extractor.cache_source(fixed));
        c.bfs_calls = 1;
        for chunk in batch.chunks(model.eval_batch().max(1)) {
            let sgs: Vec<Subgraph> = tracer.time("kg.extract", qi, || {
                chunk
                    .iter()
                    .map(|t| {
                        let (sg, hit) =
                            extractor.extract_with_cached_source(&cache, t.head, t.tail, None);
                        c.cache_hits += u64::from(hit);
                        sg
                    })
                    .collect()
            });
            c.cache_attempts += chunk.len() as u64;
            c.extract_calls += chunk.len() as u64;
            c.shapes.add(&sgs);
            let packed = tracer.time("kg.pack", qi, || BatchedSubgraphs::pack(&sgs));
            c.pack_calls += 1;
            c.pack_nodes += packed.total_nodes() as u64;
            let rels: Vec<RelationId> = chunk.iter().map(|t| t.rel).collect();
            tracer.time("gsm.packed", qi, || {
                WORKSPACE.with(|ws| {
                    let mut part = Vec::with_capacity(chunk.len());
                    model.score_packed(&packed, &rels, &mut ws.borrow_mut(), &mut part);
                    tpo.extend_from_slice(&part);
                });
            });
            c.packed_calls += 1;
        }
    }
    for (s, t) in scores.iter_mut().zip(&tpo) {
        *s += t;
    }
    (rank_of(scores[0], &scores[1..]), c)
}

#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    l: &Loaded,
    filter: &TripleStore,
    links: &[(Triple, LinkClass)],
    cfg: &ProtocolConfig,
    reference: &EvalResult,
    untraced_qps: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    use rayon::prelude::*;
    let qs = queries(links, &cfg.tasks);
    let tracer = Tracer::new();
    let threads = dekg_eval::effective_threads(cfg.threads);
    let pool =
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().map_err(|e| e.to_string())?;
    dekg_tensor::prof::reset();
    dekg_tensor::prof::set_enabled(true);
    let started = Instant::now();
    let results: Vec<(f64, QueryCounts)> = {
        let _pass = tracer.span("eval.pass", 0);
        pool.install(|| {
            qs.par_iter()
                .map(|&(qi, triple, _, task)| {
                    replay_query(&tracer, l, filter, cfg.seed, (qi, triple, task))
                })
                .collect()
        })
    };
    let wall = started.elapsed().as_secs_f64();
    dekg_tensor::prof::set_enabled(false);

    // Fold exactly as `evaluate` does.
    let mut enclosing = RankAccumulator::new();
    let mut bridging = RankAccumulator::new();
    let mut per_task = vec![RankAccumulator::new(); cfg.tasks.len()];
    let mut counts = QueryCounts::default();
    for (&(qi, _, class, _), (rank, c)) in qs.iter().zip(&results) {
        match class {
            LinkClass::Enclosing => enclosing.push(*rank),
            LinkClass::Bridging => bridging.push(*rank),
        }
        per_task[qi as usize % cfg.tasks.len()].push(*rank);
        counts.merge(c);
    }
    let mut overall = enclosing.clone();
    overall.merge(&bridging);
    let by_task: Vec<_> =
        cfg.tasks.iter().zip(&per_task).map(|(&t, acc)| (t, acc.finish())).collect();
    let nq = qs.len() as u64;
    out.attempted += nq;
    if overall.finish() != reference.overall
        || enclosing.finish() != reference.enclosing
        || bridging.finish() != reference.bridging
        || by_task != reference.by_task
    {
        eprintln!("eval-sampled: traced replay ranks differ from evaluate — the scoring structure changed");
        out.failed += nq;
    }

    let spans = tracer.spans();
    let t = totals(&spans);
    // Stage figures are self time; brackets are whole durations.
    let secs = |n: &str| t.get(n).map_or(0.0, |s| s.self_seconds);
    let calls = |n: &str| t.get(n).map_or(0, |s| s.calls) as f64;
    // Share of the per-query brackets that named stages account for.
    let staged: f64 = STAGES.iter().map(|s| secs(s)).sum();
    let coverage = staged / t.get("eval.query").map_or(f64::NAN, |s| s.seconds);
    let traced_qps = nq as f64 / wall;
    out.set("trace.stage_coverage", coverage);
    out.set("trace.overhead", untraced_qps / traced_qps - 1.0);
    out.set("eval.queries_per_s", traced_qps);
    out.set("eval.candidates.s", secs("eval.candidates"));
    out.set("eval.candidates.per_query", counts.candidates as f64 / nq as f64);
    out.set("clrm.score.s", secs("clrm.score"));
    out.set("clrm.score.calls", counts.clrm_calls as f64);
    out.set("kg.bfs_source.s", secs("kg.bfs_source"));
    out.set("kg.bfs_source.calls", counts.bfs_calls as f64);
    out.set("kg.extract.s", secs("kg.extract"));
    out.set("kg.extract.calls", counts.extract_calls as f64);
    out.set("kg.bfs_reuse_ratio", counts.cache_hits as f64 / counts.cache_attempts.max(1) as f64);
    counts.shapes.set(out);
    out.set("kg.pack.s", secs("kg.pack"));
    out.set("kg.pack.nodes", counts.pack_nodes as f64);
    out.set("gsm.packed.s", secs("gsm.packed"));
    out.set("gsm.packed.calls", calls("gsm.packed"));
    out.set("gsm.multi_rel.s", secs("gsm.multi_rel"));
    out.set("gsm.multi_rel.calls", calls("gsm.multi_rel"));
    crate::layers::set_tensor_profile(out);
    out.set("fail_share", out.failed as f64 / out.attempted.max(1) as f64);
    eprintln!(
        "eval-sampled traced: {traced_qps:.1} queries/s (untraced {untraced_qps:.1}), stage coverage {:.3}, {} spans",
        coverage,
        spans.len()
    );
    tracer.write_jsonl(&ctx.trace_path("eval-sampled")).map_err(|e| e.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dekg_core::DekgIlpConfig;

    /// The output check passes on the library's own scores and fails
    /// when one score is perturbed by a single ulp.
    #[test]
    fn perturbed_score_fails_the_check() {
        let d = dekg_datasets::tiny_fixture(3);
        let graph = InferenceGraph::from_dataset(&d);
        let cfg = DekgIlpConfig { dim: 8, gnn_layers: 2, ..DekgIlpConfig::paper() };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let model = DekgIlp::new(cfg, &d, &mut rng);
        let t0 = d.test_bridging[0];
        let batch: Vec<Triple> = (0..12u32)
            .map(|i| Triple::new(t0.head, t0.rel, EntityId((i * 5) % d.num_entities() as u32)))
            .collect();
        let reference = tape_scores(&model, &graph, &batch);
        let mut lib = model.score_batch(&graph, &batch);
        assert_eq!(bitwise_mismatches(&reference, &lib), 0, "batched engine must match the tape");
        lib[3] = f32::from_bits(lib[3].to_bits() + 1);
        assert_eq!(bitwise_mismatches(&reference, &lib), 1);
    }
}
