//! The full evaluation protocol: all prediction forms over a labeled
//! test mix, with per-class breakdowns and thread-parallel scoring.
//!
//! Parallelism is query-granular with per-query child seeds (see
//! `dekg_datasets::seeding`): query `q` — the `t`-th prediction form of
//! the `l`-th link — samples its candidates from a ChaCha8 stream
//! seeded by `split_seed(cfg.seed, q)`, and ranks are folded into the
//! accumulators in query order after the parallel map returns. Both
//! choices make the result bitwise-identical at any thread count.

use crate::metrics::{Metrics, RankAccumulator};
use crate::ranking::{filtered_rank, RankQuery};
use crate::timing::EvalTiming;
use dekg_core::{InferenceGraph, LinkPredictor};
use dekg_datasets::{DekgDataset, LinkClass, TestMix};
use dekg_kg::{Triple, TripleStore};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Which prediction forms to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictionTask {
    /// `(?, r, t)`.
    Head,
    /// `(h, ?, t)`.
    Relation,
    /// `(h, r, ?)`.
    Tail,
}

impl PredictionTask {
    /// All three forms, as in the paper ("we extend these baselines to
    /// all the forms of prediction tasks").
    pub fn all() -> [PredictionTask; 3] {
        [PredictionTask::Head, PredictionTask::Relation, PredictionTask::Tail]
    }

    fn query(self, t: Triple) -> RankQuery {
        match self {
            PredictionTask::Head => RankQuery::Head(t),
            PredictionTask::Relation => RankQuery::Relation(t),
            PredictionTask::Tail => RankQuery::Tail(t),
        }
    }
}

/// Protocol configuration.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Candidate cap per query; `None` ranks against the full
    /// filtered candidate set (the paper's protocol).
    pub num_candidates: Option<usize>,
    /// Which prediction forms to run.
    pub tasks: Vec<PredictionTask>,
    /// Seed for candidate sampling.
    pub seed: u64,
    /// Worker threads (1 = sequential).
    pub threads: usize,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            num_candidates: None,
            tasks: PredictionTask::all().to_vec(),
            seed: 0,
            threads: 1,
        }
    }
}

impl ProtocolConfig {
    /// A CPU-friendly configuration: 50 sampled candidates, all tasks,
    /// as many threads as available (capped at 8).
    pub fn sampled(num_candidates: usize) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        ProtocolConfig { num_candidates: Some(num_candidates), threads, ..Self::default() }
    }
}

/// Evaluation output with the per-class breakdown of Fig. 5 and a
/// per-prediction-form breakdown (head/relation/tail).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalResult {
    /// Metrics over the whole mix (Table III rows).
    pub overall: Metrics,
    /// Enclosing-link-only metrics.
    pub enclosing: Metrics,
    /// Bridging-link-only metrics.
    pub bridging: Metrics,
    /// Metrics per prediction form, in the order of `cfg.tasks`.
    /// Diagnoses e.g. rule methods' relation-task tie floor.
    pub by_task: Vec<(PredictionTask, Metrics)>,
    /// Wall-clock and throughput counters for this run.
    pub timing: EvalTiming,
}

/// Runs the protocol for one model over a labeled test mix.
///
/// The filter set is `G ∪ G' ∪ valid ∪ all test links`, matching "all
/// the triplets appeared in training, valid, and test set are removed".
pub fn evaluate(
    model: &dyn LinkPredictor,
    graph: &InferenceGraph,
    dataset: &DekgDataset,
    mix: &TestMix,
    cfg: &ProtocolConfig,
) -> EvalResult {
    let mut filter = graph.store.clone();
    for t in dataset.valid.iter().chain(&dataset.test_enclosing).chain(&dataset.test_bridging) {
        filter.insert(*t);
    }
    evaluate_with_filter(model, graph, &filter, &mix.links, cfg)
}

/// The worker count a request for `requested` threads actually gets:
/// at least 1, at most the machine's available parallelism.
pub fn effective_threads(requested: usize) -> usize {
    let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    requested.max(1).min(avail)
}

/// Lower-level entry point with an explicit filter store.
///
/// Queries fan out over `cfg.threads` rayon workers; candidate
/// sampling is per-query-seeded and the rank reduction is an ordered
/// serial fold, so the metrics are bitwise-identical to a sequential
/// run at any thread count (see the module docs).
pub fn evaluate_with_filter(
    model: &dyn LinkPredictor,
    graph: &InferenceGraph,
    filter: &TripleStore,
    links: &[(Triple, LinkClass)],
    cfg: &ProtocolConfig,
) -> EvalResult {
    use rayon::prelude::*;
    assert!(!cfg.tasks.is_empty(), "no prediction tasks configured");
    // Clamp to the cores actually available: oversubscribing a pool on
    // a smaller machine costs real time (context switches on the
    // extraction hot path) and can never help, and metrics are
    // thread-count invariant anyway.
    let threads = effective_threads(cfg.threads);
    let started = Instant::now();

    // One record per (link, prediction-form) query, carrying its
    // flattened index — the query's seed-split index, stable under any
    // chunking of the parallel map.
    let queries: Vec<(u64, Triple, LinkClass, usize)> = links
        .iter()
        .enumerate()
        .flat_map(|(li, &(triple, class))| {
            (0..cfg.tasks.len())
                .map(move |ti| ((li * cfg.tasks.len() + ti) as u64, triple, class, ti))
        })
        .collect();

    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("eval pool");
    // Bracket the fan-out with span snapshots: the delta isolates this
    // run's spans even when others accumulated earlier in the process
    // (e.g. training).
    let spans_before = dekg_obs::span_snapshot();
    let ranks: Vec<f64> = pool.install(|| {
        queries
            .par_iter()
            .map(|&(qi, triple, _, ti)| {
                let mut rng = dekg_datasets::item_rng(cfg.seed, qi);
                filtered_rank(
                    model,
                    graph,
                    &cfg.tasks[ti].query(triple),
                    filter,
                    cfg.num_candidates,
                    &mut rng,
                )
            })
            .collect()
    });
    let spans = dekg_obs::span_snapshot().diff(&spans_before);

    // Ordered fold of ranks into per-class and per-task accumulators.
    let mut enclosing = RankAccumulator::new();
    let mut bridging = RankAccumulator::new();
    let mut per_task = vec![RankAccumulator::new(); cfg.tasks.len()];
    for (&(_, _, class, ti), &rank) in queries.iter().zip(&ranks) {
        match class {
            LinkClass::Enclosing => enclosing.push(rank),
            LinkClass::Bridging => bridging.push(rank),
        }
        per_task[ti].push(rank);
    }
    let mut overall = enclosing.clone();
    overall.merge(&bridging);

    let wall_seconds = started.elapsed().as_secs_f64();
    EvalResult {
        overall: overall.finish(),
        enclosing: enclosing.finish(),
        bridging: bridging.finish(),
        by_task: cfg.tasks.iter().zip(&per_task).map(|(&t, acc)| (t, acc.finish())).collect(),
        timing: EvalTiming::new(wall_seconds, queries.len(), links.len(), threads, spans),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dekg_datasets::{generate, DatasetProfile, MixRatio, RawKg, SplitKind, SynthConfig};

    /// Oracle model: scores a triple 1.0 when it is a held-out truth or
    /// an observed edge, else 0.0 — must achieve near-perfect metrics.
    struct Oracle {
        truths: TripleStore,
    }

    impl LinkPredictor for Oracle {
        fn name(&self) -> &'static str {
            "oracle"
        }
        fn score_batch(&self, _graph: &InferenceGraph, triples: &[Triple]) -> Vec<f32> {
            triples.iter().map(|t| if self.truths.contains(t) { 1.0 } else { 0.0 }).collect()
        }
        fn num_parameters(&self) -> usize {
            0
        }
    }

    /// Constant scorer: every candidate ties → mid-field ranks.
    struct Constant;

    impl LinkPredictor for Constant {
        fn name(&self) -> &'static str {
            "constant"
        }
        fn score_batch(&self, _graph: &InferenceGraph, triples: &[Triple]) -> Vec<f32> {
            vec![0.0; triples.len()]
        }
        fn num_parameters(&self) -> usize {
            0
        }
    }

    fn dataset() -> DekgDataset {
        let profile = DatasetProfile::table2(RawKg::Wn18rr, SplitKind::Eq).scaled(0.03);
        let mut cfg = SynthConfig::for_profile(profile, 21);
        cfg.num_test_enclosing = 20;
        cfg.num_test_bridging = 20;
        generate(&cfg)
    }

    #[test]
    fn oracle_scores_perfectly() {
        let d = dataset();
        let graph = InferenceGraph::from_dataset(&d);
        let mix = TestMix::build(&d, MixRatio { enclosing: 1, bridging: 1 });
        let mut truths = TripleStore::new();
        for (t, _) in &mix.links {
            truths.insert(*t);
        }
        let oracle = Oracle { truths };
        let result = evaluate(&oracle, &graph, &d, &mix, &ProtocolConfig::default());
        // The oracle scores exactly the truth at 1.0; every candidate
        // is filtered or scores 0 → rank 1 everywhere.
        assert!(result.overall.mrr > 0.99, "mrr = {}", result.overall.mrr);
        assert!(result.overall.hits_at(1) > 0.99);
        assert_eq!(result.enclosing.count + result.bridging.count, result.overall.count);
    }

    #[test]
    fn constant_model_lands_midfield() {
        let d = dataset();
        let graph = InferenceGraph::from_dataset(&d);
        let mix = TestMix::build(&d, MixRatio { enclosing: 1, bridging: 1 });
        // Entity prediction only: the tiny dataset has so few relations
        // that relation queries tie at rank ~1.5 and would dominate MRR.
        let cfg = ProtocolConfig {
            tasks: vec![PredictionTask::Head, PredictionTask::Tail],
            ..Default::default()
        };
        let result = evaluate(&Constant, &graph, &d, &mix, &cfg);
        // With N candidates all tied, expected reciprocal rank is tiny.
        assert!(result.overall.mrr < 0.05, "mrr = {}", result.overall.mrr);
        assert!(result.overall.hits_at(1) < 0.05);
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = dataset();
        let graph = InferenceGraph::from_dataset(&d);
        let mix = TestMix::build(&d, MixRatio { enclosing: 1, bridging: 1 });
        let mut truths = TripleStore::new();
        for (t, _) in &mix.links {
            truths.insert(*t);
        }
        let oracle = Oracle { truths };
        let seq = evaluate(
            &oracle,
            &graph,
            &d,
            &mix,
            &ProtocolConfig { threads: 1, ..Default::default() },
        );
        let par = evaluate(
            &oracle,
            &graph,
            &d,
            &mix,
            &ProtocolConfig { threads: 4, ..Default::default() },
        );
        // Full-candidate protocol is sampling-free → exact match.
        assert_eq!(seq.overall, par.overall);
        assert_eq!(seq.bridging, par.bridging);
    }

    #[test]
    fn query_count_is_links_times_tasks() {
        let d = dataset();
        let graph = InferenceGraph::from_dataset(&d);
        let mix = TestMix::build(&d, MixRatio { enclosing: 1, bridging: 1 });
        let result = evaluate(&Constant, &graph, &d, &mix, &ProtocolConfig::default());
        assert_eq!(result.overall.count, mix.len() * 3, "3 prediction forms per link");
    }

    #[test]
    fn per_task_breakdown_sums_to_overall() {
        let d = dataset();
        let graph = InferenceGraph::from_dataset(&d);
        let mix = TestMix::build(&d, MixRatio { enclosing: 1, bridging: 1 });
        let result = evaluate(&Constant, &graph, &d, &mix, &ProtocolConfig::default());
        assert_eq!(result.by_task.len(), 3);
        let task_total: usize = result.by_task.iter().map(|(_, m)| m.count).sum();
        assert_eq!(task_total, result.overall.count);
        // Tiny dataset → few relations → the constant model's relation
        // task has far better (tie-averaged) MRR than entity tasks.
        let rel_mrr =
            result.by_task.iter().find(|(t, _)| *t == PredictionTask::Relation).unwrap().1.mrr;
        let head_mrr =
            result.by_task.iter().find(|(t, _)| *t == PredictionTask::Head).unwrap().1.mrr;
        assert!(rel_mrr > head_mrr, "{rel_mrr} vs {head_mrr}");
    }

    #[test]
    fn sampled_protocol_is_thread_count_invariant() {
        // Stronger than determinism: with per-query child seeds the
        // *sampled* protocol must produce identical metrics at any
        // thread count, not just across repeat runs at the same count.
        let d = dataset();
        let graph = InferenceGraph::from_dataset(&d);
        let mix = TestMix::build(&d, MixRatio { enclosing: 1, bridging: 1 });
        let run = |threads: usize| {
            let cfg =
                ProtocolConfig { num_candidates: Some(10), threads, seed: 3, ..Default::default() };
            evaluate(&Constant, &graph, &d, &mix, &cfg)
        };
        let serial = run(1);
        for threads in [2, 4, 5] {
            let par = run(threads);
            assert_eq!(serial.overall, par.overall, "threads={threads}");
            assert_eq!(serial.enclosing, par.enclosing, "threads={threads}");
            assert_eq!(serial.bridging, par.bridging, "threads={threads}");
            assert_eq!(serial.by_task, par.by_task, "threads={threads}");
        }
    }

    #[test]
    fn timing_counters_are_recorded() {
        let d = dataset();
        let graph = InferenceGraph::from_dataset(&d);
        let mix = TestMix::build(&d, MixRatio { enclosing: 1, bridging: 1 });
        let cfg = ProtocolConfig { threads: 2, ..Default::default() };
        let result = evaluate(&Constant, &graph, &d, &mix, &cfg);
        assert_eq!(result.timing.links, mix.len());
        assert_eq!(result.timing.queries, mix.len() * 3);
        // The recorded count is the effective (machine-clamped) pool
        // size, not the raw request.
        assert_eq!(result.timing.threads, effective_threads(2));
        assert!(result.timing.wall_seconds > 0.0);
        assert!(result.timing.queries_per_second > 0.0);
    }

    #[test]
    fn sampled_protocol_is_deterministic() {
        let d = dataset();
        let graph = InferenceGraph::from_dataset(&d);
        let mix = TestMix::build(&d, MixRatio { enclosing: 1, bridging: 1 });
        let cfg =
            ProtocolConfig { num_candidates: Some(10), threads: 2, seed: 3, ..Default::default() };
        let a = evaluate(&Constant, &graph, &d, &mix, &cfg);
        let b = evaluate(&Constant, &graph, &d, &mix, &cfg);
        assert_eq!(a.overall, b.overall);
    }
}
