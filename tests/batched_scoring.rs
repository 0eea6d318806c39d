//! The batched candidate-ranking engine == the per-candidate tape,
//! bitwise.
//!
//! `DekgIlp::score_batch` packs candidate subgraphs block-diagonally,
//! reuses a fixed endpoint's BFS across candidates and scores through
//! reusable workspaces — all of which promise *bitwise* equality with
//! scoring each candidate through the autograd tape
//! ([`TapeReference`]). These tests pin that contract end-to-end: same
//! ranks, same metrics, same observability counters, for every
//! `num_bases` variant and for the disconnected (bridging-link)
//! subgraphs the paper is about. `scripts/check.sh` runs this suite a
//! second time under `DEKG_SHUFFLE_SCHEDULE=1`.

use dekg::core::reference::TapeReference;
use dekg::prelude::*;
use dekg_datasets::tiny_fixture;
use dekg_eval::ranking::filtered_candidates;
use dekg_eval::{evaluate, filtered_rank, RankQuery};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The metrics registry is process-global and cargo runs this binary's
/// tests on parallel threads — tests that reset or read it take this
/// lock.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn trained_model(data: &DekgDataset, num_bases: Option<usize>, seed: u64) -> DekgIlp {
    let cfg = DekgIlpConfig { epochs: 1, num_bases, ..DekgIlpConfig::quick() };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model = DekgIlp::new(cfg, data, &mut rng);
    model.fit(data, &mut rng);
    model
}

/// The batched engine must produce the tape's ranks for every
/// prediction form, on enclosing links and on bridging links (whose
/// subgraphs are disconnected), under both relation-weight layouts.
#[test]
fn ranks_are_bitwise_identical_across_scoring_paths() {
    let _obs = obs_lock();
    let data = tiny_fixture(31);
    let graph = InferenceGraph::from_dataset(&data);
    let filter = graph.store.clone();
    for num_bases in [None, Some(2)] {
        let model = trained_model(&data, num_bases, 13);
        let tape = TapeReference::new(&model);
        // One enclosing link (connected subgraph) and one bridging link
        // (disconnected subgraph), all three prediction forms.
        let links = [data.test_enclosing[0], data.test_bridging[0]];
        for link in links {
            let queries = [RankQuery::Head(link), RankQuery::Relation(link), RankQuery::Tail(link)];
            for query in queries {
                let rank = |m: &dyn LinkPredictor| {
                    let mut rng = ChaCha8Rng::seed_from_u64(5);
                    filtered_rank(m, &graph, &query, &filter, Some(15), &mut rng)
                };
                assert_eq!(
                    rank(&model),
                    rank(&tape),
                    "batched vs tape diverged: {num_bases:?} {query:?}"
                );
            }
        }
    }
}

/// Whole-protocol metrics must agree with the tape — every query, every
/// class breakdown, every prediction form.
#[test]
fn protocol_metrics_are_identical_across_scoring_paths() {
    let _obs = obs_lock();
    let data = tiny_fixture(32);
    let graph = InferenceGraph::from_dataset(&data);
    let mix = TestMix::build(&data, MixRatio::for_split(SplitKind::Eq));
    let mut protocol = ProtocolConfig::sampled(12);
    protocol.seed = 17;
    for num_bases in [None, Some(2)] {
        let model = trained_model(&data, num_bases, 21);
        let batched = evaluate(&model, &graph, &data, &mix, &protocol);
        let tape = evaluate(&TapeReference::new(&model), &graph, &data, &mix, &protocol);
        assert_eq!(batched.overall, tape.overall, "num_bases {num_bases:?}");
        assert_eq!(batched.enclosing, tape.enclosing, "num_bases {num_bases:?}");
        assert_eq!(batched.bridging, tape.bridging, "num_bases {num_bases:?}");
        assert_eq!(batched.by_task, tape.by_task, "num_bases {num_bases:?}");
    }
}

/// Structure-free (Mixed) batches are packed without BFS reuse — scores
/// must still equal the tape bitwise at any packing size, including
/// batches spanning several packs, duplicates, and empty and singleton
/// batches; and they must leave the BFS cache counters untouched.
#[test]
fn mixed_and_degenerate_batches_match() {
    let _obs = obs_lock();
    let data = tiny_fixture(33);
    let graph = InferenceGraph::from_dataset(&data);
    let mut model = trained_model(&data, Some(2), 3);

    // A mixed-relation, mixed-endpoint batch: no shared structure.
    let mixed: Vec<Triple> =
        data.test_enclosing.iter().chain(&data.test_bridging).copied().take(6).collect();
    let singleton = vec![mixed[0]];
    let empty: Vec<Triple> = Vec::new();
    // Larger than the default `eval_batch` of 64: enclosing and
    // bridging links over several relations, each also re-aimed at
    // the next link's tail, plus a duplicate.
    let links: Vec<Triple> =
        data.test_enclosing.iter().chain(&data.test_bridging).copied().collect();
    let mut large: Vec<Triple> = links
        .iter()
        .cycle()
        .zip(links.iter().cycle().skip(1))
        .flat_map(|(t, next)| [*t, Triple::new(t.head, next.rel, next.tail)])
        .take(69)
        .collect();
    large.push(large[3]);
    assert_eq!(large.len(), 70);
    let rels: std::collections::BTreeSet<_> = large.iter().map(|t| t.rel).collect();
    assert!(rels.len() > 1, "fixture needs several relations");
    assert!(
        large.iter().any(|t| data.test_bridging.contains(t))
            && large.iter().any(|t| data.test_enclosing.contains(t)),
        "fixture needs enclosing and bridging links"
    );

    let counters = || {
        let snap = dekg_obs::metrics_snapshot();
        let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
        (get("dekg_eval_bfs_cache_hits_total"), get("dekg_eval_bfs_cache_misses_total"))
    };
    for batch in [&mixed, &singleton, &empty, &large] {
        let tape = TapeReference::new(&model).score_batch(&graph, batch);
        assert_eq!(tape.len(), batch.len());
        for eval_batch in [1, 3, 64] {
            model.set_eval_batch(eval_batch);
            let before = counters();
            assert_eq!(model.score_batch(&graph, batch), tape, "eval_batch {eval_batch}");
            assert_eq!(counters(), before, "a Mixed batch touched the BFS cache counters");
        }
    }
}

/// The `dekg_eval_candidates` histogram records the *scored* batch size
/// — candidates plus the truth.
#[test]
fn candidates_histogram_counts_the_truth() {
    let _obs = obs_lock();
    let data = tiny_fixture(34);
    let graph = InferenceGraph::from_dataset(&data);
    let filter = graph.store.clone();
    let model = trained_model(&data, None, 7);
    let query = RankQuery::Tail(data.test_enclosing[0]);

    // Reproduce the candidate set the ranked query will sample.
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let expected = filtered_candidates(
        &query,
        graph.num_entities,
        graph.num_relations,
        &filter,
        Some(10),
        &mut rng,
    )
    .len();

    dekg_obs::reset();
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    filtered_rank(&model, &graph, &query, &filter, Some(10), &mut rng);
    let snap = dekg_obs::metrics_snapshot();
    let h = &snap.histograms["dekg_eval_candidates"];
    assert_eq!(h.count, 1);
    assert_eq!(h.sum, expected as u64 + 1, "histogram must include the truth");
}

/// The batched engine's own metrics: one `dekg_eval_batch_nodes`
/// observation per ranked query (invariant to chunking), and the BFS
/// cache counters accounting for every entity-query candidate.
#[test]
fn batched_engine_metrics_are_recorded() {
    let _obs = obs_lock();
    let data = tiny_fixture(35);
    let graph = InferenceGraph::from_dataset(&data);
    let mix = TestMix::build(&data, MixRatio::for_split(SplitKind::Eq));
    let mut protocol = ProtocolConfig::sampled(8);
    protocol.seed = 2;
    let model = trained_model(&data, None, 11);

    dekg_obs::reset();
    evaluate(&model, &graph, &data, &mix, &protocol);
    let snap = dekg_obs::metrics_snapshot();
    let queries = snap.counters["dekg_eval_queries_total"];
    assert!(queries > 0);
    // Every ranking query is shape-detected (head/tail → entity query,
    // relation → fixed pair); each observes the packed total exactly once.
    assert_eq!(snap.histograms["dekg_eval_batch_nodes"].count, queries);
    let hits = snap.counters["dekg_eval_bfs_cache_hits_total"];
    let misses = snap.counters["dekg_eval_bfs_cache_misses_total"];
    assert!(hits + misses > 0, "entity queries must exercise the BFS cache");
}

/// Observations past the last bound land in the histogram's implicit
/// `+Inf` overflow bucket — full-entity candidate sets (beyond the
/// 4096 cap of `dekg_eval_candidates`) stay counted.
#[test]
fn histogram_overflow_bucket_catches_large_batches() {
    // Private registry: no global state, no lock needed.
    let reg = dekg_obs::metrics::Registry::new();
    let h = reg.histogram("test_candidates", &[8, 16, 32, 64, 128, 256, 512, 1024, 4096]);
    h.observe(4096); // last bounded bucket
    h.observe(4097); // overflow
    h.observe(50_000); // deep overflow
    let buckets = h.bucket_counts();
    assert_eq!(buckets.len(), 10, "bounds + implicit +Inf slot");
    assert_eq!(buckets[8], 1, "4096 lands in the last bounded bucket");
    assert_eq!(buckets[9], 2, "past-bound observations land in +Inf");
    assert_eq!(h.count(), 3);
}
