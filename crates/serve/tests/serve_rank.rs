//! End-to-end daemon tests: endpoint semantics, the evaluate-fidelity
//! pin (a served rank is bitwise-identical to the library protocol's),
//! overload shedding, and zero-downtime checkpoint hot-swap.

mod common;

use common::{fixture, rank_call, serve, small_model, stop, write_checkpoint, Fixture};
use dekg_core::reference::TapeReference;
use dekg_core::{DekgIlp, InferenceGraph, LinkPredictor};
use dekg_eval::{filtered_rank, RankQuery};
use dekg_kg::TripleStore;
use dekg_serve::{http_call, RankEngine, ServeConfig, Server};

/// The evaluation protocol's filter set for a fixture, built exactly
/// as `dekg evaluate` builds it.
fn protocol_filter(fx: &Fixture) -> TripleStore {
    let graph = InferenceGraph::from_dataset(&fx.dataset);
    let mut filter = graph.store.clone();
    for t in
        fx.dataset.valid.iter().chain(&fx.dataset.test_enclosing).chain(&fx.dataset.test_bridging)
    {
        filter.insert(*t);
    }
    filter
}

/// The `{"rank": ...}` request body for a tail query over a held-out
/// enclosing link.
fn tail_rank_body(fx: &Fixture, link: usize, candidates: usize, seed: u64, index: u64) -> String {
    let t = fx.dataset.test_enclosing[link];
    format!(
        "{{\"rank\": {{\"task\": \"tail\", \"head\": \"{}\", \"rel\": \"{}\", \"tail\": \"{}\", \
         \"candidates\": {candidates}, \"seed\": {seed}, \"index\": {index}}}}}",
        fx.dataset.vocab.entity_name(t.head),
        fx.dataset.vocab.relation_name(t.rel),
        fx.dataset.vocab.entity_name(t.tail),
    )
}

/// The rank the evaluation protocol computes for the same query, via
/// the library entry points `dekg evaluate` uses (restore →
/// `filtered_rank`), scored through the per-candidate tape oracle.
fn library_rank(
    fx: &Fixture,
    ckpt: &str,
    link: usize,
    candidates: usize,
    seed: u64,
    index: u64,
) -> f64 {
    let model = DekgIlp::restore(ckpt, &fx.dataset).unwrap();
    model_rank(fx, &model, link, candidates, seed, index)
}

/// [`library_rank`] for a model already in memory.
fn model_rank(
    fx: &Fixture,
    model: &DekgIlp,
    link: usize,
    candidates: usize,
    seed: u64,
    index: u64,
) -> f64 {
    let graph = InferenceGraph::from_dataset(&fx.dataset);
    let filter = protocol_filter(fx);
    let query = RankQuery::Tail(fx.dataset.test_enclosing[link]);
    let mut rng = dekg_datasets::item_rng(seed, index);
    let tape = TapeReference::new(model);
    filtered_rank(&tape, &graph, &query, &filter, Some(candidates), &mut rng)
}

/// The `/rank` reply body for a tail query ranked `rank`.
fn tail_rank_reply(rank: f64) -> String {
    serde_json::to_string(&serde::Value::Object(vec![
        ("task".to_owned(), serde::Value::Str("tail".to_owned())),
        ("rank".to_owned(), serde::Value::Num(serde::Number::F(rank))),
    ]))
    .unwrap()
}

#[test]
fn health_and_readiness_split() {
    let fx = fixture("health", 1);
    // Phase 1: socket up, model not loaded.
    let server = Server::bind(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    assert_eq!(http_call(&addr, "GET", "/healthz", None).unwrap().0, 200);
    assert_eq!(http_call(&addr, "GET", "/readyz", None).unwrap().0, 503);
    assert_eq!(rank_call(&addr, "{}").0, 503);
    // Phase 2: engine installed.
    server.install_engine(RankEngine::load(&fx.data, &fx.ckpt).unwrap());
    let (status, body) = http_call(&addr, "GET", "/readyz", None).unwrap();
    assert_eq!((status, body.as_str()), (200, "ready\n"));
    stop(server);
}

#[test]
fn unknown_paths_and_methods_are_rejected() {
    let fx = fixture("routes", 1);
    let (server, addr) = serve(&fx, ServeConfig::default());
    assert_eq!(http_call(&addr, "GET", "/nope", None).unwrap().0, 404);
    assert_eq!(http_call(&addr, "GET", "/rank", None).unwrap().0, 405);
    assert_eq!(http_call(&addr, "POST", "/metrics", Some("{}")).unwrap().0, 405);
    let (status, body) = rank_call(&addr, "not json");
    assert_eq!(status, 400);
    assert!(body.starts_with("{\"error\":"), "{body}");
    stop(server);
}

#[test]
fn served_rank_is_bitwise_identical_to_evaluate_protocol() {
    let fx = fixture("fidelity", 7);
    let (server, addr) = serve(&fx, ServeConfig::default());
    for (link, seed, index) in [(0, 5, 7), (1, 0, 0), (2, 11, 3)] {
        let body = tail_rank_body(&fx, link, 20, seed, index);
        let (status, first) = rank_call(&addr, &body);
        assert_eq!(status, 200, "{first}");
        // Byte-identical to the library-side protocol computation…
        let expected = library_rank(&fx, &fx.ckpt, link, 20, seed, index);
        assert_eq!(first, tail_rank_reply(expected), "link {link}");
        // …and across repeated requests.
        assert_eq!(rank_call(&addr, &body).1, first);
    }
    stop(server);
}

#[test]
fn score_and_rank_tails_forms() {
    let fx = fixture("forms", 3);
    let (server, addr) = serve(&fx, ServeConfig::default());
    let t = fx.dataset.test_bridging[0];
    let (h, r, tl) = (
        fx.dataset.vocab.entity_name(t.head),
        fx.dataset.vocab.relation_name(t.rel),
        fx.dataset.vocab.entity_name(t.tail),
    );

    let (status, body) = rank_call(
        &addr,
        &format!("{{\"score\": {{\"triples\": [[\"{h}\", \"{r}\", \"{tl}\"]]}}}}"),
    );
    assert_eq!(status, 200, "{body}");
    let model = DekgIlp::restore(&fx.ckpt, &fx.dataset).unwrap();
    let graph = InferenceGraph::from_dataset(&fx.dataset);
    let expected = f64::from(TapeReference::new(&model).score_batch(&graph, &[t])[0]);
    let parsed = serde_json::parse_value(&body).unwrap();
    let scores = serde::field(parsed.as_object().unwrap(), "scores").unwrap();
    match scores.as_array().unwrap() {
        [serde::Value::Num(n)] => assert_eq!(n.as_f64().to_bits(), expected.to_bits()),
        other => panic!("unexpected scores array: {other:?}"),
    }

    let (status, body) = rank_call(
        &addr,
        &format!("{{\"rank_tails\": {{\"head\": \"{h}\", \"rel\": \"{r}\", \"k\": 5}}}}"),
    );
    assert_eq!(status, 200, "{body}");
    let parsed = serde_json::parse_value(&body).unwrap();
    let tails = serde::field(parsed.as_object().unwrap(), "tails").unwrap();
    let tails = tails.as_array().unwrap();
    assert_eq!(tails.len(), 5);
    // Scores come back in non-increasing order.
    let scores: Vec<f64> = tails
        .iter()
        .map(|e| match serde::field(e.as_object().unwrap(), "score").unwrap() {
            serde::Value::Num(n) => n.as_f64(),
            other => panic!("non-numeric score: {other:?}"),
        })
        .collect();
    assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{scores:?}");
    stop(server);
}

#[test]
fn full_queue_sheds_with_429() {
    let fx = fixture("shed", 1);
    let cfg = ServeConfig { queue_depth: 0, ..ServeConfig::default() };
    let (server, addr) = serve(&fx, cfg);
    let (status, body) = rank_call(&addr, &tail_rank_body(&fx, 0, 5, 0, 0));
    assert_eq!(status, 429);
    assert_eq!(body, "{\"error\":\"queue full\"}");
    let (_, metrics) = http_call(&addr, "GET", "/metrics", None).unwrap();
    assert!(metrics.contains("dekg_serve_shed_total"), "{metrics}");
    stop(server);
}

#[test]
fn metrics_endpoint_exposes_serve_series() {
    let fx = fixture("metrics", 1);
    let (server, addr) = serve(&fx, ServeConfig::default());
    assert_eq!(rank_call(&addr, &tail_rank_body(&fx, 0, 10, 0, 0)).0, 200);
    let (status, metrics) = http_call(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    for series in ["dekg_serve_requests_total", "dekg_serve_request_latency_us"] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }
    stop(server);
}

#[test]
fn hot_swap_changes_generation_and_model() {
    let fx = fixture("reload", 1);
    let ckpt2 = fx.dir.join("model2.dekg").to_string_lossy().into_owned();
    write_checkpoint(&fx.dataset, &ckpt2, 99);
    let (server, addr) = serve(&fx, ServeConfig::default());

    let body = tail_rank_body(&fx, 0, 20, 5, 7);
    let before = rank_call(&addr, &body);
    assert_eq!(before.0, 200);

    // Swap to a differently initialized checkpoint.
    let (status, reply) =
        http_call(&addr, "POST", "/admin/reload", Some(&format!("{{\"ckpt\": \"{ckpt2}\"}}")))
            .unwrap();
    assert_eq!((status, reply.as_str()), (200, "{\"generation\":2}"));

    let after = rank_call(&addr, &body);
    assert_eq!(after.0, 200);
    let expected2 = library_rank(&fx, &ckpt2, 0, 20, 5, 7);
    let expected1 = library_rank(&fx, &fx.ckpt, 0, 20, 5, 7);
    assert_ne!(
        expected1.to_bits(),
        expected2.to_bits(),
        "fixture too degenerate: both checkpoints rank identically"
    );
    assert_eq!(after.1, tail_rank_reply(expected2));

    // Empty body re-reads the current generation's path.
    let (status, reply) = http_call(&addr, "POST", "/admin/reload", None).unwrap();
    assert_eq!((status, reply.as_str()), (200, "{\"generation\":3}"));
    // Re-reading the same checkpoint changes no response byte.
    assert_eq!(rank_call(&addr, &body).1, after.1);
    stop(server);
}

#[test]
fn reload_failure_keeps_serving_current_generation() {
    let fx = fixture("reload-fail", 1);
    let (server, addr) = serve(&fx, ServeConfig::default());
    let body = tail_rank_body(&fx, 0, 10, 0, 0);
    let before = rank_call(&addr, &body);
    let (status, _) =
        http_call(&addr, "POST", "/admin/reload", Some("{\"ckpt\": \"/nonexistent/ckpt.dekg\"}"))
            .unwrap();
    assert_eq!(status, 500);
    // Old generation still answers, byte-identically.
    assert_eq!(rank_call(&addr, &body), before);
    stop(server);
}

#[test]
fn mismatched_reload_is_an_error_and_keeps_serving() {
    // One file whose weights do not fit the architecture its own config
    // describes: the reload must answer with an error, not take the
    // daemon down, and generation 1 keeps answering byte-identically.
    let fx = fixture("reload-mismatch", 1);
    let ckpt2 = fx.dir.join("model2.dekg").to_string_lossy().into_owned();
    let narrow = small_model(&fx.dataset, 8, 42);
    let wide_cfg = dekg_core::DekgIlpConfig { dim: 16, ..dekg_core::DekgIlpConfig::paper() };
    let meta = serde_json::to_string(&wide_cfg).unwrap();
    std::fs::write(&ckpt2, dekg_tensor::serialize::encode(narrow.params(), meta.as_bytes()))
        .unwrap();
    let (server, addr) = serve(&fx, ServeConfig::default());
    let body = tail_rank_body(&fx, 0, 10, 0, 0);
    let before = rank_call(&addr, &body);
    assert_eq!(before.0, 200);

    let (status, reply) =
        http_call(&addr, "POST", "/admin/reload", Some(&format!("{{\"ckpt\": \"{ckpt2}\"}}")))
            .unwrap();
    assert_eq!(status, 500, "{reply}");
    assert!(reply.contains("shape mismatch"), "{reply}");
    assert_eq!(rank_call(&addr, &body), before);
    // The current generation is still 1: a good reload makes it 2.
    let (status, reply) = http_call(&addr, "POST", "/admin/reload", None).unwrap();
    assert_eq!((status, reply.as_str()), (200, "{\"generation\":2}"));
    stop(server);
}

#[test]
fn reload_racing_a_checkpoint_write_restores_one_whole_save() {
    // Two architectures (dim 8 and 16) take turns being saved onto the
    // daemon's own checkpoint path while reloads re-read it. A save is
    // one file landing by one rename, so every reload restores one
    // save whole — config and weights together — and none can pair one
    // save's weights with the other's config ("shape mismatch").
    const RELOADS: u64 = 60;
    let fx = fixture("reload-race", 1);
    let models = [small_model(&fx.dataset, 16, 11), small_model(&fx.dataset, 8, 12)];
    let answers = models.each_ref().map(|m| tail_rank_reply(model_rank(&fx, m, 0, 20, 5, 7)));
    assert_ne!(answers[0], answers[1], "fixture too degenerate: both models rank identically");
    let (server, addr) = serve(&fx, ServeConfig::default());

    // Replies are checked after the writer has stopped, so that a
    // failing reload cannot leave it saving forever.
    let writing = std::sync::atomic::AtomicBool::new(true);
    let (replies, saves) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut saves = 0usize;
            while writing.load(std::sync::atomic::Ordering::Relaxed) || saves < 2 {
                models[saves % 2].save_checkpoint(&fx.ckpt).unwrap();
                saves += 1;
            }
            saves
        });
        let replies: Vec<_> =
            (0..RELOADS).map(|_| http_call(&addr, "POST", "/admin/reload", None)).collect();
        writing.store(false, std::sync::atomic::Ordering::Relaxed);
        (replies, writer.join().unwrap())
    });
    for (generation, reply) in (2..).zip(replies) {
        let (status, reply) = reply.unwrap();
        assert_eq!(status, 200, "reload to generation {generation}: {reply}");
        assert_eq!(reply, format!("{{\"generation\":{generation}}}"));
    }

    // The writer has stopped: one more reload picks up its last save,
    // and the daemon answers exactly as that model does in the library.
    let (status, reply) = http_call(&addr, "POST", "/admin/reload", None).unwrap();
    assert_eq!((status, reply), (200, format!("{{\"generation\":{}}}", RELOADS + 2)));
    let (status, body) = rank_call(&addr, &tail_rank_body(&fx, 0, 20, 5, 7));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, answers[(saves - 1) % 2], "after {saves} saves");
    stop(server);
}

#[test]
fn in_flight_requests_survive_hot_swap() {
    let fx = fixture("swap-inflight", 1);
    let ckpt2 = fx.dir.join("model2.dekg").to_string_lossy().into_owned();
    write_checkpoint(&fx.dataset, &ckpt2, 42);
    let (server, addr) = serve(&fx, ServeConfig::default());

    let body = tail_rank_body(&fx, 1, 15, 2, 4);
    let make = |ckpt: &str| tail_rank_reply(library_rank(&fx, ckpt, 1, 15, 2, 4));
    let allowed = [make(&fx.ckpt), make(&ckpt2)];

    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let body = body.clone();
                scope.spawn(move || (0..8).map(|_| rank_call(&addr, &body)).collect::<Vec<_>>())
            })
            .collect();
        // Swap mid-flight, twice, while clients hammer /rank.
        for ckpt in [&ckpt2, &fx.ckpt] {
            let (status, _) = http_call(
                &addr,
                "POST",
                "/admin/reload",
                Some(&format!("{{\"ckpt\": \"{ckpt}\"}}")),
            )
            .unwrap();
            assert_eq!(status, 200);
        }
        for client in clients {
            for (status, reply) in client.join().unwrap() {
                // No request is dropped or torn: every response is a
                // complete answer from exactly one generation.
                assert_eq!(status, 200, "{reply}");
                assert!(allowed.contains(&reply), "torn response: {reply}");
            }
        }
    });
    stop(server);
}

#[test]
fn shutdown_endpoint_stops_the_daemon() {
    let fx = fixture("shutdown", 1);
    let (server, addr) = serve(&fx, ServeConfig::default());
    let (status, body) = http_call(&addr, "POST", "/admin/shutdown", None).unwrap();
    assert_eq!((status, body.as_str()), (200, "{\"stopping\": true}"));
    // join() returns promptly because the accept loop observed stop.
    server.join();
    // The socket no longer answers.
    assert!(http_call(&addr, "GET", "/healthz", None).is_err());
}
