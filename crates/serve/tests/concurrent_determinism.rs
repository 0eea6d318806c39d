//! Concurrent-request determinism: N parallel clients issuing the
//! evaluation protocol's queries in interleaved, per-client-shuffled
//! orders must receive responses byte-identical to a serial pass.
//!
//! This is the serving face of the workspace's bitwise-determinism
//! contract: jobs reach workers timing-dependently and several warm
//! workers score concurrently, yet a response is a pure function
//! of its request and the model generation. `scripts/check.sh` runs
//! this suite under `DEKG_SHUFFLE_SCHEDULE=1`, so the rayon shim's
//! schedule perturbation is active on top of real client concurrency.

mod common;

use common::{fixture, rank_call, serve, stop};
use dekg_serve::ServeConfig;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The CLI protocol's query grid over the first `links` held-out
/// enclosing links: tasks ordered [head, relation, tail], flattened
/// index `qi = li * 3 + ti` — the same `(seed, index)` pairs
/// `dekg evaluate` derives.
fn query_bodies(fx: &common::Fixture, links: usize, candidates: usize, seed: u64) -> Vec<String> {
    let mut bodies = Vec::new();
    for li in 0..links {
        let t = fx.dataset.test_enclosing[li];
        for (ti, task) in ["head", "relation", "tail"].iter().enumerate() {
            let index = (li * 3 + ti) as u64;
            bodies.push(format!(
                "{{\"rank\": {{\"task\": \"{task}\", \"head\": \"{}\", \"rel\": \"{}\", \
                 \"tail\": \"{}\", \"candidates\": {candidates}, \"seed\": {seed}, \
                 \"index\": {index}}}}}",
                fx.dataset.vocab.entity_name(t.head),
                fx.dataset.vocab.relation_name(t.rel),
                fx.dataset.vocab.entity_name(t.tail),
            ));
        }
    }
    bodies
}

#[test]
fn interleaved_clients_match_the_serial_pass_byte_for_byte() {
    let fx = fixture("concurrent", 5);
    let cfg = ServeConfig { workers: 4, ..ServeConfig::default() };
    let (server, addr) = serve(&fx, cfg);
    let bodies = query_bodies(&fx, 6, 15, 3);

    // Serial reference pass: one client, query order.
    let reference: Vec<String> = bodies
        .iter()
        .map(|b| {
            let (status, reply) = rank_call(&addr, b);
            assert_eq!(status, 200, "{reply}");
            reply
        })
        .collect();

    // Parallel pass: each client walks its own shuffled permutation,
    // so queries interleave arbitrarily across the workers.
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..6u64)
            .map(|client| {
                let addr = &addr;
                let bodies = &bodies;
                scope.spawn(move || {
                    let mut order: Vec<usize> = (0..bodies.len()).collect();
                    order.shuffle(&mut ChaCha8Rng::seed_from_u64(client));
                    order
                        .into_iter()
                        .map(|qi| {
                            let (status, reply) = rank_call(addr, &bodies[qi]);
                            assert_eq!(status, 200, "{reply}");
                            (qi, reply)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for client in clients {
            for (qi, reply) in client.join().unwrap() {
                assert_eq!(reply, reference[qi], "query {qi} diverged under concurrency");
            }
        }
    });
    stop(server);
}
