//! The two-core training step: one step's subgraph tapes recorded and
//! backpropagated on two threads, bit for bit equal to the one-tape step
//! ([`record_prepared`](super::record_prepared) followed by
//! [`Graph::backward`]).
//!
//! A step scores 2n (triple, subgraph) items, positives then negatives.
//! On one tape each item's R-GCN is a run of nodes that reads the mounted
//! parameters and basis compositions and nothing of the other items, and
//! the reverse sweep writes those shared gradient slots last item first.
//! So the main thread forks the tape after mounting, a helper thread
//! records and backpropagates the later chunk of items on one fork while
//! the main thread records the earlier chunk on another, and the shared
//! writes keep their one-tape order: the helper's at once, the main
//! chunk's held back and replayed once the helper is done (see
//! [`Graph::fork`]).

use super::{record_loss, record_sem, BatchLossBreakdown, PreparedBatch};
use crate::gsm::{Gsm, MountedGsm};
use crate::model::DekgIlp;
use crate::traits::InferenceGraph;
use dekg_datasets::DekgDataset;
use dekg_tensor::{Deferred, GradStore, Graph, SharedGrads, Tensor, Var};
use rand::Rng;
use std::sync::{mpsc, Arc};

/// One item of a two-tape step: a subgraph to score, its relation and
/// its pre-drawn edge-dropout mask.
struct Item {
    sg: dekg_kg::Subgraph,
    rel: dekg_kg::RelationId,
    edge_keep: Option<Vec<bool>>,
}

impl Item {
    /// The edges that send messages, plus one for the node work every
    /// subgraph costs: the unit the step's two chunks balance.
    fn work(&self) -> usize {
        1 + self
            .edge_keep
            .as_ref()
            .map_or(self.sg.num_edges(), |m| m.iter().filter(|&&k| k).count())
    }
}

/// What the main thread asks of the helper: record a chunk on a forked
/// tape, backpropagate it, then replay the marked part of the main
/// chunk's held writes.
enum Job {
    Record { tape: Graph, mounted: MountedGsm, items: Vec<Item> },
    Backward { seeds: Vec<Option<Tensor>>, shared: SharedGrads },
    Replay { deferred: Arc<Deferred>, marks: Arc<[bool]>, shared: SharedGrads },
}

/// What the helper answers: that it is up, then per step the chunk's
/// scores, the shared gradient slots with its writes applied, and its
/// replayed part.
enum Reply {
    Ready,
    Scores(Vec<f32>),
    Shared(SharedGrads),
}

/// The helper thread of [`two_tape_step`]: spawned once per
/// [`train`](super::train) call and fed through a channel, so a step
/// pays three hand-offs each way rather than a thread start.
pub(super) struct Helper {
    jobs: mpsc::Sender<Job>,
    replies: mpsc::Receiver<Reply>,
    thread: std::thread::JoinHandle<()>,
}

impl Helper {
    /// Starts the helper and waits until it has allocated. A thread
    /// takes its allocator arena at its first allocation, and the
    /// arena the last helper left, with that helper's memory, is the
    /// next one free: the new helper must take it before the first
    /// step's extraction workers start, or one of them takes it and the
    /// helper grows a second copy of that memory (EXPERIMENTS.md,
    /// "Two-core training step").
    pub(super) fn spawn(gsm: Gsm) -> Self {
        let (jobs, job_rx) = mpsc::channel();
        let (reply_tx, replies) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            if reply_tx.send(Reply::Ready).is_ok() {
                Self::serve(&gsm, &job_rx, &reply_tx);
            }
        });
        let helper = Helper { jobs, replies, thread };
        if !matches!(helper.replies.recv(), Ok(Reply::Ready)) {
            panic!("the training helper thread failed to start");
        }
        helper
    }

    /// Hangs up and waits until the helper thread has exited, so that
    /// the memory its allocator arena holds is free for the next thread.
    /// (Dropped instead, on a panic, the helper exits on its own.)
    pub(super) fn join(self) {
        let Helper { jobs, replies, thread } = self;
        drop((jobs, replies));
        if let Err(panic) = thread.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// The helper's loop; it ends when the main thread hangs up.
    fn serve(gsm: &Gsm, jobs: &mpsc::Receiver<Job>, replies: &mpsc::Sender<Reply>) {
        while let Ok(Job::Record { mut tape, mounted, items }) = jobs.recv() {
            let scores: Vec<Var> = items
                .iter()
                .map(|it| {
                    gsm.score_mounted(&mut tape, &mounted, &it.sg, it.rel, it.edge_keep.as_deref())
                })
                .collect();
            drop(items);
            let values = scores.iter().map(|&s| tape.value(s).item()).collect();
            if replies.send(Reply::Scores(values)).is_err() {
                return;
            }
            let Ok(Job::Backward { seeds, mut shared }) = jobs.recv() else { return };
            tape.backward_forked(seeded(&scores, seeds), &mut shared);
            if replies.send(Reply::Shared(shared)).is_err() {
                return;
            }
            let Ok(Job::Replay { deferred, marks, mut shared }) = jobs.recv() else { return };
            deferred.replay_part(&mut shared, &marks, true);
            if replies.send(Reply::Shared(shared)).is_err() {
                return;
            }
        }
    }

    fn send(&self, job: Job) {
        if self.jobs.send(job).is_err() {
            panic!("the training helper thread stopped");
        }
    }

    fn scores(&self) -> Vec<f32> {
        match self.replies.recv() {
            Ok(Reply::Scores(values)) => values,
            _ => panic!("the training helper thread stopped before scoring its chunk"),
        }
    }

    fn shared(&self) -> SharedGrads {
        match self.replies.recv() {
            Ok(Reply::Shared(shared)) => shared,
            _ => panic!("the training helper thread stopped before handing the gradients back"),
        }
    }
}

/// Pairs each score with its seed gradient, dropping unseeded ones.
fn seeded(scores: &[Var], seeds: Vec<Option<Tensor>>) -> Vec<(Var, Tensor)> {
    scores.iter().zip(seeds).filter_map(|(&s, seed)| Some((s, seed?))).collect()
}

/// The index that splits `items` into an earlier chunk and a later one
/// of about equal [`Item::work`], each holding at least one item (a step
/// has at least two: a positive and its negative).
fn split_point(items: &[Item]) -> usize {
    let total: usize = items.iter().map(Item::work).sum();
    let mut before = 0;
    let earlier = items.iter().take_while(|item| {
        let open = 2 * before < total;
        before += item.work();
        open
    });
    earlier.count().clamp(1, items.len() - 1)
}

/// One training step on two threads, equal bit for bit to
/// [`record_prepared`](super::record_prepared) followed by
/// [`Graph::backward`]: same loss, same gradients, same `rng` draws.
///
/// The main thread draws every item's edge-dropout mask first, in the
/// one-tape order (positives, then negatives), records φ_sem and mounts
/// the GSM, and forks the tape there. The helper records and
/// backpropagates the later chunk of items on one fork while the main
/// thread records the earlier chunk on another, then the Eq. 14 + Eq. 7
/// tail (its contrastive sampling draws after the masks, as on one
/// tape) over the scores, entered as [`Graph::input`]s. The tail's
/// backward seeds both chunks. The only slots the chunks share are the
/// mounted parameters' and basis compositions', and the one-tape sweep
/// writes them last item first: so the helper's chunk writes them at
/// once, the main chunk holds its writes back
/// ([`Graph::backward_deferred`]) and both threads replay them after the
/// helper finishes, each into its own part of the slots
/// ([`Deferred::split_slots`]), and the prefix sweep ends the step.
pub(super) fn two_tape_step(
    helper: &Helper,
    model: &DekgIlp,
    dataset: &DekgDataset,
    train_graph: &InferenceGraph,
    prepared: PreparedBatch,
    rng: &mut impl Rng,
) -> (Graph, BatchLossBreakdown, GradStore) {
    let gsm = model.gsm();
    let PreparedBatch { batch, pos_rep, negs, pos_subgraphs, neg_subgraphs } = prepared;
    let n_pos = pos_rep.len();
    let triples = pos_rep.iter().chain(&negs);
    let mut items: Vec<Item> = triples
        .zip(pos_subgraphs.into_iter().chain(neg_subgraphs))
        .map(|(t, sg)| {
            let edge_keep = gsm.encoder().edge_mask(&sg, true, rng);
            Item { sg, rel: t.rel, edge_keep }
        })
        .collect();
    let split = split_point(&items);

    let mut g = Graph::new();
    let (sem_pos, sem_neg) = record_sem(&mut g, model, train_graph, &pos_rep, &negs);
    let mounted = gsm.mount(&mut g, model.params());
    let later = items.split_off(split);
    helper.send(Job::Record { tape: g.fork(), mounted: mounted.clone(), items: later });
    let mut tape = g.fork();
    let scores: Vec<Var> = items
        .iter()
        .map(|it| gsm.score_mounted(&mut tape, &mounted, &it.sg, it.rel, it.edge_keep.as_deref()))
        .collect();
    drop(items);

    let mut values: Vec<f32> = scores.iter().map(|&s| tape.value(s).item()).collect();
    values.extend(helper.scores());
    let n_neg = values.len() - n_pos;
    let tpo_pos = g.input(Tensor::from_vec([n_pos], values[..n_pos].to_vec()));
    let tpo_neg = g.input(Tensor::from_vec([n_neg], values[n_pos..].to_vec()));
    let loss_sides = [(sem_pos, tpo_pos), (sem_neg, tpo_neg)];
    let parts = record_loss(&mut g, model, dataset, train_graph, &batch, loss_sides, rng);

    let (sweep, shared) = g.backward_to_fork(parts.total);
    // `stack_scalars`' rule: each score's seed is its element of the
    // side's gradient.
    let mut seeds: Vec<Option<Tensor>> = [(tpo_pos, n_pos), (tpo_neg, n_neg)]
        .into_iter()
        .flat_map(|(side, len)| {
            let grad = sweep.grad(side).map(Tensor::data);
            (0..len).map(move |i| grad.map(|g| Tensor::from_vec([1, 1], vec![g[i]])))
        })
        .collect();
    let later_seeds = seeds.split_off(split);
    helper.send(Job::Backward { seeds: later_seeds, shared });
    let deferred = Arc::new(tape.backward_deferred(seeded(&scores, seeds)));
    let marks: Arc<[bool]> = deferred.split_slots().into();
    // Both threads replay the held writes, one part of the slots each.
    let mut shared = helper.shared();
    let marked = shared.take_marked(&marks);
    let job =
        Job::Replay { deferred: Arc::clone(&deferred), marks: Arc::clone(&marks), shared: marked };
    helper.send(job);
    deferred.replay_part(&mut shared, &marks, false);
    shared.restore_marked(helper.shared(), &marks);
    let grads = g.finish_backward(sweep, shared);
    (g, parts, grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DekgIlpConfig;
    use crate::train::{prepare_batch, record_prepared};
    use dekg_datasets::NegativeSampler;
    use dekg_kg::{EntityId, SubgraphExtractor, Triple};
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn quick_cfg() -> DekgIlpConfig {
        DekgIlpConfig {
            dim: 8,
            batch_size: 16,
            num_contrastive: 2,
            gnn_layers: 2,
            attn_dim: 4,
            ..DekgIlpConfig::quick()
        }
    }

    /// Every bit of a gradient set, by parameter.
    fn grad_bits(model: &DekgIlp, grads: &GradStore) -> Vec<(String, Option<Vec<u32>>)> {
        model
            .params()
            .iter()
            .map(|(id, name, _)| {
                let bits = grads.get(id).map(|t| t.data().iter().map(|x| x.to_bits()).collect());
                (name.to_owned(), bits)
            })
            .collect()
    }

    /// The two-tape step against `record_prepared` + `Graph::backward`
    /// on real batches: the loss, every gradient bit and the rng stream
    /// after the step agree, with full and basis relation weights, a
    /// one-triple batch, and subgraphs that send no message.
    #[test]
    fn two_tape_step_matches_one_tape_bitwise() {
        // Rewire two entities of degree one into a pair joined only by
        // each other: that positive's subgraph, its own edge removed,
        // has no edge at all.
        let base = dekg_datasets::tiny_fixture(8);
        let mut degree = vec![0; base.num_original_entities];
        for t in base.original.triples() {
            degree[t.head.index()] += 1;
            degree[t.tail.index()] += 1;
        }
        let mut ends = (0..degree.len()).filter(|&e| degree[e] == 1).map(|e| EntityId(e as u32));
        let (a, b) = (ends.next().expect("a leaf entity"), ends.next().expect("two"));
        let lone = Triple::new(a, dekg_kg::RelationId(0), b);
        let rest = base
            .original
            .triples()
            .iter()
            .filter(|t| ![t.head, t.tail].iter().any(|e| [a, b].contains(e)));
        let original =
            dekg_kg::TripleStore::from_triples(std::iter::once(lone).chain(rest.copied()));
        let d = DekgDataset { original, ..base };
        let graph = InferenceGraph::training_view(&d);
        let sampler = NegativeSampler::new(0..d.num_original_entities as u32, vec![&d.original]);
        let triples = d.original.triples();
        assert_eq!(triples[0], lone);
        let mut edgeless = 0;
        let mut steps = 0;
        for (num_bases, neg_per_pos) in [(None, 1), (Some(2), 1), (Some(3), 2)] {
            let cfg = DekgIlpConfig { num_bases, neg_per_pos, ..quick_cfg() };
            let model = DekgIlp::new(cfg, &d, &mut ChaCha8Rng::seed_from_u64(4));
            let batches = [&triples[..1], &triples[..16], &triples[16..48], &triples[48..51]];
            let helper = Helper::spawn(model.gsm().clone());
            for (i, batch) in batches.into_iter().enumerate() {
                let seed = 100 + i as u64;
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let prepared = prepare_batch(&model, &sampler, &graph, batch, &mut rng);
                let mut g = Graph::new();
                let parts = record_prepared(&mut g, &model, &d, &graph, &prepared, &mut rng);
                let one = (g.value(parts.total).item(), g.backward(parts.total));
                let one_next = rng.next_u64();

                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let prepared = prepare_batch(&model, &sampler, &graph, batch, &mut rng);
                edgeless += prepared
                    .pos_subgraphs
                    .iter()
                    .chain(&prepared.neg_subgraphs)
                    .filter(|sg| sg.num_edges() == 0)
                    .count();
                let (g, parts, grads) =
                    two_tape_step(&helper, &model, &d, &graph, prepared, &mut rng);
                let what = format!("bases {num_bases:?}, batch {i} of {} triples", batch.len());
                assert_eq!(g.value(parts.total).item().to_bits(), one.0.to_bits(), "{what}");
                let expected = grad_bits(&model, &one.1);
                for ((name, got), (_, want)) in grad_bits(&model, &grads).iter().zip(&expected) {
                    assert!(got == want, "{what}: the gradient of {name} differs");
                }
                assert_eq!(rng.next_u64(), one_next, "{what}: rng stream");
                steps += 1;
            }
            helper.join();
        }
        assert_eq!(steps, 12);
        assert!(edgeless > 0, "the batches must include subgraphs without edges");
    }

    #[test]
    fn split_point_balances_work_and_keeps_both_chunks() {
        let sg = |edges: usize| {
            let store = dekg_kg::TripleStore::from_triples(
                (0..edges as u32).map(|i| Triple::from_raw(0, 0, i + 1)),
            );
            let adj = dekg_kg::Adjacency::from_store(&store, edges + 2);
            let extractor = SubgraphExtractor::new(&adj, 1, dekg_kg::ExtractionMode::Union);
            extractor.extract(EntityId(0), EntityId(1), None)
        };
        let items = |work: &[usize]| -> Vec<Item> {
            work.iter()
                .map(|&e| Item { sg: sg(e), rel: dekg_kg::RelationId(0), edge_keep: None })
                .collect()
        };
        let works = |items: &[Item]| items.iter().map(Item::work).collect::<Vec<_>>();
        let even = items(&[3, 3, 3, 3]);
        assert_eq!(split_point(&even), 2, "{:?}", works(&even));
        let front = items(&[20, 1, 1, 1]);
        assert_eq!(split_point(&front), 1, "{:?}", works(&front));
        let two = items(&[0, 0]);
        assert_eq!(split_point(&two), 1);
    }
}
