//! Algorithm 1 — the DEKG-ILP training loop.
//!
//! Per batch of positive triples from the original KG `G`:
//!
//! 1. corrupt each positive into `neg_per_pos` negatives (Eq. 12),
//! 2. score positives and negatives with `φ = φ_sem + φ_tpo`
//!    (Eq. 4 + 11 + 13), extracting training subgraphs from `G` with
//!    the *target edge removed* for positives,
//! 3. compute the margin ranking loss (Eq. 14),
//! 4. add the σ-weighted contrastive loss over the batch's entities
//!    (Eq. 7, sampling via [`crate::clrm::sampling`]),
//! 5. backpropagate, clip, and apply an Adam step.

mod two_tape;

use crate::clrm::sampling;
use crate::model::DekgIlp;
use crate::traits::{InferenceGraph, TrainReport};
use dekg_datasets::{DekgDataset, NegativeSampler};
use dekg_kg::{EntityId, SubgraphExtractor, Triple};
use dekg_tensor::optim::{Adam, Optimizer};
use dekg_tensor::{Diagnostic, Graph, Severity, Var};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use std::collections::BTreeSet;
use std::time::Instant;
use two_tape::{two_tape_step, Helper};

/// Trains `model` on `dataset.original` per its config.
///
/// Only the original KG is touched: subgraphs, component tables and
/// negative candidates all come from `G`.
pub fn train(model: &mut DekgIlp, dataset: &DekgDataset, rng: &mut dyn RngCore) -> TrainReport {
    let mut rng = RngShim(rng);
    let rng = &mut rng;
    let cfg = model.config().clone();
    let started = Instant::now();

    let train_graph = InferenceGraph::training_view(dataset);
    let mut sampler =
        NegativeSampler::new(0..dataset.num_original_entities as u32, vec![&dataset.original]);
    if cfg.bernoulli_negatives {
        sampler = sampler.with_bernoulli(&dataset.original);
    }
    let mut opt = Adam::new(cfg.lr);

    let mut positives: Vec<Triple> = dataset.original.triples().to_vec();
    let mut initial_loss = 0.0f32;
    let mut final_loss = 0.0f32;
    let mut step = 0usize;

    let reg = dekg_obs::metrics::global();
    let steps_total = reg.counter("dekg_train_steps_total");
    let epochs_total = reg.counter("dekg_train_epochs_total");
    let loss_gauge = reg.gauge("dekg_train_loss");
    let grad_norm_gauge = reg.gauge("dekg_train_grad_norm");
    let mut tape_report = cfg.tape_report.then(TapeReporter::new);

    // Two cores record and backpropagate each step's subgraph tapes
    // (`two_tape_step`); one core, or a tape report on every step, keeps
    // the one-tape step.
    let helper = (rayon::current_num_threads() > 1 && !cfg.tape_report)
        .then(|| Helper::spawn(model.gsm().clone()));
    for epoch in 0..cfg.epochs {
        let epoch_started = Instant::now();
        positives.shuffle(rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;

        for batch in positives.chunks(cfg.batch_size) {
            let prepared = prepare_batch(model, &sampler, &train_graph, batch, rng);
            let gradcheck = cfg.gradcheck_every > 0 && step % cfg.gradcheck_every == 0;
            let (g, parts, mut grads) = match &helper {
                Some(helper) if !gradcheck => {
                    two_tape_step(helper, model, dataset, &train_graph, prepared, rng)
                }
                _ => {
                    let mut g = Graph::new();
                    let parts =
                        record_prepared(&mut g, model, dataset, &train_graph, &prepared, rng);
                    if gradcheck {
                        gradcheck_step(&g, parts.total, model, step);
                    }
                    if let Some(report) = &mut tape_report {
                        report.check(&g, &parts, model, step);
                    }
                    let grads = g.backward(parts.total);
                    (g, parts, grads)
                }
            };
            let loss_val = g.value(parts.total).item();
            debug_assert!(loss_val.is_finite(), "non-finite training loss");
            let grad_norm = grads.clip_global_norm(cfg.grad_clip);
            opt.step(model.params_mut(), &grads);

            steps_total.inc();
            loss_gauge.set(f64::from(loss_val));
            grad_norm_gauge.set(f64::from(grad_norm));
            if dekg_obs::metrics_active() {
                // Forward values are eager — reading the component
                // losses off the tape costs nothing extra.
                let mut event = dekg_obs::Event::new("train_step")
                    .field_u64("epoch", epoch as u64)
                    .field_u64("step", step as u64)
                    .field_f64("loss", f64::from(loss_val))
                    .field_f64("loss_margin", f64::from(g.value(parts.margin).item()));
                if let Some(con) = parts.contrastive {
                    event = event.field_f64("loss_con", f64::from(g.value(con).item()));
                }
                if let Some(sem) = parts.sem_pos_mean {
                    event = event.field_f64("phi_sem_pos", f64::from(g.value(sem).item()));
                }
                event = event
                    .field_f64("phi_tpo_pos", f64::from(g.value(parts.tpo_pos_mean).item()))
                    .field_f64("grad_norm", f64::from(grad_norm))
                    .field_f64("lr", f64::from(opt.learning_rate()));
                event.emit_metrics();
            }
            step += 1;

            epoch_loss += loss_val as f64;
            batches += 1;
        }

        let mean = if batches > 0 { (epoch_loss / batches as f64) as f32 } else { 0.0 };
        if epoch == 0 {
            initial_loss = mean;
        }
        final_loss = mean;
        if cfg.lr_decay < 1.0 {
            let lr = opt.learning_rate() * cfg.lr_decay;
            opt.set_learning_rate(lr);
        }

        epochs_total.inc();
        dekg_obs::log_debug!("epoch {epoch}: mean loss {mean:.6} over {batches} batch(es)");
        if dekg_obs::metrics_active() {
            dekg_obs::Event::new("epoch")
                .field_u64("epoch", epoch as u64)
                .field_f64("mean_loss", f64::from(mean))
                .field_u64("batches", batches as u64)
                .field_f64("epoch_seconds", epoch_started.elapsed().as_secs_f64())
                .emit_metrics();
        }
        if dekg_obs::trace_active() {
            dekg_obs::span::emit_span_event(Some(epoch as u64));
        }
    }
    if let Some(helper) = helper {
        helper.join();
    }

    TrainReport {
        epochs: cfg.epochs,
        final_loss,
        initial_loss,
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// The `gradcheck_every` spot check: re-executes the step's tape in the
/// f64 reference interpreter and aborts training on divergence.
fn gradcheck_step(g: &Graph, loss: Var, model: &DekgIlp, step: usize) {
    let diags = g.diff_check(loss, Some(model.params()));
    for d in &diags {
        dekg_obs::log_warn!("gradcheck[step {step}]: {d}");
    }
    assert!(
        diags.iter().all(|d| d.severity != Severity::Error),
        "interpreter disagrees with kernels at step {step}; training aborted"
    );
}

/// The `tape_report` pass: every step's tape through the cached static
/// analyzer, its findings logged once per structure and its memory plan
/// exported as gauges.
struct TapeReporter {
    cache: dekg_tensor::TapeCache,
    peak: dekg_obs::metrics::Gauge,
    dead: dekg_obs::metrics::Gauge,
    hits: dekg_obs::metrics::Counter,
    misses: dekg_obs::metrics::Counter,
}

impl TapeReporter {
    fn new() -> Self {
        let reg = dekg_obs::metrics::global();
        TapeReporter {
            cache: dekg_tensor::TapeCache::new(),
            peak: reg.gauge("dekg_tape_predicted_peak_bytes"),
            dead: reg.gauge("dekg_tape_dead_ops"),
            hits: reg.counter("dekg_tapecheck_cache_hits_total"),
            misses: reg.counter("dekg_tapecheck_cache_misses_total"),
        }
    }

    fn check(&mut self, g: &Graph, parts: &BatchLossBreakdown, model: &DekgIlp, step: usize) {
        let observed = parts.observed_vars();
        let misses_before = self.cache.misses();
        let report = self.cache.analyze(g, parts.total, &observed, Some(model.params()));
        let errors = report.errors();
        let (peak_bytes, dead_ops) =
            (report.plan.peak_live_bytes, report.dead_nodes + report.unconsumed_ops.len());
        let findings: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
        if self.cache.misses() > misses_before {
            self.misses.inc();
            // Fresh structure: surface its findings once.
            for d in &findings {
                dekg_obs::log_warn!("tapecheck[step {step}]: {d}");
            }
        } else {
            self.hits.inc();
        }
        assert!(
            errors == 0,
            "tape static analysis found {errors} error(s) at step {step}; training aborted"
        );
        self.peak.set(peak_bytes as f64);
        self.dead.set(dead_ops as f64);
    }
}

/// Early-stopping settings for [`train_with_validation`].
#[derive(Debug, Clone)]
pub struct ValidationConfig {
    /// Evaluate validation MRR every this many epochs.
    pub eval_every: usize,
    /// Stop after this many consecutive non-improving evaluations.
    pub patience: usize,
    /// Candidates sampled per validation ranking query.
    pub candidates: usize,
    /// Validation links used per evaluation (prefix of `dataset.valid`).
    pub max_links: usize,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig { eval_every: 2, patience: 3, candidates: 10, max_links: 50 }
    }
}

/// The outcome of a validated training run.
#[derive(Debug, Clone)]
pub struct ValidatedTrainReport {
    /// The underlying per-chunk training reports.
    pub train: TrainReport,
    /// Validation MRR trajectory (one entry per evaluation).
    pub valid_mrr: Vec<f64>,
    /// The epoch count actually executed.
    pub epochs_run: usize,
    /// True when training stopped before the configured epoch budget.
    pub stopped_early: bool,
}

/// Trains with periodic validation-MRR evaluation and early stopping,
/// restoring the best-scoring parameters at the end.
///
/// Validation links live inside `G`, so the evaluation uses the
/// training view and never touches `G'` or the test links.
pub fn train_with_validation(
    model: &mut DekgIlp,
    dataset: &DekgDataset,
    val_cfg: &ValidationConfig,
    rng: &mut dyn RngCore,
) -> ValidatedTrainReport {
    assert!(val_cfg.eval_every > 0 && val_cfg.patience > 0);
    assert!(!dataset.valid.is_empty(), "train_with_validation needs a non-empty validation set");
    let total_epochs = model.config().epochs;
    let chunk_cfg_epochs = val_cfg.eval_every.min(total_epochs);

    // Validation harness (fixed across evaluations for comparability).
    let graph = InferenceGraph::training_view(dataset);
    let mut filter = dataset.original.clone();
    for t in &dataset.valid {
        filter.insert(*t);
    }
    let links: Vec<(Triple, dekg_datasets::LinkClass)> = dataset
        .valid
        .iter()
        .take(val_cfg.max_links)
        .map(|&t| (t, dekg_datasets::LinkClass::Enclosing))
        .collect();

    let mut best_mrr = f64::NEG_INFINITY;
    let mut best_params: Option<dekg_tensor::ParamStore> = None;
    let mut strikes = 0usize;
    let mut valid_mrr = Vec::new();
    let mut epochs_run = 0usize;
    let mut merged: Option<TrainReport> = None;
    let mut stopped_early = false;

    while epochs_run < total_epochs {
        let this_chunk = chunk_cfg_epochs.min(total_epochs - epochs_run);
        // Temporarily rewrite the epoch budget for this chunk.
        let original_cfg = model.config().clone();
        let chunk_cfg = crate::config::DekgIlpConfig { epochs: this_chunk, ..original_cfg.clone() };
        *model.config_mut() = chunk_cfg;
        let report = train(model, dataset, rng);
        *model.config_mut() = original_cfg;
        epochs_run += this_chunk;
        merged = Some(match merged {
            None => report,
            Some(prev) => TrainReport {
                epochs: prev.epochs + report.epochs,
                initial_loss: prev.initial_loss,
                final_loss: report.final_loss,
                seconds: prev.seconds + report.seconds,
            },
        });

        // Validation MRR under a fixed protocol seed.
        let protocol = dekg_eval_protocol(val_cfg);
        let result = protocol_eval(model, &graph, &filter, &links, &protocol);
        valid_mrr.push(result);
        if result > best_mrr {
            best_mrr = result;
            best_params = Some(model.params().clone());
            strikes = 0;
        } else {
            strikes += 1;
            if strikes >= val_cfg.patience {
                stopped_early = true;
                break;
            }
        }
    }

    if let Some(best) = best_params {
        *model.params_mut() = best;
    }
    ValidatedTrainReport {
        train: merged.expect("at least one chunk ran"),
        valid_mrr,
        epochs_run,
        stopped_early,
    }
}

// Small indirections so this module does not depend on dekg-eval (a
// dependency cycle): the ranking protocol is re-implemented minimally.
fn dekg_eval_protocol(val_cfg: &ValidationConfig) -> (usize, u64) {
    (val_cfg.candidates, 0xDEC0)
}

/// Minimal filtered tail/head ranking for validation (MRR only).
fn protocol_eval(
    model: &DekgIlp,
    graph: &InferenceGraph,
    filter: &dekg_kg::TripleStore,
    links: &[(Triple, dekg_datasets::LinkClass)],
    protocol: &(usize, u64),
) -> f64 {
    use crate::traits::LinkPredictor;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let (k, seed) = *protocol;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut reciprocal = 0.0f64;
    let mut count = 0usize;
    for (truth, _) in links {
        // Tail prediction with K sampled filtered candidates.
        let mut candidates: Vec<Triple> = (0..graph.num_entities as u32)
            .map(|e| Triple::new(truth.head, truth.rel, dekg_kg::EntityId(e)))
            .filter(|c| c != truth && !filter.contains(c))
            .collect();
        if candidates.len() > k {
            candidates.shuffle(&mut rng);
            candidates.truncate(k);
        }
        let mut batch = Vec::with_capacity(candidates.len() + 1);
        batch.push(*truth);
        batch.extend_from_slice(&candidates);
        let scores = model.score_batch(graph, &batch);
        let s_true = scores[0];
        let higher = scores[1..].iter().filter(|&&s| s > s_true).count();
        let equal = scores[1..].iter().filter(|&&s| s == s_true).count();
        let rank = 1.0 + higher as f64 + equal as f64 / 2.0;
        reciprocal += 1.0 / rank;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        reciprocal / count as f64
    }
}

/// Records one training batch's combined objective (Eq. 15) on `g` and
/// returns the scalar loss `Var`.
///
/// This is the full per-batch tape used by [`train`]: negative
/// sampling (Eq. 12), `φ_sem + φ_tpo` scoring of both sides
/// (Eq. 4 + 11 + 13), the margin ranking loss (Eq. 14), and the
/// σ-weighted contrastive term (Eq. 7). It is public so correctness
/// tooling (`dekg check --grads`, the gradcheck test suite) can verify
/// the exact production tape rather than an approximation of it.
pub fn batch_loss(
    g: &mut Graph,
    model: &DekgIlp,
    dataset: &DekgDataset,
    train_graph: &InferenceGraph,
    sampler: &NegativeSampler<'_>,
    batch: &[Triple],
    rng: &mut impl Rng,
) -> Var {
    batch_loss_parts(g, model, dataset, train_graph, sampler, batch, rng).total
}

/// The Eq. 15 objective broken into its observable components.
///
/// All members live on the same tape as `total`; reading their values
/// is free (forward evaluation is eager) and backward from `total`
/// never visits the diagnostic-only means.
#[derive(Debug, Clone, Copy)]
pub struct BatchLossBreakdown {
    /// The combined loss actually optimized (Eq. 15).
    pub total: Var,
    /// The margin ranking term over `φ = φ_sem + φ_tpo` (Eq. 14).
    pub margin: Var,
    /// The σ-weighted contrastive term (Eq. 7), when the CLRM is
    /// enabled, σ > 0 and the batch produced at least one anchor.
    pub contrastive: Option<Var>,
    /// Mean `φ_sem` over the positives (diagnostic; `None` under the
    /// without-semantic ablation).
    pub sem_pos_mean: Option<Var>,
    /// Mean `φ_tpo` over the positives (diagnostic).
    pub tpo_pos_mean: Var,
}

impl BatchLossBreakdown {
    /// The tape outputs read by the caller beyond `total`: the
    /// diagnostic-only means plus the component terms the training
    /// loop logs. Declaring them as observed roots keeps the static
    /// tape analyzer from flagging deliberately unconsumed outputs.
    pub fn observed_vars(&self) -> Vec<Var> {
        let mut roots = vec![self.margin, self.tpo_pos_mean];
        if let Some(c) = self.contrastive {
            roots.push(c);
        }
        if let Some(s) = self.sem_pos_mean {
            roots.push(s);
        }
        roots
    }
}

/// [`batch_loss`] with the per-component breakdown exposed — the
/// training loop uses this to emit `train_step` events carrying the
/// margin/contrastive/φ-component values alongside the total.
pub fn batch_loss_parts(
    g: &mut Graph,
    model: &DekgIlp,
    dataset: &DekgDataset,
    train_graph: &InferenceGraph,
    sampler: &NegativeSampler<'_>,
    batch: &[Triple],
    rng: &mut impl Rng,
) -> BatchLossBreakdown {
    let prepared = prepare_batch(model, sampler, train_graph, batch, rng);
    record_prepared(g, model, dataset, train_graph, &prepared, rng)
}

/// Everything one Eq. 15 batch needs that is *not* tape recording: the
/// sampled negatives and both sides' extracted subgraphs.
///
/// Splitting preparation from recording lets the profiler
/// ([`crate::profile`]) time the pure tape-execution phase without
/// counting extraction against it. The split is RNG-transparent:
/// [`prepare_batch`] followed by [`record_prepared`] consumes the
/// training stream in exactly the order the fused
/// [`batch_loss_parts`] does (master negative seed, then dropout and
/// contrastive sampling during recording), so batches are bitwise
/// identical either way.
#[derive(Debug, Clone)]
pub struct PreparedBatch {
    /// The positive triples of this batch, in order.
    pub batch: Vec<Triple>,
    /// Positives repeated `neg_per_pos` times, aligned with `negs`.
    pub pos_rep: Vec<Triple>,
    /// The corrupted negatives (Eq. 12).
    pub negs: Vec<Triple>,
    /// Enclosing subgraphs of `pos_rep` (own edge excluded).
    pub pos_subgraphs: Vec<dekg_kg::Subgraph>,
    /// Enclosing subgraphs of `negs`.
    pub neg_subgraphs: Vec<dekg_kg::Subgraph>,
}

/// Samples this batch's negatives and extracts both sides' subgraphs —
/// the non-tape half of [`batch_loss_parts`]. Consumes exactly one
/// `u64` from `rng` (the master negative seed); extraction draws no
/// randomness.
pub fn prepare_batch(
    model: &DekgIlp,
    sampler: &NegativeSampler<'_>,
    train_graph: &InferenceGraph,
    batch: &[Triple],
    rng: &mut impl Rng,
) -> PreparedBatch {
    let cfg = model.config();

    // Negatives: neg_per_pos per positive, aligned by repetition. One
    // master seed is drawn from the training stream, then corruption
    // fans out in parallel under per-slot child seeds (Eq. 12; see
    // dekg_datasets::seeding) — the batch is a pure function of the
    // seed regardless of thread count.
    let neg_master: u64 = rng.gen();
    let pos_rep: Vec<Triple> =
        batch.iter().flat_map(|t| std::iter::repeat(*t).take(cfg.neg_per_pos)).collect();
    let negs = sampler.corrupt_batch(batch, cfg.neg_per_pos, neg_master);

    let extractor = model.extractor(train_graph);
    let pos_subgraphs = extract_side(&extractor, &pos_rep, true);
    let neg_subgraphs = extract_side(&extractor, &negs, false);
    PreparedBatch { batch: batch.to_vec(), pos_rep, negs, pos_subgraphs, neg_subgraphs }
}

/// Records the Eq. 15 objective for an already-[prepared](prepare_batch)
/// batch — the pure tape-recording half of [`batch_loss_parts`]. Only
/// this half touches the graph `g`; `rng` feeds edge dropout and
/// contrastive sampling, in the same order as the fused path.
pub fn record_prepared(
    g: &mut Graph,
    model: &DekgIlp,
    dataset: &DekgDataset,
    train_graph: &InferenceGraph,
    prepared: &PreparedBatch,
    rng: &mut impl Rng,
) -> BatchLossBreakdown {
    let (sem_pos, sem_neg) = record_sem(g, model, train_graph, &prepared.pos_rep, &prepared.negs);

    // φ_tpo per triple over the pre-extracted subgraphs.
    let gsm = model.gsm();
    let tpo_pos = score_extracted(model, gsm, &prepared.pos_rep, &prepared.pos_subgraphs, g, rng);
    let tpo_neg = score_extracted(model, gsm, &prepared.negs, &prepared.neg_subgraphs, g, rng);
    let sides = [(sem_pos, tpo_pos), (sem_neg, tpo_neg)];
    record_loss(g, model, dataset, train_graph, &prepared.batch, sides, rng)
}

/// φ_sem of both sides on one tape, or `None`s without the CLRM.
fn record_sem(
    g: &mut Graph,
    model: &DekgIlp,
    train_graph: &InferenceGraph,
    pos_rep: &[Triple],
    negs: &[Triple],
) -> (Option<Var>, Option<Var>) {
    let Some(clrm) = model.clrm() else { return (None, None) };
    let p = clrm.score(g, model.params(), &train_graph.tables, pos_rep);
    let n = clrm.score(g, model.params(), &train_graph.tables, negs);
    (Some(p), Some(n))
}

/// The Eq. 14 + Eq. 7 tail of a step's tape, from the positive and the
/// negative side's `(φ_sem, φ_tpo)`: margin loss, the diagnostic means,
/// and the contrastive term (whose pair sampling draws from `rng`).
fn record_loss(
    g: &mut Graph,
    model: &DekgIlp,
    dataset: &DekgDataset,
    train_graph: &InferenceGraph,
    batch: &[Triple],
    [(sem_pos, tpo_pos), (sem_neg, tpo_neg)]: [(Option<Var>, Var); 2],
    rng: &mut impl Rng,
) -> BatchLossBreakdown {
    let cfg = model.config();
    let phi_pos = combine(g, sem_pos, tpo_pos);
    let phi_neg = combine(g, sem_neg, tpo_neg);
    let margin = g.margin_ranking_loss(phi_pos, phi_neg, cfg.margin);
    let mut loss = margin;
    let mut contrastive = None;
    let sem_pos_mean = sem_pos.map(|s| g.mean_all(s));
    let tpo_pos_mean = g.mean_all(tpo_pos);

    // Contrastive term over the batch's distinct entities.
    if let Some(clrm) = model.clrm() {
        if cfg.ablation.use_contrastive && cfg.sigma > 0.0 {
            let entities: BTreeSet<EntityId> =
                batch.iter().flat_map(|t| [t.head, t.tail]).collect();
            let mut terms: Vec<Var> = Vec::with_capacity(entities.len());
            for e in entities {
                let anchor = train_graph.tables.row(e);
                if anchor.is_empty() {
                    continue;
                }
                let (pos, neg) = sampling::sample_pairs(
                    anchor,
                    dataset.num_relations,
                    cfg.theta,
                    cfg.num_contrastive,
                    rng,
                );
                terms.push(clrm.contrastive_loss(
                    g,
                    model.params(),
                    anchor,
                    &pos,
                    &neg,
                    cfg.margin,
                ));
            }
            if !terms.is_empty() {
                let stacked = g.stack_scalars(&terms);
                let lc = g.mean_all(stacked);
                let scaled = g.mul_scalar(lc, cfg.sigma);
                loss = g.add(loss, scaled);
                contrastive = Some(scaled);
            }
        }
    }
    BatchLossBreakdown { total: loss, margin, contrastive, sem_pos_mean, tpo_pos_mean }
}

/// The one production training batch both `dekg check` tape faces
/// analyze: a small fresh model on `dataset` and the first 8 original
/// triples, recorded with [`batch_loss_parts`]. Sharing it means
/// `--grads` and `--tape` see the identical tape for a given seed.
/// The model uses basis-decomposed relation weights, the layout
/// [`DekgIlpConfig::paper`](crate::config::DekgIlpConfig::paper) trains
/// with, so the basis composition and the block-row message matmul are
/// checked on real data.
fn check_batch_tape(dataset: &DekgDataset, seed: u64) -> (DekgIlp, Graph, BatchLossBreakdown) {
    use rand::SeedableRng;
    let cfg = crate::config::DekgIlpConfig {
        dim: 8,
        num_contrastive: 2,
        gnn_layers: 2,
        attn_dim: 4,
        num_bases: Some(2),
        ..crate::config::DekgIlpConfig::quick()
    };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let model = DekgIlp::new(cfg, dataset, &mut rng);
    let train_graph = InferenceGraph::training_view(dataset);
    let sampler =
        NegativeSampler::new(0..dataset.num_original_entities as u32, vec![&dataset.original]);
    let batch: Vec<Triple> = dataset.original.triples().iter().copied().take(8).collect();
    let mut g = Graph::new();
    let parts = batch_loss_parts(&mut g, &model, dataset, &train_graph, &sampler, &batch, &mut rng);
    (model, g, parts)
}

/// Builds a small fresh model on `dataset`, records one production
/// training batch (the same tape [`tape_check_dataset`] analyzes) and
/// differentially checks it against the f64 reference interpreter.
///
/// Returns the interpreter's findings (empty = clean). This is the
/// semantic half of `dekg check --grads`: it exercises the CLRM, GSM
/// and combined Eq. 15 objectives end-to-end on real data rather than
/// per-op fixtures.
pub fn grad_check_dataset(dataset: &DekgDataset, seed: u64) -> Vec<Diagnostic> {
    let (model, g, parts) = check_batch_tape(dataset, seed);
    g.diff_check(parts.total, Some(model.params()))
}

/// Builds a small fresh model on `dataset`, records one production
/// training batch (the same tape [`grad_check_dataset`] checks) and
/// runs tape analysis over it without executing any kernels.
///
/// Returns the full [`dekg_tensor::TapeReport`] (clean = no
/// diagnostics). This is the structural half of `dekg check --tape`:
/// all four passes of [`dekg_tensor::tapecheck::tapecheck_with`] —
/// shapes and indices, gradient-flow reachability over the model's
/// parameters, the liveness/memory plan, and the NaN/Inf value checks —
/// on the exact Eq. 15 tape, with the breakdown's diagnostic means
/// declared as observed roots.
pub fn tape_check_dataset(dataset: &DekgDataset, seed: u64) -> dekg_tensor::TapeReport {
    let (model, g, parts) = check_batch_tape(dataset, seed);
    dekg_tensor::tapecheck::tapecheck_with(
        &g,
        parts.total,
        &parts.observed_vars(),
        Some(model.params()),
    )
}

/// The extraction half of one side's φ_tpo scoring: enclosing
/// subgraphs for each triple, positives with their own edge removed so
/// the model cannot read the answer off the graph. Extraction fans out
/// over the ambient rayon thread count (it consumes no randomness, so
/// the dropout RNG stream is untouched).
fn extract_side(
    extractor: &SubgraphExtractor<'_>,
    triples: &[Triple],
    exclude_self: bool,
) -> Vec<dekg_kg::Subgraph> {
    let links: Vec<(EntityId, EntityId, Option<Triple>)> =
        triples.iter().map(|t| (t.head, t.tail, exclude_self.then_some(*t))).collect();
    extractor.extract_batch(&links)
}

/// The recording half of one side's φ_tpo scoring: scores pre-extracted
/// subgraphs topologically, returning a stacked `[n]` Var. Recording
/// stays serial because the autograd graph and the dropout stream are
/// inherently ordered.
fn score_extracted(
    model: &DekgIlp,
    gsm: &crate::gsm::Gsm,
    triples: &[Triple],
    subgraphs: &[dekg_kg::Subgraph],
    g: &mut Graph,
    rng: &mut impl Rng,
) -> Var {
    let mut scores = Vec::with_capacity(triples.len());
    for (t, sg) in triples.iter().zip(subgraphs) {
        let s = gsm.score_subgraph(g, model.params(), sg, t.rel, true, rng);
        scores.push(s);
    }
    let stacked = g.stack_scalars(&scores);
    g.reshape(stacked, [triples.len()])
}

fn combine(g: &mut Graph, sem: Option<Var>, tpo: Var) -> Var {
    match sem {
        Some(s) => g.add(s, tpo),
        None => tpo,
    }
}

/// Adapter: lets a `&mut dyn RngCore` be used where `impl Rng` is
/// expected without monomorphizing the whole training loop.
struct RngShim<'a>(&'a mut dyn RngCore);

impl RngCore for RngShim<'_> {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Ablation, DekgIlpConfig};
    use crate::traits::{LinkPredictor, TrainableModel};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_dataset(seed: u64) -> DekgDataset {
        dekg_datasets::tiny_fixture(seed)
    }

    fn quick_cfg() -> DekgIlpConfig {
        DekgIlpConfig {
            dim: 8,
            epochs: 3,
            batch_size: 16,
            num_contrastive: 2,
            gnn_layers: 2,
            attn_dim: 4,
            ..DekgIlpConfig::quick()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let d = tiny_dataset(1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut model = DekgIlp::new(DekgIlpConfig { epochs: 6, ..quick_cfg() }, &d, &mut rng);
        let report = model.fit(&d, &mut rng);
        assert_eq!(report.epochs, 6);
        assert!(
            report.improved(),
            "loss should improve: {} -> {}",
            report.initial_loss,
            report.final_loss
        );
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn trained_model_ranks_positives_above_corruptions() {
        let d = tiny_dataset(2);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut model = DekgIlp::new(DekgIlpConfig { epochs: 8, ..quick_cfg() }, &d, &mut rng);
        model.fit(&d, &mut rng);

        // On *training* triples, positives should beat random
        // corruptions on average — the basic sanity of Eq. 14.
        let graph = InferenceGraph::training_view(&d);
        let sampler = NegativeSampler::new(0..d.num_original_entities as u32, vec![&d.original]);
        let positives: Vec<Triple> = d.original.triples().iter().copied().take(30).collect();
        let negatives: Vec<Triple> =
            positives.iter().map(|t| sampler.corrupt(t, &mut rng)).collect();
        let pos_scores = model.score_batch(&graph, &positives);
        let neg_scores = model.score_batch(&graph, &negatives);
        let pos_mean: f32 = pos_scores.iter().sum::<f32>() / pos_scores.len() as f32;
        let neg_mean: f32 = neg_scores.iter().sum::<f32>() / neg_scores.len() as f32;
        assert!(
            pos_mean > neg_mean,
            "positives should outscore corruptions: {pos_mean} vs {neg_mean}"
        );
    }

    #[test]
    fn all_ablations_train() {
        let d = tiny_dataset(3);
        for ablation in [
            Ablation::without_semantic(),
            Ablation::without_contrastive(),
            Ablation::without_improved_labeling(),
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            let cfg = DekgIlpConfig { ablation, epochs: 2, ..quick_cfg() };
            let mut model = DekgIlp::new(cfg, &d, &mut rng);
            let report = model.fit(&d, &mut rng);
            assert!(report.final_loss.is_finite(), "{}", model.name());
        }
    }

    #[test]
    fn validated_training_tracks_mrr_and_restores_best() {
        let d = tiny_dataset(6);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let cfg = DekgIlpConfig { epochs: 6, ..quick_cfg() };
        let mut model = DekgIlp::new(cfg, &d, &mut rng);
        let val_cfg = crate::train::ValidationConfig {
            eval_every: 2,
            patience: 2,
            candidates: 8,
            max_links: 20,
        };
        let report = crate::train::train_with_validation(&mut model, &d, &val_cfg, &mut rng);
        assert!(!report.valid_mrr.is_empty());
        assert!(report.epochs_run <= 6);
        assert!(report.valid_mrr.iter().all(|m| m.is_finite() && *m >= 0.0));
        // Config restored after chunked training.
        assert_eq!(model.config().epochs, 6);
    }

    #[test]
    fn lr_decay_and_bernoulli_options_train() {
        let d = tiny_dataset(5);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let cfg =
            DekgIlpConfig { epochs: 3, lr_decay: 0.8, bernoulli_negatives: true, ..quick_cfg() };
        let mut model = DekgIlp::new(cfg, &d, &mut rng);
        let report = model.fit(&d, &mut rng);
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn training_is_seed_deterministic() {
        let d = tiny_dataset(4);
        let run = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut model = DekgIlp::new(DekgIlpConfig { epochs: 2, ..quick_cfg() }, &d, &mut rng);
            model.fit(&d, &mut rng);
            let graph = InferenceGraph::from_dataset(&d);
            model.score_batch(&graph, &d.test_enclosing[..5])
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// Central-difference spot check over randomly sampled parameter
    /// coordinates: perturbs each coordinate by `±ε`, re-evaluates the
    /// loss with `eval` (which must be deterministic in the parameters
    /// — reseed any internal rngs per call), and compares the slope
    /// against the analytic gradient in `grads`.
    fn fd_spot_check(
        model: &mut DekgIlp,
        grads: &dekg_tensor::GradStore,
        eval: &dyn Fn(&DekgIlp) -> f64,
        samples: usize,
        seed: u64,
    ) {
        use rand::Rng as _;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ids: Vec<(dekg_tensor::ParamId, usize)> =
            model.params().iter().map(|(id, _, t)| (id, t.data().len())).collect();
        for _ in 0..samples {
            let (id, len) = ids[rng.gen_range(0..ids.len())];
            let k = rng.gen_range(0..len);
            let x = model.params().get(id).data()[k];
            let eps = 5e-3 * (1.0 + x.abs());
            let hi = x + eps;
            let lo = x - eps;
            model.params_mut().get_mut(id).data_mut()[k] = hi;
            let f_hi = eval(model);
            model.params_mut().get_mut(id).data_mut()[k] = lo;
            let f_lo = eval(model);
            model.params_mut().get_mut(id).data_mut()[k] = x;
            let denom = f64::from(hi) - f64::from(lo);
            let fd = (f_hi - f_lo) / denom;
            let an = grads.get(id).map_or(0.0, |t| f64::from(t.data()[k]));
            let tol = 5e-3 + 3e-2 * fd.abs().max(an.abs());
            assert!(
                (fd - an).abs() <= tol,
                "param {} coord {k}: central difference {fd} vs analytic {an} (tol {tol})",
                model.params().name_of(id),
            );
        }
    }

    #[test]
    fn clrm_losses_pass_finite_difference_check() {
        let d = tiny_dataset(11);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut model = DekgIlp::new(quick_cfg(), &d, &mut rng);
        let graph = InferenceGraph::training_view(&d);
        let triples: Vec<Triple> = d.original.triples().iter().copied().take(6).collect();

        let build = |m: &DekgIlp| -> (Graph, Var) {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            let clrm = m.clrm().expect("full model has CLRM");
            let mut g = Graph::new();
            let scores = clrm.score(&mut g, m.params(), &graph.tables, &triples);
            let sem = g.mean_all(scores);
            let anchor = graph.tables.row(triples[0].head);
            let (pos, neg) = sampling::sample_pairs(anchor, d.num_relations, 2.0, 2, &mut rng);
            let lc = clrm.contrastive_loss(&mut g, m.params(), anchor, &pos, &neg, 1.0);
            let loss = g.add(sem, lc);
            (g, loss)
        };
        let eval = |m: &DekgIlp| -> f64 {
            let (g, loss) = build(m);
            f64::from(g.value(loss).item())
        };
        let (g, loss) = build(&model);
        let diags = g.diff_check(loss, Some(model.params()));
        assert!(diags.is_empty(), "CLRM tape should be clean: {diags:?}");
        let grads = g.backward(loss);
        fd_spot_check(&mut model, &grads, &eval, 15, 101);
    }

    #[test]
    fn gsm_loss_passes_finite_difference_check() {
        let d = tiny_dataset(12);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut model = DekgIlp::new(quick_cfg(), &d, &mut rng);
        let graph = InferenceGraph::training_view(&d);
        let cfg = model.config().clone();
        let triples: Vec<Triple> = d.original.triples().iter().copied().take(3).collect();

        let build = |m: &DekgIlp| -> (Graph, Var) {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let extractor =
                SubgraphExtractor::new(&graph.adjacency, cfg.hops, cfg.extraction_mode());
            let mut g = Graph::new();
            let subgraphs = extract_side(&extractor, &triples, true);
            let scores = score_extracted(m, m.gsm(), &triples, &subgraphs, &mut g, &mut rng);
            let loss = g.mean_all(scores);
            (g, loss)
        };
        let eval = |m: &DekgIlp| -> f64 {
            let (g, loss) = build(m);
            f64::from(g.value(loss).item())
        };
        let (g, loss) = build(&model);
        let diags = g.diff_check(loss, Some(model.params()));
        assert!(diags.is_empty(), "GSM tape should be clean: {diags:?}");
        let grads = g.backward(loss);
        fd_spot_check(&mut model, &grads, &eval, 15, 202);
    }

    #[test]
    fn combined_objective_passes_finite_difference_check() {
        let d = tiny_dataset(13);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut model = DekgIlp::new(quick_cfg(), &d, &mut rng);
        let graph = InferenceGraph::training_view(&d);
        let sampler = NegativeSampler::new(0..d.num_original_entities as u32, vec![&d.original]);
        let batch: Vec<Triple> = d.original.triples().iter().copied().take(4).collect();

        let build = |m: &DekgIlp| -> (Graph, Var) {
            let mut rng = ChaCha8Rng::seed_from_u64(21);
            let mut g = Graph::new();
            let loss = batch_loss(&mut g, m, &d, &graph, &sampler, &batch, &mut rng);
            (g, loss)
        };
        let eval = |m: &DekgIlp| -> f64 {
            let (g, loss) = build(m);
            f64::from(g.value(loss).item())
        };
        let (g, loss) = build(&model);
        let diags = g.diff_check(loss, Some(model.params()));
        assert!(diags.is_empty(), "Eq. 15 tape should be clean: {diags:?}");
        let grads = g.backward(loss);
        fd_spot_check(&mut model, &grads, &eval, 12, 303);
    }

    #[test]
    fn grad_check_dataset_is_clean() {
        let d = tiny_dataset(9);
        let diags = grad_check_dataset(&d, 0);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn training_with_gradcheck_every_runs_clean() {
        let d = tiny_dataset(1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let cfg = DekgIlpConfig { epochs: 1, gradcheck_every: 31, ..quick_cfg() };
        let mut model = DekgIlp::new(cfg, &d, &mut rng);
        let report = model.fit(&d, &mut rng);
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn tape_check_dataset_is_clean() {
        let d = tiny_dataset(9);
        let report = tape_check_dataset(&d, 0);
        assert!(report.is_clean(), "production training tape not clean:\n{}", report.render());
        assert!(report.params_checked > 0);
        assert!(report.plan.peak_live_bytes > 0);
        assert!(report.plan.peak_live_bytes <= report.plan.total_value_bytes);
    }

    #[test]
    fn training_with_tape_report_runs_clean() {
        let d = tiny_dataset(1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let cfg = DekgIlpConfig { epochs: 1, tape_report: true, ..quick_cfg() };
        let mut model = DekgIlp::new(cfg, &d, &mut rng);
        let report = model.fit(&d, &mut rng);
        assert!(report.final_loss.is_finite());
    }
}
