//! `dekg profile` — attributed hot-op profiling of the production
//! training tape.
//!
//! The flat spans from `dekg-obs` say *that* tape execution is slow;
//! this module says *where*: it arms the per-op kernel profiler in
//! `dekg-tensor` ([`dekg_tensor::prof`]), runs the exact Eq. 15
//! training tape on a small model, and reports a hot-op table — wall
//! time, call count and bytes moved per Op variant — plus
//! per-tape-structure rows keyed by the tapecheck structure key, so
//! repeated batches of the same shape fold together. Evaluation has no
//! tape here: the batched engine's spans (`extract_subgraph`,
//! `rgcn_layer_inference`, `score_batch`, `rank_query`) attribute it,
//! and `dekg evaluate` prints them.
//!
//! One harness, [`profile_train_paired`], runs every execution twice,
//! profiler off and on, and verifies two invariants:
//!
//! * **Attribution** — the summed per-op kernel time must account for
//!   the bulk of the measured tape-execution bracket ([`ProfileReport`]
//!   exposes the ratio as [`ProfileReport::coverage`]; the perf harness
//!   asserts ≥ 90%). Batch *preparation* (negative sampling, subgraph
//!   extraction) runs outside the bracket via
//!   [`crate::train::prepare_batch`], so only recording + backward is
//!   measured.
//! * **Determinism** — profiling observes and never participates:
//!   enabling it cannot change any loss or gradient bit
//!   ([`PairedProfile::outputs_identical`], asserted in the perf
//!   harness and in `crates/core/tests/profile.rs`).

use crate::model::DekgIlp;
use crate::train::{prepare_batch, record_prepared, PreparedBatch};
use crate::traits::InferenceGraph;
use dekg_datasets::{DekgDataset, NegativeSampler};
use dekg_kg::Triple;
use dekg_tensor::{prof, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::time::Instant;

/// Positives per profiled training batch.
const BATCH: usize = 8;

/// A profiling model sized so kernel work (not tape bookkeeping)
/// dominates — `dim` 96 where the check harness uses 8. The dim²
/// matmul cost swamps both the per-node recording glue (which is what
/// lets the perf harness hold the ≥90% attribution-coverage bar) and
/// the profiler's own two clock reads per op (its <5% overhead bar).
fn profile_config() -> crate::config::DekgIlpConfig {
    crate::config::DekgIlpConfig {
        dim: 96,
        num_contrastive: 2,
        gnn_layers: 2,
        attn_dim: 8,
        ..crate::config::DekgIlpConfig::quick()
    }
}

/// The profiler-on half of a [`profile_train_paired`] run: the sorted
/// hot-op table, the folded per-structure tape rows, and the
/// bracketing span measurement the attribution is judged against.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Per-op rows, hottest first (see [`dekg_tensor::OpProfile`]).
    pub ops: Vec<dekg_tensor::OpProfile>,
    /// Per-tape-structure rows, folded by structure key.
    pub tapes: Vec<dekg_tensor::TapeProfile>,
    /// Total wall-clock seconds inside the tape-execution bracket
    /// (wall-clock measurement — outside the determinism contract).
    pub span_seconds: f64,
    /// Tape executions measured.
    pub batches: usize,
    /// Total tape nodes across those executions.
    pub nodes: u64,
}

impl ProfileReport {
    /// Summed per-op kernel seconds (forward + backward).
    pub fn attributed_seconds(&self) -> f64 {
        self.ops.iter().map(dekg_tensor::OpProfile::total_seconds).sum()
    }

    /// Fraction of the measured bracket the per-op rows account for.
    /// The acceptance bar for `dekg profile train` is ≥ 0.90.
    pub fn coverage(&self) -> f64 {
        if self.span_seconds > 0.0 {
            self.attributed_seconds() / self.span_seconds
        } else {
            0.0
        }
    }

    /// Renders the hot-op table and tape-structure rows as aligned
    /// plain text (the `dekg profile` output).
    pub fn render(&self) -> String {
        let attributed = self.attributed_seconds();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profiled {} tape execution(s), {} node(s): {:.1} ms measured, {:.1} ms attributed ({:.1}% coverage)",
            self.batches,
            self.nodes,
            self.span_seconds * 1e3,
            attributed * 1e3,
            self.coverage() * 100.0,
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>10} {:>10} {:>10} {:>7} {:>9}",
            "op", "calls", "fwd ms", "bwd ms", "total ms", "share", "MB moved"
        );
        for op in &self.ops {
            let share = if attributed > 0.0 { op.total_seconds() / attributed } else { 0.0 };
            let mb = (op.forward_bytes + op.backward_bytes) as f64 / 1e6;
            let _ = writeln!(
                out,
                "{:<14} {:>9} {:>10.3} {:>10.3} {:>10.3} {:>6.1}% {:>9.2}",
                op.op,
                op.total_calls(),
                op.forward_seconds * 1e3,
                op.backward_seconds * 1e3,
                op.total_seconds() * 1e3,
                share * 100.0,
                mb,
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "tape structures (folded by tapecheck structure key):");
        for t in &self.tapes {
            let _ = writeln!(
                out,
                "  key {:016x}  executions {:>4}  nodes {:>8}  {:>9.1} ms",
                t.key,
                t.executions,
                t.nodes,
                t.seconds * 1e3,
            );
        }
        out
    }
}

/// Publishes a snapshot's hot-op rows to the global metrics registry
/// as `dekg_tape_op_seconds{op=...,phase=fwd|bwd}` gauges (wall-clock;
/// outside the determinism contract per the `seconds` naming rule) and
/// `dekg_tape_op_calls_total{...}` counters (deterministic).
fn export_metrics(ops: &[dekg_tensor::OpProfile]) {
    let reg = dekg_obs::metrics::global();
    for op in ops {
        reg.gauge(&format!("dekg_tape_op_seconds{{op=\"{}\",phase=\"fwd\"}}", op.op))
            .set(op.forward_seconds);
        reg.gauge(&format!("dekg_tape_op_seconds{{op=\"{}\",phase=\"bwd\"}}", op.op))
            .set(op.backward_seconds);
        reg.counter(&format!("dekg_tape_op_calls_total{{op=\"{}\",phase=\"fwd\"}}", op.op))
            .add(op.forward_calls);
        reg.counter(&format!("dekg_tape_op_calls_total{{op=\"{}\",phase=\"bwd\"}}", op.op))
            .add(op.backward_calls);
    }
}

/// The profiled training workload: a profiling-sized model, its
/// training view and one prepared batch per slot, `min(batches,
/// distinct)` of them. Batch `i` replays slot `i % distinct`: the same
/// seed and positives, hence the same tape structure. Each slot keeps
/// its rng as it stood after preparation, so recording from a clone of
/// it replays the same tape.
///
/// # Panics
/// When `batches` or `distinct` is zero or the dataset has no triples.
fn train_workload(
    dataset: &DekgDataset,
    seed: u64,
    batches: usize,
    distinct: usize,
) -> (DekgIlp, InferenceGraph, Vec<(PreparedBatch, ChaCha8Rng)>) {
    assert!(batches > 0 && distinct > 0, "training profiles need batches > 0 and distinct > 0");
    let triples = dataset.original.triples();
    assert!(!triples.is_empty(), "training profiles need a non-empty original KG");

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let model = DekgIlp::new(profile_config(), dataset, &mut rng);
    let train_graph = InferenceGraph::training_view(dataset);
    let sampler =
        NegativeSampler::new(0..dataset.num_original_entities as u32, vec![&dataset.original]);
    let prepared = (0..batches.min(distinct))
        .map(|slot| {
            let mut brng =
                ChaCha8Rng::seed_from_u64(seed ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let start = (slot * BATCH) % triples.len();
            let batch: Vec<Triple> = triples
                .iter()
                .cycle()
                .skip(start)
                .take(BATCH.min(triples.len()))
                .copied()
                .collect();
            (prepare_batch(&model, &sampler, &train_graph, &batch, &mut brng), brng)
        })
        .collect();
    (model, train_graph, prepared)
}

/// The profiler's observer contract, measured in one
/// [`profile_train_paired`] run: coverage, overhead and on/off bit
/// identity (`dekg profile train` prints all three; the perf harness
/// asserts them).
#[derive(Debug, Clone)]
pub struct PairedProfile {
    /// The profiler-on executions: hot-op table, folded tape rows and
    /// their bracket (coverage).
    pub report: ProfileReport,
    /// Summed bracket seconds of the paired profiler-off executions
    /// (the profiler-on sum is `report.span_seconds`).
    pub unprofiled_seconds: f64,
    /// Median over all pairs of `on / off - 1`.
    pub overhead_ratio: f64,
    /// Every per-batch loss bit and every gradient bit of the final
    /// batch were equal with the profiler on and off, in every round.
    pub outputs_identical: bool,
}

/// Profiles `batches` executions of the production Eq. 15 training
/// tape (record + backward) on a fresh profiling-sized model, with the
/// kernel profiler off and on, paired per batch.
///
/// Batches rotate through `distinct` structurally distinct shapes, so
/// the per-structure rows demonstrate folding: `batches` executions
/// collapse to at most `distinct` keys. The model is built once and
/// each distinct batch is prepared once, up front and outside the
/// timed bracket; every run of a batch records and back-propagates that
/// prepared batch from a clone of its post-preparation rng, so the two
/// modes execute identical tapes. For every round and every batch the
/// two modes run back to back, the first mode alternating with
/// `(round + batch) % 2`, after one untimed warm-up pass. The overhead
/// is the median of the per-pair ratios: both runs of a pair share the
/// host's state, so a scheduler stall or host drift moves one pair's
/// ratio, not the median. The profiler-on executions also fill the
/// returned report, so one call yields coverage, overhead and the
/// bitwise on/off comparison.
///
/// Every execution, in either mode, runs inside a
/// `profile_tape_execute` span (opened before the timed bracket starts)
/// so `--chrome-trace` shows each one. The hot-op rows are exported as
/// `dekg_tape_op_*` metrics; the global profiler is left disabled.
///
/// # Panics
/// When `batches`, `distinct` or `rounds` is zero, or the dataset has
/// no triples.
pub fn profile_train_paired(
    dataset: &DekgDataset,
    seed: u64,
    batches: usize,
    distinct: usize,
    rounds: usize,
) -> PairedProfile {
    assert!(rounds > 0, "profile_train_paired needs rounds > 0");
    let (model, train_graph, slots) = train_workload(dataset, seed, batches, distinct);

    // One timed record + backward of batch `i`; output bits go to
    // `bits`, and a profiled run also files its tape-structure row.
    let run = |i: usize, profiled: bool, bits: &mut Vec<u32>| -> (f64, u64) {
        let (batch, brng) = &slots[i % slots.len()];
        let mut brng = brng.clone();
        let span = dekg_obs::span!("profile_tape_execute");
        prof::set_enabled(profiled);
        let started = Instant::now();
        let mut g = Graph::new();
        let parts = record_prepared(&mut g, &model, dataset, &train_graph, batch, &mut brng);
        let grads = g.backward(parts.total);
        let dt = started.elapsed().as_secs_f64();
        prof::set_enabled(false);
        drop(span);

        if profiled {
            let key = dekg_tensor::tapecheck::structure_key(
                &g,
                parts.total,
                &parts.observed_vars(),
                Some(model.params()),
            );
            prof::record_tape(key, g.len() as u64, dt);
        }
        bits.push(g.value(parts.total).item().to_bits());
        if i == batches - 1 {
            for (id, _, _) in model.params().iter() {
                if let Some(t) = grads.get(id) {
                    bits.extend(t.data().iter().map(|x| x.to_bits()));
                }
            }
        }
        (dt, g.len() as u64)
    };

    let mut scratch = Vec::new();
    for i in 0..batches {
        run(i, false, &mut scratch);
        run(i, true, &mut scratch);
    }
    prof::reset();
    let mut ratios = Vec::with_capacity(rounds * batches);
    let (mut off_bits, mut on_bits) = (Vec::new(), Vec::new());
    let (mut unprofiled_seconds, mut span_seconds, mut nodes) = (0.0f64, 0.0f64, 0u64);
    for round in 0..rounds {
        for i in 0..batches {
            let ((off, _), (on, n)) = if (round + i) % 2 == 1 {
                let on = run(i, true, &mut on_bits);
                (run(i, false, &mut off_bits), on)
            } else {
                let off = run(i, false, &mut off_bits);
                (off, run(i, true, &mut on_bits))
            };
            ratios.push(on / off);
            unprofiled_seconds += off;
            span_seconds += on;
            nodes += n;
        }
    }
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median =
        if ratios.len() % 2 == 0 { (ratios[mid - 1] + ratios[mid]) / 2.0 } else { ratios[mid] };
    let snap = prof::snapshot();
    prof::reset();
    export_metrics(&snap.ops);
    PairedProfile {
        report: ProfileReport {
            ops: snap.ops,
            tapes: snap.tapes,
            span_seconds,
            batches: batches * rounds,
            nodes,
        },
        unprofiled_seconds,
        overhead_ratio: median - 1.0,
        // More bits than one loss per run: the gradients were compared.
        outputs_identical: off_bits.len() > batches * rounds && off_bits == on_bits,
    }
}
