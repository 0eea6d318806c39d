//! Per-op kernel profiler for the autograd tape.
//!
//! A zero-cost-when-disabled execution hook: every eager op constructor
//! and every backward step in [`crate::Graph`] asks this module for a
//! [`ProfTimer`] (one relaxed atomic load when profiling is off, an
//! `Instant::now` when it is on) and, when the timer is live, folds its
//! elapsed wall time, one call, and the bytes it moved into a global
//! table indexed by the op's [`crate::ALL_OPS`] ordinal. Whole-tape
//! executions are additionally folded by their
//! [`crate::tapecheck::structure_key`], so repeated structurally
//! identical batches aggregate into one row instead of a stream.
//!
//! The profiler observes, never participates: it reads values already
//! computed and touches no RNG, so enabling it cannot change any
//! recorded tensor, gradient, or ranked output (the bitwise-determinism
//! contract). Wall-clock seconds are inherently run-dependent, but the
//! deterministic columns — call counts and bytes moved — are exact and
//! thread-invariant, because the table is a single mutex-guarded
//! accumulator of additive integers.
//!
//! ```
//! use dekg_tensor::{prof, Graph, Tensor};
//!
//! prof::reset();
//! prof::set_enabled(true);
//! let mut g = Graph::new();
//! let a = g.constant(Tensor::ones([4, 4]));
//! let b = g.matmul(a, a);
//! let _ = g.sum_all(b);
//! prof::set_enabled(false);
//!
//! let snap = prof::snapshot();
//! let matmul = snap.ops.iter().find(|o| o.op == "Matmul").unwrap();
//! assert_eq!(matmul.forward_calls, 1);
//! ```

use crate::check::ALL_OPS;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Number of distinct op kernels ([`ALL_OPS`] is the authority).
const NUM_OPS: usize = ALL_OPS.len();

/// One accumulator row: wall time, call count, bytes moved.
#[derive(Clone, Copy)]
struct OpStat {
    calls: u64,
    seconds: f64,
    bytes: u64,
}

const ZERO: OpStat = OpStat { calls: 0, seconds: 0.0, bytes: 0 };

impl OpStat {
    fn fold(&mut self, seconds: f64, bytes: u64) {
        self.calls += 1;
        self.seconds += seconds;
        self.bytes += bytes;
    }
}

/// Whole-tape accumulator row, keyed by tapecheck structure key.
#[derive(Clone, Copy)]
struct TapeStat {
    executions: u64,
    nodes: u64,
    seconds: f64,
}

struct Tables {
    forward: [OpStat; NUM_OPS],
    backward: [OpStat; NUM_OPS],
    tapes: BTreeMap<u64, TapeStat>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TABLES: Mutex<Tables> = Mutex::new(Tables {
    forward: [ZERO; NUM_OPS],
    backward: [ZERO; NUM_OPS],
    tapes: BTreeMap::new(),
});

fn tables() -> std::sync::MutexGuard<'static, Tables> {
    // A panic while holding this lock leaves only partial telemetry
    // behind, never a broken invariant — recover instead of poisoning
    // every later profile.
    TABLES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns the profiler on or off. Off (the default) costs one relaxed
/// atomic load per recorded op.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether op recording currently feeds the profile tables.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears every accumulator (op rows and per-tape rows).
pub fn reset() {
    let mut t = tables();
    t.forward = [ZERO; NUM_OPS];
    t.backward = [ZERO; NUM_OPS];
    t.tapes.clear();
}

/// A possibly-armed stopwatch handed to the tape's recording hot path.
///
/// Created by `start`; `None` inside means profiling was off at
/// creation and every later step is a no-op.
pub struct ProfTimer(Option<Instant>);

impl ProfTimer {
    /// Elapsed time when the timer was armed, consuming the timer.
    pub(crate) fn finish(self) -> Option<Duration> {
        self.0.map(|t| t.elapsed())
    }
}

/// Starts a stopwatch if profiling is enabled (the single branch every
/// op pays when profiling is off).
#[inline]
pub(crate) fn start() -> ProfTimer {
    if ENABLED.load(Ordering::Relaxed) && thread_records() {
        ProfTimer(Some(Instant::now()))
    } else {
        ProfTimer(None)
    }
}

// This crate's unit tests share one process and the global tables, so
// in its test build only threads that opt in record: tests running
// concurrently cannot leak rows into a profiler test's exact counts.
#[cfg(test)]
thread_local! {
    static THREAD_RECORDS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether ops recorded on the current thread may feed the tables:
/// always, except in this crate's unit tests (see `THREAD_RECORDS`).
#[inline]
fn thread_records() -> bool {
    #[cfg(test)]
    return THREAD_RECORDS.with(std::cell::Cell::get);
    #[cfg(not(test))]
    true
}

/// Folds one forward execution of op `ordinal` into the table.
pub(crate) fn record_forward(ordinal: usize, bytes: u64, elapsed: Duration) {
    tables().forward[ordinal].fold(elapsed.as_secs_f64(), bytes);
}

/// Folds one backward step through op `ordinal` into the table.
pub(crate) fn record_backward(ordinal: usize, bytes: u64, elapsed: Duration) {
    tables().backward[ordinal].fold(elapsed.as_secs_f64(), bytes);
}

/// Folds one whole-tape execution (record + backward) under its
/// [`crate::tapecheck::structure_key`], so structurally identical
/// batches aggregate into a single row.
pub fn record_tape(key: u64, nodes: u64, seconds: f64) {
    let mut t = tables();
    let row = t.tapes.entry(key).or_insert(TapeStat { executions: 0, nodes, seconds: 0.0 });
    row.executions += 1;
    row.seconds += seconds;
}

/// Aggregated profile of one op kernel, forward and backward.
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Op mnemonic from [`ALL_OPS`].
    pub op: &'static str,
    /// Forward executions recorded.
    pub forward_calls: u64,
    /// Wall time inside forward execution (eager value computation).
    pub forward_seconds: f64,
    /// Bytes moved forward: inputs read plus output written.
    pub forward_bytes: u64,
    /// Backward steps through nodes of this op.
    pub backward_calls: u64,
    /// Wall time inside those backward steps.
    pub backward_seconds: f64,
    /// Bytes of incoming gradient consumed by those steps.
    pub backward_bytes: u64,
}

impl OpProfile {
    /// Forward plus backward wall time.
    pub fn total_seconds(&self) -> f64 {
        self.forward_seconds + self.backward_seconds
    }

    /// Forward plus backward call count.
    pub fn total_calls(&self) -> u64 {
        self.forward_calls + self.backward_calls
    }
}

/// Aggregated profile of one tape structure (see [`record_tape`]).
#[derive(Debug, Clone, Copy)]
pub struct TapeProfile {
    /// The tapecheck structure key the executions folded under.
    pub key: u64,
    /// Executions (record + backward) of this structure.
    pub executions: u64,
    /// Nodes in one instance of the structure.
    pub nodes: u64,
    /// Total wall time across all executions.
    pub seconds: f64,
}

/// A point-in-time copy of the profiler's tables.
#[derive(Debug, Clone, Default)]
pub struct ProfSnapshot {
    /// Per-op rows with at least one call, sorted by descending total
    /// wall time (the hot-op order).
    pub ops: Vec<OpProfile>,
    /// Per-tape-structure rows in structure-key order.
    pub tapes: Vec<TapeProfile>,
}

impl ProfSnapshot {
    /// Wall time the profiler attributed to op kernels — the numerator
    /// of the coverage ratio against an enclosing tape-execution span.
    pub fn attributed_seconds(&self) -> f64 {
        self.ops.iter().map(OpProfile::total_seconds).sum()
    }

    /// Total op executions recorded (forward + backward).
    pub fn total_calls(&self) -> u64 {
        self.ops.iter().map(OpProfile::total_calls).sum()
    }

    /// Total bytes moved across all ops (forward + backward).
    pub fn total_bytes(&self) -> u64 {
        self.ops.iter().map(|o| o.forward_bytes + o.backward_bytes).sum()
    }
}

/// Snapshots the current tables (ops sorted hottest-first).
pub fn snapshot() -> ProfSnapshot {
    let t = tables();
    let mut ops: Vec<OpProfile> = (0..NUM_OPS)
        .filter(|&i| t.forward[i].calls > 0 || t.backward[i].calls > 0)
        .map(|i| OpProfile {
            op: ALL_OPS[i],
            forward_calls: t.forward[i].calls,
            forward_seconds: t.forward[i].seconds,
            forward_bytes: t.forward[i].bytes,
            backward_calls: t.backward[i].calls,
            backward_seconds: t.backward[i].seconds,
            backward_bytes: t.backward[i].bytes,
        })
        .collect();
    // Stable tie-break on the ordinal-ordered input keeps equal-time
    // rows (e.g. two never-hot ops at 0.0s) in deterministic order.
    ops.sort_by(|a, b| b.total_seconds().total_cmp(&a.total_seconds()));
    let tapes = t
        .tapes
        .iter()
        .map(|(&key, s)| TapeProfile {
            key,
            executions: s.executions,
            nodes: s.nodes,
            seconds: s.seconds,
        })
        .collect();
    ProfSnapshot { ops, tapes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use crate::Graph;

    /// The profiler tables are global; serialize the tests that assert
    /// on their contents, and let only the calling thread record.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        THREAD_RECORDS.with(|r| r.set(true));
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _guard = lock();
        reset();
        set_enabled(false);
        let mut g = Graph::new();
        let a = g.constant(Tensor::ones([3, 3]));
        let _ = g.matmul(a, a);
        let snap = snapshot();
        assert!(snap.ops.is_empty(), "rows recorded while disabled: {:?}", snap.ops);
    }

    #[test]
    fn forward_and_backward_rows_fold() {
        let _guard = lock();
        reset();
        set_enabled(true);
        let mut ps = crate::ParamStore::new();
        let w = ps.insert("w", Tensor::ones([2, 2]));
        let mut g = Graph::new();
        let wv = g.param(&ps, w);
        let prod = g.matmul(wv, wv);
        let loss = g.sum_all(prod);
        let _ = g.backward(loss);
        set_enabled(false);

        let snap = snapshot();
        let row = |name: &str| {
            snap.ops
                .iter()
                .find(|o| o.op == name)
                .unwrap_or_else(|| panic!("no {name} row in {:?}", snap.ops))
                .clone()
        };
        let mm = row("Matmul");
        assert_eq!(mm.forward_calls, 1);
        assert_eq!(mm.backward_calls, 1);
        // 2x2 f32 inputs (x2) + 2x2 output = 48 bytes forward; the
        // backward step consumes the 2x2 incoming gradient (16 bytes).
        assert_eq!(mm.forward_bytes, 48);
        assert_eq!(mm.backward_bytes, 16);
        let leaf = row("Param");
        assert_eq!(leaf.forward_calls, 1);
        // The Param leaf's backward step routes into the GradStore.
        assert_eq!(leaf.backward_calls, 1);
        assert!(snap.attributed_seconds() >= 0.0);
        assert!(snap.total_calls() >= 6);
    }

    /// The byte column counts what the kernels read: a `RelMatmul` one
    /// `[k, n]` weight block per run (not the whole stack) and a
    /// `GatherRows` the gathered rows (not the whole table).
    #[test]
    fn byte_column_bills_the_blocks_and_rows_read() {
        let _guard = lock();
        reset();
        set_enabled(true);
        let mut g = Graph::new();
        // x [3, 2] against a stack of four [2, 2] blocks; runs (b0, b0), (b2).
        let x = g.constant(Tensor::ones([3, 2]));
        let w = g.constant(Tensor::ones([8, 2]));
        let _ = g.rel_matmul(x, w, &[0, 0, 2]);
        // Three rows of a [5, 3] table, one of them twice.
        let table = g.constant(Tensor::ones([5, 3]));
        let _ = g.gather_rows(table, &[1, 1, 4]);
        set_enabled(false);

        let snap = snapshot();
        let bytes = |name: &str| snap.ops.iter().find(|o| o.op == name).map(|o| o.forward_bytes);
        // x 6 + two blocks of 4 + output 6 floats.
        assert_eq!(bytes("RelMatmul"), Some(20 * 4));
        // three rows of 3 read + 9 written.
        assert_eq!(bytes("GatherRows"), Some(18 * 4));
    }

    #[test]
    fn profiling_does_not_change_values() {
        let _guard = lock();
        let run = |on: bool| -> (Vec<f32>, Vec<f32>) {
            reset();
            set_enabled(on);
            let mut ps = crate::ParamStore::new();
            let w = ps.insert("w", Tensor::from_vec([2, 2], vec![0.5, -1.0, 2.0, 0.25]));
            let mut g = Graph::new();
            let wv = g.param(&ps, w);
            let sq = g.square(wv);
            let s = g.sigmoid(sq);
            let loss = g.mean_all(s);
            let grads = g.backward(loss);
            set_enabled(false);
            (
                g.value(loss).data().to_vec(),
                grads.get(w).map(|t| t.data().to_vec()).unwrap_or_default(),
            )
        };
        let off = run(false);
        let on = run(true);
        // Bitwise equality, not approximate: the profiler must observe
        // without participating.
        assert_eq!(
            off.0.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            on.0.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            off.1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            on.1.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tape_rows_fold_by_structure_key() {
        let _guard = lock();
        reset();
        record_tape(42, 100, 0.5);
        record_tape(42, 100, 0.25);
        record_tape(7, 10, 0.1);
        let snap = snapshot();
        assert_eq!(snap.tapes.len(), 2);
        assert_eq!(snap.tapes[0].key, 7);
        let folded = snap.tapes[1];
        assert_eq!(folded.executions, 2);
        assert_eq!(folded.nodes, 100);
        assert!((folded.seconds - 0.75).abs() < 1e-12);
        reset();
        assert!(snapshot().tapes.is_empty());
    }
}
