//! Scope timers: named spans that accumulate per-phase totals.
//!
//! A span is a lexical scope timed by a [`SpanTimer`] guard — the
//! [`crate::span!`] macro binds one, and its `Drop` folds the elapsed
//! time into a process-global table keyed by the span's static name.
//! Totals are *CPU-seconds summed across workers*: four rayon threads
//! spending 1 s each inside `span!("score_batch")` contribute 4 s.
//! Phase breakdowns derived from spans (eval extraction vs. scoring
//! vs. ranking) are therefore work measurements, not wall-clock.
//!
//! **Zero-cost-when-disabled.** [`set_spans_enabled`]`(false)` turns
//! [`SpanTimer::enter`] into a single relaxed atomic load returning an
//! inert guard — no clock read, no lock. The perf harness disables
//! spans so its profiler-overhead measurement times the profiler alone.
//!
//! Span *seconds* are wall-clock measurements and sit outside the
//! determinism contract; span *counts* are additive `u64`s and inside
//! it (see the crate docs).
//!
//! **Hierarchical traces.** When tracing is armed
//! ([`set_tracing_enabled`], implied by `--chrome-trace`), every span
//! additionally carries a `trace_id`/`span_id`/`parent_id` triple
//! maintained by a thread-local span stack: the innermost open span on
//! the same thread is the parent. Each closing span emits a `"span"`
//! JSONL event to the trace sink and a complete event to the Chrome
//! trace buffer (see [`crate::chrome`]). The flat table keeps working
//! unchanged either way, and with tracing off (the default) the only
//! extra cost per span is one relaxed atomic load.

use crate::event::{trace_active, Event};
use serde::{Deserialize, Number, Serialize, Value};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(true);
static TABLE: Mutex<BTreeMap<&'static str, SpanStat>> = Mutex::new(BTreeMap::new());

/// Master switch for hierarchical trace ids (off by default; flat
/// aggregation works regardless).
static TRACING: AtomicBool = AtomicBool::new(false);

/// Shared allocator for trace and span ids. Starts at 1 so 0 can mean
/// "none" (root spans have `parent_id = 0`).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocator for stable per-thread track ids (`ThreadId::as_u64` is
/// unstable, so we hand out our own).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The trace this thread's spans belong to; 0 = unassigned (a
    /// fresh trace is allocated lazily when the first span opens).
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
    /// Span ids of the scopes currently open on this thread,
    /// innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's track id for Chrome trace output.
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Arms or disarms hierarchical trace-id tracking. Configuring a
/// Chrome trace path arms it automatically.
pub fn set_tracing_enabled(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// True when hierarchical trace-id tracking is armed.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Allocates a fresh trace id (for example, one per served request).
pub fn new_trace_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The trace id this thread's spans are currently tagged with
/// (0 = none assigned yet).
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(Cell::get)
}

/// Tags subsequent spans on this thread with `trace_id`. `dekg serve`
/// workers call this when picking up a job so the request's trace id
/// follows it across the queue boundary.
pub fn set_current_trace(trace_id: u64) {
    CURRENT_TRACE.with(|t| t.set(trace_id));
}

fn thread_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Identity of one open span in a hierarchical trace.
#[derive(Debug, Clone, Copy)]
struct SpanIds {
    trace: u64,
    span: u64,
    parent: u64,
}

fn table() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, SpanStat>> {
    TABLE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Enables or disables span timing globally. Disabled timers skip the
/// clock read and table update entirely.
pub fn set_spans_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when span timing is active (the default).
pub fn spans_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears the accumulated span table.
pub fn reset_spans() {
    table().clear();
}

/// Accumulated state of one span: how many scopes closed and their
/// total elapsed time.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SpanStat {
    /// Number of completed scopes.
    pub count: u64,
    /// Total elapsed CPU-seconds across those scopes (wall-clock
    /// measurement — outside the determinism contract).
    pub seconds: f64,
}

/// A point-in-time copy of the span table, taken with
/// [`span_snapshot`]. Two snapshots bracket a region of interest;
/// [`SpanSnapshot::diff`] isolates the spans that closed in between.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// Per-span accumulated stats, keyed by span name.
    pub spans: BTreeMap<String, SpanStat>,
}

impl SpanSnapshot {
    /// The stats for `name`, if any scope with that name has closed.
    pub fn get(&self, name: &str) -> Option<&SpanStat> {
        self.spans.get(name)
    }

    /// The per-span increase from `earlier` to `self`, dropping spans
    /// with no new completions. Counts subtract saturating; seconds
    /// clamp at zero.
    #[must_use]
    pub fn diff(&self, earlier: &SpanSnapshot) -> SpanSnapshot {
        let spans = self
            .spans
            .iter()
            .filter_map(|(name, now)| {
                let before = earlier.spans.get(name).copied().unwrap_or_default();
                let count = now.count.saturating_sub(before.count);
                if count == 0 {
                    return None;
                }
                let seconds = (now.seconds - before.seconds).max(0.0);
                Some((name.clone(), SpanStat { count, seconds }))
            })
            .collect();
        SpanSnapshot { spans }
    }
}

/// A copy of the current global span table.
pub fn span_snapshot() -> SpanSnapshot {
    let spans = table().iter().map(|(&k, &v)| (k.to_owned(), v)).collect();
    SpanSnapshot { spans }
}

/// The guard returned by [`crate::span!`]. Records the elapsed time
/// into the global table on drop; inert (no clock, no lock) when spans
/// are disabled.
#[derive(Debug)]
pub struct SpanTimer {
    name: &'static str,
    start: Option<Instant>,
    ids: Option<SpanIds>,
}

impl SpanTimer {
    /// Starts a timer for `name`; prefer the [`crate::span!`] macro.
    pub fn enter(name: &'static str) -> SpanTimer {
        let start = spans_enabled().then(Instant::now);
        let ids = (start.is_some() && tracing_enabled()).then(|| {
            let trace = CURRENT_TRACE.with(|t| {
                if t.get() == 0 {
                    t.set(new_trace_id());
                }
                t.get()
            });
            let span = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            let parent = STACK.with(|s| {
                let mut s = s.borrow_mut();
                let parent = s.last().copied().unwrap_or(0);
                s.push(span);
                parent
            });
            SpanIds { trace, span, parent }
        });
        SpanTimer { name, start, ids }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let seconds = start.elapsed().as_secs_f64();
        {
            let mut map = table();
            let stat = map.entry(self.name).or_default();
            stat.count += 1;
            stat.seconds += seconds;
        }
        let Some(ids) = self.ids else { return };
        // Pop this span from the thread's open stack. Guards normally
        // drop in reverse open order, but search from the top anyway so
        // an out-of-order drop (e.g. `mem::drop` games in tests) can't
        // corrupt later parent links.
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == ids.span) {
                s.truncate(pos);
            }
        });
        if trace_active() {
            Event::new("span")
                .field_str("name", self.name)
                .field_u64("trace_id", ids.trace)
                .field_u64("span_id", ids.span)
                .field_u64("parent_id", ids.parent)
                .field_f64("seconds", seconds)
                .emit_trace();
        }
        crate::chrome::push_event(
            self.name,
            thread_tid(),
            start,
            seconds,
            ids.trace,
            ids.span,
            ids.parent,
        );
    }
}

/// Times the rest of the enclosing scope under a static span name:
///
/// ```
/// # fn work() {}
/// let _span = dekg_obs::span!("extract_subgraph");
/// work(); // counted against extract_subgraph until scope end
/// ```
///
/// Bind the guard (`let _span = …`) — a bare `span!(…);` statement
/// drops it immediately and times nothing.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanTimer::enter($name)
    };
}

/// Emits a `"spans"` event carrying the accumulated table to the trace
/// sink (dropped when none). An `epoch` field is included when given,
/// letting per-epoch emissions interleave with the final summary.
pub fn emit_span_event(epoch: Option<u64>) {
    if !trace_active() {
        return;
    }
    let mut event = Event::new("spans");
    if let Some(epoch) = epoch {
        event = event.field_u64("epoch", epoch);
    }
    let snap = span_snapshot();
    let pairs = snap
        .spans
        .iter()
        .map(|(name, stat)| {
            let fields = vec![
                ("count".to_owned(), Value::Num(Number::U(stat.count))),
                ("seconds".to_owned(), Value::Num(Number::F(stat.seconds))),
            ];
            (name.clone(), Value::Object(fields))
        })
        .collect();
    event.field_value("spans", Value::Object(pairs)).emit_trace();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_count_and_time() {
        let _guard = crate::test_lock();
        reset_spans();
        for _ in 0..3 {
            let _span = crate::span!("test_phase_a");
            std::hint::black_box(0);
        }
        let snap = span_snapshot();
        let stat = snap.get("test_phase_a").expect("span recorded");
        assert_eq!(stat.count, 3);
        assert!(stat.seconds >= 0.0);
        reset_spans();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_lock();
        reset_spans();
        set_spans_enabled(false);
        {
            let _span = crate::span!("test_phase_off");
        }
        assert!(span_snapshot().get("test_phase_off").is_none());
        set_spans_enabled(true);
        reset_spans();
    }

    #[test]
    fn diff_isolates_new_completions() {
        let _guard = crate::test_lock();
        reset_spans();
        {
            let _a = crate::span!("test_diff_a");
        }
        let before = span_snapshot();
        {
            let _a = crate::span!("test_diff_a");
        }
        {
            let _b = crate::span!("test_diff_b");
        }
        let delta = span_snapshot().diff(&before);
        assert_eq!(delta.get("test_diff_a").unwrap().count, 1);
        assert_eq!(delta.get("test_diff_b").unwrap().count, 1);
        // Unchanged spans are dropped from the diff.
        let empty = span_snapshot().diff(&span_snapshot());
        assert!(empty.spans.is_empty());
        reset_spans();
    }

    #[test]
    fn tracing_assigns_parent_child_ids() {
        let _guard = crate::test_lock();
        reset_spans();
        set_tracing_enabled(true);
        set_current_trace(0); // force lazy trace allocation on this thread
        let (outer_ids, inner_ids);
        {
            let outer = crate::span!("test_trace_outer");
            {
                let inner = crate::span!("test_trace_inner");
                inner_ids = inner.ids.expect("inner span has ids");
            }
            outer_ids = outer.ids.expect("outer span has ids");
        }
        assert_eq!(inner_ids.trace, outer_ids.trace, "same thread, same trace");
        assert_eq!(inner_ids.parent, outer_ids.span, "inner nests under outer");
        assert_eq!(outer_ids.parent, 0, "outer is a root span");
        assert_ne!(inner_ids.span, outer_ids.span);
        // The stack fully unwound: a new root span has no parent.
        {
            let next = crate::span!("test_trace_next");
            assert_eq!(next.ids.expect("ids").parent, 0);
        }
        set_tracing_enabled(false);
        set_current_trace(0);
        reset_spans();
    }

    #[test]
    fn tracing_disabled_allocates_no_ids() {
        let _guard = crate::test_lock();
        set_tracing_enabled(false);
        let t = crate::span!("test_trace_off");
        assert!(t.ids.is_none());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut spans = BTreeMap::new();
        spans.insert("phase".to_owned(), SpanStat { count: 2, seconds: 0.5 });
        let snap = SpanSnapshot { spans };
        let json = serde_json::to_string(&snap).unwrap();
        let back: SpanSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }
}
