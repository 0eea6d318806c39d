//! In-memory span recorder for the traced runs.
//!
//! Spans are opened around calls into the library's public functions,
//! kept in memory while the workload runs, and written out as JSON
//! lines when it ends. Each span carries its name, start and end (ns
//! since the recorder was created), the span that encloses it on the
//! same thread, the recording thread, and a tag — the query index, the
//! training step, or the serve request's `X-Dekg-Trace-Id`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span on the same thread, `0` for a root.
    pub parent: u64,
    /// Stage name, `<layer>.<what>`.
    pub name: &'static str,
    /// Recording thread (small dense index).
    pub thread: u64,
    /// Query index, training step or request trace id.
    pub tag: u64,
    /// Start, ns since the recorder epoch.
    pub start: u64,
    /// End, ns since the recorder epoch.
    pub end: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// The recorder. One per traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Open-span stack of this thread (parent links) and its index.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, tag: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        SpanGuard { tracer: self, id, parent, name, tag, start: self.now_ns() }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, tag: u64, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name, tag);
        f()
    }

    /// Records an already-measured interval (e.g. a request's phases
    /// reconstructed from response headers) as a closed span.
    pub fn record(
        &self,
        name: &'static str,
        tag: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            id,
            parent,
            name,
            thread: THREAD.with(|t| *t),
            tag,
            start: at(start),
            end: at(end).max(at(start)),
        };
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
        id
    }

    /// Every closed span so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().unwrap_or_else(PoisonError::into_inner).clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// File creation or write failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"tag\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.thread, s.tag, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    tag: u64,
    start: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: THREAD.with(|t| *t),
            tag: self.tag,
            start: self.start,
            end,
        };
        self.tracer.spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations, seconds.
    pub seconds: f64,
    /// Summed self time (duration minus the union of child spans),
    /// seconds.
    pub self_seconds: f64,
}

/// Length of the union of `[start, end)` intervals, clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span in ns: its duration minus the part of its
/// interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, (s.end - s.start) - covered(kids, s.start, s.end))
        })
        .collect()
}

/// Calls, total and self seconds per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, StageTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, StageTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.seconds += s.seconds();
        t.self_seconds += selfs[&s.id] as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, thread: 0, tag: 0, start, end }
    }

    #[test]
    fn self_time_subtracts_child_union() {
        // root [0,100) with children [10,30), [20,50) (overlapping) and
        // [60,70); grandchild [12,15) under the first child.
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 20, 50),
            span(4, 1, "c", 60, 70),
            span(5, 2, "d", 12, 15),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20 - 3);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&5], 3);
        let t = totals(&spans);
        assert_eq!(t["root"].calls, 1);
        assert!((t["root"].self_seconds - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn children_outside_parent_are_clipped() {
        let spans = vec![span(1, 0, "root", 10, 20), span(2, 1, "late", 15, 40)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn guards_nest_on_one_thread() {
        let t = Tracer::new();
        {
            let _outer = t.span("outer", 7);
            t.time("inner", 7, || std::hint::black_box(1 + 1));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!((outer.name, inner.name), ("outer", "inner"));
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
    }
}
