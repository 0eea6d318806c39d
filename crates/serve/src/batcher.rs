//! The admission queue: a bounded queue feeding persistent scoring
//! workers.
//!
//! Connection threads never score; they enqueue a [`Job`] and block on
//! its reply channel. A fixed pool of worker threads pops the queue one
//! job at a time: a free worker takes the next job as soon as it is
//! queued, so two requests in flight run on two workers rather than one
//! after the other. When the queue is at `queue_depth` the submit is
//! refused and the connection answers `429` — overload sheds at the
//! door instead of growing an unbounded backlog.
//!
//! # Why workers pin ambient parallelism to 1
//!
//! Each worker wraps its loop in a single-thread rayon scope, so the
//! core crate's batched scoring runs *inline on the worker thread*
//! rather than fanning out. That keeps `dekg-core`'s thread-local
//! [`InferenceWorkspace`](dekg_core::model) and extraction cache warm
//! on the same OS thread across requests — the whole point of a
//! long-lived daemon. Cross-request parallelism comes from running
//! several workers, not from intra-request fan-out.
//!
//! # Determinism under concurrency
//!
//! Which worker takes a job, and when, is timing-dependent, but jobs
//! are scored independently — a job's response is a pure function of
//! its request and the model generation, never of what else is in
//! flight. So any interleaving of concurrent clients yields
//! byte-identical responses (the concurrency integration test pins
//! this).

use crate::api::{self, ApiError, RankRequest};
use crate::engine::RankEngine;
use serde::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// One queued request plus the channel its connection thread waits on.
pub(crate) struct Job {
    /// The decoded request.
    pub request: RankRequest,
    /// Reply channel back to the connection thread.
    pub reply: mpsc::Sender<JobOutcome>,
    /// The request's trace id — allocated at admission, re-installed on
    /// the worker thread so the scoring spans nest under the request's
    /// trace across the queue boundary.
    pub trace_id: u64,
    /// When the connection thread enqueued the job (queue-wait phase
    /// starts here).
    pub admitted: Instant,
}

/// What a worker sends back: the API result plus the per-phase timing
/// the connection thread surfaces as `X-Dekg-*` headers (wall-clock —
/// outside the determinism contract).
pub(crate) struct JobOutcome {
    /// The scored response (or API error).
    pub result: Result<Value, ApiError>,
    /// Microseconds spent queued before a worker picked the job up.
    pub queue_us: u64,
    /// Microseconds spent scoring.
    pub score_us: u64,
    /// Model generation the job was scored against.
    pub generation: u64,
}

/// State shared between submitters and workers.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    queue_depth: usize,
    /// Requests slower than this end-to-end (queue + scoring) get a
    /// warn-level log with the per-phase breakdown and trace id.
    slow_ms: u64,
    engine: Arc<RankEngine>,
}

/// The running worker pool. Dropping without [`Batcher::shutdown`]
/// leaks the workers; the server always shuts down explicitly.
pub(crate) struct Batcher {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Batcher {
    /// Spawns `workers` scoring threads over `engine`.
    pub fn start(
        engine: Arc<RankEngine>,
        workers: usize,
        queue_depth: usize,
        slow_ms: u64,
    ) -> Batcher {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            queue_depth,
            slow_ms,
            engine,
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dekg-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .filter_map(Result::ok)
            .collect();
        Batcher { shared, workers }
    }

    /// Enqueues a job. Returns `false` — shed, answer `429` — when the
    /// queue is full or the batcher is stopping.
    pub fn submit(&self, job: Job) -> bool {
        if self.shared.stop.load(Ordering::Acquire) {
            return false;
        }
        let mut queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= self.shared.queue_depth {
            return false;
        }
        queue.push_back(job);
        crate::serve_obs().queue_depth.set(queue.len() as f64);
        drop(queue);
        self.shared.available.notify_one();
        true
    }

    /// Stops the pool: refuses new jobs, lets workers drain what is
    /// already queued, then joins them.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}

/// Blocks for the next queued job. `None` = stopped and fully drained.
fn next_job(shared: &Shared) -> Option<Job> {
    let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if let Some(job) = queue.pop_front() {
            crate::serve_obs().queue_depth.set(queue.len() as f64);
            return Some(job);
        }
        if shared.stop.load(Ordering::Acquire) {
            return None;
        }
        queue = shared.available.wait(queue).unwrap_or_else(PoisonError::into_inner);
    }
}

/// One worker: pin ambient rayon parallelism to 1 (see module docs),
/// then score jobs until stopped and drained.
fn worker_loop(shared: &Shared) {
    let Ok(pool) = rayon::ThreadPoolBuilder::new().num_threads(1).build() else {
        return;
    };
    let obs = crate::serve_obs();
    pool.install(|| {
        while let Some(job) = next_job(shared) {
            // Re-install the request's trace id so the scoring spans on
            // this worker thread nest under the request's trace.
            dekg_obs::set_current_trace(job.trace_id);
            let queue_us = u64::try_from(job.admitted.elapsed().as_micros()).unwrap_or(u64::MAX);
            let generation = shared.engine.model().generation;
            let started = Instant::now();
            let result = {
                let _span = dekg_obs::span!("serve_score_request");
                api::execute(&shared.engine, &job.request)
            };
            obs.requests.inc();
            let score_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            obs.latency_us.observe(score_us);
            let total_us = queue_us.saturating_add(score_us);
            if shared.slow_ms > 0 && total_us >= shared.slow_ms.saturating_mul(1_000) {
                dekg_obs::log_warn!(
                    "slow request (trace {}): {total_us} us total = {queue_us} us queued + {score_us} us scoring (generation {generation})",
                    job.trace_id,
                );
            }
            // A dead receiver just means the client gave up; scoring
            // already happened, nothing to unwind.
            let _ = job.reply.send(JobOutcome { result, queue_us, score_us, generation });
            dekg_obs::set_current_trace(0);
        }
    });
}
