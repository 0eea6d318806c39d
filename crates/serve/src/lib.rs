//! `dekg-serve`: a long-lived HTTP/JSON ranking daemon over the
//! DEKG-ILP batched scoring engine.
//!
//! `dekg evaluate` pays the full startup cost — dataset load, graph
//! derivation, checkpoint restore — on every invocation. This crate
//! keeps that state resident: the daemon loads once and then answers
//! link-prediction queries for the lifetime of the process, with the
//! core crate's thread-local inference workspace and extraction cache
//! staying warm across requests (see [`batcher`](self) internals).
//!
//! # Architecture
//!
//! ```text
//!  client ──► accept loop ──► connection thread ──► admission queue
//!                                  │  (bounded; full ⇒ 429)
//!                                  ▼
//!                            scoring workers (persistent, warm caches)
//!                                  │
//!                                  ▼
//!                      RankEngine ── RwLock<Arc<ModelGeneration>>
//!                                      ▲ atomic hot-swap (/admin/reload)
//! ```
//!
//! Three properties the design pins down, each backed by a test:
//!
//! * **Bitwise fidelity** — a `{"rank": ...}` request reproduces the
//!   evaluation protocol exactly: same candidate sampling stream
//!   (`item_rng(seed, index)`), same filter set, same batched scoring
//!   path, hence the identical `f64` rank `dekg evaluate` computes —
//!   byte-for-byte, since JSON floats render deterministically.
//! * **Concurrency-invariance** — jobs are scored independently of
//!   whatever else is in flight, so any interleaving of concurrent
//!   clients produces byte-identical responses.
//! * **Hot-swap atomicity** — the model lives behind
//!   `RwLock<Arc<ModelGeneration>>`; a request clones the `Arc` once
//!   and keeps its generation for the whole request, while
//!   `/admin/reload` builds the new generation entirely off-lock and
//!   swaps it with a single pointer store. No request ever observes a
//!   partially loaded model, and none is dropped during a swap.
//!
//! # Endpoints
//!
//! | Method | Path              | Purpose                                      |
//! |--------|-------------------|----------------------------------------------|
//! | POST   | `/rank`           | Rank / score queries (see [`mod@self`] forms) |
//! | GET    | `/healthz`        | Liveness: 200 once the socket is bound        |
//! | GET    | `/readyz`         | Readiness: 200 once the model is loaded       |
//! | GET    | `/metrics`        | Prometheus text exposition                    |
//! | GET    | `/debug/profile`  | JSON span/hot-op/load snapshot                |
//! | POST   | `/admin/reload`   | Checkpoint hot-swap                           |
//! | POST   | `/admin/shutdown` | Graceful stop (drains queued work)            |
//!
//! Serve-side latency metrics (`dekg_serve_request_latency_us`,
//! `dekg_serve_*_seconds`) and the point-in-time load gauges
//! (`dekg_serve_inflight_requests`, `dekg_serve_queue_depth`) are
//! wall-clock/timing-dependent measurements and sit outside the
//! workspace's bitwise-determinism contract, like every other
//! lexically marked timing metric.
//!
//! Each request is assigned a trace id at admission that follows it
//! across the queue to the scoring worker (spans there nest under it;
//! see `dekg_obs`'s hierarchical tracing) and is echoed back in the
//! `X-Dekg-Trace-Id` response header alongside `X-Dekg-Queue-Us`,
//! `X-Dekg-Score-Us` and `X-Dekg-Generation` — `dekg request --timing`
//! prints these without touching the response body. Requests slower
//! end-to-end than [`ServeConfig::slow_ms`] get a warn-level log line
//! with the same per-phase breakdown.

mod api;
mod batcher;
mod engine;
mod http;

pub use engine::{ModelGeneration, RankEngine};
pub use http::{http_call, http_call_with_headers, HeaderList};

use batcher::{Batcher, Job};
use http::{read_request, Request, Response};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

use dekg_obs::metrics::{Counter, Gauge, Histogram};

/// Serve-side metric handles, registered once in the global registry.
pub(crate) struct ServeObs {
    /// Requests scored (any form), across all generations.
    pub requests: Counter,
    /// Requests shed with a 429 at admission.
    pub shed: Counter,
    /// Successful checkpoint hot-swaps.
    pub reloads: Counter,
    /// Per-request scoring latency in microseconds (wall-clock:
    /// outside the determinism contract).
    pub latency_us: Histogram,
    /// Requests admitted and not yet answered
    /// (`dekg_serve_inflight_requests`).
    pub inflight: Gauge,
    /// Jobs currently queued (`dekg_serve_queue_depth`). Point-in-time
    /// load gauges: timing-dependent like the latency histogram, hence
    /// outside the determinism contract.
    pub queue_depth: Gauge,
    /// Backing count for the inflight gauge (gauges only store).
    inflight_count: AtomicU64,
}

impl ServeObs {
    /// Notes one admitted request.
    pub fn inflight_enter(&self) {
        let now = self.inflight_count.fetch_add(1, Ordering::Relaxed) + 1;
        self.inflight.set(now as f64);
    }

    /// Notes one answered (or timed-out) request.
    pub fn inflight_exit(&self) {
        let before = self.inflight_count.fetch_sub(1, Ordering::Relaxed);
        self.inflight.set(before.saturating_sub(1) as f64);
    }
}

pub(crate) fn serve_obs() -> &'static ServeObs {
    static OBS: OnceLock<ServeObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = dekg_obs::metrics::global();
        ServeObs {
            requests: reg.counter("dekg_serve_requests_total"),
            shed: reg.counter("dekg_serve_shed_total"),
            reloads: reg.counter("dekg_serve_reloads_total"),
            latency_us: reg.histogram(
                "dekg_serve_request_latency_us",
                &[100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000],
            ),
            inflight: reg.gauge("dekg_serve_inflight_requests"),
            queue_depth: reg.gauge("dekg_serve_queue_depth"),
            inflight_count: AtomicU64::new(0),
        }
    })
}

/// Daemon configuration. All knobs have serving-sane defaults; the CLI
/// maps `dekg serve` flags onto this struct 1:1.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address. Port 0 binds an ephemeral port (the bound
    /// address is reported by [`Server::addr`]).
    pub addr: String,
    /// Scoring worker threads. `0` = auto: available parallelism,
    /// capped at 4 — serving is latency-bound, not throughput-bound,
    /// and each worker keeps its own warm workspace.
    pub workers: usize,
    /// Admission queue bound; a full queue sheds with `429`.
    pub queue_depth: usize,
    /// Slow-request threshold in milliseconds: a request whose
    /// queue-wait plus scoring exceeds this is logged at warn level
    /// with its per-phase breakdown and trace id. `0` disables.
    pub slow_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { addr: "127.0.0.1:0".to_owned(), workers: 0, queue_depth: 128, slow_ms: 250 }
    }
}

impl ServeConfig {
    /// The worker count `workers` resolves to (see the field docs).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
        }
    }
}

/// Shared daemon state: configuration, lifecycle flags, and the
/// late-installed engine + batcher.
struct ServeState {
    cfg: ServeConfig,
    /// The bound listen address (ephemeral port resolved) — the
    /// shutdown self-wake connects here.
    addr: SocketAddr,
    stop: AtomicBool,
    ready: AtomicBool,
    engine: RwLock<Option<Arc<RankEngine>>>,
    batcher: Mutex<Option<Batcher>>,
}

/// A running daemon.
///
/// Startup is two-phase so health and readiness split cleanly:
/// [`Server::bind`] opens the socket and starts answering `/healthz`
/// (200) and `/readyz` (503) immediately; [`Server::install_engine`]
/// flips `/readyz` to 200 once the slow load has finished. Scoring
/// requests before installation answer `503`.
pub struct Server {
    state: Arc<ServeState>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listen socket and starts the accept loop. The daemon
    /// is live (but not ready) when this returns.
    ///
    /// # Errors
    /// Socket bind failures.
    pub fn bind(cfg: ServeConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("binding {}: {e}", cfg.addr))?;
        let addr = listener.local_addr().map_err(|e| format!("resolving bound address: {e}"))?;
        let state = Arc::new(ServeState {
            cfg,
            addr,
            stop: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            engine: RwLock::new(None),
            batcher: Mutex::new(None),
        });
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("dekg-serve-accept".to_owned())
            .spawn(move || accept_loop(&accept_state, &listener))
            .map_err(|e| format!("spawning accept loop: {e}"))?;
        dekg_obs::log_info!("dekg-serve listening on {addr}");
        Ok(Server { state, addr, accept: Some(accept) })
    }

    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Installs a loaded engine, starts the scoring workers, and flips
    /// `/readyz` to 200.
    pub fn install_engine(&self, engine: RankEngine) {
        let engine = Arc::new(engine);
        let cfg = &self.state.cfg;
        let batcher = Batcher::start(
            Arc::clone(&engine),
            cfg.effective_workers(),
            cfg.queue_depth,
            cfg.slow_ms,
        );
        *self.state.engine.write().unwrap_or_else(PoisonError::into_inner) = Some(engine);
        *self.state.batcher.lock().unwrap_or_else(PoisonError::into_inner) = Some(batcher);
        self.state.ready.store(true, Ordering::Release);
        dekg_obs::log_info!(
            "dekg-serve ready: {} workers, queue depth {}",
            cfg.effective_workers(),
            cfg.queue_depth
        );
    }

    /// Requests a graceful stop — equivalent to `POST /admin/shutdown`.
    pub fn shutdown(&self) {
        request_stop(&self.state, self.addr);
    }

    /// Blocks until the daemon stops (via [`Server::shutdown`] or
    /// `POST /admin/shutdown`), then drains and joins the scoring
    /// workers. Queued jobs finish; new submissions are refused.
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let batcher = self.state.batcher.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(batcher) = batcher {
            batcher.shutdown();
        }
        dekg_obs::log_info!("dekg-serve stopped");
    }
}

/// Flags the accept loop to stop and wakes it with a self-connection
/// (the loop blocks in `accept`).
fn request_stop(state: &ServeState, addr: SocketAddr) {
    state.stop.store(true, Ordering::Release);
    let _ = TcpStream::connect(addr);
}

fn accept_loop(state: &Arc<ServeState>, listener: &TcpListener) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if state.stop.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if state.stop.load(Ordering::Acquire) {
            // The wake-up connection (or a straggler): close unanswered.
            return;
        }
        let state = Arc::clone(state);
        let spawned = std::thread::Builder::new()
            .name("dekg-serve-conn".to_owned())
            .spawn(move || handle_connection(&state, stream));
        if spawned.is_err() {
            dekg_obs::log_warn!("dropping connection: could not spawn handler thread");
        }
    }
}

fn handle_connection(state: &ServeState, mut stream: TcpStream) {
    let response = match read_request(&mut stream) {
        Ok(request) => route(state, &request),
        Err(message) => Response::error(400, &message),
    };
    let _ = response.write_to(&mut stream);
}

/// Dispatches one parsed request to its endpoint.
fn route(state: &ServeState, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if state.ready.load(Ordering::Acquire) {
                Response::text(200, "ready\n")
            } else {
                Response::error(503, "model not loaded yet")
            }
        }
        ("GET", "/metrics") => {
            Response::text(200, &dekg_obs::metrics::global().render_prometheus())
        }
        ("GET", "/debug/profile") => debug_profile(),
        ("POST", "/rank") => rank(state, request),
        ("POST", "/admin/reload") => reload(state, request),
        ("POST", "/admin/shutdown") => {
            request_stop(state, state.addr);
            Response::json(200, "{\"stopping\": true}".to_owned())
        }
        (
            "GET" | "POST",
            "/healthz" | "/readyz" | "/metrics" | "/debug/profile" | "/rank" | "/admin/reload"
            | "/admin/shutdown",
        ) => Response::error(405, "method not allowed for this path"),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// `GET /debug/profile`: a JSON snapshot of the daemon's profiling
/// state — the accumulated span table (per-phase counts and seconds),
/// the per-op kernel table if the tensor profiler has been armed in
/// this process, and the live load gauges.
fn debug_profile() -> Response {
    use serde::{Number, Value};
    let obs = serve_obs();
    let spans = serde::Serialize::to_value(&dekg_obs::span_snapshot());
    let prof = dekg_tensor::prof::snapshot();
    let ops: Vec<Value> = prof
        .ops
        .iter()
        .map(|op| {
            Value::Object(vec![
                ("op".to_owned(), Value::Str(op.op.to_owned())),
                ("forward_calls".to_owned(), Value::Num(Number::U(op.forward_calls))),
                ("forward_seconds".to_owned(), Value::Num(Number::F(op.forward_seconds))),
                ("forward_bytes".to_owned(), Value::Num(Number::U(op.forward_bytes))),
                ("backward_calls".to_owned(), Value::Num(Number::U(op.backward_calls))),
                ("backward_seconds".to_owned(), Value::Num(Number::F(op.backward_seconds))),
                ("backward_bytes".to_owned(), Value::Num(Number::U(op.backward_bytes))),
            ])
        })
        .collect();
    let body = Value::Object(vec![
        ("inflight".to_owned(), Value::Num(Number::F(obs.inflight.get()))),
        ("queue_depth".to_owned(), Value::Num(Number::F(obs.queue_depth.get()))),
        ("requests_total".to_owned(), Value::Num(Number::U(obs.requests.get()))),
        ("spans".to_owned(), spans),
        ("ops".to_owned(), Value::Array(ops)),
    ]);
    Response::json(200, serde_json::to_string(&body).unwrap_or_default())
}

fn rank(state: &ServeState, request: &Request) -> Response {
    let engine = {
        let guard = state.engine.read().unwrap_or_else(PoisonError::into_inner);
        match guard.as_ref() {
            Some(e) => Arc::clone(e),
            None => return Response::error(503, "model not loaded yet"),
        }
    };
    let body = match request.body_utf8() {
        Ok(b) => b,
        Err(message) => return Response::error(400, &message),
    };
    let decoded = match api::RankRequest::parse(body, &engine.dataset().vocab) {
        Ok(d) => d,
        Err(e) => return Response::error(e.status, &e.message),
    };
    let trace_id = dekg_obs::new_trace_id();
    let (reply_tx, reply_rx) = mpsc::channel();
    let accepted = {
        let guard = state.batcher.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.as_ref() {
            Some(b) => b.submit(Job {
                request: decoded,
                reply: reply_tx,
                trace_id,
                admitted: Instant::now(),
            }),
            None => return Response::error(503, "model not loaded yet"),
        }
    };
    if !accepted {
        serve_obs().shed.inc();
        return Response::error(429, "queue full");
    }
    serve_obs().inflight_enter();
    let outcome = reply_rx.recv_timeout(Duration::from_secs(60));
    serve_obs().inflight_exit();
    match outcome {
        Ok(outcome) => match outcome.result {
            Ok(value) => Response::json(200, serde_json::to_string(&value).unwrap_or_default())
                .with_header("X-Dekg-Queue-Us", outcome.queue_us.to_string())
                .with_header("X-Dekg-Score-Us", outcome.score_us.to_string())
                .with_header("X-Dekg-Generation", outcome.generation.to_string())
                .with_header("X-Dekg-Trace-Id", trace_id.to_string()),
            Err(e) => Response::error(e.status, &e.message),
        },
        Err(_) => Response::error(500, "scoring timed out"),
    }
}

fn reload(state: &ServeState, request: &Request) -> Response {
    let engine = {
        let guard = state.engine.read().unwrap_or_else(PoisonError::into_inner);
        match guard.as_ref() {
            Some(e) => Arc::clone(e),
            None => return Response::error(503, "model not loaded yet"),
        }
    };
    // Body is optional: empty reloads the current generation's path;
    // `{"ckpt": "<path>"}` swaps to a different checkpoint file.
    let ckpt: Option<String> = match request.body_utf8() {
        Ok(b) if b.trim().is_empty() => None,
        Ok(b) => match serde_json::parse_value(b) {
            Ok(value) => match value.as_object().map(|pairs| serde::field(pairs, "ckpt")) {
                Some(Ok(v)) => match v.as_str() {
                    Some(s) => Some(s.to_owned()),
                    None => return Response::error(400, "field \"ckpt\" must be a string"),
                },
                _ => return Response::error(400, "reload body must be {\"ckpt\": \"<path>\"}"),
            },
            Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
        },
        Err(message) => return Response::error(400, &message),
    };
    match engine.reload(ckpt.as_deref()) {
        Ok(generation) => {
            let body = serde::Value::Object(vec![(
                "generation".to_owned(),
                serde::Value::Num(serde::Number::U(generation)),
            )]);
            Response::json(200, serde_json::to_string(&body).unwrap_or_default())
        }
        Err(message) => Response::error(500, &message),
    }
}
