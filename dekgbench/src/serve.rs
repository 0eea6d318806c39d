//! `serve-open`: a `dekg serve` daemon over the scale-1.0 dataset,
//! started in this process through `Server::bind` + `install_engine`
//! and driven over HTTP by an open loop of seeded Poisson arrivals.
//!
//! Three fixed offered rates (`low`, `mid`, `high`) come first. Untraced
//! runs then measure closed-loop saturation; traced runs climb a ladder
//! of rates 10% apart starting at `high`, where the highest rung that
//! keeps p90 within the limit, failures within 1% and generator lag
//! from growing sets `max_rps`. The expected answers are computed, and
//! the library copy behind them dropped, before the first daemon starts,
//! so `peak_rss_mb` covers the daemon and the load alone. Half the reads are `rank` protocol
//! queries, half `score` lists of unrelated test triples, and each
//! step carries one `/admin/reload` of the same checkpoint. Every body
//! must equal, byte for byte, the in-process library answer.

use crate::fixture::{filter_store, Loaded};
use crate::metrics::{Outcome, SERVE_STEPS};
use crate::trace::{totals, Tracer};
use crate::{fixture, schedule, stats, sys, Ctx};
use dekg_core::LinkPredictor;
use dekg_eval::{filtered_rank, RankQuery};
use dekg_kg::Triple;
use dekg_serve::{http_call, http_call_with_headers, RankEngine, ServeConfig, Server};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Number, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Dataset scale: 2,687 entities.
const SCALE: f64 = 1.0;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Salt separating the request stream from other streams of the seed.
const SERVE_SALT: u64 = 0x5E4E_0000_0001;

/// Load settings recorded in `workloads.json`.
#[derive(Debug, Clone)]
struct Settings {
    rates: [f64; 3],
    step_requests: [usize; 3],
    pool_per_kind: usize,
    rank_candidates: usize,
    score_triples: usize,
    ladder_factor: f64,
    max_rungs: usize,
    rung_requests: usize,
    saturation_requests: usize,
    p90_limit_ms: f64,
    max_fail_share: f64,
    lag_growth_limit_ms: f64,
}

fn settings() -> Result<Settings, String> {
    let get = |path: &[&str]| {
        let mut full = vec!["serve-open"];
        full.extend_from_slice(path);
        crate::settings::number(&full)
    };
    let per_step = |key: &str| -> Result<[f64; 3], String> {
        Ok([get(&[key, "low"])?, get(&[key, "mid"])?, get(&[key, "high"])?])
    };
    Ok(Settings {
        rates: per_step("rates_rps")?,
        step_requests: per_step("step_requests")?.map(|n| n as usize),
        pool_per_kind: get(&["pool_per_kind"])? as usize,
        rank_candidates: get(&["mix", "rank_candidates"])? as usize,
        score_triples: get(&["mix", "score_triples"])? as usize,
        ladder_factor: get(&["ladder", "factor"])?,
        max_rungs: get(&["ladder", "max_rungs"])? as usize,
        rung_requests: get(&["ladder", "rung_requests"])? as usize,
        saturation_requests: get(&["saturation_requests"])? as usize,
        p90_limit_ms: get(&["p90_limit_ms"])?,
        max_fail_share: get(&["max_fail_share"])?,
        lag_growth_limit_ms: get(&["lag_growth_limit_ms"])?,
    })
}

/// One pooled request: its body and the library's expected response.
struct PoolEntry {
    body: String,
    expected: String,
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("JSON values always encode")
}

fn name_triple(lib: &Loaded, t: Triple) -> Value {
    let v = &lib.dataset.vocab;
    Value::Array(vec![
        Value::Str(v.entity_name(t.head).to_owned()),
        Value::Str(v.relation_name(t.rel).to_owned()),
        Value::Str(v.entity_name(t.tail).to_owned()),
    ])
}

/// The seeded request pool: `(rank entries, score entries)`, each with
/// the in-process library's answer encoded the way the daemon encodes it.
fn request_pool(lib: &Loaded, seed: u64, s: &Settings) -> (Vec<PoolEntry>, Vec<PoolEntry>) {
    let filter = filter_store(lib);
    use rayon::prelude::*;
    let links: Vec<Triple> =
        lib.dataset.test_enclosing.iter().chain(&lib.dataset.test_bridging).copied().collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ SERVE_SALT);
    let ranks: Vec<(Triple, usize)> = (0..s.pool_per_kind)
        .map(|_| (links[rng.gen_range(0..links.len())], rng.gen_range(0..3)))
        .collect();
    let scores: Vec<Vec<Triple>> = (0..s.pool_per_kind)
        .map(|_| loop {
            let ts: Vec<Triple> =
                (0..s.score_triples).map(|_| links[rng.gen_range(0..links.len())]).collect();
            // Unrelated: no endpoint shared across the whole list.
            if !ts.iter().all(|t| t.head == ts[0].head) && !ts.iter().all(|t| t.tail == ts[0].tail)
            {
                break ts;
            }
        })
        .collect();
    let rank_entries = (0..ranks.len())
        .into_par_iter()
        .map(|i| {
            let (truth, task) = ranks[i];
            let (name, query) = match task {
                0 => ("head", RankQuery::Head(truth)),
                1 => ("relation", RankQuery::Relation(truth)),
                _ => ("tail", RankQuery::Tail(truth)),
            };
            let Value::Array(parts) = name_triple(lib, truth) else { unreachable!() };
            let body = Value::Object(vec![(
                "rank".to_owned(),
                Value::Object(vec![
                    ("task".to_owned(), Value::Str(name.to_owned())),
                    ("head".to_owned(), parts[0].clone()),
                    ("rel".to_owned(), parts[1].clone()),
                    ("tail".to_owned(), parts[2].clone()),
                    ("candidates".to_owned(), Value::Num(Number::U(s.rank_candidates as u64))),
                    ("seed".to_owned(), Value::Num(Number::U(seed))),
                    ("index".to_owned(), Value::Num(Number::U(i as u64))),
                ]),
            )]);
            let mut item_rng = dekg_datasets::item_rng(seed, i as u64);
            let rank = filtered_rank(
                &lib.model,
                &lib.graph,
                &query,
                &filter,
                Some(s.rank_candidates),
                &mut item_rng,
            );
            let expected = Value::Object(vec![
                ("task".to_owned(), Value::Str(name.to_owned())),
                ("rank".to_owned(), Value::Num(Number::F(rank))),
            ]);
            PoolEntry { body: json(&body), expected: json(&expected) }
        })
        .collect();
    let score_entries = scores
        .par_iter()
        .map(|ts| {
            let body = Value::Object(vec![(
                "score".to_owned(),
                Value::Object(vec![(
                    "triples".to_owned(),
                    Value::Array(ts.iter().map(|&t| name_triple(lib, t)).collect()),
                )]),
            )]);
            let scores = lib.model.score_batch(&lib.graph, ts);
            let expected = Value::Object(vec![(
                "scores".to_owned(),
                Value::Array(
                    scores.into_iter().map(|x| Value::Num(Number::F(f64::from(x)))).collect(),
                ),
            )]);
            PoolEntry { body: json(&body), expected: json(&expected) }
        })
        .collect();
    (rank_entries, score_entries)
}

/// What one scheduled arrival sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Rank(usize),
    Score(usize),
    Reload,
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    due: f64,
    kind: Kind,
}

/// The arrivals of one step: `n` Poisson reads at `rate`, half `rank`,
/// half `score`, plus one reload at the middle. A pure function of its
/// arguments.
fn step_arrivals(seed: u64, rate: f64, n: usize, pool: usize) -> Vec<Arrival> {
    let due = schedule::poisson(seed, rate, n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed.rotate_left(17) ^ 0xA5A5);
    let mut out: Vec<Arrival> = due
        .iter()
        .map(|&t| {
            let i = rng.gen_range(0..pool);
            Arrival { due: t, kind: if rng.gen::<bool>() { Kind::Rank(i) } else { Kind::Score(i) } }
        })
        .collect();
    out.insert(n / 2, Arrival { due: due[n / 2], kind: Kind::Reload });
    out
}

/// The client-side record of one request.
#[derive(Debug, Clone, Copy)]
struct Rec {
    kind: Kind,
    /// 200 with the expected body.
    ok: bool,
    /// A wrong answer: a body that differs from the library's, or a
    /// status other than 200, 429 (shed) or 503.
    wrong: bool,
    due: Instant,
    sent: Instant,
    done: Instant,
    queue_ms: f64,
    score_ms: f64,
    trace_id: u64,
}

impl Rec {
    fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.done - self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }
    fn lag_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
    fn client_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

/// Sends `arrivals` from `senders` threads, each taking the next due
/// request, sleeping until it is due and timing it from then.
fn drive(
    addr: &str,
    arrivals: &[Arrival],
    pool: &(Vec<PoolEntry>, Vec<PoolEntry>),
    senders: usize,
    reload_generation: &mut u64,
) -> Vec<Rec> {
    let next = AtomicUsize::new(0);
    let recs: Mutex<Vec<Option<Rec>>> = Mutex::new(vec![None; arrivals.len()]);
    let expected_generation = *reload_generation + 1;
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..senders {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(a) = arrivals.get(i) else { break };
                let due = start + Duration::from_secs_f64(a.due);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let (path, body, expected) = match a.kind {
                    Kind::Rank(j) => {
                        ("/rank", Some(pool.0[j].body.as_str()), pool.0[j].expected.clone())
                    }
                    Kind::Score(j) => {
                        ("/rank", Some(pool.1[j].body.as_str()), pool.1[j].expected.clone())
                    }
                    Kind::Reload => {
                        ("/admin/reload", None, format!("{{\"generation\":{expected_generation}}}"))
                    }
                };
                let reply = http_call_with_headers(addr, "POST", path, body);
                let done = Instant::now();
                let (ok, wrong, headers) = match reply {
                    Ok((200, headers, text)) if text == expected => (true, false, headers),
                    Ok((status, _, text)) => {
                        eprintln!(
                            "serve-open: {path} answered {status}: {}",
                            text.chars().take(200).collect::<String>()
                        );
                        (false, !matches!(status, 429 | 503), Vec::new())
                    }
                    Err(e) => {
                        eprintln!("serve-open: {path} failed: {e}");
                        (false, false, Vec::new())
                    }
                };
                let header = |name: &str| -> u64 {
                    headers
                        .iter()
                        .find(|(k, _)| k == name)
                        .and_then(|(_, v)| v.parse().ok())
                        .unwrap_or(0)
                };
                let rec = Rec {
                    kind: a.kind,
                    ok,
                    wrong,
                    due,
                    sent,
                    done,
                    queue_ms: header("x-dekg-queue-us") as f64 / 1e3,
                    score_ms: header("x-dekg-score-us") as f64 / 1e3,
                    trace_id: header("x-dekg-trace-id"),
                };
                recs.lock().unwrap_or_else(std::sync::PoisonError::into_inner)[i] = Some(rec);
            });
        }
    });
    *reload_generation = expected_generation;
    recs.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every arrival was sent"))
        .collect()
}

/// Per-step summary of the reads (reloads excluded).
#[derive(Debug, Clone, Default)]
struct StepStats {
    offered_rps: f64,
    achieved_rps: f64,
    reads: usize,
    failed: usize,
    p50_ms: f64,
    p90_ms: f64,
    queue_p50_ms: f64,
    queue_p90_ms: f64,
    score_rank_p50_ms: f64,
    score_score_p50_ms: f64,
    http_p50_ms: f64,
    lag_p90_ms: f64,
    lag_growth_ms: f64,
    batch_mean: f64,
    shed: f64,
    reload_ms: f64,
}

impl StepStats {
    fn fail_share(&self) -> f64 {
        self.failed as f64 / self.reads.max(1) as f64
    }
}

fn p(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        stats::percentile(xs, q)
    }
}

/// Arrivals per latency window: the fewest that keep ten samples
/// beyond p90.
const WINDOW: usize = 100;

/// The `q`-th percentile of each run of [`WINDOW`] consecutive
/// arrivals (a short tail folds into the last window), then the median
/// across windows, so a stall of the shared machine inside a few
/// windows does not set the figure.
fn windowed(latencies: &[f64], q: f64) -> f64 {
    let windows = (latencies.len() / WINDOW).max(1);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { latencies.len() } else { (w + 1) * WINDOW };
            stats::percentile(&latencies[w * WINDOW..end], q)
        })
        .collect();
    stats::median(&per_window)
}

/// Completions per saturation window.
const SATURATION_WINDOW: usize = 200;

/// Closed-loop throughput: completions per second in each run of
/// [`SATURATION_WINDOW`] completions, median across windows.
fn saturation_rps(recs: &[Rec]) -> f64 {
    let mut done: Vec<Instant> = recs.iter().map(|r| r.done).collect();
    done.sort();
    let mut from = recs.iter().map(|r| r.sent).min().expect("requests were sent");
    let rates: Vec<f64> = done
        .chunks(SATURATION_WINDOW)
        .map(|w| {
            let to = *w.last().expect("chunks are non-empty");
            let rate = w.len() as f64 / (to - from).as_secs_f64();
            from = to;
            rate
        })
        .collect();
    stats::median(&rates)
}

fn summarize(offered: f64, recs: &[Rec], secs: f64, batch: (u64, u64), shed: u64) -> StepStats {
    let reads: Vec<&Rec> = recs.iter().filter(|r| r.kind != Kind::Reload).collect();
    let ok: Vec<&&Rec> = reads.iter().filter(|r| r.ok).collect();
    let lat: Vec<f64> = reads.iter().map(|r| r.latency_ms()).collect();
    let lag: Vec<f64> = reads.iter().map(|r| r.lag_ms()).collect();
    let quarter = (lag.len() / 4).max(1);
    let score_of = |rank: bool| -> Vec<f64> {
        ok.iter().filter(|r| matches!(r.kind, Kind::Rank(_)) == rank).map(|r| r.score_ms).collect()
    };
    StepStats {
        offered_rps: offered,
        achieved_rps: reads.len() as f64 / secs,
        reads: reads.len(),
        failed: reads.len() - ok.len(),
        p50_ms: windowed(&lat, 50.0),
        p90_ms: windowed(&lat, 90.0),
        queue_p50_ms: p(&ok.iter().map(|r| r.queue_ms).collect::<Vec<_>>(), 50.0),
        queue_p90_ms: p(&ok.iter().map(|r| r.queue_ms).collect::<Vec<_>>(), 90.0),
        score_rank_p50_ms: p(&score_of(true), 50.0),
        score_score_p50_ms: p(&score_of(false), 50.0),
        http_p50_ms: p(
            &ok.iter().map(|r| r.client_ms() - r.queue_ms - r.score_ms).collect::<Vec<_>>(),
            50.0,
        ),
        lag_p90_ms: p(&lag, 90.0),
        lag_growth_ms: stats::median(&lag[lag.len() - quarter..]) - stats::median(&lag[..quarter]),
        batch_mean: if batch.0 == 0 { 0.0 } else { batch.1 as f64 / batch.0 as f64 },
        shed: shed as f64,
        reload_ms: recs.iter().find(|r| r.kind == Kind::Reload).map_or(0.0, Rec::client_ms),
    }
}

/// The running daemon plus what the load needs to reach and check it.
struct Target {
    server: Server,
    addr: String,
    generation: u64,
}

fn start_daemon(inputs: &fixture::Inputs) -> Result<(Target, f64), String> {
    let started = Instant::now();
    let server =
        Server::bind(ServeConfig { addr: "127.0.0.1:0".to_owned(), ..ServeConfig::default() })?;
    let addr = server.addr().to_string();
    server.install_engine(RankEngine::load(&inputs.data, &inputs.ckpt)?);
    loop {
        match http_call(&addr, "GET", "/readyz", None) {
            Ok((200, _)) => break,
            _ if started.elapsed() > Duration::from_secs(60) => {
                return Err("daemon never became ready".into())
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    Ok((Target { server, addr, generation: 1 }, started.elapsed().as_secs_f64()))
}

fn stop_daemon(t: Target) {
    t.server.shutdown();
    t.server.join();
}

/// What one load step left behind: its client records plus the
/// daemon's batch-size and shed counter deltas.
#[derive(Default)]
struct Raw {
    recs: Vec<Rec>,
    /// Wall seconds from the first due time to the last reply.
    secs: f64,
    batches: u64,
    batched_jobs: u64,
    shed: u64,
}

impl Raw {
    fn extend(&mut self, other: Raw) {
        self.recs.extend(other.recs);
        self.secs += other.secs;
        self.batches += other.batches;
        self.batched_jobs += other.batched_jobs;
        self.shed += other.shed;
    }

    fn summarize(&self, offered: f64) -> StepStats {
        summarize(offered, &self.recs, self.secs, (self.batches, self.batched_jobs), self.shed)
    }
}

/// Drives one arrival schedule against the daemon.
fn run_step(
    target: &mut Target,
    arrivals: &[Arrival],
    pool: &(Vec<PoolEntry>, Vec<PoolEntry>),
) -> Raw {
    let reg = dekg_obs::metrics::global();
    let batch = reg.histogram("dekg_serve_batch_size", &[1, 2, 4, 8, 16, 32]);
    let shed = reg.counter("dekg_serve_shed_total");
    let (count0, sum0, shed0) = (batch.count(), batch.sum(), shed.get());
    let recs = drive(&target.addr, arrivals, pool, sys::nproc(), &mut target.generation);
    let first_due = recs.iter().map(|r| r.due).min().expect("a step has arrivals");
    let last_done = recs.iter().map(|r| r.done).max().expect("a step has arrivals");
    Raw {
        recs,
        secs: (last_done - first_due).as_secs_f64(),
        batches: batch.count() - count0,
        batched_jobs: batch.sum() - sum0,
        shed: shed.get() - shed0,
    }
}

fn describe(name: &str, s: &StepStats) -> String {
    format!(
        "{name}: offered {:.1} rps, achieved {:.1}, p50 {:.2} ms, p90 {:.2} ms, queue p50 {:.2}, score p50 rank {:.2} / score {:.2}, http p50 {:.2}, lag p90 {:.2} (growth {:.2}), batch {:.2}, fail {}/{}",
        s.offered_rps,
        s.achieved_rps,
        s.p50_ms,
        s.p90_ms,
        s.queue_p50_ms,
        s.score_rank_p50_ms,
        s.score_score_p50_ms,
        s.http_p50_ms,
        s.lag_p90_ms,
        s.lag_growth_ms,
        s.batch_mean,
        s.failed,
        s.reads
    )
}

/// Whether a ladder rung meets the latency limit without a growing
/// backlog.
fn passes(s: &StepStats, cfg: &Settings) -> bool {
    s.p90_ms <= cfg.p90_limit_ms
        && s.fail_share() <= cfg.max_fail_share
        && s.lag_growth_ms <= cfg.lag_growth_limit_ms
}

/// The highest sustainable rate: the offered rate where p90 crosses the
/// limit, interpolated between the last passing rung and the next one
/// when that one fails on p90 alone; otherwise the achieved rate of the
/// last passing rung.
fn max_rps(rungs: &[StepStats], cfg: &Settings) -> f64 {
    let Some(k) = rungs.iter().position(|s| !passes(s, cfg)) else {
        return rungs.last().map_or(0.0, |s| s.achieved_rps);
    };
    if k == 0 {
        return rungs[0].achieved_rps;
    }
    let (lo, hi) = (&rungs[k - 1], &rungs[k]);
    let p90_only =
        hi.fail_share() <= cfg.max_fail_share && hi.lag_growth_ms <= cfg.lag_growth_limit_ms;
    if p90_only && hi.p90_ms.is_finite() && hi.p90_ms > lo.p90_ms {
        let f = (cfg.p90_limit_ms - lo.p90_ms) / (hi.p90_ms - lo.p90_ms);
        // Offered rates are exact; a rung's achieved rate carries the
        // Poisson noise of its few hundred arrivals.
        lo.offered_rps + f.clamp(0.0, 1.0) * (hi.offered_rps - lo.offered_rps)
    } else {
        lo.achieved_rps
    }
}

/// Climbs the ladder and returns `max_rps`: the mid step, then rungs
/// from `high` up, 10% apart, until one fails. The high step is the
/// first attempt at rung 0. A failing rung is run once more on fresh
/// arrivals and counts as failed only if that fails too, so one stall
/// of the machine does not end the climb.
fn ladder(
    target: &mut Target,
    cfg: &Settings,
    steps: &[StepStats],
    arrivals: &dyn Fn(usize, f64, usize) -> Vec<Arrival>,
    pool: &(Vec<PoolEntry>, Vec<PoolEntry>),
    out: &mut Outcome,
) -> f64 {
    let mut next_seed = 4usize;
    let mut run_rung = |rate: f64, target: &mut Target, out: &mut Outcome| {
        next_seed += 1;
        let raw = run_step(target, &arrivals(next_seed, rate, cfg.rung_requests), pool);
        out.attempted += raw.recs.len() as u64;
        // Overload on the ladder is the measurement, not a failure;
        // wrong answers are.
        out.failed += raw.recs.iter().filter(|r| r.wrong).count() as u64;
        raw.summarize(rate)
    };
    let mut rungs = vec![steps[1].clone()];
    let mut rate = cfg.rates[2];
    for rung in 0..=cfg.max_rungs {
        let mut s = if rung == 0 { steps[2].clone() } else { run_rung(rate, target, out) };
        if rung > 0 {
            eprintln!("serve-open {}", describe(&format!("rung {rung}"), &s));
        }
        if !passes(&s, cfg) {
            s = run_rung(rate, target, out);
            eprintln!("serve-open {}", describe(&format!("rung {rung} again"), &s));
        }
        let passed = passes(&s, cfg);
        rungs.push(s);
        if !passed {
            break;
        }
        rate *= cfg.ladder_factor;
    }
    max_rps(&rungs, cfg)
}

fn step_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

/// Runs the workload.
///
/// # Errors
/// Input generation, load or daemon start-up failures.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = settings()?;
    let inputs = fixture::write_inputs(&ctx.workdir, ctx.data_seed, ctx.seed, SCALE)?;
    let pool = request_pool(&fixture::load(&inputs)?, ctx.seed, &cfg);
    sys::reset_peak_rss()?;
    let (mut target, setup) =
        fixture::repeat_setup(if ctx.trace { 1 } else { SETUP_REPS }, |prev| {
            if let Some(t) = prev {
                stop_daemon(t);
            }
            start_daemon(&inputs)
        })?;
    let mut out = Outcome::default();

    let arrivals = |k: usize, rate: f64, n: usize| {
        step_arrivals(step_seed(ctx.seed, k as u64), rate, n, cfg.pool_per_kind)
    };
    let tracer = Tracer::new();
    let mut steps = Vec::new();
    // The mid step runs in two halves, first and last, so a slow phase
    // of the shared machine touches at most half of its windows.
    let half = cfg.step_requests[1] / 2;
    let mut raws = [Raw::default(), Raw::default(), Raw::default()];
    for (k, n, seed) in
        [(1, half, 1), (0, cfg.step_requests[0], 0), (2, cfg.step_requests[2], 2), (1, half, 4)]
    {
        raws[k].extend(run_step(&mut target, &arrivals(seed, cfg.rates[k], n), &pool));
    }
    for (k, (name, raw)) in SERVE_STEPS.iter().zip(&raws).enumerate() {
        let s = raw.summarize(cfg.rates[k]);
        if ctx.trace {
            for r in &raw.recs {
                let parent = tracer.record("serve.request", r.trace_id, 0, r.due, r.done);
                tracer.record("serve.lag", r.trace_id, parent, r.due, r.sent);
                tracer.record("serve.client", r.trace_id, parent, r.sent, r.done);
            }
        }
        eprintln!("serve-open {}", describe(name, &s));
        out.attempted += raw.recs.len() as u64;
        out.failed += raw.recs.iter().filter(|r| !r.ok).count() as u64;
        steps.push(s);
    }

    if ctx.trace {
        // Spans are rebuilt from the client records after each step and
        // the daemon runs the same code either way: tracing costs
        // nothing here by construction.
        out.set("trace.overhead", 0.0);
        let t = totals(&tracer.spans());
        let secs = |n: &str| t.get(n).map_or(0.0, |s| s.self_seconds);
        let requests = t.get("serve.request").map_or(f64::NAN, |s| s.seconds);
        out.set("trace.stage_coverage", (secs("serve.lag") + secs("serve.client")) / requests);
        for (name, s) in SERVE_STEPS.iter().zip(&steps) {
            out.set(format!("serve.{name}.achieved_rps"), s.achieved_rps);
            out.set(format!("serve.{name}.p50_ms"), s.p50_ms);
            out.set(format!("serve.{name}.p90_ms"), s.p90_ms);
            out.set(format!("serve.{name}.queue_ms_p50"), s.queue_p50_ms);
            out.set(format!("serve.{name}.queue_ms_p90"), s.queue_p90_ms);
            out.set(format!("serve.{name}.score_ms_p50.rank"), s.score_rank_p50_ms);
            out.set(format!("serve.{name}.score_ms_p50.score"), s.score_score_p50_ms);
            out.set(format!("serve.{name}.http_ms_p50"), s.http_p50_ms);
            out.set(format!("serve.{name}.batch_mean"), s.batch_mean);
            out.set(format!("serve.{name}.shed"), s.shed);
            out.set(format!("serve.{name}.lag_ms_p90"), s.lag_p90_ms);
        }
        out.set(
            "serve.reload_ms",
            stats::median(&steps.iter().map(|s| s.reload_ms).collect::<Vec<_>>()),
        );
        let max = ladder(&mut target, &cfg, &steps, &arrivals, &pool, &mut out);
        eprintln!("serve-open: max_rps {max:.1} (p90 limit {} ms)", cfg.p90_limit_ms);
        out.set("serve.max_rps", max);
        out.set("fail_share", out.failed as f64 / out.attempted.max(1) as f64);
        tracer.write_jsonl(&ctx.trace_path("serve-open")).map_err(|e| e.to_string())?;
    } else {
        // Closed loop: every arrival due at once, so each sender sends
        // its next request as soon as its last one returns.
        let burst: Vec<Arrival> = arrivals(3, 1.0, cfg.saturation_requests)
            .into_iter()
            .filter(|a| a.kind != Kind::Reload)
            .map(|a| Arrival { due: 0.0, ..a })
            .collect();
        let recs = drive(&target.addr, &burst, &pool, sys::nproc(), &mut target.generation);
        out.attempted += recs.len() as u64;
        out.failed += recs.iter().filter(|r| !r.ok).count() as u64;
        let saturation = saturation_rps(&recs);
        eprintln!(
            "serve-open: closed-loop saturation {saturation:.1} req/s over {} requests from {} senders; setup {} s",
            recs.len(),
            sys::nproc(),
            stats::describe_spread(&setup)
        );
        out.set("setup_s", stats::median(&setup));
        out.set("throughput_per_s", saturation);
    }
    stop_daemon(target);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_percentile_ignores_one_stalled_window() {
        let mut lat: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        assert_eq!(windowed(&lat, 90.0), 89.0);
        for x in &mut lat[100..200] {
            *x += 1000.0;
        }
        assert_eq!(windowed(&lat, 90.0), 89.0);
        assert_eq!(windowed(&lat, 50.0), 49.0);
        // A short tail joins the last window.
        assert_eq!(windowed(&lat[..250], 90.0), (89.0 + 1084.0) / 2.0);
    }

    #[test]
    fn settings_parse() {
        let s = settings().unwrap();
        assert!(s.rates[0] < s.rates[1] && s.rates[1] < s.rates[2]);
        assert!(s.step_requests.iter().all(|&n| n >= 100), "p90 needs ten samples beyond it");
        assert!(s.rung_requests >= 100, "p90 needs ten samples beyond it");
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let a = step_arrivals(9, 120.0, 300, 50);
        assert_eq!(a, step_arrivals(9, 120.0, 300, 50));
        assert_ne!(a, step_arrivals(10, 120.0, 300, 50));
        assert_eq!(a.iter().filter(|x| x.kind == Kind::Reload).count(), 1);
        let ranks = a.iter().filter(|x| matches!(x.kind, Kind::Rank(_))).count();
        assert!((100..200).contains(&ranks), "about half rank: {ranks}");
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    }

    fn rung(offered: f64, p90: f64) -> StepStats {
        StepStats {
            offered_rps: offered,
            achieved_rps: offered,
            reads: 200,
            p90_ms: p90,
            ..StepStats::default()
        }
    }

    #[test]
    fn max_rps_interpolates_the_p90_crossing() {
        let cfg = settings().unwrap();
        let limit = cfg.p90_limit_ms;
        let rungs = [rung(100.0, limit - 10.0), rung(110.0, limit - 5.0), rung(121.0, limit + 5.0)];
        assert!((max_rps(&rungs, &cfg) - 115.5).abs() < 1e-9);
        let all_pass = [rung(100.0, 1.0), rung(110.0, 2.0)];
        assert_eq!(max_rps(&all_pass, &cfg), 110.0);
    }
}
