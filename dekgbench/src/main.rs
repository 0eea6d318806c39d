//! The repository benchmark.
//!
//! ```text
//! dekgbench --workload <eval-sampled|train|serve-open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from `--seed` (and the recorded
//! dataset seed, or `--data-seed` for the held-out dataset), runs it for about
//! `--seconds`, checks its outputs, writes a human-readable report to
//! stderr and prints one JSON result line last on stdout. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the traced mode and
//! reports the per-layer ledger. See `README.md` for the metric table.

mod eval;
mod fixture;
mod layers;
mod metrics;
mod schedule;
mod serve;
mod settings;
mod stats;
mod sys;
mod trace;
mod train;

use std::path::PathBuf;

/// One run's settings.
pub struct Ctx {
    /// Run seed: model init, candidate sampling, training order, the
    /// request pool and arrivals. The same seed gives the same inputs.
    pub seed: u64,
    /// Dataset generator seed (`workloads.json` unless `--data-seed`).
    pub data_seed: u64,
    /// Target measuring time in seconds.
    pub seconds: f64,
    /// Traced mode.
    pub trace: bool,
    /// Scratch directory for generated inputs, removed at exit.
    pub workdir: PathBuf,
}

impl Ctx {
    /// Where a traced run writes its spans (kept after exit).
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        PathBuf::from(".dekgbench")
            .join("traces")
            .join(format!("{workload}-seed{}.jsonl", self.seed))
    }
}

const USAGE: &str = "usage: dekgbench --workload <eval-sampled|train|serve-open> --seed <n> --seconds <s> --trace <0|1> [--data-seed <n>]";

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut data_seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--data-seed" => {
                data_seed = Some(value.parse::<u64>().map_err(|e| format!("--data-seed: {e}"))?)
            }
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    let data_seed = match data_seed {
        Some(s) => s,
        None => settings::number(&["dataset_seed", "measured"])? as u64,
    };
    let workdir =
        PathBuf::from(".dekgbench").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok((
        workload,
        Ctx {
            seed,
            data_seed,
            seconds: seconds.unwrap_or(20.0).max(1.0),
            trace: trace.unwrap_or(false),
            workdir,
        },
    ))
}

fn run() -> Result<String, String> {
    let (workload, ctx) = parse_args()?;
    std::fs::create_dir_all(&ctx.workdir)
        .map_err(|e| format!("creating {}: {e}", ctx.workdir.display()))?;
    if ctx.trace {
        std::fs::create_dir_all(ctx.trace_path(&workload).parent().expect("trace dir"))
            .map_err(|e| format!("creating trace directory: {e}"))?;
    }
    dekg_obs::set_level(dekg_obs::Level::Off);
    let result = match workload.as_str() {
        "eval-sampled" => eval::run(&ctx),
        "train" => train::run(&ctx),
        "serve-open" => serve::run(&ctx),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&ctx.workdir);
    let mut outcome = result?;
    if !ctx.trace {
        let rss = sys::peak_rss_mb().ok_or("peak RSS unavailable (no /proc/self/status)")?;
        outcome.set("peak_rss_mb", rss);
    }
    eprintln!(
        "{workload}: attempted {}, failed {} (fail_share {:.4})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    metrics::result_line(&outcome, ctx.trace)
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("dekgbench: {e}");
            std::process::exit(2);
        }
    }
}
