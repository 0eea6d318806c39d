//! The CLI subcommands.

use crate::args::Flags;
use dekg_core::{DekgIlp, DekgIlpConfig, InferenceGraph, LinkPredictor, TrainableModel};
use dekg_datasets::{
    generate as synth_generate, loader, DatasetProfile, DatasetStats, DekgDataset, MixRatio, RawKg,
    SplitKind, SynthConfig, TestMix,
};
use dekg_eval::{evaluate as run_eval, ProtocolConfig, Table};
use dekg_kg::{ComponentTable, EntityId, Triple};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Top-level usage text.
pub const USAGE: &str = "\
dekg — DEKG-ILP inductive link prediction

commands:
  generate  --raw fb|nell|wn --split eq|mb|me [--scale F] [--seed N] --out DIR
  stats     --data DIR
  check     --data DIR [--raw fb|nell|wn --split eq|mb|me [--scale F]] [--grads]
            [--tape [--json]] [--seed N]
  train     --data DIR [--check] [--tape-report] [--epochs N] [--dim N] [--seed N]
            [--gradcheck-every N] [--threads N] --ckpt FILE [observability flags]
  evaluate  --data DIR --ckpt FILE [--candidates N] [--split eq|mb|me] [--seed N]
            [--threads N] [observability flags]
  predict   --data DIR --ckpt FILE --rel NAME (--head NAME | --tail NAME) [--top N]
  serve     --data DIR --ckpt FILE [--addr HOST:PORT] [--workers N] [--queue-depth N]
            [--slow-ms N] [--port-file FILE] [observability flags]
  request   --addr HOST:PORT [--path /rank] [--method GET|POST] [--body JSON]
            [--timing]
  profile   train --data DIR [--batches N] [--distinct N] [--seed N]
            [observability flags]
  obslint   --file FILE [--require kind1,kind2,...] [--chrome]
  lint      [--root DIR] [--json]
  help

observability flags (train, evaluate, serve, profile):
  --log-level debug|info|warn|off   stderr log threshold (default info)
  --metrics-out FILE                JSONL sink: per-step/epoch events + final
                                    metrics snapshot
  --trace-out FILE                  JSONL sink: log records + span timings
                                    (hierarchical: trace/span/parent ids)
  --prom-out FILE                   Prometheus text exposition written at exit
  --chrome-trace FILE               Chrome trace-event JSON written at exit
                                    (open in Perfetto / chrome://tracing)
";

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Applies the shared observability flags (`--log-level`,
/// `--metrics-out`, `--trace-out`) before a command does real work.
fn obs_init(flags: &Flags) -> CliResult {
    let cfg = dekg_obs::ObsConfig {
        level: flags.get("log-level").map(dekg_obs::Level::parse).transpose()?,
        metrics_path: flags.get("metrics-out").map(ToOwned::to_owned),
        trace_path: flags.get("trace-out").map(ToOwned::to_owned),
        chrome_trace_path: flags.get("chrome-trace").map(ToOwned::to_owned),
    };
    dekg_obs::init(&cfg)?;
    Ok(())
}

/// Flushes end-of-run observability output: the final snapshot/span
/// events into the JSONL sinks, plus the Prometheus text exposition
/// when `--prom-out` was given.
fn obs_finish(flags: &Flags) -> CliResult {
    dekg_obs::finish();
    if let Some(path) = flags.get("prom-out") {
        std::fs::write(path, dekg_obs::metrics::global().render_prometheus())?;
    }
    Ok(())
}

fn parse_raw(s: &str) -> Result<RawKg, String> {
    match s {
        "fb" | "fb15k-237" => Ok(RawKg::Fb15k237),
        "nell" | "nell-995" => Ok(RawKg::Nell995),
        "wn" | "wn18rr" => Ok(RawKg::Wn18rr),
        other => Err(format!("unknown raw KG {other:?} (fb|nell|wn)")),
    }
}

fn parse_split(s: &str) -> Result<SplitKind, String> {
    match s {
        "eq" => Ok(SplitKind::Eq),
        "mb" => Ok(SplitKind::Mb),
        "me" => Ok(SplitKind::Me),
        other => Err(format!("unknown split {other:?} (eq|mb|me)")),
    }
}

fn load_dataset(flags: &Flags) -> Result<DekgDataset, Box<dyn std::error::Error>> {
    let dir = flags.required("data")?;
    Ok(loader::load_dir(dir, dir)?)
}

/// `dekg generate` — writes a synthetic benchmark in GraIL format.
pub fn generate(flags: &Flags) -> CliResult {
    let raw = parse_raw(flags.required("raw")?)?;
    let split = parse_split(flags.required("split")?)?;
    let scale: f64 = flags.parse_or("scale", 0.1)?;
    let seed: u64 = flags.parse_or("seed", 1)?;
    let out = flags.required("out")?;

    let profile = DatasetProfile::table2(raw, split).scaled(scale);
    let dataset = synth_generate(&SynthConfig::for_profile(profile, seed));
    loader::save_dir(&dataset, out)?;
    let s = DatasetStats::of(&dataset);
    dekg_obs::log_info!(
        "wrote {} to {out}: G |R|={} |E|={} |T|={}; G' |R|={} |E|={} |T|={}; \
         held out {} enclosing + {} bridging",
        dataset.name,
        s.original.relations,
        s.original.entities,
        s.original.triples,
        s.emerging.relations,
        s.emerging.entities,
        s.emerging.triples,
        s.test_enclosing,
        s.test_bridging,
    );
    Ok(())
}

/// `dekg stats` — Table II-style statistics of a dataset directory.
pub fn stats(flags: &Flags) -> CliResult {
    let dataset = load_dataset(flags)?;
    let s = DatasetStats::of(&dataset);
    let mut table = Table::new(vec!["graph", "|R|", "|E|", "|T|"]);
    table.add_row(vec![
        "G".into(),
        s.original.relations.to_string(),
        s.original.entities.to_string(),
        s.original.triples.to_string(),
    ]);
    table.add_row(vec![
        "G'".into(),
        s.emerging.relations.to_string(),
        s.emerging.entities.to_string(),
        s.emerging.triples.to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "valid: {}   test enclosing: {}   test bridging: {}   density |T|/|E|: {:.2}",
        s.valid,
        s.test_enclosing,
        s.test_bridging,
        s.density()
    );
    Ok(())
}

/// Runs every applicable KG validator over a dataset, printing each
/// finding. Errors (broken invariants) fail the command; warnings are
/// reported but tolerated. Shared by `dekg check` and `train --check`.
/// With `to_stderr` the chatter moves off stdout so a machine-readable
/// report (`check --tape --json`) stays the only stdout content.
fn run_validators(
    dataset: &DekgDataset,
    profile: Option<&DatasetProfile>,
    to_stderr: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let say = |line: String| {
        if to_stderr {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    let mut diags = dekg_check::validate(dataset);
    let store = dataset.inference_store();
    let table = ComponentTable::from_store(&store, dataset.num_entities(), dataset.num_relations);
    diags.extend(dekg_check::validate_component_table(&table, &store));
    if let Some(p) = profile {
        diags.extend(dekg_check::validate_profile(dataset, p));
    }
    for d in &diags {
        say(d.to_string());
    }
    let s = dekg_check::summarize(&diags);
    if s.errors > 0 {
        return Err(format!(
            "dekg check: {} error(s), {} warning(s) in {}",
            s.errors, s.warnings, dataset.name
        )
        .into());
    }
    if s.warnings > 0 {
        say(format!("dekg check: {} warning(s), no errors in {}", s.warnings, dataset.name));
    } else {
        say(format!("dekg check: no findings in {}", dataset.name));
    }
    Ok(())
}

/// `dekg check` — static analysis of a dataset directory.
///
/// With `--raw`/`--split` (and optionally `--scale`), the dataset's
/// statistics are additionally compared against that Table II profile.
/// With `--grads`, the autograd engine itself is verified on top of
/// the dataset checks: the per-op finite-difference suite (with its
/// coverage audit over every `Op` variant) and a differential
/// re-execution of one production training batch by the f64 reference
/// interpreter.
pub fn check(flags: &Flags) -> CliResult {
    // Unchecked load: the whole point is to *report* broken invariants,
    // which the normal loader turns into panics.
    let dir = flags.required("data")?;
    let dataset = loader::load_dir_unchecked(dir, dir)?;
    let profile = match (flags.get("raw"), flags.get("split")) {
        (Some(r), Some(s)) => {
            let scale: f64 = flags.parse_or("scale", 0.1)?;
            Some(DatasetProfile::table2(parse_raw(r)?, parse_split(s)?).scaled(scale))
        }
        (None, None) => None,
        _ => return Err("profile checks need both --raw and --split".into()),
    };
    run_validators(&dataset, profile.as_ref(), flags.switch("json"))?;
    if flags.switch("grads") {
        run_grad_checks(&dataset, flags.parse_or("seed", 0)?)?;
    }
    if flags.switch("tape") {
        run_tape_check(&dataset, flags.parse_or("seed", 0)?, flags.switch("json"))?;
    } else if flags.switch("json") {
        return Err("--json applies to the --tape report; pass both".into());
    }
    Ok(())
}

/// The tape analysis behind `dekg check --tape`: records one production
/// training batch and runs all four `dekg_tensor::tapecheck` passes
/// (shapes and indices, gradient-flow reachability, memory plan, NaN/Inf
/// values) over it without executing any kernels.
fn run_tape_check(
    dataset: &DekgDataset,
    seed: u64,
    json: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    if !json {
        println!("tapecheck: static analysis of one training-batch tape on {}…", dataset.name);
    }
    let report = dekg_core::tape_check_dataset(dataset, seed);
    if json {
        println!("{}", serde_json::to_string_pretty(&tape_report_json(&report))?);
    } else {
        print!("{}", report.render());
    }
    if report.errors() > 0 {
        return Err(format!(
            "dekg check --tape: {} error(s), {} warning(s)",
            report.errors(),
            report.warnings()
        )
        .into());
    }
    if !json {
        println!("dekg check --tape: tape statically verified");
    }
    Ok(())
}

/// Machine-readable form of a [`dekg_tensor::TapeReport`] — the
/// `--json` face of `dekg check --tape`. Field set is part of the CLI
/// contract; extend, don't rename.
fn tape_report_json(report: &dekg_tensor::TapeReport) -> serde::Value {
    use serde::{Number, Value};
    let num = |n: usize| Value::Num(Number::U(n as u64));
    let diagnostics = report
        .diagnostics
        .iter()
        .map(|d| {
            Value::Object(vec![
                (
                    "severity".into(),
                    Value::Str(if d.severity == dekg_tensor::Severity::Error {
                        "error".into()
                    } else {
                        "warning".into()
                    }),
                ),
                ("code".into(), Value::Str(d.code.to_string())),
                ("message".into(), Value::Str(d.to_string())),
            ])
        })
        .collect();
    Value::Object(vec![
        ("clean".into(), Value::Bool(report.is_clean())),
        ("errors".into(), num(report.errors())),
        ("warnings".into(), num(report.warnings())),
        ("nodes".into(), num(report.num_nodes)),
        ("params_checked".into(), num(report.params_checked)),
        (
            "dead_params".into(),
            Value::Array(report.dead_params.iter().map(|p| Value::Str(p.clone())).collect()),
        ),
        (
            "unconsumed_ops".into(),
            Value::Array(report.unconsumed_ops.iter().map(|&i| num(i)).collect()),
        ),
        ("dead_nodes".into(), num(report.dead_nodes)),
        ("zero_grad_nodes".into(), num(report.zero_grad_nodes)),
        (
            "memory_plan".into(),
            Value::Object(vec![
                ("peak_live_bytes".into(), num(report.plan.peak_live_bytes)),
                ("total_value_bytes".into(), num(report.plan.total_value_bytes)),
                ("buffers".into(), num(report.plan.num_buffers())),
            ]),
        ),
        ("diagnostics".into(), Value::Array(diagnostics)),
    ])
}

/// The semantic autograd checks behind `dekg check --grads`.
fn run_grad_checks(dataset: &DekgDataset, seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    println!("gradcheck: finite-difference suite over every Op variant…");
    let mut diags = dekg_check::validate_grads(seed);
    println!("gradcheck: re-executing a training batch on {} in f64…", dataset.name);
    diags.extend(dekg_core::grad_check_dataset(dataset, seed));
    for d in &diags {
        println!("{d}");
    }
    let s = dekg_check::summarize(&diags);
    if s.errors > 0 {
        return Err(format!(
            "dekg check --grads: {} error(s), {} warning(s)",
            s.errors, s.warnings
        )
        .into());
    }
    println!("dekg check --grads: all gradients verified");
    Ok(())
}

/// `dekg train` — trains DEKG-ILP and writes its checkpoint file.
pub fn train(flags: &Flags) -> CliResult {
    obs_init(flags)?;
    // With --check, load unchecked so broken invariants surface as
    // validator diagnostics instead of the loader's panic.
    let dataset = if flags.switch("check") {
        let dir = flags.required("data")?;
        let dataset = loader::load_dir_unchecked(dir, dir)?;
        run_validators(&dataset, None, false)?;
        dataset
    } else {
        load_dataset(flags)?
    };
    let ckpt = flags.required("ckpt")?;
    let seed: u64 = flags.parse_or("seed", 0)?;
    let cfg = DekgIlpConfig {
        epochs: flags.parse_or("epochs", 10)?,
        dim: flags.parse_or("dim", 32)?,
        gradcheck_every: flags.parse_or("gradcheck-every", 0)?,
        tape_report: flags.switch("tape-report"),
        ..DekgIlpConfig::paper()
    };
    cfg.validate();

    let threads: usize = flags.parse_or("threads", 0)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model = DekgIlp::new(cfg, &dataset, &mut rng);
    dekg_obs::log_info!(
        "training DEKG-ILP on {} ({} triples, {} relations, {} thread(s))…",
        dataset.name,
        dataset.original.len(),
        dataset.num_relations,
        if threads == 0 { rayon::current_num_threads() } else { threads }
    );
    // `--threads 0` (the default) keeps rayon's ambient worker count.
    // The pool only scopes *where* work runs; per-item seeding keeps the
    // result bitwise-identical at any thread count (see DESIGN.md).
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| format!("--threads: {e}"))?;
    let report = pool.install(|| model.fit(&dataset, &mut rng));
    dekg_obs::log_info!(
        "done: {} epochs, loss {:.4} -> {:.4}, {:.1}s",
        report.epochs,
        report.initial_loss,
        report.final_loss,
        report.seconds
    );

    model.save_checkpoint(ckpt)?;
    dekg_obs::log_info!("checkpoint written to {ckpt}");
    obs_finish(flags)
}

/// Rebuilds a model from its checkpoint file — the same
/// [`DekgIlp::restore`] path `dekg serve` loads through, so CLI
/// evaluation and daemon serving score the identical model.
fn restore(flags: &Flags, dataset: &DekgDataset) -> Result<DekgIlp, Box<dyn std::error::Error>> {
    let ckpt = flags.required("ckpt")?;
    DekgIlp::restore(ckpt, dataset)
        .map_err(|e| -> Box<dyn std::error::Error> { format!("{e}").into() })
}

/// `dekg evaluate` — filtered-ranking metrics of a checkpoint.
pub fn evaluate(flags: &Flags) -> CliResult {
    obs_init(flags)?;
    let dataset = load_dataset(flags)?;
    let model = restore(flags, &dataset)?;
    let split = match flags.get("split") {
        Some(s) => parse_split(s)?,
        None => SplitKind::Eq,
    };
    let candidates: usize = flags.parse_or("candidates", 30)?;
    let mut protocol = if candidates == 0 {
        ProtocolConfig::default()
    } else {
        ProtocolConfig::sampled(candidates)
    };
    protocol.seed = flags.parse_or("seed", 0)?;
    let threads: usize = flags.parse_or("threads", 0)?;
    if threads > 0 {
        protocol.threads = threads;
    }

    let graph = InferenceGraph::from_dataset(&dataset);
    let mix = TestMix::build(&dataset, MixRatio::for_split(split));
    let result = run_eval(&model, &graph, &dataset, &mix, &protocol);

    let mut table = Table::new(vec!["set", "MRR", "Hits@1", "Hits@5", "Hits@10", "queries"]);
    for (name, m) in [
        ("overall", &result.overall),
        ("enclosing", &result.enclosing),
        ("bridging", &result.bridging),
    ] {
        table.add_row(vec![
            name.into(),
            format!("{:.3}", m.mrr),
            format!("{:.3}", m.hits_at(1)),
            format!("{:.3}", m.hits_at(5)),
            format!("{:.3}", m.hits_at(10)),
            m.count.to_string(),
        ]);
    }
    println!("{}", table.render());
    let t = &result.timing;
    println!(
        "{} queries over {} links in {:.2}s ({:.1} queries/s, {} thread(s))",
        t.queries, t.links, t.wall_seconds, t.queries_per_second, t.threads
    );
    // The batched engine's spans that closed during the run, the same
    // rows `/debug/profile` serves: CPU-seconds summed across workers,
    // nested (extraction inside scoring inside ranking).
    if !t.spans.spans.is_empty() {
        let mut spans = Table::new(vec!["span", "count", "seconds"]);
        for (name, stat) in &t.spans.spans {
            spans.add_row(vec![
                name.clone(),
                stat.count.to_string(),
                format!("{:.3}", stat.seconds),
            ]);
        }
        println!("{}", spans.render());
    }
    if dekg_obs::metrics_active() {
        dekg_obs::Event::new("eval")
            .field_f64("mrr", result.overall.mrr)
            .field_f64("hits1", result.overall.hits_at(1))
            .field_f64("hits5", result.overall.hits_at(5))
            .field_f64("hits10", result.overall.hits_at(10))
            .field_f64("mrr_enclosing", result.enclosing.mrr)
            .field_f64("mrr_bridging", result.bridging.mrr)
            .field_u64("queries", t.queries as u64)
            .field_u64("links", t.links as u64)
            .field_u64("threads", t.threads as u64)
            .field_f64("wall_seconds", t.wall_seconds)
            .emit_metrics();
    }
    obs_finish(flags)
}

/// `dekg predict` — top-k completion for a partial triple.
pub fn predict(flags: &Flags) -> CliResult {
    let dataset = load_dataset(flags)?;
    let model = restore(flags, &dataset)?;
    let graph = InferenceGraph::from_dataset(&dataset);

    let rel_name = flags.required("rel")?;
    let rel =
        dataset.vocab.relation(rel_name).ok_or_else(|| format!("unknown relation {rel_name:?}"))?;
    let top: usize = flags.parse_or("top", 10)?;

    let (fixed, predict_tail) = match (flags.get("head"), flags.get("tail")) {
        (Some(h), None) => (h, true),
        (None, Some(t)) => (t, false),
        _ => return Err("pass exactly one of --head or --tail".into()),
    };
    let fixed_id =
        dataset.vocab.entity(fixed).ok_or_else(|| format!("unknown entity {fixed:?}"))?;

    let candidates: Vec<Triple> = (0..dataset.num_entities() as u32)
        .map(EntityId)
        .filter(|&e| e != fixed_id)
        .map(|e| {
            if predict_tail {
                Triple::new(fixed_id, rel, e)
            } else {
                Triple::new(e, rel, fixed_id)
            }
        })
        .filter(|t| !graph.store.contains(t)) // filtered setting
        .collect();
    let scores = model.score_batch(&graph, &candidates);
    let mut ranked: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));

    let query = if predict_tail {
        format!("({fixed}, {rel_name}, ?)")
    } else {
        format!("(?, {rel_name}, {fixed})")
    };
    println!("top {top} completions for {query}:");
    for (rank, (i, score)) in ranked.iter().take(top).enumerate() {
        let e = if predict_tail { candidates[*i].tail } else { candidates[*i].head };
        let marker = if dataset.is_original(e) { "" } else { "  [unseen]" };
        println!(
            "  {:>2}. {:<24} {:>9.4}{}",
            rank + 1,
            dataset.vocab.entity_name(e),
            score,
            marker
        );
    }
    Ok(())
}

/// `dekg serve` — the long-lived ranking daemon: loads the dataset and
/// checkpoint once, then answers `/rank` queries over HTTP/JSON until
/// `POST /admin/shutdown`. See `docs/OPERATIONS.md` for the runbook.
///
/// `--port-file` writes the bound address (useful with an ephemeral
/// `--addr HOST:0`) as soon as the socket is up — before the slow
/// model load, so orchestrators can start polling `/readyz` at once.
pub fn serve(flags: &Flags) -> CliResult {
    obs_init(flags)?;
    let data = flags.required("data")?;
    let ckpt = flags.required("ckpt")?;
    let cfg = dekg_serve::ServeConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:8080").to_owned(),
        workers: flags.parse_or("workers", 0)?,
        queue_depth: flags.parse_or("queue-depth", 128)?,
        slow_ms: flags.parse_or("slow-ms", 250)?,
    };
    let server = dekg_serve::Server::bind(cfg)?;
    if let Some(path) = flags.get("port-file") {
        std::fs::write(path, format!("{}\n", server.addr()))?;
    }
    let engine = dekg_serve::RankEngine::load(data, ckpt)?;
    server.install_engine(engine);
    server.join();
    obs_finish(flags)
}

/// `dekg profile train` — runs the per-op kernel profiler over
/// synthetic training batches drawn from a dataset and prints the
/// hot-op table.
///
/// Records and backpropagates `--batches` full training batches
/// (cycling through `--distinct` tape structures so repeated shapes
/// fold together), each once with the profiler off and once on — the
/// perf harness's paired run with one round. Beside the table it
/// prints the profiler's median overhead and whether the two modes
/// produced bit-identical losses and gradients. Combine with
/// `--chrome-trace` for a span-level timeline of the same run.
/// Evaluation is attributed by the batched engine's spans, which
/// `dekg evaluate` prints.
pub fn profile(mode: &str, flags: &Flags) -> CliResult {
    if mode != "train" {
        return Err(format!(
            "unknown profile mode {mode:?} (train; evaluation time is in the span rows \
             `dekg evaluate` prints)"
        )
        .into());
    }
    obs_init(flags)?;
    let dataset = load_dataset(flags)?;
    let seed: u64 = flags.parse_or("seed", 0)?;
    let batches: usize = flags.parse_or("batches", 8)?;
    let distinct: usize = flags.parse_or("distinct", 2)?;
    let paired = dekg_core::profile_train_paired(&dataset, seed, batches, distinct, 1);
    print!("{}", paired.report.render());
    println!(
        "\nprofiler overhead {:+.1}% (median of {} paired executions; {:.1} ms unprofiled), \
         outputs bit-identical on/off: {}",
        paired.overhead_ratio * 100.0,
        paired.report.batches,
        paired.unprofiled_seconds * 1e3,
        if paired.outputs_identical { "yes" } else { "NO" }
    );
    obs_finish(flags)
}

/// `dekg request` — one blocking HTTP call against a running daemon.
/// The response body is the only stdout output (machine-readable for
/// JSON endpoints); non-2xx statuses additionally fail the command.
/// With `--timing`, the daemon's `X-Dekg-*` latency/provenance headers
/// are reported on stderr so stdout stays pure JSON.
pub fn request(flags: &Flags) -> CliResult {
    let addr = flags.required("addr")?;
    let path = flags.get("path").unwrap_or("/rank");
    let body = flags.get("body");
    let method = match flags.get("method") {
        Some(m) => m.to_uppercase(),
        None if body.is_some() => "POST".to_owned(),
        None => "GET".to_owned(),
    };
    let (status, headers, text) = dekg_serve::http_call_with_headers(addr, &method, path, body)?;
    // A closed stdout (e.g. `dekg request ... | grep -q`) is not an
    // error: the consumer simply stopped reading. Anything else is.
    use std::io::Write;
    if let Err(e) = writeln!(std::io::stdout(), "{text}") {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            return Err(e.into());
        }
    }
    if flags.switch("timing") {
        let h =
            |name: &str| headers.iter().find(|(k, _)| k == name).map_or("?", |(_, v)| v.as_str());
        if headers.iter().any(|(k, _)| k == "x-dekg-score-us") {
            eprintln!(
                "timing: queued {} us, scoring {} us (model generation {}, trace {})",
                h("x-dekg-queue-us"),
                h("x-dekg-score-us"),
                h("x-dekg-generation"),
                h("x-dekg-trace-id"),
            );
        } else {
            eprintln!("timing: no X-Dekg-* timing headers on {method} {path} (HTTP {status})");
        }
    }
    if status >= 400 {
        return Err(format!("HTTP {status} from {method} {path}").into());
    }
    Ok(())
}

/// `dekg obslint` — validates a JSONL observability file (a
/// `--metrics-out` / `--trace-out` product), or with `--chrome` a
/// Chrome trace-event JSON file (a `--chrome-trace` product).
///
/// JSONL checks, in order: the file holds at least one event; every
/// line parses as JSON and re-serializes byte-identically (the shim's
/// round-trip guarantee); every record is an object whose first key is
/// an `"event"` string; and each comma-separated `--require`d kind
/// appears at least once. CI's observability smoke is built on this.
pub fn obslint(flags: &Flags) -> CliResult {
    let path = flags.required("file")?;
    if flags.switch("chrome") {
        if flags.get("require").is_some() {
            return Err("--require applies to JSONL mode, not --chrome".into());
        }
        return obslint_chrome(path);
    }
    let text = std::fs::read_to_string(path)?;
    let mut kinds: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut events = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        let v = serde_json::parse_value(line)
            .map_err(|e| format!("{path}:{lineno}: not valid JSON: {e}"))?;
        let back = serde_json::to_string(&v)?;
        if back != line {
            return Err(format!(
                "{path}:{lineno}: line does not round-trip through the serde shim\n  read:  \
                 {line}\n  wrote: {back}"
            )
            .into());
        }
        let serde::Value::Object(pairs) = &v else {
            return Err(format!("{path}:{lineno}: event is not a JSON object").into());
        };
        match pairs.first() {
            Some((key, serde::Value::Str(kind))) if key == "event" => {
                kinds.insert(kind.clone());
            }
            _ => {
                return Err(format!("{path}:{lineno}: first key must be an \"event\" string").into())
            }
        }
        events += 1;
    }
    if events == 0 {
        return Err(format!("{path}: no events (empty JSONL)").into());
    }
    if let Some(required) = flags.get("require") {
        for kind in required.split(',').filter(|k| !k.is_empty()) {
            if !kinds.contains(kind) {
                return Err(format!(
                    "{path}: required event kind {kind:?} never appears (saw: {})",
                    kinds.iter().cloned().collect::<Vec<_>>().join(", ")
                )
                .into());
            }
        }
    }
    println!(
        "obslint: {path}: {events} event(s) OK; kinds: {}",
        kinds.iter().cloned().collect::<Vec<_>>().join(", ")
    );
    Ok(())
}

/// One decoded Chrome complete (`"X"`) event, for trace validation.
struct ChromeEv {
    name: String,
    tid: u64,
    ts: f64,
    end: f64,
    trace: u64,
    span: u64,
    parent: u64,
}

/// The `--chrome` face of `dekg obslint`: validates a Chrome
/// trace-event JSON file written by `--chrome-trace`.
///
/// Checks: the file is a JSON array of event objects; every `"X"`
/// (complete) event carries `name`/`ts`/`dur`/`pid`/`tid` plus
/// `trace_id`/`span_id`/`parent_id` in `args`; span ids are unique;
/// end timestamps are non-decreasing per tid in file order (the
/// exporter appends events at span close, so a regression means a
/// corrupted export); and every referenced parent exists in the file,
/// on the same trace, starting no later and ending no earlier than the
/// child — i.e. a parent span closes only after all of its children.
fn obslint_chrome(path: &str) -> CliResult {
    use serde::{Number, Value};
    // Sub-microsecond slack: `ts` and `dur` are rounded to f64
    // independently, so exact containment can be off by an ulp.
    const EPS: f64 = 0.5;
    let text = std::fs::read_to_string(path)?;
    let root =
        serde_json::parse_value(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    let Value::Array(items) = root else {
        return Err(format!("{path}: a chrome trace must be a JSON array of events").into());
    };
    let num = |v: &Value| -> Option<f64> {
        match v {
            Value::Num(Number::I(i)) => Some(*i as f64),
            Value::Num(Number::U(u)) => Some(*u as f64),
            Value::Num(Number::F(f)) => Some(*f),
            _ => None,
        }
    };
    let mut events: Vec<ChromeEv> = Vec::new();
    let mut dropped = 0u64;
    for (i, item) in items.iter().enumerate() {
        let n = i + 1;
        let Value::Object(pairs) = item else {
            return Err(format!("{path}: event {n} is not a JSON object").into());
        };
        let get = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let Some(Value::Str(ph)) = get("ph") else {
            return Err(format!("{path}: event {n} has no \"ph\" phase string").into());
        };
        match ph.as_str() {
            // The metadata trailer carries the exporter's drop count.
            "M" => {
                if let Some(Value::Object(args)) = get("args") {
                    if let Some(v) = args.iter().find(|(k, _)| k == "dropped_events") {
                        dropped = num(&v.1).unwrap_or(0.0) as u64;
                    }
                }
            }
            "X" => {
                let Some(Value::Str(name)) = get("name") else {
                    return Err(format!("{path}: event {n} has no \"name\" string").into());
                };
                let req = |k: &str| -> Result<f64, String> {
                    get(k)
                        .and_then(num)
                        .ok_or_else(|| format!("{path}: event {n} ({name}): missing number {k:?}"))
                };
                let (ts, dur) = (req("ts")?, req("dur")?);
                let (_pid, tid) = (req("pid")?, req("tid")?);
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("{path}: event {n} ({name}): negative ts/dur").into());
                }
                let Some(Value::Object(args)) = get("args") else {
                    return Err(format!("{path}: event {n} ({name}): missing args object").into());
                };
                let id = |k: &str| -> Result<u64, String> {
                    args.iter()
                        .find(|(key, _)| key == k)
                        .and_then(|(_, v)| num(v))
                        .map(|f| f as u64)
                        .ok_or_else(|| format!("{path}: event {n} ({name}): missing args.{k}"))
                };
                events.push(ChromeEv {
                    name: name.clone(),
                    tid: tid as u64,
                    ts,
                    end: ts + dur,
                    trace: id("trace_id")?,
                    span: id("span_id")?,
                    parent: id("parent_id")?,
                });
            }
            other => {
                return Err(format!("{path}: event {n} has unsupported phase {other:?}").into())
            }
        }
    }
    if events.is_empty() {
        return Err(format!("{path}: no complete (\"X\") span events").into());
    }
    // Span ids are unique, and ends are non-decreasing per tid.
    let mut by_span: std::collections::HashMap<u64, &ChromeEv> = std::collections::HashMap::new();
    let mut last_end: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for e in &events {
        if e.span == 0 || by_span.insert(e.span, e).is_some() {
            return Err(format!("{path}: span id {} is zero or duplicated", e.span).into());
        }
        let prev = last_end.entry(e.tid).or_insert(0.0);
        if e.end + EPS < *prev {
            return Err(format!(
                "{path}: span {} ({}) on tid {} ends at {:.1} us, before the previous \
                 close at {:.1} us — per-tid close order is not monotonic",
                e.span, e.name, e.tid, e.end, prev
            )
            .into());
        }
        *prev = prev.max(e.end);
    }
    // Every referenced parent closed, on the same trace, containing its
    // child's interval.
    for e in &events {
        if e.parent == 0 {
            continue;
        }
        let Some(p) = by_span.get(&e.parent) else {
            return Err(format!(
                "{path}: span {} ({}) references parent {} which never closes",
                e.span, e.name, e.parent
            )
            .into());
        };
        if p.trace != e.trace {
            return Err(format!(
                "{path}: span {} ({}) is on trace {} but its parent {} is on trace {}",
                e.span, e.name, e.trace, e.parent, p.trace
            )
            .into());
        }
        if p.ts > e.ts + EPS || p.end + EPS < e.end {
            return Err(format!(
                "{path}: span {} ({}) [{:.1}, {:.1}] us is not contained in its parent \
                 {} ({}) [{:.1}, {:.1}] us",
                e.span, e.name, e.ts, e.end, p.span, p.name, p.ts, p.end
            )
            .into());
        }
    }
    let traces: std::collections::BTreeSet<u64> = events.iter().map(|e| e.trace).collect();
    println!(
        "obslint: {path}: {} span event(s) across {} trace(s) OK ({} dropped)",
        events.len(),
        traces.len(),
        dropped
    );
    Ok(())
}

/// `dekg lint` — runs the workspace invariant rules (see `dekg-lint`)
/// over the source tree and fails on any error-severity finding.
pub fn lint(flags: &Flags) -> CliResult {
    let root = match flags.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir()?;
            dekg_lint::find_workspace_root(&cwd)
                .ok_or("not inside a cargo workspace (pass --root DIR)")?
        }
    };
    let report = dekg_lint::lint_workspace(&root)?;
    if flags.switch("json") {
        println!("{}", serde_json::to_string_pretty(&lint_report_json(&report))?);
    } else {
        print!("{}", report.render());
    }
    if report.is_clean() {
        Ok(())
    } else {
        // Exit code 1 regardless of renderer; with --json stdout stays
        // pure JSON and only this summary goes to stderr.
        Err(format!("dekg lint: {} error(s)", report.errors()).into())
    }
}

/// Machine-readable form of a [`dekg_lint::LintReport`] — the `--json`
/// face of `dekg lint`. Every finding printed by the human renderer
/// appears here; sites carrying a `// lint: <rule> — why` comment are
/// justified and therefore never reach the report, so surfaced
/// findings are always `"justified": false`.
fn lint_report_json(report: &dekg_lint::LintReport) -> serde::Value {
    use serde::{Number, Value};
    let num = |n: usize| Value::Num(Number::U(n as u64));
    let findings = report
        .diagnostics
        .iter()
        .map(|d| {
            Value::Object(vec![
                ("rule".into(), Value::Str(d.rule.to_string())),
                ("file".into(), Value::Str(d.path.clone())),
                ("line".into(), Value::Num(Number::U(u64::from(d.line)))),
                (
                    "severity".into(),
                    Value::Str(match d.severity {
                        dekg_lint::Severity::Error => "error".into(),
                        dekg_lint::Severity::Notice => "notice".into(),
                    }),
                ),
                ("justified".into(), Value::Bool(false)),
                ("message".into(), Value::Str(d.message.clone())),
            ])
        })
        .collect();
    let budgets = report
        .budgets
        .iter()
        .map(|b| {
            Value::Object(vec![
                ("crate".into(), Value::Str(b.crate_name.clone())),
                ("used".into(), num(b.used)),
                ("budget".into(), num(b.budget)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("clean".into(), Value::Bool(report.is_clean())),
        ("errors".into(), num(report.errors())),
        ("notices".into(), num(report.diagnostics.len() - report.errors())),
        ("files_scanned".into(), num(report.files_scanned)),
        ("findings".into(), Value::Array(findings)),
        ("unwrap_budgets".into(), Value::Array(budgets)),
    ])
}
