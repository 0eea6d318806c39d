#![warn(missing_docs)]

//! `dekg` — command-line interface for the DEKG-ILP reproduction.
//!
//! ```text
//! dekg generate --raw fb --split eq --scale 0.1 --seed 1 --out data/
//! dekg stats    --data data/
//! dekg check    --data data/ --grads
//! dekg train    --data data/ --check --epochs 10 --ckpt model.dekg
//! dekg evaluate --data data/ --ckpt model.dekg --candidates 30
//! dekg predict  --data data/ --ckpt model.dekg --head g_e0 --rel rel0 --top 5
//! dekg serve    --data data/ --ckpt model.dekg --addr 127.0.0.1:8080
//! dekg request  --addr 127.0.0.1:8080 --body '{"rank_tails": {"head": "g_e0", "rel": "rel0"}}'
//! dekg profile train --data data/ --batches 8 --chrome-trace trace.json
//! ```
//!
//! Datasets are GraIL-format directories (`train.txt`, `valid.txt`,
//! `emerging.txt`, `test_enclosing.txt`, `test_bridging.txt`).
//! A checkpoint is one file: the model configuration and the binary
//! weights, written together, so `evaluate`/`predict`/`serve` rebuild
//! the exact architecture from `--ckpt` alone.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    }
    let command = argv.remove(0);
    // `profile` takes a positional mode (train) before its flags.
    let mut profile_mode = String::new();
    if command == "profile" {
        if argv.is_empty() || argv[0].starts_with("--") {
            eprintln!("error: dekg profile needs a mode: train\n\n{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
        profile_mode = argv.remove(0);
    }
    // Valueless boolean switches, per command.
    let switches: &[&str] = match command.as_str() {
        "train" => &["check", "tape-report"],
        "check" => &["grads", "tape", "json"],
        "lint" => &["json"],
        "request" => &["timing"],
        "obslint" => &["chrome"],
        _ => &[],
    };
    let flags = match args::Flags::parse_with_switches(&argv, switches) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "generate" => commands::generate(&flags),
        "stats" => commands::stats(&flags),
        "check" => commands::check(&flags),
        "train" => commands::train(&flags),
        "evaluate" => commands::evaluate(&flags),
        "predict" => commands::predict(&flags),
        "serve" => commands::serve(&flags),
        "request" => commands::request(&flags),
        "profile" => commands::profile(&profile_mode, &flags),
        "obslint" => commands::obslint(&flags),
        "lint" => commands::lint(&flags),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
