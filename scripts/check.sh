#!/usr/bin/env bash
# Pre-merge gate: formatting, the workspace lint wall, the test suite,
# and an end-to-end generate -> check round trip through the `dekg`
# binary. Everything here must pass before a PR merges (see ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> dekg lint (workspace invariant rules)"
# The static pass: determinism-contract iteration (L1), #[allow]
# justifications (L2), print routing (L3), unwrap budgets (L4),
# hermetic kernels (L5). Must be clean — fix or justify at the site.
cargo run -q --release --offline -p dekg-cli -- lint
# The machine-readable face must agree with the human one: clean run,
# exit 0, stdout parses as a JSON object reporting zero errors.
lint_json="$(cargo run -q --release --offline -p dekg-cli -- lint --json)"
grep -q '"errors": 0' <<< "$lint_json"

echo "==> cargo test --workspace"
cargo test -q --workspace --offline

echo "==> tensor, gnn and kg unit tests, optimized"
# The suite above is a debug build, so it never runs the autovectorized
# register paths of the matmul kernels that release binaries execute.
# Their bit-equality tests against the scalar loops, and the checkpoint
# decoder's overflow test, run here in release as well, and so does the
# decoder's property and fuzz suite (arbitrary and mutated checkpoint
# bytes decode to a store or a typed error, never a panic, never an
# allocation past the input's length).
cargo test -q --release --offline -p dekg-tensor --lib
cargo test -q --release --offline -p dekg-tensor --test prop_serialize
# The encoder's `to_bits` batched == tape pins, in release codegen: the
# tape composes each layer's basis weights for all relations in one
# matmul, and these pins are the proof that its forward values keep the
# batched engine's bits.
cargo test -q --release --offline -p dekg-gnn
# The packing counting sort's pin against a `BTreeMap` reference
# grouping, in release as well: the flat per-relation arrays it fills
# feed the indexed kernels above.
cargo test -q --release --offline -p dekg-kg

echo "==> repository benchmark self-tests (dekgbench)"
# The benchmark is its own workspace, so the test above does not reach
# it. Its self-tests include the bitwise fit == public-call replay check,
# so a tape or optimizer change that breaks the benchmark's output
# checks fails here, before merge.
cargo test -q --release --offline --manifest-path dekgbench/Cargo.toml

echo "==> determinism under a shuffled schedule (DEKG_SHUFFLE_SCHEDULE=1)"
# Re-runs the bitwise-determinism contract with the rayon shim handing
# out random uneven chunks in random spawn order: results must be
# schedule-invariant, not merely thread-count-invariant.
DEKG_SHUFFLE_SCHEDULE=1 cargo test -q -p dekg --test parallel_determinism --offline
# The same suite in release: the two-tape training step's helper and
# main threads run at full speed there, and every parameter bit after
# training must still equal the one-thread run's.
DEKG_SHUFFLE_SCHEDULE=1 cargo test -q --release --offline -p dekg --test parallel_determinism
# Trace integrity under the same perturbation: span nesting stays
# well-formed with spans closing on many threads in shuffled order, and
# the kernel profiler's calls/bytes columns are schedule-invariant.
DEKG_SHUFFLE_SCHEDULE=1 cargo test -q -p dekg-core --test trace_integrity --offline

echo "==> cargo doc --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

echo "==> dekg generate + dekg check --grads round trip"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run -q --release --offline -p dekg-cli -- \
    generate --raw fb --split eq --scale 0.05 --seed 1 --out "$tmp/data"
# --grads runs the finite-difference suite over every Op variant (the
# coverage audit fails on any unregistered variant) plus an f64
# re-execution of one training batch on the generated dataset.
cargo run -q --release --offline -p dekg-cli -- \
    check --data "$tmp/data" --raw fb --split eq --scale 0.05 --grads

echo "==> dekg check --tape: tape analysis of the production training tape"
# All four tapecheck passes (shapes and indices, gradient-flow
# reachability, the liveness/memory plan, NaN/Inf values) over the same
# recorded training batch `--grads` checks above — no kernel executes
# during the analysis. The red fixtures run inside `cargo test -p
# dekg-tensor` above; op coverage of the shape rules is the gradcheck
# audit that `--grads` runs. This smokes the CLI wiring plus the
# machine-readable face.
cargo run -q --release --offline -p dekg-cli -- \
    check --data "$tmp/data" --tape
cargo run -q --release --offline -p dekg-cli -- \
    check --data "$tmp/data" --tape --json > "$tmp/tape.json"
grep -q '"clean": true' "$tmp/tape.json"

echo "==> observability smoke: train with sinks, obslint both"
cargo run -q --release --offline -p dekg-cli -- \
    train --data "$tmp/data" --epochs 1 --ckpt "$tmp/model.dekg" \
    --log-level warn --metrics-out "$tmp/metrics.jsonl" --trace-out "$tmp/trace.jsonl"
# A checkpoint is one file: the config travels inside it, no sidecar.
test -s "$tmp/model.dekg"
test ! -e "$tmp/model.dekg.json"
# Every sink line must parse, re-serialize byte-identically, and lead
# with its event kind; the required kinds pin the training schema.
cargo run -q --release --offline -p dekg-cli -- \
    obslint --file "$tmp/metrics.jsonl" --require train_step,epoch,metrics
cargo run -q --release --offline -p dekg-cli -- \
    obslint --file "$tmp/trace.jsonl" --require spans

echo "==> evaluate smoke: metrics, span rows, obslint both"
# Eval time is attributed by the batched engine's spans: the run's
# span delta is printed as rows (name, count, seconds), and the sinks
# carry the `eval` event and the span tables.
cargo run -q --release --offline -p dekg-cli -- \
    evaluate --data "$tmp/data" --ckpt "$tmp/model.dekg" --candidates 10 --log-level warn \
    --metrics-out "$tmp/eval_metrics.jsonl" --trace-out "$tmp/eval_trace.jsonl" \
    > "$tmp/eval.txt"
cargo run -q --release --offline -p dekg-cli -- \
    obslint --file "$tmp/eval_metrics.jsonl" --require eval
cargo run -q --release --offline -p dekg-cli -- \
    obslint --file "$tmp/eval_trace.jsonl" --require spans
grep -q '^rank_query ' "$tmp/eval.txt"

echo "==> kernel-profiler smoke: dekg profile train + obslint --chrome"
# Replays the production training tape with the per-op profiler armed;
# the hot-op table must attribute the bracket, and the Chrome trace it
# exports must survive the structural lint (well-formed events,
# monotonic per-track close order, parents contain children).
cargo run -q --release --offline -p dekg-cli -- \
    profile train --data "$tmp/data" --batches 4 \
    --chrome-trace "$tmp/prof_trace.json" | grep -q "coverage"
cargo run -q --release --offline -p dekg-cli -- \
    obslint --file "$tmp/prof_trace.json" --chrome

echo "==> perf harness smoke run (tiny scale)"
# Asserts the observer contracts nothing else checks: the kernel
# profiler covers >= 90% of the training tape's bracket, changes no
# loss or gradient bit and adds < 5% wall time (paired per batch);
# cache-served tape analysis hits every time at < 0.5x the cost of
# recording the tape. Each bar is an assert inside the run, so any
# breach exits nonzero. Speed itself is measured by dekgbench.
cargo run -q --release --offline -p dekg-bench --bin perf -- \
    --scale 0.04 --out "$tmp/BENCH_perf.json"

echo "==> zero-allocation sanitizer: warmed batched scoring loop"
# Under a counting global allocator, 64 steady-state iterations of the
# batched scoring loop must perform 0 heap allocations (the
# InferenceWorkspace scratch discipline, asserted for real), and the
# measured peak heap growth must stay at or under the tape memory
# plan's prediction; both are recorded into the perf report.
cargo run -q --release --offline -p dekg-bench --features count-alloc --bin perf -- \
    --alloc-check --out "$tmp/BENCH_perf.json"
grep -q '"measured_peak_delta_bytes"' "$tmp/BENCH_perf.json"

echo "==> batched-engine pins under a shuffled schedule"
# The batched candidate-ranking engine must reproduce the per-candidate
# autograd tape (dekg_core::reference::TapeReference) rank for rank and
# metric for metric, with the rayon shim perturbing worker schedules.
DEKG_SHUFFLE_SCHEDULE=1 cargo test -q -p dekg --test batched_scoring --offline
# The same pins in release: the indexed kernels' register rows and
# chains, the shared source-run messages and the per-node attention
# prefixes only vectorize there, and the ranks must still equal the
# tape's.
DEKG_SHUFFLE_SCHEDULE=1 cargo test -q --release --offline -p dekg --test batched_scoring

echo "==> serve determinism under a shuffled schedule"
# The serving face of the bitwise contract: interleaved concurrent
# clients must get byte-identical answers to a serial pass, with the
# rayon shim perturbing worker schedules underneath.
DEKG_SHUFFLE_SCHEDULE=1 cargo test -q -p dekg-serve --offline

echo "==> serve smoke: boot, rank, hot-swap, metrics, shutdown"
# Boots the daemon the way an operator would (ephemeral port via
# --port-file), then walks the runbook in docs/OPERATIONS.md: readiness
# gate, two identical ranks (byte-compared), a hot-swap reload that
# bumps the generation, a /metrics scrape, and a clean remote shutdown.
dekg() { cargo run -q --release --offline -p dekg-cli -- "$@"; }
dekg serve --data "$tmp/data" --ckpt "$tmp/model.dekg" \
    --addr 127.0.0.1:0 --port-file "$tmp/serve.addr" --log-level warn &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$tmp/serve.addr" ] && break; sleep 0.1; done
addr="$(cat "$tmp/serve.addr")"
for _ in $(seq 1 100); do
    dekg request --addr "$addr" --path /readyz >/dev/null 2>&1 && break
    sleep 0.1
done
dekg request --addr "$addr" --path /readyz | grep -q ready
head="$(head -n 1 "$tmp/data/test_enclosing.txt" | cut -f1)"
rel="$(head -n 1 "$tmp/data/test_enclosing.txt" | cut -f2)"
tail_e="$(head -n 1 "$tmp/data/test_enclosing.txt" | cut -f3)"
rank_body="{\"rank\": {\"task\": \"tail\", \"head\": \"$head\", \"rel\": \"$rel\", \
\"tail\": \"$tail_e\", \"candidates\": 10, \"seed\": 7, \"index\": 0}}"
dekg request --addr "$addr" --body "$rank_body" > "$tmp/rank1.json"
dekg request --addr "$addr" --body "$rank_body" > "$tmp/rank2.json"
diff "$tmp/rank1.json" "$tmp/rank2.json"
grep -q '"rank":' "$tmp/rank1.json"
# Hot-swap: re-reads the single checkpoint file in place, generation
# must bump.
dekg request --addr "$addr" --path /admin/reload --method POST | grep -q '"generation":2'
dekg request --addr "$addr" --body "$rank_body" > "$tmp/rank3.json"
diff "$tmp/rank1.json" "$tmp/rank3.json"
dekg request --addr "$addr" --path /metrics | grep -q dekg_serve_requests_total
dekg request --addr "$addr" --path /admin/shutdown --method POST | grep -q stopping
wait "$serve_pid"
unset -f dekg

echo "==> all checks passed"
