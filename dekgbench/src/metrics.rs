//! The benchmark's metric catalogue and its result line.
//!
//! Every workload reports every metric: end-to-end metrics are defined
//! per workload (see `README.md`), and a per-layer metric whose layer
//! does no work on a workload reads `0`.

use std::collections::BTreeMap;

/// One metric definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> Def {
    Def { name: name.into(), unit, better }
}

/// End-to-end metrics, reported by untraced runs.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MB", "lower"),
        def("throughput_per_s", "1/s", "higher"),
    ]
}

/// Tensor ops whose profiler rows the traced runs report.
pub const TENSOR_OPS: [&str; 5] = ["GatherRows", "Matmul", "Add", "Param", "ScatterAddRows"];

/// Fixed offered-rate steps of serve-open.
pub const SERVE_STEPS: [&str; 3] = ["low", "mid", "high"];

/// Per-layer metrics, reported by traced runs.
pub fn per_layer() -> Vec<Def> {
    let mut v = vec![
        def("trace.stage_coverage", "ratio", "higher"),
        def("trace.overhead", "ratio", "lower"),
        def("fail_share", "ratio", "lower"),
        def("eval.queries_per_s", "1/s", "higher"),
        def("eval.query_ms_p50", "ms", "lower"),
        def("eval.query_ms_p90", "ms", "lower"),
        def("eval.candidates.s", "s", "lower"),
        def("eval.candidates.per_query", "count", "lower"),
        def("clrm.score.s", "s", "lower"),
        def("clrm.score.calls", "count", "lower"),
        def("kg.bfs_source.s", "s", "lower"),
        def("kg.bfs_source.calls", "count", "lower"),
        def("kg.extract.s", "s", "lower"),
        def("kg.extract.calls", "count", "lower"),
        def("kg.bfs_reuse_ratio", "ratio", "higher"),
        def("kg.subgraph.nodes_mean", "count", "lower"),
        def("kg.subgraph.edges_mean", "count", "lower"),
        def("kg.subgraph.one_sided_share", "ratio", "lower"),
        def("kg.pack.s", "s", "lower"),
        def("kg.pack.nodes", "count", "lower"),
        def("gsm.packed.s", "s", "lower"),
        def("gsm.packed.calls", "count", "lower"),
        def("gsm.multi_rel.s", "s", "lower"),
        def("gsm.multi_rel.calls", "count", "lower"),
        def("train.epoch_s", "s", "lower"),
        def("train.step_ms_p50", "ms", "lower"),
        def("train.step_ms_p75", "ms", "lower"),
        def("datasets.negatives.s", "s", "lower"),
        def("train.record_sem.s", "s", "lower"),
        def("train.record_tpo.s", "s", "lower"),
        def("train.contrastive.s", "s", "lower"),
        def("train.contrastive.rows", "count", "lower"),
        def("train.tape_nodes_mean", "count", "lower"),
        def("train.backward.s", "s", "lower"),
        def("train.optim.s", "s", "lower"),
        def("train.steps", "count", "lower"),
    ];
    for op in TENSOR_OPS {
        v.push(def(format!("tensor.{op}.fwd_s"), "s", "lower"));
        v.push(def(format!("tensor.{op}.bwd_s"), "s", "lower"));
        v.push(def(format!("tensor.{op}.calls"), "count", "lower"));
        v.push(def(format!("tensor.{op}.mb"), "MB", "lower"));
    }
    for step in SERVE_STEPS {
        v.push(def(format!("serve.{step}.achieved_rps"), "1/s", "higher"));
        v.push(def(format!("serve.{step}.p50_ms"), "ms", "lower"));
        v.push(def(format!("serve.{step}.p90_ms"), "ms", "lower"));
        v.push(def(format!("serve.{step}.queue_ms_p50"), "ms", "lower"));
        v.push(def(format!("serve.{step}.queue_ms_p90"), "ms", "lower"));
        v.push(def(format!("serve.{step}.score_ms_p50.rank"), "ms", "lower"));
        v.push(def(format!("serve.{step}.score_ms_p50.score"), "ms", "lower"));
        v.push(def(format!("serve.{step}.http_ms_p50"), "ms", "lower"));
        v.push(def(format!("serve.{step}.batch_mean"), "count", "higher"));
        v.push(def(format!("serve.{step}.shed"), "count", "lower"));
        v.push(def(format!("serve.{step}.lag_ms_p90"), "ms", "lower"));
    }
    v.push(def("serve.reload_ms", "ms", "lower"));
    v.push(def("serve.max_rps", "1/s", "higher"));
    v
}

/// A workload's result: operation counts plus measured values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries, training steps, requests, checks).
    pub attempted: u64,
    /// Operations that failed an output check, answered non-200, or
    /// timed out.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Sets one metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }
}

/// Renders the result line: the end-to-end catalogue for untraced runs,
/// the per-layer catalogue (absent layers as `0`) for traced ones.
///
/// # Errors
/// A catalogue metric an untraced run did not measure, or a non-finite
/// value.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let defs = if traced { per_layer() } else { end_to_end() };
    let mut parts = Vec::with_capacity(defs.len());
    for d in &defs {
        let value = match outcome.values.get(&d.name) {
            Some(&v) => v,
            None if traced => 0.0,
            None => return Err(format!("metric {} was not measured", d.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", d.name));
        }
        parts.push(format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", d.name, d.unit));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// catalogues, with the same units and directions.
    #[test]
    fn benchmark_manifest_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let manifest = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let pairs = manifest.as_object().expect("manifest is an object");
        let listed = |key: &str| -> Vec<Def> {
            let items = serde::field(pairs, key).ok().and_then(|v| v.as_array()).expect(key);
            items
                .iter()
                .map(|item| {
                    let o = item.as_object().expect("metric object");
                    let s = |k: &str| serde::field(o, k).ok().and_then(|v| v.as_str()).expect(k);
                    let unit = end_to_end()
                        .into_iter()
                        .chain(per_layer())
                        .find(|d| d.unit == s("unit"))
                        .map_or("?", |d| d.unit);
                    let better = if s("better") == "higher" { "higher" } else { "lower" };
                    def(s("name"), unit, better)
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), end_to_end());
        assert_eq!(listed("per_layer"), per_layer());
    }

    #[test]
    fn traced_line_fills_idle_layers_with_zero() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.set("kg.extract.s", 0.5);
        let line = result_line(&o, true).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"kg.extract.s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"train.backward.s\": {\"value\": 0, \"unit\": \"s\"}"));
    }

    #[test]
    fn untraced_line_requires_every_end_to_end_metric() {
        let mut o = Outcome { attempted: 1, ..Outcome::default() };
        o.set("setup_s", 0.1);
        assert!(result_line(&o, false).is_err());
        for d in end_to_end() {
            o.set(d.name, 1.25);
        }
        assert!(result_line(&o, false).unwrap().contains("\"throughput_per_s\": {\"value\": 1.25"));
    }
}
