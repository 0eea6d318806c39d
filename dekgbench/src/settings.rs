//! The benchmark's recorded settings, `workloads.json`, compiled in.

use serde::Value;

const SETTINGS: &str = include_str!("../workloads.json");

/// The number at `path` in `workloads.json`.
///
/// # Errors
/// A missing key or a non-number value.
pub fn number(path: &[&str]) -> Result<f64, String> {
    let root = serde_json::parse_value(SETTINGS).map_err(|e| format!("workloads.json: {e}"))?;
    let mut v = &root;
    for key in path {
        let pairs =
            v.as_object().ok_or_else(|| format!("workloads.json: {key} not in an object"))?;
        v = serde::field(pairs, key)
            .map_err(|_| format!("workloads.json: missing {}", path.join(".")))?;
    }
    match v {
        Value::Num(n) => Ok(n.as_f64()),
        _ => Err(format!("workloads.json: {} is not a number", path.join("."))),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn dataset_seeds_differ() {
        let measured = super::number(&["dataset_seed", "measured"]).unwrap();
        let held_out = super::number(&["dataset_seed", "held_out"]).unwrap();
        assert_ne!(measured, held_out);
    }
}
