//! Metric names and units.  `BENCHMARK.json` at the repo root is the one
//! declaration: units are read from it, and a name it does not declare
//! cannot be printed.

use serde_json::Value;
use std::collections::BTreeMap;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// `Some` for end-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness reads.
pub struct Manifest {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Manifest {
    pub fn load() -> Self {
        let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| root.get(key).and_then(Value::as_array).unwrap_or_default();
        let text = |value: &Value, key: &str| {
            value
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` missing"))
                .to_string()
        };
        let declared = |key: &str| {
            list(key)
                .iter()
                .map(|entry| Declared {
                    name: text(entry, "name"),
                    unit: text(entry, "unit"),
                    bound: entry.get("bound").and_then(number),
                })
                .collect()
        };
        Self {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            run_seconds: root
                .get("run_seconds")
                .and_then(number)
                .expect("BENCHMARK.json: run_seconds"),
            end_to_end: declared("end_to_end"),
            per_layer: declared("per_layer"),
        }
    }
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// A metric name: starts with a letter or digit, then `[A-Za-z0-9_.-]`, at most 64.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named values measured by one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite");
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// `part ÷ whole` as a percentage; 0 when `whole` is 0.
    pub fn set_pct(&mut self, name: &str, part: f64, whole: f64) {
        self.set(
            name,
            if whole == 0.0 {
                0.0
            } else {
                100.0 * part / whole
            },
        );
    }

    /// `total ÷ count`; 0 when nothing was counted.
    pub fn set_per(&mut self, name: &str, total: f64, count: f64) {
        self.set(name, if count == 0.0 { 0.0 } else { total / count });
    }

    /// The result line: exactly the `declared` metrics, each with its unit.
    /// A layer a workload never enters reads 0 there.  Errors name a metric
    /// that was set without being declared.
    pub fn render(
        &self,
        declared: &[Declared],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        if let Some(stray) = self
            .names()
            .find(|name| declared.iter().all(|d| d.name != *name))
        {
            return Err(format!(
                "metric `{stray}` is not declared in BENCHMARK.json"
            ));
        }
        let body: Vec<String> = declared
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    self.get(&d.name).unwrap_or(0.0),
                    d.unit
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }
}

/// Reads the metric values back out of a result line.
pub fn parse_result(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let root: Value = serde_json::from_str(line).ok()?;
    let correct = matches!(root.get("correct"), Some(Value::Bool(true)));
    let metrics = root
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(name, entry)| Some((name.clone(), number(entry.get("value")?)?)))
        .collect();
    Some((correct, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "wall_s",
            "svsim.simulate_ns_per_cycle",
            "core.evaluate_s.base",
            "p99-us",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/s",
            "pct%",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn manifest_is_well_formed() {
        let manifest = Manifest::load();
        assert_eq!(
            manifest.workloads,
            ["augment", "eval_cold", "eval_warm", "serve_wire"]
        );
        assert!(manifest.run_seconds >= 15.0);
        let mut seen = std::collections::BTreeSet::new();
        for d in manifest.end_to_end.iter().chain(&manifest.per_layer) {
            assert!(valid_name(&d.name), "{}", d.name);
            assert!(seen.insert(d.name.as_str()), "{} declared twice", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
        }
        for d in &manifest.end_to_end {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        assert!(manifest.per_layer.iter().all(|d| d.bound.is_none()));
        assert!(manifest.per_layer.len() <= 128);
        let setup = manifest.end_to_end.iter().find(|d| d.name == "setup_s");
        assert!(setup.is_some_and(|d| d.unit == "s"));
    }

    #[test]
    fn result_line_round_trips_and_rejects_undeclared_names() {
        let declared = [
            Declared {
                name: "a.b".into(),
                unit: "s".into(),
                bound: None,
            },
            Declared {
                name: "unset".into(),
                unit: "count".into(),
                bound: None,
            },
        ];
        let mut metrics = Metrics::default();
        metrics.set("a.b", 1.25);
        let line = metrics.render(&declared, true, 7, 0).unwrap();
        let (correct, values) = parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!(values["a.b"], 1.25);
        assert_eq!(values["unset"], 0.0);
        metrics.set("stray", 1.0);
        assert!(metrics.render(&declared, true, 7, 0).is_err());
    }

    #[test]
    fn ratios_of_nothing_are_zero() {
        let mut metrics = Metrics::default();
        metrics.set_pct("p", 1.0, 0.0);
        metrics.set_per("q", 1.0, 0.0);
        metrics.set_pct("r", 1.0, 4.0);
        assert_eq!(
            (metrics.get("p"), metrics.get("q"), metrics.get("r")),
            (Some(0.0), Some(0.0), Some(25.0))
        );
    }
}
