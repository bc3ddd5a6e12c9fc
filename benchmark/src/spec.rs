//! `BENCHMARK.json` as the program sees it: the run length, the
//! workload names, and for every metric its unit, direction and bound.
//! The file is the single place those are declared; the program reads
//! them from it and refuses to report a metric the file does not list
//! (or to stay silent about one it does).

use crate::json::{self, Json};
use crate::run::Reported;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the base by which the metric may get worse; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// Read `BENCHMARK.json` from the current directory (the root of a
    /// checkout — where the driver, and `cargo run`, start the program).
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("reading BENCHMARK.json (run from the repository root): {e}"))?;
        Self::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no `{key}` array"))?
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: a `{key}` metric lacks `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")? as u64,
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("BENCHMARK.json: no `workloads` array")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn find(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    pub fn unit_of(&self, name: &str) -> &str {
        self.find(name).map_or("?", |m| m.unit.as_str())
    }

    /// The measured set must be exactly the declared set.
    pub fn check_names(
        &self,
        measured: &[(String, Reported)],
        declared: &[MetricSpec],
        list: &str,
    ) -> Result<(), String> {
        let missing: Vec<&str> = declared
            .iter()
            .filter(|d| !measured.iter().any(|(n, _)| *n == d.name))
            .map(|d| d.name.as_str())
            .collect();
        let extra: Vec<&str> = measured
            .iter()
            .filter(|(n, _)| !declared.iter().any(|d| d.name == *n))
            .map(|(n, _)| n.as_str())
            .collect();
        if missing.is_empty() && extra.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json `{list}` and the program disagree: declared but not measured \
                 {missing:?}, measured but not declared {extra:?}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// The repo's `BENCHMARK.json` keeps to the limits it is refused
    /// outside of, and lists exactly the workloads this program runs.
    #[test]
    fn the_repo_file_keeps_to_the_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let spec = BenchSpec::parse(&text).unwrap();
        assert!((1..=60).contains(&spec.run_seconds));
        let ours: Vec<&str> = crate::run::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, ours);
        for w in doc.get("workloads").unwrap().as_arr().unwrap() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(name_ok(&m.name), "name {}", m.name);
            assert!(unit_ok(&m.unit), "unit {}", m.unit);
            assert!(seen.insert(m.name.clone()), "{} is used twice", m.name);
        }
        for w in &spec.workloads {
            assert!(name_ok(w) && seen.insert(w.clone()));
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        let setup = spec.find("setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let command = doc.get("command").unwrap().as_arr().unwrap();
        assert!(command.len() <= 32);
        assert!(command.iter().all(|c| c
            .as_str()
            .is_some_and(|c| c.len() <= 200 && !c.starts_with('/') && !c.contains(".."))));
        assert_eq!(
            doc.get("paths").unwrap().as_arr().unwrap(),
            [Json::str("benchmark")]
        );
    }
}
