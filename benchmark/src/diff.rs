//! `diff A.json B.json`: per workload and end-to-end metric, both
//! values, the relative change with its base, the bound, and a verdict.
//!
//! * `ok` — B is not worse than A by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — the reported value's own uncertainty inside either
//!   file is wider than the bound, so the two values cannot be told
//!   apart at that resolution. Reported as such, never as `ok`. The
//!   value is the best of `n` per-window values; its uncertainty is how
//!   far ahead of the third best it stands (`stats::best_uncertainty`).
//!
//! Digests must match for the comparison to mean anything: different
//! `ops_digest`s mean different input, different `slate_digest`s mean
//! different answers; either is reported and fails the diff.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::spec::BenchSpec;
use crate::stats::best_uncertainty;

struct Entry {
    ops_digest: String,
    slate_digest: String,
    correct: bool,
    /// metric → (value, per-window values)
    metrics: BTreeMap<String, (f64, Vec<f64>)>,
}

fn load(path: &str) -> Result<BTreeMap<String, Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{path}: no `workloads` object"))?;
    let mut out = BTreeMap::new();
    for (name, w) in workloads {
        let text_of = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let mut metrics = BTreeMap::new();
        for (m, v) in w.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let value = v
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: {name}.{m} has no numeric value"))?;
            let windows = v
                .get("windows")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            metrics.insert(m.clone(), (value, windows));
        }
        out.insert(
            name.clone(),
            Entry {
                ops_digest: text_of("ops_digest"),
                slate_digest: text_of("slate_digest"),
                correct: matches!(w.get("correct"), Some(Json::Bool(true))),
                metrics,
            },
        );
    }
    Ok(out)
}

/// Print the table; `Ok(true)` when every row is `ok` and all digests
/// match.
pub fn diff(path_a: &str, path_b: &str, spec: &BenchSpec) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut all_ok = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "change", "bound", "spread"
    );
    for (workload, ea) in &a {
        let Some(eb) = b.get(workload) else {
            println!("{workload}: only in {path_a}");
            all_ok = false;
            continue;
        };
        for (what, da, db) in [
            ("ops_digest", &ea.ops_digest, &eb.ops_digest),
            ("slate_digest", &ea.slate_digest, &eb.slate_digest),
        ] {
            if da != db {
                println!("{workload}: {what} differs ({da} vs {db}) — not the same run");
                all_ok = false;
            }
        }
        if !(ea.correct && eb.correct) {
            println!("{workload}: a run failed its correctness gate");
            all_ok = false;
        }
        for m in &spec.end_to_end {
            let (Some((va, wa)), Some((vb, wb))) =
                (ea.metrics.get(&m.name), eb.metrics.get(&m.name))
            else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            // Positive = B is worse, as a share of A (the base).
            let change = if *va == 0.0 {
                0.0
            } else if m.higher_is_better {
                (va - vb) / va.abs()
            } else {
                (vb - va) / va.abs()
            };
            let spread = [wa, wb]
                .into_iter()
                .filter_map(|w| best_uncertainty(w, m.higher_is_better))
                .reduce(f64::max);
            let verdict = if spread.is_some_and(|s| s > bound) {
                "unresolved"
            } else if change > bound {
                "worse"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            println!(
                "{:<14} {:<14} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}% {:>8}  {verdict}",
                workload,
                m.name,
                va,
                vb,
                // Shown in the metric's own direction: B relative to A.
                if *va == 0.0 {
                    0.0
                } else {
                    100.0 * (vb - va) / va.abs()
                },
                100.0 * bound,
                spread.map_or("n/a".to_string(), |s| format!("{:.1}%", 100.0 * s)),
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        println!("{workload}: only in {path_b}");
        all_ok = false;
    }
    println!(
        "change = (B - A) / |A|; a metric is worse when it moves against its direction by more \
         than its bound; spread = distance from the reported best window to the third best, as a \
         share of the best, the wider of the two files"
    );
    Ok(all_ok)
}
