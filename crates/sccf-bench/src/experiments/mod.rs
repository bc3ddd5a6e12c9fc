//! One function per experiment, one registry ([`EXPERIMENTS`]) and one
//! driver ([`run`]) — everything the `repro` binary dispatches to.
//!
//! A paper experiment returns its rendered markdown tables. A bench
//! experiment returns a [`BenchArtifact`]: the tables, the
//! machine-readable payload of its `BENCH_*.json` and the acceptance
//! checks that payload failed. The driver is the only code that writes
//! either kind of file; a failed check still leaves the artifact on
//! disk (the numbers are what explains the failure) and turns into
//! exit status 1 once every requested experiment has run.

use std::io::Write as _;
use std::path::Path;

use sccf_util::{Json, Table};

use crate::harness::HarnessConfig;

pub mod control;
pub mod extensions;
pub mod paper;
pub mod quality;
pub mod recovery;
pub mod reshard;
pub mod serving;
pub mod sharded;

/// What one bench experiment hands the driver.
pub struct BenchArtifact {
    /// The repo-root artifact this experiment owns, e.g. `BENCH_serving.json`.
    pub file_name: &'static str,
    pub json: Json,
    pub tables: Vec<Table>,
    /// Acceptance checks the measured values failed (empty = pass).
    pub failures: Vec<String>,
}

impl BenchArtifact {
    /// `fields` are the payload; the writer frames them with the
    /// `experiment` name and the `host` block.
    pub fn new(file_name: &'static str, fields: Vec<(&str, Json)>, tables: Vec<Table>) -> Self {
        Self {
            file_name,
            json: Json::obj(fields),
            tables,
            failures: Vec::new(),
        }
    }

    /// Record `message` as a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl Into<String>) {
        if !ok {
            self.failures.push(message.into());
        }
    }

    /// Every whitespace-separated key in `keys` must be present in the
    /// object at `section` (`""` = the top level), or in each of its rows
    /// when that value is an array.
    pub fn require_keys(&mut self, section: &str, keys: &str) {
        // An absent section reports every key: nothing has any.
        let (node, label) = match section {
            "" => (&self.json, self.file_name),
            _ => (
                self.json.get(section).unwrap_or(&Json::Bool(false)),
                section,
            ),
        };
        let rows = match node {
            Json::Arr(rows) => rows.iter().collect(),
            object => vec![object],
        };
        let missing = rows
            .iter()
            .flat_map(|row| keys.split_whitespace().filter(|k| row.get(k).is_none()));
        self.failures
            .extend(missing.map(|k| format!("{label} missing {k}")));
    }
}

/// How an experiment reports: markdown only, or markdown plus artifact.
#[derive(Clone, Copy)]
pub enum Runner {
    Paper(fn(&HarnessConfig) -> Vec<Table>),
    Bench(fn(&HarnessConfig) -> BenchArtifact),
}
use Runner::{Bench, Paper};

/// `(name, what it reproduces, how to run it)`.
pub type Experiment = (&'static str, &'static str, Runner);

/// Every experiment `repro` knows, in the order `repro all` runs them.
/// A `bench-x` entry writes `BENCH_x.json`.
#[rustfmt::skip] // a table: one row per experiment
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", "dataset statistics (Table I)", Paper(paper::table1)),
    ("fig1", "category-revisit distribution (Figure 1)", Paper(paper::fig1)),
    ("table2", "main quality comparison (Table II)", Paper(paper::table2)),
    ("fig4", "similarity-score distributions (Figure 4)", Paper(paper::fig4)),
    ("table3", "real-time latency, UserKNN vs SCCF (Table III)", Paper(paper::table3)),
    ("table4", "neighborhood-size sweep (Table IV)", Paper(paper::table4)),
    ("fig5", "embedding-dimension sweep (Figure 5)", Paper(paper::fig5)),
    ("table5", "simulated online A/B test (Table V)", Paper(paper::table5)),
    ("ablate-norm", "integrator normalization ablation", Paper(paper::ablate_norm)),
    ("ablate-window", "neighbor-visible history window sweep", Paper(paper::ablate_window)),
    ("extended", "SCCF over GRU4Rec/Caser, SLIM/LRec baselines", Paper(extensions::extended)),
    ("ranking", "SCCF applied to the ranking stage (§V)", Paper(extensions::ranking)),
    ("bench-serving", "serving latency vs catalog size", Bench(serving::bench_serving)),
    ("bench-sharded", "sharded ingest throughput, 1/2/4/8 shards", Bench(sharded::bench_sharded)),
    ("bench-reshard", "live resharding N→M under load", Bench(reshard::bench_reshard)),
    ("bench-quality", "N=1 vs N=8 shard-local vs two-tier HR/NDCG", Bench(quality::bench_quality)),
    ("bench-recovery", "crash-recovery time vs WAL depth", Bench(recovery::bench_recovery)),
    ("bench-control", "closed-loop autoscale + delta refresh", Bench(control::bench_control)),
];

/// The usage text: every registry entry, then the flags.
pub fn usage() -> String {
    let mut text = String::from(
        "usage: repro <experiment|all> [--scale quick|full] [--seed N] [--dim D] [--beta B] \
         [--out DIR] [--verbose]\n\nexperiments:\n",
    );
    for (name, what, _) in EXPERIMENTS {
        text.push_str(&format!("  {name:<15} {what}\n"));
    }
    text.push_str("  all             everything above, in order\n");
    text
}

/// The experiments `name` selects (`all` = the whole registry, in
/// order); `None` for a name the registry does not have.
pub fn select(name: &str) -> Option<Vec<&'static Experiment>> {
    match name {
        "all" => Some(EXPERIMENTS.iter().collect()),
        _ => EXPERIMENTS.iter().find(|e| e.0 == name).map(|e| vec![e]),
    }
}

/// Run `selected` in order. Tables print to stdout as markdown and are
/// archived as `<out_dir>/<name>.md`; a bench experiment's artifact goes
/// through `write_bench_artifact`. Returns the process exit status: 1
/// when any experiment reported a failed check, else 0.
pub fn run(selected: &[&Experiment], h: &HarnessConfig, root: &Path, out_dir: &Path) -> i32 {
    std::fs::create_dir_all(out_dir).expect("create output directory");
    let mut failed = 0;
    for &(name, _, runner) in selected {
        eprintln!("=== running {name} (scale {:?}) ===", h.scale);
        let started = std::time::Instant::now();
        let (tables, failures) = match runner {
            Paper(experiment) => (experiment(h), Vec::new()),
            Bench(experiment) => {
                let artifact = experiment(h);
                write_bench_artifact(name, &artifact, h, root, out_dir);
                (artifact.tables, artifact.failures)
            }
        };
        let markdown: String = tables.iter().map(|t| t.to_markdown() + "\n").collect();
        let _ = std::io::stdout().lock().write_all(markdown.as_bytes());
        let path = out_dir.join(format!("{name}.md"));
        std::fs::write(&path, markdown).expect("write result file");
        for failure in &failures {
            eprintln!("[{name}] CHECK FAILED: {failure}");
        }
        failed += failures.len();
        eprintln!(
            "=== {name} done in {:.1}s -> {} ===",
            started.elapsed().as_secs_f64(),
            path.display()
        );
    }
    if failed > 0 {
        eprintln!("error: {failed} bench check(s) failed");
    }
    i32::from(failed > 0)
}

/// The one writer of `BENCH_*.json`: `"experiment": name`, the payload,
/// then a `host` block saying what produced it — written under `root`
/// (the checkout root when `repro` runs from there: the committed perf
/// record) and archived under `out_dir` alongside the markdown tables.
fn write_bench_artifact(
    name: &str,
    artifact: &BenchArtifact,
    h: &HarnessConfig,
    root: &Path,
    out_dir: &Path,
) {
    let Json::Obj(payload) = &artifact.json else {
        panic!("{}: the payload must be an object", artifact.file_name)
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = Json::obj([
        ("scale", Json::Str(format!("{:?}", h.scale).to_lowercase())),
        ("seed", Json::int(h.seed)),
        ("threads", Json::int(h.threads)),
        ("available_parallelism", Json::int(cores)),
    ]);
    let mut fields = vec![("experiment".to_string(), Json::Str(name.to_string()))];
    fields.extend(payload.iter().cloned());
    fields.push(("host".to_string(), host));
    let text = Json::Obj(fields).render();
    let mut paths = vec![root.join(artifact.file_name)];
    if out_dir != root {
        paths.push(out_dir.join(artifact.file_name));
    }
    for path in paths {
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("[{name}] wrote {}", path.display());
    }
}
