//! `repro` — regenerate every table and figure of the paper, and the
//! `BENCH_*.json` serving artifacts.
//!
//! ```text
//! repro <experiment|all> [--scale quick|full] [--seed N] [--dim D]
//!       [--beta B] [--out DIR] [--verbose]
//! ```
//!
//! The experiment list lives in one place,
//! [`sccf_bench::experiments::EXPERIMENTS`]; run `repro` with no
//! arguments to print it. Results print to stdout as markdown and are
//! archived under `--out` (default `results/`); a `bench-*` experiment
//! also writes its `BENCH_*.json` to the current directory. Exit
//! status: 0 on success, 1 when a bench artifact failed one of its
//! checks (every requested experiment still runs and every artifact is
//! still written), 2 on a usage error. See README "Quickstart" and
//! "Benchmark artifacts".

use std::path::{Path, PathBuf};

use sccf_bench::experiments::{self, Experiment};
use sccf_bench::harness::HarnessConfig;
use sccf_data::catalog::Scale;

fn usage() -> ! {
    eprint!("{}", experiments::usage());
    std::process::exit(2)
}

/// The next argument, parsed; a missing or malformed one is a usage error.
fn value<T: std::str::FromStr>(argv: &mut impl Iterator<Item = String>) -> T {
    argv.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

/// `(experiments to run, harness knobs, --out directory)`.
fn parse_args() -> (Vec<&'static Experiment>, HarnessConfig, PathBuf) {
    let mut argv = std::env::args().skip(1);
    let experiments = argv
        .next()
        .and_then(|name| experiments::select(&name))
        .unwrap_or_else(|| usage());
    let mut harness = HarnessConfig::default();
    let mut out_dir = PathBuf::from("results");
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--scale" => {
                let v = argv.next().unwrap_or_else(|| usage());
                harness.scale = Scale::parse(&v).unwrap_or_else(|| usage());
            }
            "--seed" => harness.seed = value(&mut argv),
            "--dim" => harness.dim = value(&mut argv),
            "--beta" => harness.beta = value(&mut argv),
            "--out" => out_dir = value(&mut argv),
            "--verbose" => harness.verbose = true,
            _ => usage(),
        }
    }
    (experiments, harness, out_dir)
}

fn main() {
    let (selected, harness, out_dir) = parse_args();
    std::process::exit(experiments::run(
        &selected,
        &harness,
        Path::new("."),
        &out_dir,
    ))
}
