//! The fleet benchmark: load generator, router and child launcher in
//! one binary. See `benchmark/README.md`.
//!
//! ```text
//! sccf-fleet-benchmark run  [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out F]
//! sccf-fleet-benchmark diff A.json B.json
//! sccf-fleet-benchmark serve-shard …        (internal: the role the children run)
//! ```

mod affinity;
mod check;
mod config;
mod diff;
mod fleet;
mod json;
mod layers;
mod loadgen;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use run::{RunArgs, Workload};
use spec::BenchSpec;

const USAGE: &str = "usage:
  run  [--workload mixed_open|ingest_closed|rec_wire|restart] [--seed S] [--seconds N]
       [--trace 0|1] [--out FILE]     (no --workload: all four, one after the other)
  diff A.json B.json";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 11,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).map(String::as_str);
        let need = || value.ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--workload" => {
                let v = need()?;
                cli.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => cli.seed = need()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                let s: u64 = need()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                cli.seconds = Some(s);
            }
            "--out" => cli.out = Some(need()?.to_string()),
            "--trace" => match value {
                Some("0") => cli.trace = false,
                Some("1") => cli.trace = true,
                // Bare `--trace` (no 0/1 after it) switches tracing on.
                _ => {
                    cli.trace = true;
                    i += 1;
                    continue;
                }
            },
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 2;
    }
    Ok(cli)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let cli = parse_run(args)?;
    let spec = BenchSpec::load()?;
    let seconds = cli.seconds.unwrap_or(spec.run_seconds);
    let workloads: Vec<Workload> = match cli.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    for w in &workloads {
        if !spec.workloads.iter().any(|n| n == w.name()) {
            return Err(format!(
                "BENCHMARK.json does not list workload `{}`",
                w.name()
            ));
        }
    }
    let mut entries = Vec::new();
    let mut all_correct = true;
    let mut last_line = String::new();
    for &workload in &workloads {
        let result = run::run(
            &RunArgs {
                workload,
                seed: cli.seed,
                seconds,
                trace: cli.trace,
            },
            &spec,
        )?;
        print!("{}", result.text);
        last_line = result.result_line(&spec);
        // With one workload this is the last line of stdout — the line
        // the driver reads; with several, each block ends in its own.
        println!("{last_line}");
        all_correct &= result.correct;
        entries.push((workload.name().to_string(), result.entry));
    }
    let out = match cli.out {
        Some(path) => std::path::PathBuf::from(path),
        None => {
            let which = cli.workload.map_or("all", Workload::name);
            let kind = if cli.trace { "layers" } else { "result" };
            run::out_dir()?.join(format!("{kind}-{which}-seed{}.json", cli.seed))
        }
    };
    run::write_result_file(&out, cli.seed, entries)?;
    eprintln!("wrote {}", out.display());
    if workloads.len() > 1 {
        // Keep "the last line is a result line" true in every mode.
        println!("{last_line}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("serve-shard") => {
            fleet::exit_when_orphaned();
            return match sccf_net::serve_shard_main(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("serve-shard error: {e}");
                    ExitCode::from(1)
                }
            };
        }
        Some("run") => {
            // Before anything is spawned: the children inherit the mask.
            affinity::pin_to_one_cpu();
            run_command(&args[1..])
        }
        Some("diff") if args.len() == 3 => {
            BenchSpec::load().and_then(|spec| diff::diff(&args[1], &args[2], &spec))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A failed check: results were printed, the exit code says no.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
