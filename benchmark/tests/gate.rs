//! The correctness gate gates: the same command that prints the metrics
//! exits non-zero, and says `"correct":false`, when one expected slate
//! is wrong — and exits zero when nothing is.
//!
//! Runs the real binary against a real two-process fleet (the short
//! `rec_wire` run: ~10 s for both).

use std::process::{Command, Output};

fn run(corrupt: bool) -> Output {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = format!(
        "benchmark/out/gate-test-{}.json",
        if corrupt { "corrupt" } else { "clean" }
    );
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sccf-fleet-benchmark"));
    cmd.current_dir(root).args([
        "run",
        "--workload",
        "rec_wire",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--out",
        &out,
    ]);
    if corrupt {
        cmd.env("SCCF_BENCH_CORRUPT_EXPECTED", "1");
    } else {
        cmd.env_remove("SCCF_BENCH_CORRUPT_EXPECTED");
    }
    cmd.output().expect("the benchmark binary runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string()
}

#[test]
fn a_wrong_expected_slate_fails_the_run_and_a_clean_run_passes() {
    let clean = run(false);
    assert!(
        clean.status.success(),
        "clean run failed: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let line = last_line(&clean);
    assert!(
        line.starts_with('{') && line.contains("\"correct\":true"),
        "{line}"
    );
    assert!(line.contains("\"failed\":0"), "{line}");
    for metric in [
        "setup_s",
        "op_p50_ms",
        "op_p99_ms",
        "goodput_per_s",
        "mem_peak_mb",
        "hr20",
    ] {
        assert!(
            line.contains(&format!("\"{metric}\"")),
            "{metric} missing from {line}"
        );
    }
    let text = String::from_utf8_lossy(&clean.stdout);
    assert!(text.contains("ops_digest 0x") && text.contains("slate_digest 0x"));

    let corrupt = run(true);
    assert_eq!(corrupt.status.code(), Some(1), "a failed check must exit 1");
    let line = last_line(&corrupt);
    assert!(line.contains("\"correct\":false"), "{line}");
    assert!(line.contains("\"failed\":1"), "{line}");
    let stderr = String::from_utf8_lossy(&corrupt.stderr);
    assert!(
        stderr.contains("FAIL pin"),
        "the failure must be named: {stderr}"
    );

    // Same seed, same input, same answers — the digests say so.
    let digests = |o: &Output| -> Vec<String> {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .filter(|l| l.contains("_digest 0x"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(digests(&clean), digests(&corrupt));
}
