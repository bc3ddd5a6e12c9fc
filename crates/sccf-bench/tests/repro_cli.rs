//! The `repro` command line and the artifact gate behind it: one
//! registry drives dispatch, `all` and the usage text; a bench artifact
//! with a failed check is still written and turns into exit status 1.
//! No test here launches a real experiment.

use std::path::{Path, PathBuf};
use std::process::Command;

use sccf_bench::experiments::{run, select, usage, BenchArtifact, Runner, EXPERIMENTS};
use sccf_bench::harness::HarnessConfig;
use sccf_util::{Json, Table};

#[test]
fn registry_names_are_unique_and_all_is_the_whole_registry_in_order() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate registry name");
    assert!(!names.contains(&"all"), "`all` is reserved");
    let all: Vec<&str> = select("all").unwrap().iter().map(|e| e.0).collect();
    assert_eq!(all, names);
    assert_eq!(select("bench-control").unwrap()[0].0, "bench-control");
    assert!(select("bench-nope").is_none());
    assert!(select("bench-fleet").is_none());
    for name in names {
        assert!(
            usage().contains(&format!("  {name} ")),
            "usage omits {name}"
        );
    }
}

#[test]
fn unknown_experiment_exits_2_and_prints_every_registry_entry() {
    for args in [&["no-such-experiment"][..], &[], &["table1", "--bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "a usage error prints no results");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: repro"), "{stderr}");
        for (name, what, _) in EXPERIMENTS {
            let row = format!("  {name:<15} {what}\n");
            assert!(stderr.contains(&row), "usage omits {name}:\n{stderr}");
        }
        assert!(stderr.contains("bench-control"));
    }
}

fn stub(failures: &[&str]) -> BenchArtifact {
    let mut t = Table::new("stub", &["k"]);
    t.push(&["v"]);
    let fields = vec![("answer", Json::int(42)), ("ratio", Json::num(0.5, 3))];
    let mut a = BenchArtifact::new("BENCH_stub.json", fields, vec![t]);
    a.require_keys("", "answer ratio");
    for f in failures {
        a.check(false, *f);
    }
    a
}

fn stub_passing(_: &HarnessConfig) -> BenchArtifact {
    stub(&[])
}

fn stub_failing(_: &HarnessConfig) -> BenchArtifact {
    let mut a = stub(&["the stub must fail"]);
    a.require_keys("", "absent_key");
    a.require_keys("absent_section", "k");
    a
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sccf-repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs one stub through the driver; returns (status, root copy, archived copy).
fn drive(tag: &str, runner: Runner) -> (i32, String, String) {
    let root = scratch(tag);
    let out_dir = root.join("results");
    let h = HarnessConfig::default();
    let status = run(&[&("bench-stub", "a stub", runner)], &h, &root, &out_dir);
    let read = |dir: &Path| std::fs::read_to_string(dir.join("BENCH_stub.json")).expect("written");
    let texts = (read(&root), read(&out_dir));
    assert!(out_dir.join("bench-stub.md").exists(), "markdown archived");
    let _ = std::fs::remove_dir_all(&root);
    (status, texts.0, texts.1)
}

#[test]
fn a_clean_artifact_returns_0_and_carries_experiment_and_host() {
    let (status, text, archived) = drive("pass", Runner::Bench(stub_passing));
    assert_eq!(status, 0);
    assert_eq!(text, archived);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = HarnessConfig::default().threads;
    let want = format!(
        "{{\n  \"experiment\": \"bench-stub\",\n  \"answer\": 42,\n  \"ratio\": 0.500,\n  \
         \"host\": {{\"scale\": \"quick\", \"seed\": 42, \"threads\": {threads}, \
         \"available_parallelism\": {cores}}}\n}}\n"
    );
    assert_eq!(text, want);
}

#[test]
fn a_failed_check_returns_1_and_still_writes_the_artifact() {
    assert_eq!(
        stub_failing(&HarnessConfig::default()).failures,
        [
            "the stub must fail",
            "BENCH_stub.json missing absent_key",
            "absent_section missing k"
        ]
    );
    let (status, text, _) = drive("fail", Runner::Bench(stub_failing));
    assert_eq!(status, 1);
    assert!(text.contains("\"answer\": 42"), "{text}");
}

#[test]
fn a_paper_experiment_writes_markdown_only_and_returns_0() {
    fn tables(_: &HarnessConfig) -> Vec<Table> {
        vec![Table::new("paper stub", &["k"])]
    }
    let root = scratch("paper");
    let h = HarnessConfig::default();
    let status = run(&[&("stub", "", Runner::Paper(tables))], &h, &root, &root);
    assert_eq!(status, 0);
    let md = std::fs::read_to_string(root.join("stub.md")).expect("markdown archived");
    assert!(md.contains("### paper stub"));
    assert_eq!(std::fs::read_dir(&root).unwrap().count(), 1);
    let _ = std::fs::remove_dir_all(&root);
}
