//! Integration tests for the `sccf` command-line binary: the full
//! gen → train → eval → recommend lifecycle through the real executable,
//! plus the error paths an operator will actually hit.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sccf"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sccf-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn full_lifecycle_gen_train_eval_recommend() {
    let data = tmp("lifecycle.tsv");
    let model = tmp("lifecycle.sccf");

    let out = bin()
        .args(["gen", "--dataset", "games-sim", "--seed", "11"])
        .args(["--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {}", stderr(&out));
    assert!(stdout(&out).contains("wrote games-sim"));
    assert!(data.exists());

    let out = bin()
        .args(["train", "--data", data.to_str().unwrap()])
        .args(["--model", "fism", "--dim", "8", "--epochs", "2"])
        .args(["--out", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "train failed: {}", stderr(&out));
    assert!(model.exists());

    let out = bin()
        .args(["eval", "--data", data.to_str().unwrap()])
        .args(["--model", model.to_str().unwrap(), "--ks", "10"])
        .output()
        .unwrap();
    assert!(out.status.success(), "eval failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("HR@10"), "missing metrics: {text}");
    assert!(text.contains("model: FISM"));

    let out = bin()
        .args(["recommend", "--data", data.to_str().unwrap()])
        .args(["--model", model.to_str().unwrap()])
        .args(["--user", "0", "--n", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "recommend failed: {}", stderr(&out));
    let recs = stdout(&out);
    assert_eq!(recs.lines().count(), 3, "expected 3 lines: {recs}");
    assert!(recs.contains("item"));
}

#[test]
fn unknown_dataset_fails_cleanly() {
    let out = bin()
        .args(["gen", "--dataset", "nope", "--out", "/tmp/never.tsv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown dataset"));
}

#[test]
fn garbage_model_file_fails_cleanly() {
    let data = tmp("garbage.tsv");
    let fake = tmp("garbage.sccf");
    bin()
        .args([
            "gen",
            "--dataset",
            "games-sim",
            "--out",
            data.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    std::fs::write(&fake, b"this is not a model").unwrap();
    let out = bin()
        .args(["eval", "--data", data.to_str().unwrap()])
        .args(["--model", fake.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not an sccf model file"));
}

#[test]
fn catalog_mismatch_is_detected() {
    let data_a = tmp("cat_a.tsv");
    let data_b = tmp("cat_b.tsv");
    let model = tmp("cat_a.sccf");
    bin()
        .args(["gen", "--dataset", "games-sim", "--seed", "1"])
        .args(["--out", data_a.to_str().unwrap()])
        .output()
        .unwrap();
    bin()
        .args(["gen", "--dataset", "ml1m-sim", "--seed", "2"])
        .args(["--out", data_b.to_str().unwrap()])
        .output()
        .unwrap();
    let out = bin()
        .args(["train", "--data", data_a.to_str().unwrap()])
        .args(["--model", "fism", "--dim", "4", "--epochs", "1"])
        .args(["--out", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    // evaluating against a different catalog must be rejected
    let out = bin()
        .args(["eval", "--data", data_b.to_str().unwrap()])
        .args(["--model", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("items"));
}

#[test]
fn missing_required_flag_prints_usage() {
    let out = bin().args(["train", "--model", "fism"]).output().unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("missing --data") || stderr(&out).contains("usage"));
}

#[test]
fn user_out_of_range_is_rejected() {
    let data = tmp("range.tsv");
    let model = tmp("range.sccf");
    bin()
        .args([
            "gen",
            "--dataset",
            "games-sim",
            "--out",
            data.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    bin()
        .args(["train", "--data", data.to_str().unwrap()])
        .args(["--model", "fism", "--dim", "4", "--epochs", "1"])
        .args(["--out", model.to_str().unwrap()])
        .output()
        .unwrap();
    let out = bin()
        .args(["recommend", "--data", data.to_str().unwrap()])
        .args(["--model", model.to_str().unwrap()])
        .args(["--user", "999999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("out of range"));
}

/// A misspelt flag must not silently run with the default — one case
/// per subcommand family (the generic commands, `serve-shard`, `route`).
#[test]
fn unknown_flags_are_rejected_naming_the_flag() {
    let data = tmp("typo.tsv");
    let _ = std::fs::remove_file(&data);
    let out_path = data.to_str().unwrap();
    let cases: [(&[&str], &str); 3] = [
        (
            &[
                "gen",
                "--dataset",
                "ml1m-sim",
                "--out",
                out_path,
                "--sede",
                "7",
            ],
            "--sede",
        ),
        (&["serve-shard", "--dri", "/data/shard0"], "--dri"),
        (&["route", "--prcs", "3"], "--prcs"),
    ];
    for (args, typo) in cases {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(typo), "{args:?}: {}", stderr(&out));
    }
    assert!(!data.exists(), "gen wrote its output despite the typo");
}

/// Regression: a header claiming a catalog its weights cannot hold
/// used to size the architecture's allocation (0xFFFFFFF0 items × dim
/// 4096 aborted with exit 134). The checksum is valid — a hostile file
/// carries one — so only the size check refuses it.
#[test]
fn hostile_model_header_is_refused_before_allocating() {
    use sccf::models::{Envelope, ModelHeader, ModelKind};
    let data = tmp("hostile.tsv");
    let fake = tmp("hostile.sccf");
    bin()
        .args(["gen", "--dataset", "games-sim"])
        .args(["--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    let weights = sccf::tensor::save_store(&sccf::tensor::ParamStore::new());
    let header = ModelHeader {
        kind: ModelKind::Fism,
        dim: 4096,
        max_len: 50,
        n_items: 0xFFFF_FFF0,
        seed: 1,
    };
    let file = Envelope {
        header,
        weights: &weights,
    }
    .encode();
    std::fs::write(&fake, file).unwrap();
    let out = bin()
        .args(["eval", "--data", data.to_str().unwrap()])
        .args(["--model", fake.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("catalog"), "{}", stderr(&out));
}

/// `sccf train` and `serve-shard` read one format: a CLI model file for
/// another world is refused naming the header field that differs.
#[test]
fn serve_shard_names_the_field_a_foreign_model_file_differs_in() {
    let data = tmp("foreign.tsv");
    let model = tmp("foreign.sccf");
    bin()
        .args(["gen", "--dataset", "games-sim"])
        .args(["--out", data.to_str().unwrap()])
        .output()
        .unwrap();
    let out = bin()
        .args(["train", "--data", data.to_str().unwrap()])
        .args(["--model", "fism", "--dim", "4", "--epochs", "1"])
        .args(["--out", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let out = bin()
        .args(["serve-shard", "--model-file", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("dim is 4"), "{}", stderr(&out));
}
