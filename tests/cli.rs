//! Integration tests for the `perseus` CLI binary.

use std::process::Command;

fn perseus(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perseus"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn models_lists_the_zoo() {
    let (ok, stdout, _) = perseus(&["models"]);
    assert!(ok);
    for name in [
        "gpt3-175b",
        "bloom-3b",
        "t5-3b",
        "wide-resnet101-8",
        "llama2-70b",
    ] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn partition_prints_boundaries_and_ratio() {
    let (ok, stdout, _) = perseus(&["partition", "gpt3-xl", "--stages", "4"]);
    assert!(ok);
    assert!(stdout.contains("imbalance ratio"));
    assert!(stdout.contains("[0,"));
    assert!(stdout.contains("stage 3:"));
}

#[test]
fn frontier_reports_savings() {
    let (ok, stdout, _) = perseus(&[
        "frontier",
        "bert-base",
        "--stages",
        "2",
        "--microbatches",
        "4",
    ]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("T_min"));
    assert!(stdout.contains("intrinsic savings"));
}

#[test]
fn frontier_csv_is_parseable() {
    let (ok, stdout, _) = perseus(&[
        "frontier",
        "bert-base",
        "--stages",
        "2",
        "--microbatches",
        "4",
        "--csv",
    ]);
    assert!(ok);
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("time_s,energy_j"));
    let mut n = 0;
    for l in lines {
        let mut parts = l.split(',');
        let t: f64 = parts.next().unwrap().parse().expect("time parses");
        let e: f64 = parts.next().unwrap().parse().expect("energy parses");
        assert!(t > 0.0 && e > 0.0);
        n += 1;
    }
    assert!(n > 5, "expected several frontier rows, got {n}");
}

#[test]
fn unknown_model_and_command_fail_cleanly() {
    let (ok, _, stderr) = perseus(&["partition", "gpt5-mega"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"));
    let (ok, _, stderr) = perseus(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (ok, _, stderr) = perseus(&["frontier", "bert-base", "--stages", "zebra"]);
    assert!(!ok);
    assert!(stderr.contains("expects an integer"));
    let (ok, _, stderr) = perseus(&[
        "emulate",
        "gpt3-xl",
        "--stages",
        "4",
        "--microbatches",
        "8",
        "--pipelines",
        "0",
        "--straggler",
        "1.2",
    ]);
    assert!(!ok);
    assert!(stderr.contains("pipeline count must be positive"));
}

#[test]
fn help_shows_usage() {
    let (ok, stdout, _) = perseus(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage:"));
}
