//! Bad command-line flags fail loudly: a mistyped or valueless flag exits
//! with status 2 and says why, before any work runs, so a typo can never
//! turn the claims gate into a vacuous pass.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "no work may run before a usage error"
    );
    assert!(
        stderr.contains(needle),
        "{stderr:?} should contain {needle:?}"
    );
}

#[test]
fn claims_rejects_unknown_or_missing_group_and_lists_the_groups() {
    let claims = env!("CARGO_BIN_EXE_claims");
    let groups = "groups: solver, fleet, kareus, obs, ha, recovery, chaos";
    for args in [
        &["--only", "nope"][..],
        &["--only"],
        &["--only", "--metrics"],
    ] {
        assert_usage_error(&run(claims, args), groups);
    }
}

#[test]
fn serve_without_an_address_exits_2() {
    assert_usage_error(
        &run(env!("CARGO_BIN_EXE_claims"), &["--serve"]),
        "--serve needs a value",
    );
    assert_usage_error(
        &run(env!("CARGO_BIN_EXE_emulation_suite"), &["--serve"]),
        "--serve needs a value",
    );
}

#[test]
fn fig7_svg_without_a_path_exits_2() {
    assert_usage_error(
        &run(env!("CARGO_BIN_EXE_fig7_breakdown"), &["--svg"]),
        "--svg needs a value",
    );
}
