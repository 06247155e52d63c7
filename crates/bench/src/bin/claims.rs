//! Checks every claim of the [`perseus_bench::claims`] registry: the
//! incremental solver, the fleet plan cache, Kareus sleep planning,
//! streaming observability, replication and failover, crash recovery, and
//! seeded fault injection. Prints one `== group ==` section per group,
//! each claim as `group/name: HOLDS` or `group/name: FAILED`, and exits 1
//! if any claim failed. Stdout is byte-identical to
//! `tests/golden/claims.txt`, which `cargo test` checks on every run.
//!
//! * `--only <group>` runs one group; an unknown or missing group name
//!   exits 2 and lists the groups.
//! * `--metrics` / `--serve <addr>` as for every report binary; stdout
//!   stays byte-identical.
//!
//! Run: `cargo run --release -p perseus-bench --bin claims \
//!        [-- --only <group>] [--metrics] [--serve 127.0.0.1:9184]`

use perseus_bench::{claims, flag_value, usage_exit, SuiteTelemetry};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let groups = flag_value(&args, "--only")
        .and_then(claims::select)
        .unwrap_or_else(|e| usage_exit(&format!("{e}; groups: {}", claims::group_names())));
    let suite = SuiteTelemetry::from_args(&args).unwrap_or_else(|e| usage_exit(&e));
    let failed = claims::run(groups, &mut std::io::stdout().lock(), suite.telemetry())
        .expect("write to stdout");
    suite.finish();
    if failed > 0 {
        eprintln!("{failed} claim(s) FAILED");
        std::process::exit(1);
    }
}
