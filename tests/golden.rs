//! Golden-trace regression tests: the committed fixtures under
//! `tests/golden/` are the byte-exact outputs of the experiment report
//! generators. Any change to the planning stack that shifts a single
//! digit of a published table fails here — numerical drift must be
//! reviewed (and the fixture regenerated) deliberately, never absorbed
//! silently.
//!
//! Regenerate after an intended change:
//!
//! ```text
//! cargo run --release -p perseus-bench --bin table3_intrinsic > tests/golden/table3_intrinsic.txt
//! cargo run --release -p perseus-bench --bin fig9_frontier    > tests/golden/fig9_frontier.txt
//! ```

/// Byte-for-byte comparison with a readable first-divergence report
/// (a full `assert_eq!` dump of a 400-line table helps no one).
fn assert_matches_golden(got: &str, golden: &str, fixture: &str) {
    if got == golden {
        return;
    }
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "first divergence from tests/golden/{fixture} at line {}",
            i + 1
        );
    }
    panic!(
        "output length diverged from tests/golden/{fixture}: got {} lines, fixture has {}",
        got.lines().count(),
        golden.lines().count()
    );
}

#[test]
fn table3_intrinsic_matches_golden_fixture() {
    let mut buf = Vec::new();
    perseus_bench::table3_report_with(&mut buf, &perseus_telemetry::Telemetry::disabled())
        .expect("render table 3");
    assert_matches_golden(
        &String::from_utf8(buf).expect("utf-8 output"),
        include_str!("golden/table3_intrinsic.txt"),
        "table3_intrinsic.txt",
    );
}

#[test]
fn fig9_frontier_matches_golden_fixture() {
    let mut buf = Vec::new();
    perseus_bench::fig9_report_with(&mut buf, false, &perseus_telemetry::Telemetry::disabled())
        .expect("render figure 9");
    assert_matches_golden(
        &String::from_utf8(buf).expect("utf-8 output"),
        include_str!("golden/fig9_frontier.txt"),
        "fig9_frontier.txt",
    );
}

/// Figure 7/8 attribution breakdowns, rendered from one shared emulator
/// cache. Beyond byte-identity, the embedded claim lines are the
/// acceptance gates of the ledger: intrinsic AND extrinsic bloat both
/// nonzero at slowdown 1.2 (fig7), extrinsic share monotone in the
/// straggler slowdown (fig8). Regenerate deliberately:
///
/// ```text
/// cargo run --release -p perseus-bench --bin fig7_breakdown > tests/golden/fig7_breakdown.txt
/// cargo run --release -p perseus-bench --bin fig8_scaling   > tests/golden/fig8_scaling.txt
/// ```
#[test]
fn breakdown_reports_match_golden_fixtures() {
    let (mut f7, mut f8) = (Vec::new(), Vec::new());
    let rows = perseus_bench::breakdown_reports_with(
        &mut f7,
        &mut f8,
        &perseus_telemetry::Telemetry::disabled(),
    )
    .expect("render breakdown reports");
    let f7 = String::from_utf8(f7).expect("utf-8 output");
    let f8 = String::from_utf8(f8).expect("utf-8 output");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
        std::fs::write(format!("{dir}/fig7_breakdown.txt"), &f7).expect("write fixture");
        std::fs::write(format!("{dir}/fig8_scaling.txt"), &f8).expect("write fixture");
    }
    assert_matches_golden(
        &f7,
        include_str!("golden/fig7_breakdown.txt"),
        "fig7_breakdown.txt",
    );
    assert_matches_golden(
        &f8,
        include_str!("golden/fig8_scaling.txt"),
        "fig8_scaling.txt",
    );
    // The claim lines gate the qualitative shape, not just the digits.
    assert!(f7.contains("intrinsic and extrinsic bloat both nonzero at slowdown 1.2: HOLDS"));
    assert!(f8.contains("grows with straggler slowdown in every config: HOLDS"));
    assert!(!f7.contains("VIOLATED") && !f8.contains("VIOLATED"));
    // Four bars (2 models x 2 policies), all with positive energy, and
    // perseus never bloatier than all-max.
    assert_eq!(rows.len(), 4);
    assert!(rows.iter().all(|r| r.breakdown.total_j() > 0.0));
    for pair in rows.chunks(2) {
        let (allmax, perseus) = (&pair[0].breakdown, &pair[1].breakdown);
        assert!(
            perseus.intrinsic_j + perseus.extrinsic_j < allmax.intrinsic_j + allmax.extrinsic_j
        );
    }
}

// ---- Telemetry neutrality: enabling metrics may never move a digit ----

#[test]
fn table3_with_telemetry_enabled_is_byte_identical() {
    let tel = perseus_telemetry::Telemetry::enabled();
    let mut buf = Vec::new();
    perseus_bench::table3_report_with(&mut buf, &tel).expect("render table 3");
    assert_matches_golden(
        &String::from_utf8(buf).expect("utf-8 output"),
        include_str!("golden/table3_intrinsic.txt"),
        "table3_intrinsic.txt",
    );
    // The run did record something — neutrality is not vacuous.
    assert!(!tel.snapshot().is_empty());
}

#[test]
fn fig9_with_telemetry_enabled_is_byte_identical() {
    let tel = perseus_telemetry::Telemetry::enabled();
    let mut buf = Vec::new();
    perseus_bench::fig9_report_with(&mut buf, false, &tel).expect("render figure 9");
    assert_matches_golden(
        &String::from_utf8(buf).expect("utf-8 output"),
        include_str!("golden/fig9_frontier.txt"),
        "fig9_frontier.txt",
    );
    assert!(!tel.snapshot().is_empty());
}

/// Every claim of the `perseus_bench::claims` registry — solver, fleet,
/// kareus, obs, ha, recovery, chaos — checked on every `cargo test`. The
/// fixture pins the verdicts and every evidence number; the `claims`
/// binary prints the same bytes. Regenerate deliberately:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --test golden claims
/// ```
#[test]
fn claims_match_golden_fixture() {
    let mut buf = Vec::new();
    let failed = perseus_bench::claims::run(
        perseus_bench::claims::GROUPS,
        &mut buf,
        &perseus_telemetry::Telemetry::disabled(),
    )
    .expect("run the claims");
    let got = String::from_utf8(buf).expect("utf-8 output");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/claims.txt"),
            &got,
        )
        .expect("write fixture");
    }
    assert_matches_golden(&got, include_str!("golden/claims.txt"), "claims.txt");
    assert_eq!(failed, 0, "claims FAILED:\n{got}");
}

/// The metrics text format itself is a stable interface: a fixed metric
/// program (explicit values only — no wall-clock anywhere) must render to
/// the committed fixture byte for byte. Regenerate deliberately after an
/// intended format change:
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --test golden metrics_snapshot
/// ```
#[test]
fn metrics_snapshot_matches_golden_fixture() {
    let tel = perseus_telemetry::Telemetry::enabled();
    tel.counter("perseus_flow_max_flow_calls_total").add(3);
    tel.counter_with(
        "perseus_server_degraded_lookups_total",
        &[("job", "gpt3-xl")],
    )
    .inc();
    tel.counter_with(
        "perseus_server_degraded_lookups_total",
        &[("job", "bloom-176b")],
    )
    .add(2);
    tel.float_counter_with(
        "perseus_emulator_stage_busy_seconds_total",
        &[("policy", "perseus"), ("stage", "0")],
    )
    .add(1.5);
    tel.gauge("perseus_server_workers_busy").set(2);
    let lookups = tel.histogram_with("perseus_server_lookup_seconds", &[("job", "gpt3-xl")]);
    lookups.observe(5e-7);
    lookups.observe(2e-6);
    lookups.observe(0.25);
    let got = tel.snapshot().render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/metrics_snapshot.txt"
            ),
            &got,
        )
        .expect("write fixture");
    }
    assert_matches_golden(
        &got,
        include_str!("golden/metrics_snapshot.txt"),
        "metrics_snapshot.txt",
    );
}
