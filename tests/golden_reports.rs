//! Golden-report snapshot tests: fixed spec fixtures under `tests/golden/`
//! and their expected `RunReport` JSON, compared verbatim.
//!
//! The expected files were generated by the **pre-buffer-refactor** engine
//! (`byzcount-cli run <spec>` at commit `b6eb5f6`), so these tests prove
//! the zero-allocation message path produces byte-identical reports — and
//! from now on, any spec- or report-schema drift, any engine behaviour
//! change, and any serialization change must show up as a failing diff
//! here before it can land silently.
//!
//! To regenerate after an *intentional* change:
//! `cargo run -p byzcount-cli -- run tests/golden/<spec>.json > tests/golden/<report>.json`

use byzcount::sim::{RunReport, RunSpec};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Execute a golden spec and compare the report to the checked-in expected
/// JSON byte-for-byte (modulo the shell-added trailing newline).
fn check_golden(spec_file: &str, report_file: &str) {
    let spec = RunSpec::from_json(&fixture(spec_file)).expect("golden spec parses");
    let report = byzcount::sim::execute(&spec).expect("golden spec runs");
    let expected = fixture(report_file);
    let expected_trimmed = expected.trim_end_matches('\n');
    assert_eq!(
        report.to_json(),
        expected_trimmed,
        "report for {spec_file} drifted from the checked-in golden output \
         {report_file}; if the change is intentional, regenerate the fixture"
    );
    // The expected file itself must round-trip through the report parser —
    // guarding the report schema, not just the run behaviour.
    let parsed = RunReport::from_json(expected_trimmed).expect("golden report parses");
    assert_eq!(parsed.to_json(), expected_trimmed);
    assert_eq!(parsed, report);
}

#[test]
fn golden_v1_spec_report_is_byte_stable() {
    // A verbatim version-1 spec (no `fault` field): locks both the v1
    // migration path and the clean-network engine behaviour.
    let raw = fixture("run_spec_v1.json");
    assert!(
        !raw.contains("fault"),
        "the v1 fixture must predate the fault layer"
    );
    assert!(raw.contains("\"version\": 1"));
    check_golden("run_spec_v1.json", "run_report_v1.json");
}

#[test]
fn golden_v2_faulty_spec_report_is_byte_stable() {
    // A version-2 spec with the full fault stack (loss + delay + churn +
    // partition): locks the fault-layer RNG streams, the deferred-delivery
    // path and churn bookkeeping.
    let raw = fixture("run_spec_v2_faulty.json");
    assert!(raw.contains("\"Compose\""));
    check_golden("run_spec_v2_faulty.json", "run_report_v2_faulty.json");
}

#[test]
fn golden_v4_async_spec_report_is_byte_stable() {
    // A version-4 spec on the event-driven engine with heterogeneous
    // clocks (every fourth node at a third of the network speed) plus
    // loss + delay faults: locks the async engine's event order, virtual-
    // clock scheduling, deferred-delivery accounting and expiry behaviour
    // byte-for-byte.  This is the checked-in fixture for the genuinely-
    // asynchronous scenario space the sync engine cannot express.
    let raw = fixture("run_spec_v4_async.json");
    assert!(raw.contains("\"Async\""));
    assert!(raw.contains("\"Stratified\""));
    check_golden("run_spec_v4_async.json", "run_report_v4_async.json");
}

#[test]
fn golden_v5_sharded_async_spec_report_is_byte_stable() {
    // A version-5 spec on the sharded-async engine (S = 4, stratified
    // clocks) plus loss + delay faults: locks the per-shard deferral
    // rings, the cross-shard routing order and the sparse-ticking
    // accounting byte-for-byte against the unsharded async semantics.
    let raw = fixture("run_spec_v5_sharded_async.json");
    assert!(raw.contains("\"ShardedAsync\""));
    assert!(raw.contains("\"Stratified\""));
    check_golden(
        "run_spec_v5_sharded_async.json",
        "run_report_v5_sharded_async.json",
    );
}

#[test]
fn golden_reports_embed_their_migrated_specs() {
    // A golden report is self-describing: its embedded spec re-executes to
    // the same bytes (report → spec → report is a fixed point).
    for report_file in [
        "run_report_v1.json",
        "run_report_v2_faulty.json",
        "run_report_v4_async.json",
        "run_report_v5_sharded_async.json",
    ] {
        let report =
            RunReport::from_json(fixture(report_file).trim_end_matches('\n')).expect("parses");
        let rerun = byzcount::sim::execute(&report.spec).expect("embedded spec runs");
        assert_eq!(
            rerun.to_json(),
            report.to_json(),
            "{report_file}: embedded spec must reproduce the report"
        );
    }
}
