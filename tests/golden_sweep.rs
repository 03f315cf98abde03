//! Golden digests of the named `sweep --quick` reports.
//!
//! Every named sweep runs on the default delivery engine, so a change to
//! that engine (or to `Session`, labeling, or the emitters) moves every
//! report at once — an engine-vs-engine comparison cannot see it. This test
//! runs each registered sweep exactly as `sweep <name> --quick` does and
//! hashes its JSON and CSV reports into one row of
//! `tests/golden/sweep_digests.txt`; one extra row pins `smoke` with the
//! static certification preflight on (`--verify-static`), which fills the
//! predicted-round column.
//!
//! A digest may only change together with a deliberate change to what a
//! sweep reports; the failure message prints each changed row as it now
//! reads, for updating the file in that same change.

use radio_labeling::experiments::emit;
use radio_labeling::experiments::scenario::{named, sweep_names};
use radio_labeling::experiments::SweepSpec;
use radio_labeling::radio::Digest;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sweep_digests.txt"
);

fn text(d: Digest, s: &str) -> Digest {
    let bytes: Vec<u64> = s.bytes().map(u64::from).collect();
    d.words(&bytes)
}

fn row(label: &str, spec: &SweepSpec) -> String {
    let report = spec.run().expect("named sweeps run");
    let json = text(Digest::new(0x05e3_e9d5), &emit::to_json(&report)).finish();
    let csv = text(Digest::new(0x00c5_7d95), &emit::to_csv(&report)).finish();
    format!("{label} {} {json:016x} {csv:016x}", report.records.len())
}

#[test]
fn sweep_digests_match_the_golden_file() {
    let mut actual = vec!["# sweep records json csv".to_string()];
    for name in sweep_names() {
        let spec = named(name).expect("registered name").quick();
        actual.push(row(name, &spec));
    }
    let smoke = named("smoke").expect("smoke is registered").quick();
    actual.push(row("smoke/verify-static", &smoke.verify_static(true)));
    let actual = actual.join("\n") + "\n";
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file is committed");
    let changed: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .map(|(g, a)| format!("  golden: {g}\n  actual: {a}"))
        .collect();
    assert_eq!(
        golden.lines().count(),
        actual.lines().count(),
        "the sweep list changed; the file now reads:\n{actual}"
    );
    assert!(
        changed.is_empty(),
        "sweep digests changed ({} rows):\n{}",
        changed.len(),
        changed.join("\n")
    );
}
