//! Golden digests of the `analyze` and `modelcheck` gate reports.
//!
//! The gates certify the paper's guarantees outside the simulator, so a
//! change to a certifier, to the model checker, or to either report writer
//! must show up here. This test runs each gate binary exactly as CI does,
//! with `--json` pointed at a scratch file, and hashes its exit status,
//! stdout and JSON report into one row of `tests/golden/report_digests.txt`.
//! Stderr is left out: it carries wall-clock timings.
//!
//! A digest may only change together with a deliberate change to what a
//! gate reports; the failure message prints each changed row as it now
//! reads, for updating the file in that same change.

use rn_radio::Digest;
use std::path::PathBuf;
use std::process::Command;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/report_digests.txt"
);

const ANALYZE: &str = env!("CARGO_BIN_EXE_analyze");
const MODELCHECK: &str = env!("CARGO_BIN_EXE_modelcheck");

/// Every gate invocation CI runs: (row label, binary, arguments before
/// `--json`).
const RUNS: [(&str, &str, &[&str]); 6] = [
    ("analyze", ANALYZE, &[]),
    ("analyze/corrupt", ANALYZE, &["--corrupt"]),
    ("analyze/faults", ANALYZE, &["--faults"]),
    ("modelcheck/quick", MODELCHECK, &["--quick"]),
    (
        "modelcheck/quick/inject-corrupt",
        MODELCHECK,
        &["--quick", "--inject", "corrupt"],
    ),
    (
        "modelcheck/quick/inject-overpromise",
        MODELCHECK,
        &["--quick", "--inject", "overpromise"],
    ),
];

fn text(d: Digest, s: &[u8]) -> Digest {
    let bytes: Vec<u64> = s.iter().copied().map(u64::from).collect();
    d.words(&bytes)
}

fn row(label: &str, exe: &str, args: &[&str]) -> String {
    let json_path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("golden-{}.json", label.replace('/', "-")));
    let output = Command::new(exe)
        .args(args)
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("gate binary runs");
    let json = std::fs::read(&json_path).expect("gate wrote its JSON report");
    std::fs::remove_file(&json_path).expect("scratch report removable");
    let status = output.status.code().expect("gate exited normally");
    let stdout = text(Digest::new(0x0057_d0a7), &output.stdout).finish();
    let json = text(Digest::new(0x05e3_e9d5), &json).finish();
    format!("{label} {status} {stdout:016x} {json:016x}")
}

#[test]
fn report_digests_match_the_golden_file() {
    let mut actual = vec!["# run exit stdout json".to_string()];
    for (label, exe, args) in RUNS {
        actual.push(row(label, exe, args));
    }
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
        "the run list changed; the file now reads:\n{actual}"
    );
    assert!(
        changed.is_empty(),
        "report digests changed ({} rows):\n{}",
        changed.len(),
        changed.join("\n")
    );
}
