//! Golden digests of the `repro` paper tables.
//!
//! The paper tables (E1–E10 and the A1 ablations) are the reproduction's
//! headline output, and a refactor of the harness underneath them — the
//! instance registry, the sweep fan-out — must leave them byte-identical.
//! This test runs `experiments::run_all` on the `repro --quick` grid
//! (sizes {8, 16, 32, 64}, seeds {1, 2}) and hashes each table — title,
//! headers, every cell and every note — into one row of
//! `tests/golden/repro_digests.txt`.
//!
//! E8 times the labeling constructions with a wall clock, so its row
//! digests only the deterministic `family`, `n` and `m` columns.
//!
//! A digest may only change together with a deliberate change to what a
//! table prints; the failure message prints each changed row as it now
//! reads, for updating the file in that same change.

use radio_labeling::experiments::experiments::run_all;
use radio_labeling::experiments::{ExperimentConfig, Table};
use radio_labeling::radio::Digest;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/repro_digests.txt"
);

/// The grid `repro --quick` runs.
fn quick_config() -> ExperimentConfig {
    ExperimentConfig {
        sizes: vec![8, 16, 32, 64],
        seeds: vec![1, 2],
        threads: 2,
    }
}

/// Columns of E8 that do not depend on the wall clock.
const E8_DETERMINISTIC_COLUMNS: usize = 3;

fn text(d: Digest, s: &str) -> Digest {
    let bytes: Vec<u64> = s.bytes().map(u64::from).collect();
    d.words(&bytes)
}

fn texts(d: Digest, ss: &[String]) -> Digest {
    ss.iter().fold(d.word(ss.len() as u64), |d, s| text(d, s))
}

/// The table id: its title up to the first `:` (`E2`, `A1b`, …).
fn id(t: &Table) -> &str {
    t.title.split(':').next().unwrap_or(&t.title)
}

fn row(t: &Table) -> String {
    let id = id(t);
    let width = if id == "E8" {
        E8_DETERMINISTIC_COLUMNS
    } else {
        t.headers.len()
    };
    let mut d = text(Digest::new(0x601d_5e90), &t.title);
    d = texts(d, &t.headers[..width]);
    d = d.word(t.rows.len() as u64);
    for cells in &t.rows {
        d = texts(d, &cells[..width]);
    }
    d = texts(d, &t.notes);
    format!("{id} {} {:016x}", t.rows.len(), d.finish())
}

#[test]
fn repro_digests_match_the_golden_file() {
    let actual: Vec<String> = std::iter::once("# table rows digest".to_string())
        .chain(run_all(&quick_config()).iter().map(row))
        .collect();
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
        "the table list changed; the file now reads:\n{actual}"
    );
    assert!(
        changed.is_empty(),
        "repro digests changed ({} rows):\n{}",
        changed.len(),
        changed.join("\n")
    );
}
