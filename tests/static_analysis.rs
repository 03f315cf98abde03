//! Property tests for the static analyzer (`rn-analyze`) over every
//! topology registry preset and every general scheme.
//!
//! Two contracts are hunted for counterexamples here:
//!
//! 1. **Exactness** — on a well-formed labeling, the analyzer's symbolic
//!    schedule derivation predicts the *exact* simulated timeline:
//!    `analyze_and_cross_check` must certify every preset × scheme point,
//!    which implies predicted completion == simulated completion
//!    byte-for-byte (the cross-check diffs every predicted column).
//! 2. **Fault detection** — a seeded single-label corruption must come back
//!    as a *located* [`Finding`] (one that names a node), never a panic and
//!    never a silent pass. The corruption strategies mirror the `analyze`
//!    binary's `--corrupt` mode.

use proptest::prelude::*;
use radio_labeling::analyze::{analyze_and_cross_check, certify_labeled, Finding};
use radio_labeling::broadcast::session::{Scheme, Session};
use radio_labeling::graph::generators::TopologyFamily;
use radio_labeling::graph::Graph;
use rn_modelcheck::corrupt_labeling;
use std::sync::Arc;

/// Strategy: a preset family index, a size, a seed, and a general-scheme
/// index — every (preset, scheme) pair is reachable.
fn analysis_point() -> impl Strategy<Value = (usize, usize, u64, usize)> {
    (
        0usize..TopologyFamily::PRESETS.len(),
        6usize..=32,
        any::<u64>(),
        0usize..Scheme::GENERAL.len(),
    )
}

fn generate(idx: usize, n: usize, seed: u64) -> Graph {
    TopologyFamily::PRESETS[idx]
        .generate(n, seed)
        .expect("presets generate for every n >= 4")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn predicted_timeline_matches_simulation_on_every_preset(
        (idx, n, seed, s) in analysis_point()
    ) {
        let scheme = Scheme::GENERAL[s];
        let g = Arc::new(generate(idx, n, seed));
        let session = Session::builder(scheme, Arc::clone(&g)).build().unwrap();
        let report = session.run();
        let cert = analyze_and_cross_check(&session, &report);
        prop_assert!(
            cert.is_ok(),
            "{} n={} {}: {:?}",
            TopologyFamily::PRESETS[idx].name(),
            g.node_count(),
            scheme.name(),
            cert.err()
        );
        let cert = cert.unwrap();
        prop_assert_eq!(cert.completion_round, report.completion_round);
        prop_assert!(cert.completion_round.unwrap() <= cert.round_bound);
    }

    #[test]
    fn corrupted_labelings_yield_located_findings(
        (idx, n, seed, s) in analysis_point()
    ) {
        let scheme = Scheme::GENERAL[s];
        let g = Arc::new(generate(idx, n, seed));
        let session = Session::builder(scheme, Arc::clone(&g)).build().unwrap();
        let corrupted = corrupt_labeling(&session, &g).0;
        // The analyzer must reject the corruption — never panic, never
        // certify — and at least one finding must name a node.
        let result = certify_labeled(
            scheme,
            &g,
            &corrupted,
            session.source(),
            session.sources(),
            session.coordinator(),
            session.collection_plan(),
        );
        let findings = result.err();
        prop_assert!(
            findings.is_some(),
            "{} n={} {}: corrupted labeling certified",
            TopologyFamily::PRESETS[idx].name(),
            g.node_count(),
            scheme.name()
        );
        let findings = findings.unwrap();
        prop_assert!(
            findings.iter().any(Finding::is_located),
            "{} n={} {}: no located finding in {findings:?}",
            TopologyFamily::PRESETS[idx].name(),
            g.node_count(),
            scheme.name()
        );
    }
}
