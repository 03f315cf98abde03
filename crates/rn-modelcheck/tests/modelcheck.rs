//! Integration tests for the bounded model checker. Dev-profile friendly:
//! bounds stay at n <= 5 so the exhaustive sweeps finish quickly without
//! optimisation; CI's release-mode gate pushes the same sweeps to n = 7.

use rn_broadcast::session::Scheme;
use rn_graph::{generators, Graph};
use rn_modelcheck::{
    check_overpromise_point, check_point, parse_repro, replay, repro_spec, run_check,
    run_corrupt_injection, run_overpromise_injection, ModelCheckConfig, ReproMode, ViolationKind,
};
use rn_radio::FaultPlan;
use std::sync::Arc;

fn small_config() -> ModelCheckConfig {
    ModelCheckConfig {
        max_n: 4,
        trees_max_n: 5,
        schemes: Scheme::GENERAL.to_vec(),
        shrink: true,
    }
}

#[test]
fn clean_sweep_finds_nothing() {
    let report = run_check(&small_config());
    assert!(
        report.ok(),
        "expected a clean sweep, got witnesses:\n{}",
        report
            .witnesses
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // 1 + 1 + 2 + 6 connected graphs (n <= 4) plus 3 trees (n = 5).
    assert_eq!(report.graphs_checked, 13);
    assert_eq!(report.points_checked, 13 * Scheme::GENERAL.len());
    // The wake-hint audit actually examined states and replayed hints.
    assert!(report.wake.states_checked > 0);
    assert!(report.wake.hints_audited > 0);
    assert!(report.wake.steps_replayed > 0);
}

#[test]
fn corrupt_injection_is_caught_everywhere() {
    let config = ModelCheckConfig {
        max_n: 4,
        trees_max_n: 4,
        shrink: false,
        ..small_config()
    };
    let report = run_corrupt_injection(&config);
    // Every corruptible point (n >= 2) must yield a located finding:
    // 9 graphs with n >= 2, every scheme.
    assert_eq!(report.witnesses.len(), 9 * Scheme::GENERAL.len());
    for witness in &report.witnesses {
        assert_eq!(witness.violation.kind.code(), "certification");
        assert_eq!(witness.mode, ReproMode::Corrupt);
        let ViolationKind::Certification { findings } = &witness.violation.kind else {
            panic!("corrupt injection produced {:?}", witness.violation.kind);
        };
        assert!(findings[0].starts_with("injected: "));
    }
}

#[test]
fn corrupt_witnesses_shrink_to_minimal_graphs() {
    let config = ModelCheckConfig {
        max_n: 4,
        trees_max_n: 0,
        schemes: vec![Scheme::UniqueIds],
        shrink: true,
    };
    let report = run_corrupt_injection(&config);
    assert!(!report.witnesses.is_empty());
    for witness in &report.witnesses {
        // A duplicated-id defect needs only the two colliding nodes.
        assert_eq!(witness.graph.node_count(), 2, "witness: {witness}");
        assert!(witness.repro_command().contains("mode=corrupt"));
        // The spec replays to the same invariant class.
        let point = parse_repro(&witness.repro_spec()).expect("witness spec parses");
        let violation = replay(&point).expect("witness reproduces");
        assert_eq!(violation.kind.code(), "certification");
    }
}

#[test]
fn overpromise_is_caught_and_shrinks_to_an_edge() {
    let report = run_overpromise_injection(&ModelCheckConfig {
        max_n: 4,
        trees_max_n: 5,
        shrink: true,
        ..small_config()
    });
    // Every graph with an edge lets the dishonest relay overpromise; only
    // the 1-node graph stays silent.
    assert_eq!(report.witnesses.len(), report.graphs_checked - 1);
    for witness in &report.witnesses {
        assert_eq!(witness.violation.kind.code(), "wake_hint");
        assert_eq!(witness.violation.scheme, None);
        assert_eq!(witness.mode, ReproMode::Overpromise);
        // The minimal dishonest network is a single edge.
        assert_eq!(witness.graph.node_count(), 2, "witness: {witness}");
        assert_eq!(witness.graph.edge_count(), 1);
        assert!(witness.repro_spec().contains("mode=overpromise"));
        assert!(!witness.repro_spec().contains("scheme="));
    }
}

#[test]
fn overpromise_witness_replays_through_spec() {
    let graph = Arc::new(generators::path(3));
    let violation = check_overpromise_point(&graph).expect("path overpromises");
    let spec = repro_spec(&graph, None, &FaultPlan::none(), ReproMode::Overpromise);
    let point = parse_repro(&spec).expect("spec parses");
    assert_eq!(point.mode, ReproMode::Overpromise);
    assert_eq!(point.scheme, None);
    let replayed = replay(&point).expect("replay reproduces");
    assert_eq!(replayed.kind.code(), violation.kind.code());
}

#[test]
fn faulted_points_still_check() {
    // The invariant checker runs under fault plans too (certification and
    // schedule checks are skipped; engine agreement, physics, the round
    // cap and the wake-hint audit still apply).
    let graph = Arc::new(generators::path(4));
    let faults = FaultPlan::none().crash(3, 2).jam(2, 1, 2);
    let audit = check_point(&graph, Scheme::Lambda, &faults).expect("faulted point is consistent");
    assert!(audit.rounds_executed > 0);
    assert!(audit.wake.states_checked > 0);
}

#[test]
fn repro_spec_roundtrips_with_faults() {
    let graph = generators::cycle(4);
    let faults = FaultPlan::none()
        .crash(1, 3)
        .jam(2, 1, 4)
        .drop_message(3, 2)
        .corrupt(0, 5)
        .late_wake(2, 1);
    let spec = repro_spec(&graph, Some(Scheme::LambdaAck), &faults, ReproMode::Check);
    let point = parse_repro(&spec).expect("spec parses");
    assert_eq!(point.scheme, Some(Scheme::LambdaAck));
    assert_eq!(point.mode, ReproMode::Check);
    assert_eq!(point.graph.node_count(), 4);
    assert_eq!(point.graph.edge_count(), 4);
    assert_eq!(point.faults.events(), faults.events());
    // And the spec is stable under a second trip.
    assert_eq!(
        repro_spec(&point.graph, point.scheme, &point.faults, point.mode),
        spec
    );
}

#[test]
fn parse_repro_rejects_malformed_specs() {
    assert!(parse_repro("").is_err());
    assert!(parse_repro("n=3").is_err(), "missing edges");
    assert!(
        parse_repro("n=2;edges=0-1").is_err(),
        "missing scheme outside overpromise mode"
    );
    assert!(parse_repro("n=2;edges=0-1;mode=overpromise").is_ok());
    assert!(parse_repro("scheme=nonsense;n=2;edges=0-1").is_err());
    assert!(parse_repro("scheme=lambda;n=2;edges=0-1;faults=explode:0@1").is_err());
    assert!(parse_repro("scheme=lambda;n=2;edges=0-1;bogus=1").is_err());
    // The graph must be simple and in range; a repeated edge is named with
    // its smaller endpoint first, whichever orientation repeated it.
    let err = parse_repro("scheme=lambda;n=3;edges=0-1,1-2,1-0").unwrap_err();
    assert!(err.contains("(0, 1)"), "{err}");
    assert!(
        parse_repro("scheme=lambda;n=2;edges=0-0").is_err(),
        "self-loop"
    );
    assert!(
        parse_repro("scheme=lambda;n=2;edges=0-2").is_err(),
        "out of range"
    );
}

#[test]
fn single_node_graph_checks_cleanly() {
    let graph = Arc::new(Graph::from_edges(1, &[]).unwrap());
    for scheme in Scheme::GENERAL {
        check_point(&graph, scheme, &FaultPlan::none()).unwrap_or_else(|v| panic!("n=1 {v}"));
    }
}
