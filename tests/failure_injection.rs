//! Failure-injection tests: corrupt the labeling (or withhold it entirely)
//! and verify that (a) the broadcast really does break, and (b) the
//! verification oracles detect the breakage. This guards against the oracles
//! being vacuously satisfied.
//!
//! The label-corruption tests drive [`BNode::network`] and a raw
//! [`Simulator`] on purpose: the [`Session`] API only constructs *correct*
//! labelings, so a deliberately wrong labeling has to bypass it. Everything
//! that does not need a corrupted labeling goes through `Session` — run-time
//! fault injection in particular uses the first-class
//! [`FaultPlan`](radio_labeling::radio::FaultPlan) support.

use radio_labeling::broadcast::algo_b::BNode;
use radio_labeling::broadcast::session::{Scheme, Session};
use radio_labeling::broadcast::verify;
use radio_labeling::graph::generators;
use radio_labeling::labeling::{lambda, Label, Labeling};
use radio_labeling::radio::{FaultPlan, Simulator, StopCondition};
use rand::seq::SliceRandom;
use rand::SeedableRng;

const MSG: u64 = 77;

/// Runs Algorithm B from `source` under an arbitrary (possibly corrupted)
/// labeling and returns the round each node was first informed. This is the
/// one place the suite bypasses `Session` — see the module docs.
fn run_b_with_labeling(
    g: &radio_labeling::graph::Graph,
    labeling: &Labeling,
    source: usize,
    cap: u64,
) -> Vec<Option<u64>> {
    let nodes = BNode::network(labeling, source, MSG);
    let mut sim = Simulator::new(g.clone(), nodes);
    sim.run_until(StopCondition::AfterRounds(cap), |_| false);
    verify::first_payload_rounds(sim.trace(), g.node_count(), source, |m| {
        matches!(m, radio_labeling::broadcast::BMessage::Data(_))
    })
}

#[test]
fn all_zero_labels_stall_immediately_beyond_the_source_neighbourhood() {
    // With every label 00 nobody ever relays: only Γ(source) is informed.
    let g = generators::grid(4, 5);
    let labeling = Labeling::new(vec![Label::two_bits(false, false); 20], "all-zero");
    let informed = run_b_with_labeling(&g, &labeling, 0, 100);
    let informed_count = informed.iter().filter(|r| r.is_some()).count();
    assert_eq!(informed_count, 1 + g.degree(0));
    assert!(verify::check_theorem_2_9(verify::completion_round(&informed), 20).is_err());
}

#[test]
fn shuffled_lambda_labels_break_the_guarantee_and_are_detected() {
    // Take a correct λ labeling and permute it among the nodes: the label
    // *multiset* is fine but the structure is destroyed. On a long path this
    // must fail (with high probability for any non-trivial permutation); the
    // oracle must notice.
    let g = generators::path(24);
    let correct = lambda::construct(&g, 0).unwrap();
    let mut labels: Vec<Label> = (0..24).map(|v| correct.labeling().get(v)).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    labels.shuffle(&mut rng);
    // Make sure we actually changed something.
    assert_ne!(
        labels,
        (0..24)
            .map(|v| correct.labeling().get(v))
            .collect::<Vec<_>>()
    );
    let corrupted = Labeling::new(labels, "shuffled");
    let informed = run_b_with_labeling(&g, &corrupted, 0, 200);
    let completion = verify::completion_round(&informed);
    // Either the broadcast stalls (some node never informed) or it violates
    // the Lemma 2.8 schedule; on a shuffled path it stalls.
    assert!(
        completion.is_none(),
        "shuffled labels unexpectedly completed: {informed:?}"
    );
    assert!(verify::check_theorem_2_9(completion, 24).is_err());
}

#[test]
fn wrong_source_construction_is_detected_by_the_lemma_check() {
    // Labels built for source 0 but executed from source 5: the run may even
    // complete, but the Lemma 2.8 characterisation against the source-0
    // construction must fail — demonstrating that the oracle checks the
    // schedule and not merely completion. (Raw simulator again: `Session`
    // would rebuild a correct labeling for source 5.)
    let g = generators::cycle(12);
    let scheme_for_0 = lambda::construct(&g, 0).unwrap();
    let nodes = BNode::network(scheme_for_0.labeling(), 5, MSG);
    let mut sim = Simulator::new(g, nodes);
    sim.run_until(StopCondition::QuietFor { quiet: 3, cap: 100 }, |_| false);
    assert!(verify::check_lemma_2_8(
        sim.trace(),
        scheme_for_0.construction(),
        scheme_for_0.labeling()
    )
    .is_err());
}

#[test]
fn stripping_x1_bits_stalls_broadcast_on_a_path() {
    // x1 marks the transmitters of Algorithm B's schedule: with every x1
    // bit erased nobody relays, so nothing beyond Γ(source) is ever
    // informed and Theorem 2.9 is violated.
    let g = generators::path(30);
    let correct = lambda::construct(&g, 0).unwrap();
    let no_x1: Vec<Label> = (0..30)
        .map(|v| Label::two_bits(false, correct.labeling().get(v).x2()))
        .collect();
    let informed = run_b_with_labeling(&g, &Labeling::new(no_x1, "no-x1"), 0, 200);
    let completion = verify::completion_round(&informed);
    assert!(completion.is_none(), "no-x1 run completed: {informed:?}");
    assert!(verify::check_theorem_2_9(completion, 30).is_err());
    // Only the source's neighbourhood ever hears the message.
    let informed_count = informed.iter().filter(|r| r.is_some()).count();
    assert_eq!(informed_count, 1 + g.degree(0));
}

#[test]
fn stripping_x2_bits_on_a_path_still_meets_theorem_2_9() {
    // x2 marks the "stay" senders that keep a dominator transmitting for
    // several rounds. On a path every dominator transmits exactly once, so
    // the x2 bits are never load-bearing there: erasing them must leave the
    // broadcast complete and within the Theorem 2.9 bound of 2n - 3. (The
    // x1 test above is the counterpart where stripping a bit *must* stall.)
    let g = generators::path(30);
    let correct = lambda::construct(&g, 0).unwrap();
    let no_x2: Vec<Label> = (0..30)
        .map(|v| Label::two_bits(correct.labeling().get(v).x1(), false))
        .collect();
    let informed = run_b_with_labeling(&g, &Labeling::new(no_x2, "no-x2"), 0, 200);
    let completion = verify::completion_round(&informed);
    assert!(
        verify::check_theorem_2_9(completion, 30).is_ok(),
        "no-x2 path run broke Theorem 2.9: {completion:?}"
    );
    assert!(completion.is_some_and(|c| c <= 2 * 30 - 3));
}

#[test]
fn session_fault_injection_breaks_broadcast_and_the_report_says_where() {
    // The Session-level counterpart of the corruption tests: a *correct*
    // labeling, but a crashed relay at run time. The robustness columns of
    // the report must localise the damage.
    let g = generators::path(16);
    let session = Session::builder(Scheme::Lambda, g)
        .faults(FaultPlan::none().crash(7, 1))
        .build()
        .unwrap();
    let report = session.run();
    assert!(!report.completed());
    assert_eq!(report.faults_injected, 1);
    // Everything up to the crashed node is informed, nothing past it.
    assert!(report.informed_rounds[6].is_some());
    assert!(report.informed_rounds[8].is_none());
    assert!(report.delivery_rate < 1.0);
    assert_eq!(report.stalled_at, report.informed_rounds[6]);
}

#[test]
fn session_builder_rejects_invalid_inputs() {
    let disconnected = radio_labeling::graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
    assert!(Session::builder(Scheme::Lambda, disconnected)
        .build()
        .is_err());
    let g = std::sync::Arc::new(generators::path(5));
    let build = |scheme| Session::builder(scheme, std::sync::Arc::clone(&g));
    assert!(build(Scheme::Lambda).source(99).build().is_err());
    assert!(build(Scheme::LambdaArb).coordinator(99).build().is_err());
    assert!(build(Scheme::LambdaArb).source(99).build().is_err());
    assert!(build(Scheme::Lambda)
        .faults(FaultPlan::none().crash(99, 1))
        .build()
        .is_err());
    assert!(build(Scheme::OneBitGrid { rows: 1, cols: 5 })
        .source(9)
        .build()
        .is_err());
}

/// Builds a session for `scheme` on `g` under `plan` with `engine` and
/// returns its report plus its recorded trace shape. Used by the fault-plan
/// edge-case tests below, which pin degenerate plans to identical behaviour
/// across both engines.
fn faulted_run(
    scheme: Scheme,
    g: &std::sync::Arc<radio_labeling::graph::Graph>,
    plan: &FaultPlan,
    engine: radio_labeling::radio::Engine,
) -> (
    radio_labeling::broadcast::session::RunReport,
    radio_labeling::radio::TraceShape,
) {
    Session::builder(scheme, std::sync::Arc::clone(g))
        .engine(engine)
        .faults(plan.clone())
        .build()
        .unwrap()
        .run_shaped()
}

/// Both engines, reference first.
const ALL_ENGINES: [radio_labeling::radio::Engine; 2] = [
    radio_labeling::radio::Engine::ListenerCentric,
    radio_labeling::radio::Engine::EventDriven,
];

#[test]
fn zero_length_jam_is_a_complete_noop_on_every_engine() {
    // A jam spanning zero rounds is never effective: the run must be
    // byte-identical to the fault-free run — report, trace shape and the
    // `faults_injected` accounting — on every engine.
    let g = std::sync::Arc::new(generators::path(9));
    let dud = FaultPlan::none().jam(4, 3, 0);
    for scheme in [Scheme::Lambda, Scheme::LambdaAck] {
        for engine in ALL_ENGINES {
            let (clean, clean_shape) = faulted_run(scheme, &g, &FaultPlan::none(), engine);
            let (jammed, jammed_shape) = faulted_run(scheme, &g, &dud, engine);
            assert_eq!(jammed, clean, "{} [{engine:?}]", scheme.name());
            assert_eq!(jammed_shape, clean_shape, "{} [{engine:?}]", scheme.name());
            assert_eq!(jammed.faults_injected, 0);
        }
    }
}

#[test]
fn duplicate_crash_events_behave_like_the_earliest_crash() {
    // Two crash events for the same node collapse to the earliest round.
    // The duplicate changes the injection *count* (the plan really carries
    // two events) but must not change the executed timeline, and both
    // engines must agree event-for-event.
    let g = std::sync::Arc::new(generators::path(10));
    let dup = FaultPlan::none().crash(5, 6).crash(5, 3);
    let single = FaultPlan::none().crash(5, 3);
    let (ref_report, ref_shape) = faulted_run(Scheme::Lambda, &g, &dup, ALL_ENGINES[0]);
    for engine in ALL_ENGINES {
        let (report, shape) = faulted_run(Scheme::Lambda, &g, &dup, engine);
        assert_eq!(report, ref_report, "duplicate crash [{engine:?}]");
        assert_eq!(shape, ref_shape, "duplicate crash [{engine:?}]");
        let (baseline, baseline_shape) = faulted_run(Scheme::Lambda, &g, &single, engine);
        assert_eq!(shape, baseline_shape, "dup vs single timeline [{engine:?}]");
        assert_eq!(report.informed_rounds, baseline.informed_rounds);
        assert_eq!(report.completion_round, baseline.completion_round);
    }
}

#[test]
fn crash_and_late_wake_on_the_same_node_pin_across_engines() {
    // A node that wakes late *and* crashes: asleep through round 4, alive
    // for round 5, dead from round 6. The interleaving exercises both the
    // inert-node and forced-wake paths in every engine; both must
    // produce the identical report and trace shape, deterministically.
    let g = std::sync::Arc::new(generators::path(8));
    let plan = FaultPlan::none().late_wake(3, 5).crash(3, 6);
    for scheme in [Scheme::Lambda, Scheme::UniqueIds] {
        let (ref_report, ref_shape) = faulted_run(scheme, &g, &plan, ALL_ENGINES[0]);
        // The crash really bites: the chain past the dead relay stalls.
        assert!(!ref_report.completed(), "{}", scheme.name());
        assert_eq!(ref_report.faults_injected, 2);
        for engine in ALL_ENGINES {
            let (report, shape) = faulted_run(scheme, &g, &plan, engine);
            assert_eq!(report, ref_report, "{} [{engine:?}]", scheme.name());
            assert_eq!(shape, ref_shape, "{} [{engine:?}]", scheme.name());
            let (rerun, rerun_shape) = faulted_run(scheme, &g, &plan, engine);
            assert_eq!(rerun, report, "{} rerun [{engine:?}]", scheme.name());
            assert_eq!(rerun_shape, shape, "{} rerun [{engine:?}]", scheme.name());
        }
    }
}
