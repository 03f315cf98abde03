//! Exhaustive verification of the 1-bit schemes on their graph classes
//! (paper §5 conclusion): every cycle size and every grid shape in the tested
//! range, from every possible source position, must complete — and the
//! schemes must refuse graphs outside their class.

use radio_labeling::broadcast::session::{RunSpec, Scheme, Session};
use radio_labeling::graph::generators;
use radio_labeling::labeling::onebit;
use radio_labeling::labeling::LabelingError;
use radio_labeling::radio::{Engine, FaultPlan};
use std::sync::Arc;

#[test]
fn cycles_every_size_and_source() {
    for n in 3..=40 {
        let g = Arc::new(generators::cycle(n));
        let session = Session::builder(Scheme::OneBitCycle, Arc::clone(&g))
            .message(7)
            .build()
            .unwrap_or_else(|e| panic!("cycle {n}: {e}"));
        for source in 0..n {
            let r = session
                .run_with(RunSpec::new(source, 7))
                .unwrap_or_else(|e| panic!("cycle {n}, source {source}: {e}"));
            assert!(
                r.completed(),
                "cycle {n}, source {source}: broadcast incomplete"
            );
            assert_eq!(r.label_length, 1);
            assert!(r.distinct_labels <= 2);
            // The two waves travel at hop speed with at most one round of
            // extra delay, so completion is at most about n/2 + 2 rounds.
            assert!(
                r.completion_round.unwrap() <= n as u64 / 2 + 3,
                "cycle {n}, source {source}: took {} rounds",
                r.completion_round.unwrap()
            );
        }
    }
}

#[test]
fn grids_every_shape_and_source() {
    for (rows, cols) in [
        (1, 8),
        (8, 1),
        (2, 2),
        (2, 7),
        (3, 3),
        (3, 6),
        (4, 4),
        (4, 7),
        (5, 5),
        (6, 4),
    ] {
        let g = Arc::new(generators::grid(rows, cols));
        let session = Session::builder(Scheme::OneBitGrid { rows, cols }, Arc::clone(&g))
            .message(7)
            .build()
            .unwrap_or_else(|e| panic!("grid {rows}x{cols}: {e}"));
        for source in 0..g.node_count() {
            let r = session
                .run_with(RunSpec::new(source, 7))
                .unwrap_or_else(|e| panic!("grid {rows}x{cols}, source {source}: {e}"));
            assert!(
                r.completed(),
                "grid {rows}x{cols}, source {source}: broadcast incomplete"
            );
            assert_eq!(r.label_length, 1);
            // Row wave at hop speed, column waves at half speed:
            // about cols + 2 * rows rounds in the worst case.
            assert!(
                r.completion_round.unwrap() <= (cols + 2 * rows + 2) as u64,
                "grid {rows}x{cols}, source {source}: took {} rounds",
                r.completion_round.unwrap()
            );
        }
    }
}

#[test]
fn even_cycles_need_the_marked_neighbor() {
    // Sanity for the construction itself: the all-zero labeling must fail on
    // even cycles (the four-cycle impossibility), which is exactly why the
    // scheme marks one neighbour of the source.
    use radio_labeling::broadcast::delay_relay::DelayRelayNode;
    use radio_labeling::labeling::{Label, Labeling};
    use radio_labeling::radio::{Simulator, StopCondition};

    for n in [4usize, 6, 8, 10] {
        let g = generators::cycle(n);
        let all_zero = Labeling::new(vec![Label::one_bit(false); n], "uniform");
        let nodes = DelayRelayNode::network(&all_zero, 0, 7);
        let mut sim = Simulator::new(g, nodes);
        sim.run_until(StopCondition::AfterRounds(10 * n as u64), |_| false);
        let antipodal = n / 2;
        assert!(
            !sim.nodes()[antipodal].is_informed(),
            "cycle {n}: the antipodal node should never be informed without the marked label"
        );
    }
}

#[test]
fn schemes_reject_out_of_class_graphs() {
    let not_a_cycle = generators::path(7);
    assert!(matches!(
        onebit::cycle_onebit(&not_a_cycle, 0),
        Err(LabelingError::UnsupportedGraphClass { .. })
    ));
    let not_the_right_grid = generators::grid(3, 4);
    assert!(matches!(
        onebit::grid_onebit(&not_the_right_grid, 4, 3, 0),
        Err(LabelingError::UnsupportedGraphClass { .. })
    ));
    assert!(matches!(
        onebit::grid_onebit(&generators::cycle(12), 3, 4, 0),
        Err(LabelingError::UnsupportedGraphClass { .. })
    ));
}

#[test]
fn delay_relay_wake_hints_pass_the_audit() {
    // The model checker audits the general schemes; the 1-bit delay relay
    // is audited here, from every source, on both engines, with and
    // without a late wake and a jam shifting some nodes' local clocks.
    let cases = [3, 4, 7, 12].map(|n| (Scheme::OneBitCycle, generators::cycle(n)));
    let grids = [(2, 3), (3, 3), (3, 5)].map(|(rows, cols)| {
        (
            Scheme::OneBitGrid { rows, cols },
            generators::grid(rows, cols),
        )
    });
    for (scheme, g) in cases.into_iter().chain(grids) {
        let g = Arc::new(g);
        let n = g.node_count();
        let plans = [
            FaultPlan::none(),
            FaultPlan::none().late_wake(n - 1, 3).jam(1, 2, 2),
        ];
        for source in 0..n {
            for engine in [Engine::ListenerCentric, Engine::EventDriven] {
                for plan in &plans {
                    let audit = Session::builder(scheme, Arc::clone(&g))
                        .source(source)
                        .engine(engine)
                        .faults(plan.clone())
                        .build()
                        .expect("in-class graph")
                        .audit_wake_hints()
                        .unwrap_or_else(|v| panic!("{} n = {n}: {v}", scheme.name()));
                    assert!(audit.hints_audited > 0);
                }
            }
        }
    }
}
