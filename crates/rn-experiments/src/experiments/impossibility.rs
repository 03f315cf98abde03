//! **E7 — impossibility on the unlabeled four-cycle** (paper §1.1).
//!
//! With no labels (equivalently, all labels equal), deterministic broadcast
//! is impossible even on C₄: the two neighbours of the source have identical
//! histories in every round, hence always transmit together, so the antipodal
//! node only ever experiences silence or collisions.
//!
//! A program cannot quantify over *all* deterministic algorithms, so the
//! experiment demonstrates the phenomenon three ways:
//!
//! 1. a family of representative uniform algorithms (algorithm B with every
//!    possible uniform 2-bit label, the delay-relay algorithm with both
//!    uniform labels, and eager flooding variants) all fail to inform the
//!    antipodal node within a long horizon;
//! 2. in every one of those executions the two source neighbours provably act
//!    identically in every round (the symmetry that drives the paper's
//!    argument), which is checked on the trace;
//! 3. the 2-bit λ labeling breaks the symmetry and completes in 3 rounds.

use crate::report::{fmt_bool, Table};
use rn_broadcast::algo_b::BNode;
use rn_broadcast::delay_relay::DelayRelayNode;
use rn_broadcast::messages::BMessage;
use rn_broadcast::session::{Scheme, Session};
use rn_graph::generators;
use rn_labeling::{Label, Labeling};
use rn_radio::trace::RoundRecord;
use rn_radio::{RadioNode, Simulator, StopCondition};

const HORIZON: u64 = 200;
const MSG: u64 = 5;

/// Outcome of one uniform-algorithm attempt on C₄.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Description of the algorithm / uniform label.
    pub description: String,
    /// Whether the antipodal node was informed within the horizon.
    pub antipodal_informed: bool,
    /// Whether the two source neighbours acted identically in every round.
    pub neighbours_symmetric: bool,
}

fn neighbours_acted_identically<M: PartialEq + rn_radio::message::RadioMessage>(
    trace: &rn_radio::Trace<M>,
) -> bool {
    // On C4 with source 0, the neighbours are nodes 1 and 3. "Identical"
    // compares the kind of event (or silence), not its payload.
    let kind = |r: &RoundRecord<M>, v| r.event(v).map(std::mem::discriminant);
    trace.rounds.iter().all(|r| kind(r, 1) == kind(r, 3))
}

fn attempt_with_nodes<N>(description: &str, nodes: Vec<N>, informed: impl Fn(&N) -> bool) -> Attempt
where
    N: RadioNode,
    N::Msg: PartialEq,
{
    let g = generators::cycle(4);
    let mut sim = Simulator::new(g, nodes);
    sim.run_until(StopCondition::AfterRounds(HORIZON), |_| false);
    Attempt {
        description: description.to_string(),
        antipodal_informed: informed(&sim.nodes()[2]),
        neighbours_symmetric: neighbours_acted_identically(sim.trace()),
    }
}

fn uniform_labeling(label: Label) -> Labeling {
    Labeling::new(vec![label; 4], "uniform")
}

/// Runs all uniform attempts plus the labeled control and renders the table.
pub fn run() -> Table {
    let mut attempts = Vec::new();

    // Algorithm B under every uniform 2-bit label.
    for (x1, x2) in [(false, false), (false, true), (true, false), (true, true)] {
        let labeling = uniform_labeling(Label::two_bits(x1, x2));
        let nodes = BNode::network(&labeling, 0, MSG);
        attempts.push(attempt_with_nodes(
            &format!(
                "algorithm B, uniform label {}{}",
                u8::from(x1),
                u8::from(x2)
            ),
            nodes,
            BNode::is_informed,
        ));
    }

    // Delay-relay under both uniform 1-bit labels.
    for bit in [false, true] {
        let labeling = uniform_labeling(Label::one_bit(bit));
        let nodes = DelayRelayNode::network(&labeling, 0, MSG);
        attempts.push(attempt_with_nodes(
            &format!("delay-relay, uniform label {}", u8::from(bit)),
            nodes,
            DelayRelayNode::is_informed,
        ));
    }

    // Eager flooding: every informed node retransmits forever (modelled as an
    // explicit protocol to rule out "just keep shouting" strategies).
    let nodes: Vec<Flood> = (0..4).map(|v| Flood::new(v == 0)).collect();
    attempts.push(attempt_with_nodes(
        "eager flooding (retransmit every round once informed)",
        nodes,
        |n: &Flood| n.informed,
    ));

    let mut table = Table::new(
        "E7: deterministic broadcast on the four-cycle — uniform labels fail, lambda succeeds",
        &[
            "algorithm",
            "antipodal node informed",
            "source neighbours symmetric",
        ],
    );
    for a in &attempts {
        table.push_row(vec![
            a.description.clone(),
            fmt_bool(a.antipodal_informed),
            fmt_bool(a.neighbours_symmetric),
        ]);
    }

    // Control: the 2-bit λ labeling completes.
    let g = generators::cycle(4);
    let r = Session::builder(Scheme::Lambda, g)
        .source(0)
        .message(MSG)
        .build()
        .expect("cycle is connected")
        .run();
    table.push_row(vec![
        "algorithm B with the 2-bit lambda labeling".to_string(),
        fmt_bool(r.completed()),
        fmt_bool(false),
    ]);
    table.push_note(format!(
        "uniform rows were simulated for {HORIZON} rounds; the labeled control completes in round {}",
        r.completion_round.expect("lambda completes on C4")
    ));
    table.push_note(
        "\"source neighbours symmetric\" shows why uniform labels fail: nodes 1 and 3 always act \
         in unison, so node 2 only ever sees collisions or silence",
    );
    table
}

/// The eager-flooding protocol used as one of the uniform attempts.
#[derive(Debug, Clone)]
struct Flood {
    informed: bool,
    msg: Option<u64>,
}

impl Flood {
    fn new(is_source: bool) -> Self {
        Flood {
            informed: is_source,
            msg: is_source.then_some(MSG),
        }
    }
}

impl RadioNode for Flood {
    type Msg = BMessage;
    fn step(&mut self, _now: u64) -> rn_radio::Action<BMessage> {
        match self.msg {
            Some(m) => rn_radio::Action::Transmit(BMessage::Data(m)),
            None => rn_radio::Action::Listen,
        }
    }
    fn receive(&mut self, heard: Option<&BMessage>, _now: u64) {
        if let Some(BMessage::Data(m)) = heard {
            self.informed = true;
            self.msg = Some(*m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_attempts_fail_and_lambda_succeeds() {
        let t = run();
        // All rows except the last are uniform attempts that must fail.
        let rows = &t.rows;
        assert!(rows.len() >= 7);
        for row in &rows[..rows.len() - 1] {
            assert_eq!(row[1], "NO", "{} should fail", row[0]);
            assert_eq!(row[2], "yes", "{} neighbours should be symmetric", row[0]);
        }
        assert_eq!(rows.last().unwrap()[1], "yes");
    }
}
