//! Seeded-defect checkers: deliberately broken inputs the model checker
//! must catch, locate and shrink. These are the checker's own smoke tests —
//! a model checker that cannot find a planted bug proves nothing by
//! finding no bugs.
//!
//! Two defect families:
//!
//! * **Label corruption** ([`check_corrupted_point`]): one label per point
//!   is deterministically damaged (the same seeding as `analyze --corrupt`)
//!   and the corrupted labeling must fail certification with a located
//!   finding.
//! * **Wake-hint overpromise** ([`check_overpromise_point`]): a test
//!   protocol whose `wake_hint` promises across its own countdown and
//!   transmission; the audit must catch it on every engine.

use crate::point::ENGINES;
use crate::violation::{Violation, ViolationKind};
use rn_analyze::{certify_labeled, Finding};
use rn_broadcast::session::{Scheme, Session};
use rn_graph::Graph;
use rn_labeling::label::{Label, Labeling};
use rn_radio::{audit_wake_hints, Action, RadioNode, Simulator};
use std::sync::Arc;

/// Seeds one deterministic label corruption appropriate to the scheme and
/// returns the corrupted labeling plus a description of what was broken.
/// Mirrors the `analyze --corrupt` gate's seeding so the two layers catch
/// the same defect classes.
pub fn corrupt_labeling(session: &Session, graph: &Graph) -> (Labeling, String) {
    let mut labels = session.labeling().labels().to_vec();
    let scheme = session.scheme();
    let name = session.labeling().scheme();
    match scheme {
        Scheme::UniqueIds => {
            labels[0] = Label::from_value(labels[1].value(), labels[0].len());
            (
                Labeling::new(labels, name),
                "node 0 copies node 1's id".into(),
            )
        }
        Scheme::SquareColoring => {
            let u = graph.neighbors(0)[0];
            labels[0] = Label::from_value(labels[u].value(), labels[0].len());
            (
                Labeling::new(labels, name),
                format!("node 0 copies adjacent node {u}'s colour"),
            )
        }
        Scheme::LambdaArb | Scheme::MultiLambda { .. } | Scheme::Gossip => {
            let r = session.coordinator();
            labels[r] = Label::from_value(0, labels[r].len());
            (
                Labeling::new(labels, name),
                format!("coordinator {r}'s label zeroed"),
            )
        }
        _ => {
            let v = (0..labels.len())
                .rev()
                .find(|&v| labels[v].x1())
                .expect("every labeling marks at least the source with x1");
            labels[v] = Label::from_value(0, labels[v].len());
            (
                Labeling::new(labels, name),
                format!("transmitter {v}'s label zeroed"),
            )
        }
    }
}

/// Corrupts one label of `scheme`'s labeling on `graph` and certifies the
/// damaged labeling. Returns the certification violation the corruption
/// provokes — the expected outcome, which the injection gate then shrinks
/// — or `None` when the graph is too small to corrupt, the scheme cannot
/// be built, or (the alarming case) the corruption certifies cleanly.
pub fn check_corrupted_point(graph: &Arc<Graph>, scheme: Scheme) -> Option<Violation> {
    if graph.node_count() < 2 {
        return None;
    }
    let session = Session::builder(scheme, Arc::clone(graph)).build().ok()?;
    let (corrupted, what) = corrupt_labeling(&session, graph);
    match certify_labeled(
        scheme,
        graph,
        &corrupted,
        session.source(),
        session.sources(),
        session.coordinator(),
        session.collection_plan(),
    ) {
        Ok(_) => None,
        Err(findings) if findings.iter().any(Finding::is_located) => Some(Violation {
            scheme: Some(scheme),
            kind: ViolationKind::Certification {
                findings: std::iter::once(format!("injected: {what}"))
                    .chain(findings.iter().map(ToString::to_string))
                    .collect(),
            },
        }),
        Err(_) => None,
    }
}

/// A deliberately broken relay protocol: once informed, a node counts down
/// two quiet rounds and then retransmits — but its `wake_hint` promises
/// Listen-only dormancy straight across the ticking countdown and the
/// transmission itself. Every engine's audit must refuse it.
///
/// Unlike the real protocols it ignores the local round it is passed and
/// ticks its own countdown, on purpose: the ticking state is a second
/// broken promise (state drift) beside the suppressed transmission, and
/// the audit must report the first one it meets.
#[derive(Debug, Clone)]
pub struct BadHintNode {
    informed: bool,
    countdown: Option<u64>,
}

impl BadHintNode {
    /// The protocol instances for an `n`-node network with node 0 as the
    /// source.
    pub fn network(n: usize) -> Vec<BadHintNode> {
        (0..n)
            .map(|v| BadHintNode {
                informed: v == 0,
                countdown: (v == 0).then_some(0),
            })
            .collect()
    }
}

impl RadioNode for BadHintNode {
    type Msg = u64;
    const WAKE_HINTS: bool = true;

    fn step(&mut self, _now: u64) -> Action<u64> {
        if let Some(c) = self.countdown {
            if c == 0 {
                self.countdown = None;
                return Action::Transmit(1);
            }
            self.countdown = Some(c - 1);
        }
        Action::Listen
    }

    fn receive(&mut self, heard: Option<&u64>, _now: u64) {
        if heard.is_some() && !self.informed {
            self.informed = true;
            self.countdown = Some(2);
        }
    }

    fn wake_hint(&self, _now: u64) -> u64 {
        match self.countdown {
            // The lie: a ticking countdown (and the transmission it ends
            // in) is promised away as frozen dormancy. An expired countdown
            // is reported honestly, so the source alone never trips — the
            // minimal witness is a genuine relay edge.
            Some(c) if c > 0 => c + 2,
            Some(_) => 0,
            None => u64::MAX,
        }
    }

    fn state_digest(&self) -> u64 {
        rn_radio::Digest::new(0xBAD)
            .flag(self.informed)
            .opt(self.countdown)
            .finish()
    }
}

/// Runs the wake-hint audit over [`BadHintNode`] on `graph` under every
/// engine. Returns the violation the overpromise provokes — the expected
/// outcome — or `None` if every audit inexplicably passes (only possible
/// on graphs too small for any node to be informed).
pub fn check_overpromise_point(graph: &Arc<Graph>) -> Option<Violation> {
    let rounds = 4 * graph.node_count() as u64 + 8;
    for engine in ENGINES {
        let mut sim = Simulator::new(Arc::clone(graph), BadHintNode::network(graph.node_count()))
            .with_engine(engine)
            .without_trace();
        if let Err(violation) = audit_wake_hints(&mut sim, rounds) {
            return Some(Violation {
                scheme: None,
                kind: ViolationKind::WakeHint { engine, violation },
            });
        }
    }
    None
}
