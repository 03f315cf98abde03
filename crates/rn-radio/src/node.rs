//! The [`RadioNode`] trait: the interface a distributed algorithm implements
//! to run on the simulator.
//!
//! The interface is deliberately minimal and enforces the paper's knowledge
//! model: a node is constructed from its label (and, for the source, the
//! source message) by the algorithm crate, and afterwards the simulator only
//! ever calls [`RadioNode::step`] ("what do you do this round?") and
//! [`RadioNode::receive`] ("this is what you heard"). The one number the
//! simulator passes in is the node's own **local round**: how many rounds
//! its protocol has run, counting the current one. A node could count that
//! itself, one per `step`; receiving it lets a protocol store timestamps
//! instead of ticking counters, so its state stays frozen while it waits.
//! No global information — not the global round number, not the topology,
//! not the network size — ever flows from the simulator into a node.

use crate::message::RadioMessage;

/// What a node does in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Transmit the given message to all neighbours.
    Transmit(M),
    /// Stay silent and listen.
    Listen,
}

impl<M> Action<M> {
    /// Whether this action is a transmission.
    #[inline]
    pub fn is_transmit(&self) -> bool {
        matches!(self, Action::Transmit(_))
    }

    /// The transmitted message, if any.
    #[inline]
    pub fn message(&self) -> Option<&M> {
        match self {
            Action::Transmit(m) => Some(m),
            Action::Listen => None,
        }
    }
}

/// A node of the radio network running a deterministic distributed algorithm.
///
/// The simulator drives each node through the same two calls every round, in
/// this order:
///
/// 1. [`step`](RadioNode::step) — the node decides to transmit or listen,
///    based only on its internal state (label + history) and its local
///    round;
/// 2. [`receive`](RadioNode::receive) — **only if the node listened**, it is
///    told what it heard: `Some(msg)` if exactly one neighbour transmitted,
///    `None` otherwise (silence and collision are indistinguishable, as the
///    model has no collision detection).
///
/// Transmitting nodes get no feedback at all for that round.
///
/// # The local round
///
/// Every call carries `now`, the node's local round: the number of rounds
/// in which its protocol has run, counting this one. Without faults it is
/// the global round, starting at 1. A late-waking node starts at 1 in its
/// wake round, and a jam round pauses the count, because the protocol is
/// suspended then; it is exactly the count of `step` calls a node would
/// keep itself. `now` is not state: [`state_digest`](RadioNode::state_digest)
/// leaves it out, and a node that only stores timestamps of past events
/// keeps a state that no passing round changes.
pub trait RadioNode {
    /// The message type this protocol exchanges.
    type Msg: RadioMessage;

    /// Decide the action of local round `now`.
    fn step(&mut self, now: u64) -> Action<Self::Msg>;

    /// Observe the outcome of listening in local round `now`.
    fn receive(&mut self, heard: Option<&Self::Msg>, now: u64);

    /// How many upcoming rounds this node is guaranteed to be *dormant*,
    /// as a hint to the fast engine ([`Engine::EventDriven`](crate::Engine)),
    /// which drives only the nodes whose hints have run out. `now` is the
    /// local round the node has just run, so a node waiting for local round
    /// `t` returns `t − now − 1`.
    ///
    /// Returning `h` promises that — unless a decodable message is
    /// delivered to the node first — each of its next `h` [`step`] calls
    /// (local rounds `now + 1 ..= now + h`) would return
    /// [`Action::Listen`], and that skipping those `h` `step`/`receive(None)`
    /// call pairs leaves the node in exactly the state it would reach if
    /// they were made (its state is *frozen*: `step` and `receive(None)`
    /// are no-ops for those rounds). The engine may then elide the calls
    /// entirely and only wake the node early when it hears something
    /// (`receive(Some(_))`), after which the hint is queried again.
    /// `u64::MAX` means "dormant until I hear something". Waking early is
    /// always safe; the engine counts the span in global rounds, which a
    /// jam can only make end sooner in local rounds.
    ///
    /// The default of `0` makes no promise at all: the node is due again in
    /// the next round, so it is driven every round, exactly like the
    /// reference engine drives it, and any protocol is correct without
    /// implementing this. Override it only
    /// where the frozen-state contract genuinely holds; the two-engine
    /// equivalence suite and the `rn-modelcheck` wake-hint audit catch a
    /// hint that overpromises.
    ///
    /// [`step`]: RadioNode::step
    fn wake_hint(&self, _now: u64) -> u64 {
        0
    }

    /// A digest of the node's complete observable state, used by the
    /// bounded model checker (`rn-modelcheck`) to verify the
    /// [`wake_hint`](RadioNode::wake_hint) frozen-state contract: the
    /// checker replays the elided `step`/`receive(None)` pairs against a
    /// clone and requires the digest to stay bit-identical.
    ///
    /// Implementations must fold **every** field that influences future
    /// behaviour (the helpers in [`crate::digest`] make this a one-liner),
    /// and must be deterministic functions of that state alone — no
    /// addresses, no interior mutability. The default of `0` opts out:
    /// the checker still verifies Listen-only actions for such nodes but
    /// cannot see state drift. Protocols that implement
    /// [`wake_hint`](RadioNode::wake_hint) should always implement this
    /// too.
    fn state_digest(&self) -> u64 {
        0
    }
}

/// The [`RadioNode::wake_hint`] of a node that, asked in local round `now`,
/// next acts in local round `next`: `next − now − 1`, or `u64::MAX` when
/// `next` is `None` (only a reception can make it act). A `next` at or
/// before `now` gives 0 — wake in the next round.
pub fn hint_until(next: Option<u64>, now: u64) -> u64 {
    next.map_or(u64::MAX, |t| t.saturating_sub(now + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_accessors() {
        let t: Action<u64> = Action::Transmit(5);
        let l: Action<u64> = Action::Listen;
        assert!(t.is_transmit());
        assert!(!l.is_transmit());
        assert_eq!(t.message(), Some(&5));
        assert_eq!(l.message(), None);
    }

    #[test]
    fn hint_until_counts_the_rounds_in_between() {
        assert_eq!(hint_until(Some(8), 4), 3);
        assert_eq!(hint_until(Some(5), 4), 0);
        assert_eq!(hint_until(Some(4), 4), 0);
        assert_eq!(hint_until(None, 4), u64::MAX);
    }
}
