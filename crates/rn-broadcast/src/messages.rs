//! Message types exchanged by the broadcast algorithms.
//!
//! Algorithm B uses only two kinds of messages — the source message µ and a
//! constant-size "stay" word ([`BMessage`]). Algorithms B_ack and B_arb
//! additionally append a round number of O(log n) bits to every message
//! ([`TaggedMessage`]), exactly as described in §1.1 and §3 of the paper; the
//! acknowledgement messages can carry one extra value (the timestamp `T` in
//! phase 1 of B_arb, the source message µ in phase 2).

use rn_radio::message::{bits_for, RadioMessage};

/// The source message type. The paper treats µ as an opaque message; a `u64`
/// is enough for every experiment (it can also stand in for "many consecutive
/// messages" by value).
pub type SourceMessage = u64;

/// Messages of Algorithm B: the source message or the constant-size "stay".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BMessage {
    /// The source message µ.
    Data(SourceMessage),
    /// The "stay" control word telling a dominator to keep transmitting.
    Stay,
}

impl RadioMessage for BMessage {
    fn bit_size(&self) -> usize {
        // One bit of type discriminator plus the payload.
        match self {
            BMessage::Data(m) => 1 + bits_for(*m),
            BMessage::Stay => 1,
        }
    }
}

/// The assembled k-source payload set of a multi-broadcast run: pairs of
/// (source index, payload µ_j), sorted by index. Shared behind an `Arc` so
/// the broadcast phase relays it without copying the payload vector — a
/// bundle clone is a reference-count bump, keeping the simulator's
/// by-reference delivery cheap for arbitrarily large k.
pub type MessageBundle = std::sync::Arc<Vec<(u32, SourceMessage)>>;

/// Messages of the multi-message algorithms (multi-broadcast and gossip, see
/// `crate::multi`): the collection-phase relays (single-message BFS-path
/// hops or accumulated DFS tokens), the broadcast-phase bundle, and the
/// same constant-size "stay" word Algorithm B uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiMessage {
    /// Collection phase (BFS-path plans): one source's message being
    /// funnelled one hop toward the coordinator.
    Relay {
        /// Index of the originating source in the scheme's sorted source
        /// list.
        source_index: u32,
        /// That source's message µ_j.
        payload: SourceMessage,
    },
    /// Collection phase (DFS-token plans): the walking token — every
    /// message its transmitter has accumulated so far, as sorted
    /// (source index, payload) pairs. Hearing a token never changes the
    /// Algorithm B state (the broadcast phase has not started); it only
    /// hands the accumulated set on.
    Token(MessageBundle),
    /// Broadcast phase: the coordinator's bundle of all k messages,
    /// relayed exactly like Algorithm B relays µ.
    Bundle(MessageBundle),
    /// The "stay" control word keeping a dominator transmitting (identical
    /// role to [`BMessage::Stay`]).
    Stay,
}

impl RadioMessage for MultiMessage {
    fn bit_size(&self) -> usize {
        // Two bits of type discriminator, then the payload(s).
        match self {
            MultiMessage::Relay {
                source_index,
                payload,
            } => 2 + bits_for(u64::from(*source_index)) + bits_for(*payload),
            MultiMessage::Token(bundle) | MultiMessage::Bundle(bundle) => {
                2 + bundle
                    .iter()
                    .map(|&(j, p)| bits_for(u64::from(j)) + bits_for(p))
                    .sum::<usize>()
            }
            MultiMessage::Stay => 2,
        }
    }
}

/// Which of B_arb's three phases a message belongs to.
///
/// Standalone B_ack always uses [`Phase::One`]. The phase field is an
/// implementation clarification of §4.2 (the paper's phases never overlap, but
/// carrying the phase explicitly keeps a node's per-phase state machines from
/// reacting to each other's control messages); it costs 2 bits per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Phase 1 of B_arb ("initialize" broadcast) / the only phase of B_ack.
    One,
    /// Phase 2 of B_arb ("ready" broadcast).
    Two,
    /// Phase 3 of B_arb (final broadcast of µ).
    Three,
}

/// Payloads of the tagged (B_ack / B_arb) messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaggedPayload {
    /// A broadcast payload carrying the source message µ.
    Data(SourceMessage),
    /// The "initialize" payload of B_arb phase 1.
    Init,
    /// The "ready" payload of B_arb phase 2, carrying the timestamp `T`.
    Ready(u64),
    /// The "stay" control word.
    Stay,
    /// The "ack" control word.
    Ack,
}

impl TaggedPayload {
    /// Whether this payload is one of the broadcastable payloads (µ,
    /// "initialize" or "ready") as opposed to a control word.
    pub fn is_broadcast_payload(&self) -> bool {
        matches!(
            self,
            TaggedPayload::Data(_) | TaggedPayload::Init | TaggedPayload::Ready(_)
        )
    }
}

/// A message of Algorithm B_ack or B_arb: a payload, the round number in
/// which it is transmitted (the paper's appended O(log n)-bit string), and an
/// optional extra value carried by acknowledgement messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedMessage {
    /// Which phase of B_arb the message belongs to (always [`Phase::One`] for
    /// standalone B_ack).
    pub phase: Phase,
    /// The payload.
    pub payload: TaggedPayload,
    /// The appended round number.
    pub tag: u64,
    /// Extra value appended to acknowledgements (`T` in phase 1 of B_arb, µ
    /// in phase 2), absent otherwise.
    pub extra: Option<u64>,
}

impl TaggedMessage {
    /// Convenience constructor for a message without an extra value.
    pub fn new(phase: Phase, payload: TaggedPayload, tag: u64) -> Self {
        TaggedMessage {
            phase,
            payload,
            tag,
            extra: None,
        }
    }

    /// Convenience constructor for an acknowledgement carrying an extra value.
    pub fn ack_with_extra(phase: Phase, tag: u64, extra: Option<u64>) -> Self {
        TaggedMessage {
            phase,
            payload: TaggedPayload::Ack,
            tag,
            extra,
        }
    }
}

impl RadioMessage for TaggedMessage {
    fn bit_size(&self) -> usize {
        let payload_bits = match self.payload {
            TaggedPayload::Data(m) => 3 + bits_for(m),
            TaggedPayload::Ready(t) => 3 + bits_for(t),
            TaggedPayload::Init | TaggedPayload::Stay | TaggedPayload::Ack => 3,
        };
        let extra_bits = 1 + self.extra.map_or(0, bits_for);
        // 2 bits of phase + payload + O(log n) round tag + extra.
        2 + payload_bits + bits_for(self.tag) + extra_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b_messages_are_constant_size() {
        assert_eq!(BMessage::Stay.bit_size(), 1);
        assert_eq!(BMessage::Data(1).bit_size(), 2);
        // The data size depends only on µ, not on any network quantity.
        assert_eq!(BMessage::Data(255).bit_size(), 9);
    }

    #[test]
    fn multi_message_sizes() {
        assert_eq!(MultiMessage::Stay.bit_size(), 2);
        let relay = MultiMessage::Relay {
            source_index: 1,
            payload: 255,
        };
        assert_eq!(relay.bit_size(), 2 + 1 + 8);
        let bundle = MultiMessage::Bundle(std::sync::Arc::new(vec![(0, 1), (1, 255)]));
        assert_eq!(bundle.bit_size(), 2 + (1 + 1) + (1 + 8));
        // Cloning a bundle is a reference-count bump, not a payload copy.
        let b2 = bundle.clone();
        assert_eq!(bundle, b2);
    }

    #[test]
    fn tagged_message_size_grows_with_tag() {
        let small = TaggedMessage::new(Phase::One, TaggedPayload::Stay, 3);
        let large = TaggedMessage::new(Phase::One, TaggedPayload::Stay, 1_000_000);
        assert!(large.bit_size() > small.bit_size());
    }

    #[test]
    fn ack_with_extra_is_larger() {
        let plain = TaggedMessage::ack_with_extra(Phase::Two, 9, None);
        let heavy = TaggedMessage::ack_with_extra(Phase::Two, 9, Some(12345));
        assert_eq!(plain.payload, TaggedPayload::Ack);
        assert!(heavy.bit_size() > plain.bit_size());
        assert_eq!(heavy.extra, Some(12345));
    }

    #[test]
    fn broadcast_payload_classification() {
        assert!(TaggedPayload::Data(5).is_broadcast_payload());
        assert!(TaggedPayload::Init.is_broadcast_payload());
        assert!(TaggedPayload::Ready(7).is_broadcast_payload());
        assert!(!TaggedPayload::Stay.is_broadcast_payload());
        assert!(!TaggedPayload::Ack.is_broadcast_payload());
    }

    #[test]
    fn phases_are_ordered() {
        assert!(Phase::One < Phase::Two);
        assert!(Phase::Two < Phase::Three);
    }
}
