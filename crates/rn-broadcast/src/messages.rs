//! Message types exchanged by the broadcast algorithms.
//!
//! Algorithm B uses only two kinds of messages — the source message µ and a
//! constant-size "stay" word ([`BMessage`]). Algorithms B_ack and B_arb
//! additionally append a round number of O(log n) bits to every message
//! ([`TaggedMessage`]), exactly as described in §1.1 and §3 of the paper; the
//! acknowledgement messages can carry one extra value (the timestamp `T` in
//! phase 1 of B_arb, the source message µ in phase 2).

use rn_radio::message::{bits_for, RadioMessage};
use std::sync::Arc;

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

/// A set of (source index, payload µ_j) pairs of one multi-message run:
/// the walking token of a DFS plan, or the broadcast phase's bundle.
///
/// It holds the set as a ⌈k/64⌉-word bitset over the run's source indices
/// plus the run's payload table, which every node and every bundle of the
/// run shares (a held index j always carries µ_j), and its size in bits,
/// computed once when it is created. A bundle is shared behind an `Arc`,
/// so a clone is a reference-count bump and the simulator's by-reference
/// delivery stays cheap for any k.
#[derive(Clone)]
pub struct MessageBundle(Arc<BundleParts>);

struct BundleParts {
    /// Bit j set iff the bundle carries message j.
    held: Box<[u64]>,
    /// The run's payloads, indexed by source index.
    payloads: Arc<[SourceMessage]>,
    /// The bits of every pair carried, as [`pair_bits`] counts them.
    bit_size: usize,
}

/// The bits a (source index, payload) pair costs in a bundle.
pub(crate) fn pair_bits(j: usize, payload: SourceMessage) -> usize {
    bits_for(j as u64) + bits_for(payload)
}

impl MessageBundle {
    /// A bundle of the messages set in `held`, drawn from `payloads`, whose
    /// pairs cost `bit_size` bits in all (the caller keeps that sum as it
    /// gathers the messages, so a bundle costs O(⌈k/64⌉) to make).
    pub(crate) fn new(held: &[u64], payloads: &Arc<[SourceMessage]>, bit_size: usize) -> Self {
        debug_assert_eq!(
            bit_size,
            ones(held).map(|j| pair_bits(j, payloads[j])).sum::<usize>(),
            "bundle size out of step with its contents"
        );
        MessageBundle(Arc::new(BundleParts {
            held: held.into(),
            payloads: Arc::clone(payloads),
            bit_size,
        }))
    }

    /// The bundle's bitset: bit j of word j / 64 is set iff it carries
    /// message j.
    pub(crate) fn words(&self) -> &[u64] {
        &self.0.held
    }

    /// The run's payload table the bundle draws from.
    pub(crate) fn payloads(&self) -> &Arc<[SourceMessage]> {
        &self.0.payloads
    }

    /// How many messages the bundle carries.
    pub fn len(&self) -> usize {
        self.0.held.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the bundle carries no message.
    pub fn is_empty(&self) -> bool {
        self.0.held.iter().all(|&w| w == 0)
    }

    /// The pairs carried, `(j, µ_j)` in ascending j.
    pub fn iter(&self) -> impl Iterator<Item = (u32, SourceMessage)> + '_ {
        ones(&self.0.held).map(|j| (j as u32, self.0.payloads[j]))
    }

    /// The bits of the pairs carried: Σ over them of the bits of j and of
    /// µ_j. O(1).
    pub fn bit_size(&self) -> usize {
        self.0.bit_size
    }
}

/// The set bits of a bitset, ascending.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// Two bundles are equal when they carry the same pairs.
impl PartialEq for MessageBundle {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
            && (Arc::ptr_eq(self.payloads(), other.payloads()) || self.iter().eq(other.iter()))
    }
}

impl Eq for MessageBundle {}

impl std::fmt::Debug for MessageBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

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
            MultiMessage::Token(bundle) | MultiMessage::Bundle(bundle) => 2 + bundle.bit_size(),
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
        let payloads: Arc<[SourceMessage]> = Arc::from([1, 255, 7]);
        let bundle = MessageBundle::new(&[0b011], &payloads, (1 + 1) + (1 + 8));
        assert_eq!(bundle.iter().collect::<Vec<_>>(), vec![(0, 1), (1, 255)]);
        assert_eq!(bundle.len(), 2);
        let message = MultiMessage::Bundle(bundle);
        assert_eq!(message.bit_size(), 2 + (1 + 1) + (1 + 8));
        // Cloning a bundle is a reference-count bump, not a payload copy.
        let b2 = message.clone();
        assert_eq!(message, b2);
        // Equal contents from another run's table compare equal.
        let other: Arc<[SourceMessage]> = Arc::from([1, 255, 9]);
        let same = MessageBundle::new(&[0b011], &other, 11);
        assert_eq!(MultiMessage::Bundle(same), message);
        assert_ne!(
            MultiMessage::Bundle(MessageBundle::new(&[0b101], &other, (1 + 1) + (2 + 4))),
            message
        );
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
