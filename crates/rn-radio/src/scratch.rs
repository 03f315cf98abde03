//! Reusable per-round scratch buffers for the simulator's fast engine.
//!
//! Every round of a simulation needs a handful of working arrays: the list of
//! this round's transmitters and, per listener, how many neighbours
//! transmitted and who the unique sender was. Allocating those per round (as
//! the original listener-centric engine did) puts two heap allocations and an
//! O(n) clear on the hot path of every round. [`RoundScratch`] hoists them
//! out: the buffers live on the [`Simulator`](crate::Simulator), are reused
//! round after round, and can be recycled *across* simulations — `Session`
//! batch runs in `rn-broadcast` pool them so thousands of runs on one
//! topology share a handful of scratch allocations.
//!
//! Clearing between rounds costs nothing at all: the per-listener entries are
//! guarded by a monotonically increasing **generation stamp**. A round bumps
//! `generation`, and an entry of `hit_count`/`last_sender` is valid only when
//! the listener's `stamp` equals the current generation. Stale entries from
//! earlier rounds (or from an earlier simulation reusing the same scratch)
//! are never read, so there is no per-round zeroing — not even of the touched
//! subset. The stamp is a `u64`, so it cannot wrap within any feasible run.
//!
//! The buffers are deliberately message-type agnostic (plain integers), which
//! is what lets one pool serve simulations of different protocols; the only
//! generic per-round buffer — the transmitted-message vector — lives on the
//! simulator itself and is likewise reused in place.

use rn_graph::NodeId;

/// Reusable working memory for [`Simulator::step_round`](crate::Simulator).
///
/// Obtain one implicitly via [`Simulator::new`](crate::Simulator::new), or
/// explicitly with [`RoundScratch::default`] and install it with
/// [`Simulator::with_scratch`](crate::Simulator::with_scratch); recover it
/// for reuse with [`Simulator::take_scratch`](crate::Simulator::take_scratch).
/// A scratch adapts itself to any node count, so one instance can serve
/// simulations on different graphs.
#[derive(Debug, Default)]
pub struct RoundScratch {
    /// Nodes that transmitted this round, in the order the decide pass drove
    /// them (due-list order).
    pub(crate) transmitters: Vec<NodeId>,
    /// Generation stamp per node; `hit_count`/`last_sender` entries are valid
    /// only where `stamp[v] == generation`.
    pub(crate) stamp: Vec<u64>,
    /// Number of transmitting neighbours of each listener this round.
    pub(crate) hit_count: Vec<u32>,
    /// The most recent transmitting neighbour of each listener this round
    /// (the unique sender whenever `hit_count == 1`).
    pub(crate) last_sender: Vec<NodeId>,
    /// Generation stamp marking this round's transmitters; `tx_index`
    /// entries are valid only where `tx_stamp[v] == generation`. Listeners
    /// are never written here — a listening round leaves zero scratch
    /// writes for the node in the decide pass.
    pub(crate) tx_stamp: Vec<u64>,
    /// Index of `v`'s message in the simulator's per-round transmitted
    /// message buffer, valid only under the current `tx_stamp`.
    pub(crate) tx_index: Vec<u32>,
    /// Current round's generation stamp. Strictly increases every round and
    /// is never reset, so entries written under earlier generations — in this
    /// simulation or a previous one sharing the scratch — are dead on arrival.
    pub(crate) generation: u64,
}

impl RoundScratch {
    /// Creates an empty scratch; it grows to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for graphs of `n` nodes.
    pub fn for_nodes(n: usize) -> Self {
        let mut s = Self::default();
        s.ensure_nodes(n);
        s
    }

    /// Grows the per-node arrays to cover `n` nodes.
    ///
    /// Growth preserves the generation discipline: new entries carry stamp 0,
    /// which can never equal the (strictly positive, strictly increasing)
    /// per-round generation, so they read as "untouched". Shrinking never
    /// happens — a larger-than-needed scratch is simply partially used.
    pub(crate) fn ensure_nodes(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.hit_count.resize(n, 0);
            self.last_sender.resize(n, 0);
            self.tx_stamp.resize(n, 0);
            self.tx_index.resize(n, 0);
        }
    }

    /// Number of nodes the per-node arrays currently cover.
    pub fn capacity(&self) -> usize {
        self.stamp.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_and_never_shrinks() {
        let mut s = RoundScratch::new();
        assert_eq!(s.capacity(), 0);
        s.ensure_nodes(10);
        assert_eq!(s.capacity(), 10);
        s.ensure_nodes(4);
        assert_eq!(s.capacity(), 10, "shrinking is never needed");
        s.ensure_nodes(16);
        assert_eq!(s.capacity(), 16);
    }

    #[test]
    fn growth_preserves_generation_safety() {
        let mut s = RoundScratch::for_nodes(2);
        s.generation = 7;
        s.stamp[0] = 7;
        s.ensure_nodes(5);
        // Old entries keep their stamps; new entries read as untouched.
        assert_eq!(s.stamp[0], 7);
        assert!(s.stamp[2..].iter().all(|&g| g == 0));
    }
}
