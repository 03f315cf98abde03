//! Shared test-support protocols (behind the `testing` feature).
//!
//! The equivalence and fault suites both need an adversarial protocol that
//! stresses the simulator with dense, pseudo-random collision patterns no
//! real labeling scheme would produce. [`ChaosNode`] used to live inside
//! `tests/engine_equivalence.rs`; it is promoted here so every test crate
//! (and downstream experiments) can drive the same adversary without
//! duplicating it. Nothing in this module is compiled into production
//! builds — enable it with the `testing` cargo feature (dev-dependencies
//! in this workspace do) or via `cfg(test)` inside `rn-radio` itself.

use crate::node::{Action, RadioNode};

/// An adversarial protocol for raw-simulator testing: each node transmits on
/// a pseudo-random schedule derived from its id and how many rounds it has
/// seen, producing dense collision patterns no real scheme would. It counts
/// its own rounds and asserts that the local round the engine passes agrees
/// — a check of the engines' local clock under every fault plan the suites
/// drive it through. An injected fault that suppresses a `receive` call
/// visibly desynchronizes its observation log, making `ChaosNode` a sharp
/// probe for fault-injection equivalence across engines.
#[derive(Clone, Debug)]
pub struct ChaosNode {
    id: u64,
    local_round: u64,
    /// Fires roughly every `1/density` rounds.
    density: u64,
    /// Everything this node observed, in order (`None` = silence/collision).
    pub observations: Vec<Option<u64>>,
}

impl ChaosNode {
    /// One node per graph vertex, all with the same transmit `density`.
    pub fn network(n: usize, density: u64) -> Vec<ChaosNode> {
        (0..n)
            .map(|id| ChaosNode {
                id: id as u64,
                local_round: 0,
                density,
                observations: Vec::new(),
            })
            .collect()
    }

    /// SplitMix64 — deterministic, seeded by (id, local_round).
    fn hash(&self) -> u64 {
        let mut z = self
            .id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.local_round.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl RadioNode for ChaosNode {
    type Msg = u64;

    fn step(&mut self, now: u64) -> Action<u64> {
        let fire = self.hash().is_multiple_of(self.density);
        self.local_round += 1;
        // The node counts its own rounds, so it can check the clock the
        // engine passes: under any fault plan, on either engine, the two
        // must agree.
        assert_eq!(now, self.local_round, "node {}: engine clock", self.id);
        if fire {
            Action::Transmit(self.id * 1000 + self.local_round)
        } else {
            Action::Listen
        }
    }

    fn receive(&mut self, heard: Option<&u64>, _now: u64) {
        self.observations.push(heard.copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_schedule_is_deterministic() {
        let mut a = ChaosNode::network(4, 3);
        let mut b = ChaosNode::network(4, 3);
        for _ in 0..32 {
            for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                let now = x.local_round + 1;
                assert_eq!(x.step(now).is_transmit(), y.step(now).is_transmit());
            }
        }
    }

    #[test]
    fn chaos_network_mixes_transmitters_and_listeners() {
        let mut nodes = ChaosNode::network(16, 2);
        let mut transmits = 0usize;
        let mut listens = 0usize;
        for now in 1..=32 {
            for node in &mut nodes {
                if node.step(now).is_transmit() {
                    transmits += 1;
                } else {
                    listens += 1;
                }
            }
        }
        assert!(transmits > 0 && listens > 0);
    }
}
