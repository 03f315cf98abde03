//! The 3-bit labeling scheme **λ_arb** of §4.1 for the setting where the
//! source node is *not* known when the labels are assigned.
//!
//! Construction (paper §4.1): pick an arbitrary coordinator node `r`, give it
//! the label `111`, and label every other node with λ_ack computed **as if
//! `r` were the source**. Fact 3.1 guarantees that λ_ack never uses `111`, so
//! `r` is uniquely identifiable at run time. Algorithm B_arb (in
//! `rn-broadcast`) then uses `r` to orchestrate three phases — "initialize",
//! "ready" and the final broadcast — no matter which node actually holds the
//! source message.

use crate::error::LabelingError;
use crate::label::{Label, Labeling};
use crate::lambda_ack;
use crate::sequences::SequenceConstruction;
use rn_graph::algorithms::ReductionOrder;
use rn_graph::{Graph, NodeId};

/// Name attached to labelings produced by this scheme.
pub const SCHEME_NAME: &str = "lambda_arb";

/// The label of the coordinator node `r`.
pub fn coordinator_label() -> Label {
    Label::three_bits(true, true, true)
}

/// Output of the λ_arb construction.
#[derive(Debug, Clone)]
pub struct LambdaArbScheme {
    labeling: Labeling,
    construction: SequenceConstruction,
    r: NodeId,
    z: NodeId,
}

impl LambdaArbScheme {
    /// The 3-bit labeling.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The §2.1 sequence construction computed with `r` as the source.
    pub fn construction(&self) -> &SequenceConstruction {
        &self.construction
    }

    /// The coordinator node `r` (labeled `111`).
    pub fn r(&self) -> NodeId {
        self.r
    }

    /// The acknowledgement-initiator node `z` (labeled `001` by λ_ack).
    pub fn z(&self) -> NodeId {
        self.z
    }

    /// Consumes the scheme, returning the labeling.
    pub fn into_labeling(self) -> Labeling {
        self.labeling
    }
}

/// Constructs λ_arb using node 0 as the coordinator `r` (the paper allows any
/// choice) and the default reduction order.
pub fn construct(g: &Graph) -> Result<LambdaArbScheme, LabelingError> {
    construct_with_coordinator(g, 0, ReductionOrder::Forward)
}

/// Constructs λ_arb with an explicit coordinator node and reduction order.
pub fn construct_with_coordinator(
    g: &Graph,
    r: NodeId,
    order: ReductionOrder,
) -> Result<LambdaArbScheme, LabelingError> {
    if g.node_count() == 0 {
        return Err(LabelingError::EmptyGraph);
    }
    if r >= g.node_count() {
        return Err(LabelingError::SourceOutOfRange {
            source: r,
            node_count: g.node_count(),
        });
    }
    let ack = lambda_ack::construct_with_order(g, r, order)?;
    let z = ack.z();
    let (ack_labeling, construction) = ack.into_parts();

    let labels = (0..g.node_count())
        .map(|v| {
            if v == r {
                coordinator_label()
            } else {
                ack_labeling.get(v)
            }
        })
        .collect();

    Ok(LambdaArbScheme {
        labeling: Labeling::new(labels, SCHEME_NAME),
        construction,
        r,
        z,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;

    #[test]
    fn rejects_invalid_inputs() {
        assert!(construct(&Graph::empty(0)).is_err());
        assert!(
            construct_with_coordinator(&generators::path(4), 9, ReductionOrder::Forward).is_err()
        );
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(construct(&disconnected).is_err());
    }

    #[test]
    fn coordinator_gets_111_and_is_unique() {
        for (g, r) in [
            (generators::path(8), 0),
            (generators::cycle(9), 4),
            (generators::grid(3, 4), 11),
            (generators::gnp_connected(35, 0.12, 6).unwrap(), 17),
        ] {
            let s = construct_with_coordinator(&g, r, ReductionOrder::Forward).unwrap();
            assert_eq!(s.r(), r);
            assert_eq!(s.labeling().get(r), coordinator_label());
            let with_111: Vec<_> = g
                .nodes()
                .filter(|&v| s.labeling().get(v) == coordinator_label())
                .collect();
            assert_eq!(with_111, vec![r], "111 must identify r uniquely");
        }
    }

    #[test]
    fn labels_are_three_bits_with_at_most_six_distinct() {
        let g = generators::gnp_connected(45, 0.1, 3).unwrap();
        let s = construct(&g).unwrap();
        assert_eq!(s.labeling().length(), 3);
        // The conclusion notes λ_arb uses 6 different labels.
        assert!(s.labeling().distinct_count() <= 6);
    }

    #[test]
    fn non_coordinator_labels_match_lambda_ack_with_r_as_source() {
        let g = generators::grid(4, 4);
        let r = 7;
        let arb = construct_with_coordinator(&g, r, ReductionOrder::Forward).unwrap();
        let ack = lambda_ack::construct(&g, r).unwrap();
        for v in g.nodes() {
            if v != r {
                assert_eq!(arb.labeling().get(v), ack.labeling().get(v), "node {v}");
            }
        }
        assert_eq!(arb.z(), ack.z());
    }

    #[test]
    fn z_is_distinct_from_r_on_multi_node_graphs() {
        let g = generators::cycle(8);
        let s = construct(&g).unwrap();
        assert_ne!(s.r(), s.z());
        assert!(s.labeling().get(s.z()).x3());
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::empty(1);
        let s = construct(&g).unwrap();
        assert_eq!(s.r(), 0);
        assert_eq!(s.labeling().get(0), coordinator_label());
    }

    #[test]
    fn default_construct_uses_node_zero() {
        let g = generators::star(6);
        let s = construct(&g).unwrap();
        assert_eq!(s.r(), 0);
    }

    #[test]
    fn into_labeling_matches() {
        let g = generators::path(5);
        let s = construct(&g).unwrap();
        let copy = s.labeling().clone();
        assert_eq!(s.into_labeling(), copy);
    }
}
