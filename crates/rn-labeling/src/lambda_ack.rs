//! The 3-bit labeling scheme **λ_ack** of §3.1 for acknowledged broadcast.
//!
//! λ_ack is λ plus a third bit `x3` that is 1 at exactly one node `z`: a node
//! that receives the source message **last** when algorithm B runs on the
//! λ-labeled graph (i.e. a node of `NEW_{ℓ−1}`). Node `z` starts the
//! acknowledgement chain of algorithm B_ack the round after it is informed.
//!
//! Fact 3.1 (verified by tests): λ_ack never assigns the labels `101`, `111`
//! or `011`, because `z` is never a dominator and never a "stay" sender. This
//! is what lets λ_arb reuse the label `111` for its special coordinator node.

use crate::error::LabelingError;
use crate::label::{Label, Labeling};
use crate::lambda;
use crate::sequences::SequenceConstruction;
use rn_graph::algorithms::ReductionOrder;
use rn_graph::{Graph, NodeId};

/// Name attached to labelings produced by this scheme.
pub const SCHEME_NAME: &str = "lambda_ack";

/// Output of the λ_ack construction.
#[derive(Debug, Clone)]
pub struct LambdaAckScheme {
    labeling: Labeling,
    construction: SequenceConstruction,
    z: NodeId,
}

impl LambdaAckScheme {
    /// The 3-bit labeling.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The underlying §2.1 sequence construction.
    pub fn construction(&self) -> &SequenceConstruction {
        &self.construction
    }

    /// The acknowledgement-initiator node `z` (the unique node with `x3 = 1`).
    pub fn z(&self) -> NodeId {
        self.z
    }

    /// Consumes the scheme, returning the labeling.
    pub fn into_labeling(self) -> Labeling {
        self.labeling
    }

    /// Consumes the scheme, returning the labeling and the construction
    /// without copying either.
    pub fn into_parts(self) -> (Labeling, SequenceConstruction) {
        (self.labeling, self.construction)
    }
}

/// Constructs the λ_ack labeling for `(g, source)` with the default reduction
/// order.
pub fn construct(g: &Graph, source: NodeId) -> Result<LambdaAckScheme, LabelingError> {
    construct_with_order(g, source, ReductionOrder::Forward)
}

/// Constructs the λ_ack labeling with an explicit dominating-set reduction
/// order.
pub fn construct_with_order(
    g: &Graph,
    source: NodeId,
    order: ReductionOrder,
) -> Result<LambdaAckScheme, LabelingError> {
    let (two_bit, construction) = lambda::construct_with_order(g, source, order)?.into_parts();

    // z: a node that receives µ in the last round in which any node receives
    // µ for the first time, i.e. a node of NEW_{ℓ-1} (Lemma 2.8 /
    // Observation 3.2). If the graph is a single node there is no such node;
    // we then use the source itself (the acknowledgement is vacuous).
    let ell = construction.ell();
    let z = if ell >= 2 {
        *construction
            .new_set(ell - 1)
            .first()
            .expect("NEW_{ell-1} is non-empty by the choice of ell")
    } else {
        source
    };

    let n = g.node_count();
    let labels = (0..n)
        .map(|v| {
            let l = two_bit.get(v);
            Label::three_bits(l.x1(), l.x2(), v == z)
        })
        .collect();

    Ok(LambdaAckScheme {
        labeling: Labeling::new(labels, SCHEME_NAME),
        construction,
        z,
    })
}

/// The labels that λ_ack can never assign (Fact 3.1): `101`, `111`, `011`.
pub fn forbidden_labels() -> [Label; 3] {
    [
        Label::three_bits(true, false, true),
        Label::three_bits(true, true, true),
        Label::three_bits(false, true, true),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;

    #[test]
    fn rejects_invalid_inputs() {
        assert!(construct(&Graph::empty(0), 0).is_err());
        assert!(construct(&generators::path(3), 5).is_err());
    }

    #[test]
    fn labels_are_three_bits_with_at_most_five_distinct() {
        let g = generators::gnp_connected(40, 0.1, 2).unwrap();
        let s = construct(&g, 0).unwrap();
        assert_eq!(s.labeling().length(), 3);
        // The conclusion notes λ_ack uses only 5 different labels.
        assert!(s.labeling().distinct_count() <= 5);
    }

    #[test]
    fn exactly_one_node_has_x3() {
        for (g, src) in [
            (generators::path(9), 0),
            (generators::cycle(8), 2),
            (generators::grid(3, 4), 5),
            (generators::random_tree(25, 7), 3),
        ] {
            let s = construct(&g, src).unwrap();
            let x3_nodes: Vec<_> = g.nodes().filter(|&v| s.labeling().get(v).x3()).collect();
            assert_eq!(x3_nodes, vec![s.z()]);
        }
    }

    #[test]
    fn z_is_informed_last() {
        let g = generators::barbell(4, 3);
        let s = construct(&g, 0).unwrap();
        let c = s.construction();
        let z_round = c.informed_round(s.z()).unwrap();
        for v in g.nodes() {
            assert!(c.informed_round(v).unwrap() <= z_round, "node {v}");
        }
    }

    #[test]
    fn fact_3_1_forbidden_labels_never_assigned() {
        let families: Vec<(Graph, NodeId)> = vec![
            (generators::path(12), 0),
            (generators::cycle(11), 4),
            (generators::star(9), 0),
            (generators::star(9), 3),
            (generators::complete(8), 1),
            (generators::grid(4, 5), 10),
            (generators::hypercube(4), 0),
            (generators::gnp_connected(50, 0.08, 5).unwrap(), 7),
            (generators::random_tree(40, 11), 0),
            (generators::theta(3, 4).unwrap(), 0),
        ];
        let forbidden = forbidden_labels();
        for (g, src) in families {
            let s = construct(&g, src).unwrap();
            for v in g.nodes() {
                assert!(
                    !forbidden.contains(&s.labeling().get(v)),
                    "forbidden label {} at node {v}",
                    s.labeling().get(v)
                );
            }
        }
    }

    #[test]
    fn x1_x2_bits_match_lambda() {
        let g = generators::grid(4, 4);
        let ack = construct(&g, 0).unwrap();
        let plain = lambda::construct(&g, 0).unwrap();
        for v in g.nodes() {
            assert_eq!(ack.labeling().get(v).x1(), plain.labeling().get(v).x1());
            assert_eq!(ack.labeling().get(v).x2(), plain.labeling().get(v).x2());
        }
    }

    #[test]
    fn single_node_graph_uses_source_as_z() {
        let g = Graph::empty(1);
        let s = construct(&g, 0).unwrap();
        assert_eq!(s.z(), 0);
        assert_eq!(s.labeling().length(), 3);
    }

    #[test]
    fn two_node_graph() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let s = construct(&g, 0).unwrap();
        assert_eq!(s.z(), 1);
        assert!(s.labeling().get(1).x3());
        assert!(!s.labeling().get(0).x3());
    }

    #[test]
    fn into_labeling_matches() {
        let g = generators::cycle(5);
        let s = construct(&g, 0).unwrap();
        let copy = s.labeling().clone();
        assert_eq!(s.into_labeling(), copy);
    }
}
