//! Labels and labelings.
//!
//! A *label* is a finite binary string assigned to a node; a *labeling* is
//! the assignment for a whole graph. The paper measures schemes by the
//! **length** of the longest label they assign and, secondarily, by the number
//! of **distinct** labels used (λ uses 4 distinct labels, λ_ack 5, λ_arb 6 —
//! see the paper's conclusion).
//!
//! Labels are stored little-endian in a `u64` (bit 0 is `x1`, bit 1 is `x2`,
//! bit 2 is `x3`, ...), which supports the constant-length schemes as well as
//! the O(log n)-bit baselines for any realistic `n`.

use std::fmt;

/// Maximum supported label length in bits.
pub const MAX_LABEL_BITS: usize = 64;

/// A binary-string label of length at most [`MAX_LABEL_BITS`].
///
/// The paper writes labels as strings `x1 x2 x3 …`; accessors [`Label::x1`],
/// [`Label::x2`], [`Label::x3`] follow that naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label {
    bits: u64,
    len: u8,
}

impl Label {
    /// The empty label (length 0), representing an unlabeled node.
    pub const EMPTY: Label = Label { bits: 0, len: 0 };

    /// Creates a label from its bits, given as booleans `x1, x2, …`.
    ///
    /// # Panics
    /// Panics if more than [`MAX_LABEL_BITS`] bits are given.
    pub fn from_bits(bits: &[bool]) -> Self {
        assert!(bits.len() <= MAX_LABEL_BITS, "label too long");
        let mut value = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                value |= 1 << i;
            }
        }
        Label {
            bits: value,
            len: bits.len() as u8,
        }
    }

    /// A 1-bit label `x1`.
    pub fn one_bit(x1: bool) -> Self {
        Label::from_bits(&[x1])
    }

    /// A 2-bit label `x1 x2` (the λ scheme).
    pub fn two_bits(x1: bool, x2: bool) -> Self {
        Label::from_bits(&[x1, x2])
    }

    /// A 3-bit label `x1 x2 x3` (the λ_ack and λ_arb schemes).
    pub fn three_bits(x1: bool, x2: bool, x3: bool) -> Self {
        Label::from_bits(&[x1, x2, x3])
    }

    /// A label encoding `value` in exactly `len` bits, least-significant bit
    /// first (used by the baseline schemes).
    ///
    /// # Panics
    /// Panics if `len` exceeds [`MAX_LABEL_BITS`] or cannot represent `value`.
    pub fn from_value(value: u64, len: usize) -> Self {
        assert!(len <= MAX_LABEL_BITS, "label too long");
        assert!(
            len == MAX_LABEL_BITS || value < (1u64 << len),
            "value {value} does not fit in {len} bits"
        );
        Label {
            bits: value,
            len: len as u8,
        }
    }

    /// Length of the label in bits.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the label is the empty string.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th bit (0-based), or `false` if `i` is beyond the length.
    pub fn bit(&self, i: usize) -> bool {
        i < self.len() && (self.bits >> i) & 1 == 1
    }

    /// The paper's first bit `x1` (dominator flag in λ).
    pub fn x1(&self) -> bool {
        self.bit(0)
    }

    /// The paper's second bit `x2` ("stay"-sender flag in λ).
    pub fn x2(&self) -> bool {
        self.bit(1)
    }

    /// The paper's third bit `x3` (acknowledgement initiator flag in λ_ack).
    pub fn x3(&self) -> bool {
        self.bit(2)
    }

    /// The label value interpreted as an integer (LSB = `x1`). Used by the
    /// baseline schemes where the label encodes an identifier or a colour.
    pub fn value(&self) -> u64 {
        self.bits
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        Ok(())
    }
}

/// A labeling of a whole graph: one [`Label`] per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labeling {
    labels: Vec<Label>,
    scheme: &'static str,
}

impl Labeling {
    /// Creates a labeling from per-node labels and the name of the scheme
    /// that produced it.
    pub fn new(labels: Vec<Label>, scheme: &'static str) -> Self {
        Labeling { labels, scheme }
    }

    /// Name of the scheme that produced this labeling.
    pub fn scheme(&self) -> &'static str {
        self.scheme
    }

    /// Number of labeled nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// The label of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn get(&self, v: usize) -> Label {
        self.labels[v]
    }

    /// All labels, indexed by node.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The **length** of the labeling scheme on this graph: the maximum label
    /// length over all nodes (the quantity the paper minimises).
    pub fn length(&self) -> usize {
        self.labels.iter().map(Label::len).max().unwrap_or(0)
    }

    /// Number of distinct labels used.
    pub fn distinct_count(&self) -> usize {
        let mut seen: Vec<Label> = self.labels.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Nodes whose label equals `label`.
    pub fn nodes_with_label(&self, label: Label) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == label)
            .map(|(v, _)| v)
            .collect()
    }

    /// Per-node label strings ("10", "011", ...), e.g. for DOT rendering.
    pub fn as_strings(&self) -> Vec<String> {
        self.labels.iter().map(Label::to_string).collect()
    }

    /// Total number of label bits over all nodes (a proxy for the total
    /// advice given to the network).
    pub fn total_bits(&self) -> usize {
        self.labels.iter().map(Label::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bits_and_accessors() {
        let l = Label::from_bits(&[true, false, true]);
        assert_eq!(l.len(), 3);
        assert!(l.x1());
        assert!(!l.x2());
        assert!(l.x3());
        assert!(!l.bit(3));
        assert_eq!(l.value(), 0b101);
        assert_eq!(l.to_string(), "101");
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(
            Label::two_bits(true, false),
            Label::from_bits(&[true, false])
        );
        assert_eq!(
            Label::three_bits(false, true, true),
            Label::from_bits(&[false, true, true])
        );
        assert_eq!(Label::one_bit(true).to_string(), "1");
    }

    #[test]
    fn empty_label() {
        assert_eq!(Label::EMPTY.len(), 0);
        assert!(Label::EMPTY.is_empty());
        assert_eq!(Label::EMPTY.to_string(), "");
        assert!(!Label::EMPTY.x1());
    }

    #[test]
    fn from_value_roundtrip() {
        let l = Label::from_value(13, 5);
        assert_eq!(l.len(), 5);
        assert_eq!(l.value(), 13);
        assert_eq!(l.to_string(), "10110");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_value_too_small_length_panics() {
        let _ = Label::from_value(8, 3);
    }

    #[test]
    #[should_panic(expected = "label too long")]
    fn from_bits_too_long_panics() {
        let bits = vec![false; 65];
        let _ = Label::from_bits(&bits);
    }

    #[test]
    fn labels_with_same_bits_but_different_length_differ() {
        assert_ne!(Label::from_bits(&[true]), Label::from_bits(&[true, false]));
    }

    #[test]
    fn labeling_statistics() {
        let labels = vec![
            Label::two_bits(true, false),
            Label::two_bits(false, false),
            Label::two_bits(true, false),
            Label::two_bits(false, true),
        ];
        let labeling = Labeling::new(labels, "test");
        assert_eq!(labeling.scheme(), "test");
        assert_eq!(labeling.node_count(), 4);
        assert_eq!(labeling.length(), 2);
        assert_eq!(labeling.distinct_count(), 3);
        assert_eq!(labeling.total_bits(), 8);
        assert_eq!(
            labeling.nodes_with_label(Label::two_bits(true, false)),
            vec![0, 2]
        );
        assert_eq!(labeling.get(1), Label::two_bits(false, false));
        assert_eq!(labeling.as_strings(), vec!["10", "00", "10", "01"]);
    }

    #[test]
    fn labeling_of_empty_graph() {
        let labeling = Labeling::new(Vec::new(), "empty");
        assert_eq!(labeling.length(), 0);
        assert_eq!(labeling.distinct_count(), 0);
        assert_eq!(labeling.total_bits(), 0);
    }
}
