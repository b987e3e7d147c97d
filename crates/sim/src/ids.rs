//! Identifier newtypes shared across the whole reproduction.

use std::fmt;

/// A node: a processor/memory pair in the shared-memory multiprocessor.
///
/// The paper's failure model is *independent node failure*: a crash destroys
/// exactly one node's cache and volatile memory.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Address of one cache line in the shared address space.
///
/// The unit of coherence is the cache line (typically 128 bytes), which is
/// smaller than the unit of I/O (a page) — paper §2.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineId(pub u64);

impl LineId {
    /// First line id reserved for dynamically allocated structures (lock
    /// table overflow blocks, B-tree nodes, ...). Fixed structures (the
    /// record heap, the base lock table) live below this address.
    pub const DYNAMIC_BASE: u64 = 1 << 40;
}

impl fmt::Debug for LineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{:#x}", self.0)
    }
}

/// A transaction identifier.
///
/// Following §4.2.2 of the paper ("if the transaction ID also encodes the
/// node ID, this information is already available for use by the Volatile
/// LBM policy"), the node a transaction runs on is recoverable from the id
/// alone: the high 16 bits carry the [`NodeId`]. This is what lets the
/// recovery procedure decide, for any lock-table entry or undo tag that
/// survives a crash, whether its transaction ran on a failed node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl TxnId {
    /// Compose a transaction id from the executing node and a node-local
    /// sequence number.
    pub fn new(node: NodeId, seq: u64) -> Self {
        debug_assert!(seq < (1 << 48), "txn sequence overflow");
        TxnId(((node.0 as u64) << 48) | seq)
    }

    /// The node this transaction executes on (every transaction in our
    /// workload model executes entirely on a single node — paper §2).
    pub fn node(self) -> NodeId {
        NodeId((self.0 >> 48) as u16)
    }

    /// Node-local sequence number.
    pub fn seq(self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.node().0, self.seq())
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.node().0, self.seq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_round_trips_node_and_seq() {
        let t = TxnId::new(NodeId(513), 0xABCDEF);
        assert_eq!(t.node(), NodeId(513));
        assert_eq!(t.seq(), 0xABCDEF);
    }

    #[test]
    fn txn_id_zero_node() {
        let t = TxnId::new(NodeId(0), 0);
        assert_eq!(t.node(), NodeId(0));
        assert_eq!(t.seq(), 0);
    }

    #[test]
    fn txn_id_max_node_is_distinct() {
        let a = TxnId::new(NodeId(u16::MAX), 1);
        let b = TxnId::new(NodeId(0), 1);
        assert_ne!(a, b);
        assert_eq!(a.node(), NodeId(u16::MAX));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", TxnId::new(NodeId(3), 9)), "t3.9");
        assert_eq!(format!("{}", NodeId(12)), "n12");
        assert_eq!(format!("{:?}", LineId(0x10)), "l0x10");
    }
}
