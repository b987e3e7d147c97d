//! Transaction state tracking.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use smdb_sim::TxnId;
use smdb_wal::RecId;

/// Lifecycle status of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnStatus {
    /// Running; holds locks; effects are uncommitted.
    Active,
    /// Durably committed.
    Committed,
    /// Rolled back (voluntarily, or by crash recovery).
    Aborted,
}

/// One operation of a generated transaction — the unit every driver (the
/// workload mix, the schedule fuzzer, the epoch scheduler) feeds to
/// [`SmDb::apply`](crate::SmDb::apply).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read a record slot under a shared lock.
    Read(u64),
    /// Update a record slot under an exclusive lock.
    Update(u64, [u8; 8]),
    /// Insert an index key under an exclusive key lock.
    Insert(u64, [u8; 8]),
    /// Logically delete an index key under an exclusive key lock.
    Delete(u64),
}

/// One logical operation a transaction performed, in execution order.
/// Kept volatile on the transaction's node (dies with it — recovery never
/// relies on this; it is the *voluntary* abort/commit bookkeeping).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnOp {
    /// Heap record update: global slot + before image (payload only).
    Update {
        /// Updated record.
        rec: RecId,
        /// Before image of the payload — a zero-copy view of the same
        /// backing buffer the update's log record holds.
        before: Bytes,
        /// The node that executed the update (differs from the home node
        /// only for parallel transactions — paper §9).
        node: smdb_sim::NodeId,
    },
    /// Index insert of `key`.
    IndexInsert {
        /// Inserted key.
        key: u64,
    },
    /// Index (logical) delete of `key`.
    IndexDelete {
        /// Deleted key.
        key: u64,
    },
}

/// Volatile per-transaction state held by the engine.
#[derive(Clone, Debug)]
pub struct TxnState {
    /// The transaction id (node-encoding; the *home* node).
    pub id: TxnId,
    /// Current status.
    pub status: TxnStatus,
    /// Operations in execution order (for rollback and commit
    /// post-processing).
    pub ops: Vec<TxnOp>,
    /// Nodes this transaction executes on. Always contains the home node;
    /// more for parallel transactions (§9: a parallel transaction must be
    /// aborted if *any* of its nodes crashes).
    pub participants: std::collections::BTreeSet<smdb_sim::NodeId>,
    /// The transaction's commit record is appended (pipelined commit) but
    /// not yet acknowledged. The status stays [`TxnStatus::Active`] — a
    /// crash before the covering force dooms it exactly like any active
    /// transaction — but it accepts no further operations.
    pub committing: bool,
}

impl TxnState {
    /// Fresh active transaction on its home node.
    pub fn new(id: TxnId) -> Self {
        let mut participants = std::collections::BTreeSet::new();
        participants.insert(id.node());
        TxnState { id, status: TxnStatus::Active, ops: Vec::new(), participants, committing: false }
    }

    /// Whether the transaction executes on `node`.
    pub fn runs_on(&self, node: smdb_sim::NodeId) -> bool {
        self.participants.contains(&node)
    }

    /// Whether the transaction spans multiple nodes.
    pub fn is_parallel(&self) -> bool {
        self.participants.len() > 1
    }

    /// Whether the transaction is active.
    pub fn is_active(&self) -> bool {
        self.status == TxnStatus::Active
    }

    /// Keys this transaction inserted or deleted in the index.
    pub fn index_keys(&self) -> Vec<u64> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                TxnOp::IndexInsert { key } | TxnOp::IndexDelete { key } => Some(*key),
                TxnOp::Update { .. } => None,
            })
            .collect()
    }

    /// Records this transaction updated (deduplicated, first-touch order).
    pub fn touched_records(&self) -> Vec<RecId> {
        let mut seen = Vec::new();
        for op in &self.ops {
            if let TxnOp::Update { rec, .. } = op {
                if !seen.contains(rec) {
                    seen.push(*rec);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_sim::NodeId;
    use smdb_storage::PageId;

    #[test]
    fn bookkeeping_accessors() {
        let mut t = TxnState::new(TxnId::new(NodeId(0), 1));
        assert!(t.is_active());
        let r = RecId::new(PageId(0), 3);
        t.ops.push(TxnOp::Update { rec: r, before: Bytes::copy_from_slice(&[1]), node: NodeId(0) });
        t.ops.push(TxnOp::Update { rec: r, before: Bytes::copy_from_slice(&[2]), node: NodeId(0) });
        t.ops.push(TxnOp::IndexInsert { key: 9 });
        t.ops.push(TxnOp::IndexDelete { key: 10 });
        assert_eq!(t.touched_records(), vec![r]);
        assert_eq!(t.index_keys(), vec![9, 10]);
        t.status = TxnStatus::Committed;
        assert!(!t.is_active());
    }
}
