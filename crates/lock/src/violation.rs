//! Violation-edge bookkeeping for early lock release (controlled lock
//! violation).
//!
//! When a committing transaction releases its write locks at commit-record
//! *append* time (before the covering log force), the released names are
//! **violated**: the data they guard carries a not-yet-durable commit. Any
//! transaction that subsequently acquires a violated name inherits a
//! **commit-LSN dependency** on the releaser — it may only be acknowledged
//! once the releaser's commit record (and transitively the whole chain) is
//! durable, and it must abort in cascade if the releaser's node crashes
//! before that force.
//!
//! The table is volatile engine state: a crash of the whole machine loses
//! it, which is fine — the same dependencies also ride in the log as
//! [`CommitDep`](smdb_wal::CommitDep) lists on Commit records, so restart
//! recovery never needs this table.

use smdb_sim::TxnId;
use smdb_wal::Lsn;
use std::collections::BTreeMap;

/// One outstanding violation: a releaser whose commit is not yet durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViolationEdge {
    /// The transaction that released the lock early.
    pub releaser: TxnId,
    /// LSN of the releaser's commit record on its home node's log.
    pub commit_lsn: Lsn,
}

/// Tracks which lock names are currently violated and by whom.
///
/// A name can be violated by several releasers at once (a chain of
/// unacknowledged writers); an acquirer inherits a dependency on each.
#[derive(Clone, Debug, Default)]
pub struct ViolationTable {
    by_name: BTreeMap<u64, Vec<ViolationEdge>>,
    edges_recorded: u64,
}

impl ViolationTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `releaser` (commit record at `commit_lsn`) released
    /// `names` before its covering force.
    pub fn record_release(&mut self, releaser: TxnId, commit_lsn: Lsn, names: &[u64]) {
        for &name in names {
            let edges = self.by_name.entry(name).or_default();
            if !edges.iter().any(|e| e.releaser == releaser) {
                edges.push(ViolationEdge { releaser, commit_lsn });
                self.edges_recorded += 1;
            }
        }
    }

    /// The outstanding violations on `name` that `acquirer` inherits
    /// dependencies from (its own edges excluded — re-acquiring a name one
    /// violated oneself creates no self-dependency).
    pub fn deps_for(&self, name: u64, acquirer: TxnId) -> Vec<ViolationEdge> {
        self.by_name
            .get(&name)
            .map(|v| v.iter().copied().filter(|e| e.releaser != acquirer).collect())
            .unwrap_or_default()
    }

    /// Remove every edge of `releaser` (it was acknowledged or its cascade
    /// was resolved).
    pub fn resolve(&mut self, releaser: TxnId) {
        self.by_name.retain(|_, edges| {
            edges.retain(|e| e.releaser != releaser);
            !edges.is_empty()
        });
    }

    /// Total violation edges ever recorded.
    pub fn edges_recorded(&self) -> u64 {
        self.edges_recorded
    }

    /// Number of names currently violated.
    pub fn violated_names(&self) -> usize {
        self.by_name.len()
    }

    /// Drop everything (machine-wide restart).
    pub fn clear(&mut self) {
        self.by_name.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_sim::NodeId;

    fn t(node: u16, seq: u64) -> TxnId {
        TxnId::new(NodeId(node), seq)
    }

    #[test]
    fn edges_accumulate_and_resolve() {
        let mut v = ViolationTable::new();
        v.record_release(t(0, 1), Lsn(5), &[7, 9]);
        v.record_release(t(1, 1), Lsn(3), &[7]);
        assert_eq!(v.deps_for(7, t(2, 1)).len(), 2, "both releasers constrain 7");
        assert_eq!(v.deps_for(9, t(2, 1)).len(), 1);
        assert_eq!(v.deps_for(9, t(0, 1)).len(), 0, "no self-dependency");
        v.resolve(t(0, 1));
        assert!(v.deps_for(9, t(2, 1)).is_empty());
        assert_eq!(
            v.deps_for(7, t(2, 1)),
            vec![ViolationEdge { releaser: t(1, 1), commit_lsn: Lsn(3) }]
        );
        assert_eq!(v.edges_recorded(), 3);
    }

    #[test]
    fn duplicate_release_records_one_edge() {
        let mut v = ViolationTable::new();
        v.record_release(t(0, 1), Lsn(5), &[7]);
        v.record_release(t(0, 1), Lsn(5), &[7]);
        assert_eq!(v.deps_for(7, t(1, 1)).len(), 1);
        assert_eq!(v.edges_recorded(), 1);
    }
}
