//! Transaction state tracking.

use crate::engine::InheritedDep;
use bytes::Bytes;
use smdb_sim::{HolderSet, NodeId, TxnId};
use smdb_wal::RecId;
use std::collections::BTreeMap;

/// Lifecycle status of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// Running; holds locks; effects are uncommitted.
    Active,
    /// Committed: every effect durable; a read-only transaction has none.
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
    /// Read-modify-write: add a delta to the little-endian `i64` in a
    /// record's first eight payload bytes (a read, then an 8-byte update).
    Add(u64, i64),
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
        node: NodeId,
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

/// Volatile per-transaction state held by the engine while the
/// transaction is *live* (see [`TxnTable`]); dropped the moment it settles.
#[derive(Clone, Debug)]
pub struct TxnState {
    /// The transaction id (node-encoding; the *home* node).
    pub id: TxnId,
    /// Current status: [`TxnStatus::Active`], or [`TxnStatus::Aborted`] for
    /// a recovery victim kept only for its commit record (never
    /// `Committed` — a committed transaction leaves the table).
    pub status: TxnStatus,
    /// Operations in execution order (for rollback and commit
    /// post-processing).
    pub ops: Vec<TxnOp>,
    /// Nodes this transaction executes on, ascending. Always contains the
    /// home node; more for parallel transactions (§9: a parallel
    /// transaction must be aborted if *any* of its nodes crashes). Inline
    /// for up to [`smdb_sim::HOLDERS_INLINE`] nodes, so `begin` allocates
    /// nothing.
    pub participants: HolderSet,
    /// The transaction's commit record is appended (pipelined commit) but
    /// not yet acknowledged. The status stays [`TxnStatus::Active`] — a
    /// crash before the covering force dooms it exactly like any active
    /// transaction — but it accepts no further operations.
    pub committing: bool,
    /// Lock names on which the transaction has a queued (waiting)
    /// request, so an abort can withdraw them (no-wait policy).
    pub(crate) waits: Vec<u64>,
    /// Commit-LSN dependencies the transaction inherited by touching a
    /// violated name. Kept until it is acknowledged or aborted —
    /// recovery's cascade analysis reads the violated names.
    pub(crate) inherited: Vec<InheritedDep>,
}

impl TxnState {
    /// Fresh active transaction on its home node.
    pub fn new(id: TxnId) -> Self {
        TxnState {
            id,
            status: TxnStatus::Active,
            ops: Vec::new(),
            participants: HolderSet::single(id.node()),
            committing: false,
            waits: Vec::new(),
            inherited: Vec::new(),
        }
    }

    /// Whether the transaction executes on `node`.
    pub fn runs_on(&self, node: NodeId) -> bool {
        self.participants.contains(node)
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

/// One node's slice of the settled-status index: the status byte of every
/// transaction the node ever began, dense in the node-local sequence
/// number (`status[i]` belongs to sequence `base + 1 + i`). `base` is 0
/// on the engine proper; an execution lane starts its segment at the
/// parent's high-water mark and the barrier appends it.
#[derive(Clone, Debug, Default)]
struct StatusSegment {
    base: u64,
    status: Vec<TxnStatus>,
}

/// The engine's transaction table, in two parts sized by different things:
///
/// * the **active table** — full [`TxnState`] for *live* transactions
///   only: in flight, `committing`, or aborted by a recovery while a
///   commit record of theirs sits on their home log (the commit-dependency
///   fixpoint must keep seeing — and excluding — that record for as long
///   as it can reach a stable log). Everything restart and checkpoint walk
///   is this map, so their cost follows what a crash can lose, not how
///   long the database has been up;
/// * the **settled-status index** — one status per transaction ever begun,
///   dense per node, answering "committed, aborted or still live?" in one
///   array read for restart's classification, the commit-dependency
///   checks and the oracles.
///
/// A transaction's operations, before-image handles and participant set
/// are dropped the moment it settles. Sequence numbers are allocated
/// here, which is what keeps the index dense.
#[derive(Clone, Debug)]
pub(crate) struct TxnTable {
    active: BTreeMap<TxnId, TxnState>,
    /// Entries of `active` whose status is `Active`.
    in_flight: u64,
    settled: Vec<StatusSegment>,
}

impl TxnTable {
    pub(crate) fn new(nodes: u16) -> Self {
        TxnTable {
            active: BTreeMap::new(),
            in_flight: 0,
            settled: vec![StatusSegment::default(); nodes as usize],
        }
    }

    /// Begin a transaction on `node`: next sequence number, fresh active
    /// entry.
    pub(crate) fn begin(&mut self, node: NodeId) -> TxnId {
        let seg = &mut self.settled[node.0 as usize];
        seg.status.push(TxnStatus::Active);
        let txn = TxnId::new(node, seg.base + seg.status.len() as u64);
        self.active.insert(txn, TxnState::new(txn));
        self.in_flight += 1;
        txn
    }

    /// Highest sequence number begun so far, per node.
    pub(crate) fn seqs(&self) -> Vec<u64> {
        self.settled.iter().map(|s| s.base + s.status.len() as u64).collect()
    }

    /// Every transaction ever begun, in id order (oracles only — this is
    /// the one history-sized walk the table offers).
    pub(crate) fn all_ids(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.settled.iter().enumerate().flat_map(|(n, seg)| {
            (1..=seg.status.len() as u64).map(move |i| TxnId::new(NodeId(n as u16), seg.base + i))
        })
    }

    /// Status of any transaction ever begun; `None` for an id this table
    /// never issued.
    pub(crate) fn status(&self, txn: TxnId) -> Option<TxnStatus> {
        let seg = self.settled.get(txn.node().0 as usize)?;
        let i = txn.seq().checked_sub(seg.base + 1)?;
        seg.status.get(i as usize).copied()
    }

    fn set_status(&mut self, txn: TxnId, status: TxnStatus) {
        let seg = &mut self.settled[txn.node().0 as usize];
        seg.status[(txn.seq() - seg.base - 1) as usize] = status;
    }

    /// Live state of `txn`, if it is in the active table.
    pub(crate) fn get(&self, txn: TxnId) -> Option<&TxnState> {
        self.active.get(&txn)
    }

    pub(crate) fn get_mut(&mut self, txn: TxnId) -> Option<&mut TxnState> {
        self.active.get_mut(&txn)
    }

    /// The active table, in id order.
    pub(crate) fn live(&self) -> impl Iterator<Item = &TxnState> {
        self.active.values()
    }

    /// Entries in the active table (what a table walk visits).
    pub(crate) fn live_len(&self) -> usize {
        self.active.len()
    }

    /// Transactions whose status is `Active`.
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Take `txn`'s entry out of the active table for its commit or abort
    /// processing (which consumes the operation list); hand it back with
    /// [`TxnTable::restore`] if that processing fails, settle it
    /// otherwise.
    pub(crate) fn take(&mut self, txn: TxnId) -> Option<TxnState> {
        let t = self.active.remove(&txn)?;
        self.in_flight -= u64::from(t.is_active());
        Some(t)
    }

    pub(crate) fn restore(&mut self, t: TxnState) {
        self.in_flight += u64::from(t.is_active());
        self.active.insert(t.id, t);
    }

    /// Settle `txn` as committed: its state is dropped, the index answers
    /// for it from here on.
    pub(crate) fn settle_committed(&mut self, txn: TxnId) {
        self.take(txn);
        self.set_status(txn, TxnStatus::Committed);
    }

    /// Settle `txn` as aborted. With `commit_record_owed` its entry stays
    /// in the active table, stripped to the status (see the type docs);
    /// otherwise its state is dropped.
    pub(crate) fn settle_aborted(&mut self, txn: TxnId, commit_record_owed: bool) {
        let entry = self.take(txn);
        self.set_status(txn, TxnStatus::Aborted);
        if commit_record_owed {
            let mut t = entry.unwrap_or_else(|| TxnState::new(txn));
            t.status = TxnStatus::Aborted;
            t.committing = false;
            t.ops = Vec::new();
            t.waits = Vec::new();
            t.inherited = Vec::new();
            self.active.insert(txn, t);
        }
    }

    /// The table an execution lane starts from: no live entries, and every
    /// node's status segment empty at the parent's high-water mark.
    pub(crate) fn lane_fork(&self) -> TxnTable {
        TxnTable {
            active: BTreeMap::new(),
            in_flight: 0,
            settled: self
                .seqs()
                .into_iter()
                .map(|base| StatusSegment { base, status: Vec::new() })
                .collect(),
        }
    }

    /// The transactions of `node`'s segment that settled committed: what
    /// the barrier adopts as committed from a lane.
    pub(crate) fn committed_on(&self, node: NodeId) -> impl Iterator<Item = TxnId> + '_ {
        let seg = &self.settled[node.0 as usize];
        let committed = seg.status.iter().enumerate().filter(|(_, s)| **s == TxnStatus::Committed);
        committed.map(move |(i, _)| TxnId::new(node, seg.base + 1 + i as u64))
    }

    /// Epoch barrier: append the lane's status segment for `node` (the
    /// only node a lane begins transactions on) and adopt whatever it left
    /// live (nothing, unless the lane failed mid-transaction).
    pub(crate) fn lane_absorb(&mut self, node: NodeId, lane: TxnTable) {
        let TxnTable { active, in_flight, mut settled } = lane;
        let from = settled.swap_remove(node.0 as usize);
        let seg = &mut self.settled[node.0 as usize];
        assert_eq!(from.base, seg.base + seg.status.len() as u64, "lane segment not contiguous");
        seg.status.extend(from.status);
        self.active.extend(active);
        self.in_flight += in_flight;
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

    #[test]
    fn settling_drops_state_and_keeps_status() {
        let mut tab = TxnTable::new(2);
        let a = tab.begin(NodeId(0));
        let b = tab.begin(NodeId(0));
        let c = tab.begin(NodeId(1));
        assert_eq!((a.seq(), b.seq(), c.seq()), (1, 2, 1));
        assert_eq!(tab.seqs(), vec![2, 1]);
        assert_eq!((tab.in_flight(), tab.live_len()), (3, 3));
        tab.settle_committed(a);
        tab.settle_aborted(b, false);
        assert_eq!((tab.in_flight(), tab.live_len()), (1, 1));
        assert!(tab.get(a).is_none() && tab.get(b).is_none());
        assert_eq!(tab.status(a), Some(TxnStatus::Committed));
        assert_eq!(tab.status(b), Some(TxnStatus::Aborted));
        assert_eq!(tab.status(c), Some(TxnStatus::Active));
        assert_eq!(tab.status(TxnId::new(NodeId(1), 2)), None, "never begun");
        assert_eq!(tab.status(TxnId::new(NodeId(0), 0)), None, "seq 0 is recovery's own");
        assert_eq!(tab.status(TxnId::new(NodeId(9), 1)), None, "unknown node");
        assert_eq!(tab.all_ids().collect::<Vec<_>>(), vec![a, b, c]);
    }

    #[test]
    fn aborted_with_commit_record_owed_stays_live_but_stripped() {
        let mut tab = TxnTable::new(1);
        let t = tab.begin(NodeId(0));
        let st = tab.get_mut(t).unwrap();
        st.ops.push(TxnOp::IndexInsert { key: 1 });
        st.committing = true;
        tab.settle_aborted(t, true);
        let kept = tab.get(t).expect("kept for the dependency fixpoint");
        assert!(!kept.is_active() && !kept.committing && kept.ops.is_empty());
        assert_eq!(tab.status(t), Some(TxnStatus::Aborted));
        assert_eq!((tab.in_flight(), tab.live_len()), (0, 1));
    }

    #[test]
    fn take_and_restore_round_trip() {
        let mut tab = TxnTable::new(1);
        let t = tab.begin(NodeId(0));
        let st = tab.take(t).unwrap();
        assert_eq!(tab.in_flight(), 0);
        assert_eq!(tab.status(t), Some(TxnStatus::Active), "still unsettled while taken");
        tab.restore(st);
        assert_eq!(tab.in_flight(), 1);
        assert!(tab.get(t).is_some());
    }

    #[test]
    fn lane_segment_appends_at_the_high_water_mark() {
        let mut tab = TxnTable::new(2);
        let a = tab.begin(NodeId(1));
        tab.settle_committed(a);
        let mut lane = tab.lane_fork();
        assert_eq!(lane.status(a), None, "a lane knows only what it begins");
        let b = lane.begin(NodeId(1));
        let c = lane.begin(NodeId(1));
        assert_eq!((b.seq(), c.seq()), (2, 3));
        lane.settle_committed(b);
        lane.settle_aborted(c, false);
        tab.lane_absorb(NodeId(1), lane);
        assert_eq!(tab.seqs(), vec![0, 3]);
        assert_eq!(tab.status(b), Some(TxnStatus::Committed));
        assert_eq!(tab.status(c), Some(TxnStatus::Aborted));
        assert_eq!((tab.in_flight(), tab.live_len()), (0, 0));
        assert_eq!(tab.begin(NodeId(1)).seq(), 4);
    }
}
