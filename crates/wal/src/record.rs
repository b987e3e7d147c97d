//! Log records and per-node logs.

use crate::lsn::Lsn;
use bytes::Bytes;
use smdb_sim::{NodeId, TxnId};
use smdb_storage::PageId;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Identity of a database record: a slot within a heap page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecId {
    /// The heap page holding the record.
    pub page: PageId,
    /// Slot index within the page.
    pub slot: u16,
}

impl RecId {
    /// Construct a record id.
    pub fn new(page: PageId, slot: u16) -> Self {
        RecId { page, slot }
    }
}

impl fmt::Debug for RecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.{}", self.page.0, self.slot)
    }
}

/// Lock mode as recorded in logical lock-log records. Mirrored by the lock
/// manager's richer mode type; kept here so log records are self-contained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockModeRepr {
    /// Shared (read) lock. Logged too — the paper's protocols require the
    /// logging of read locks so lock state lost in a crash can be redone
    /// for surviving transactions (§4.2.2, Table 1).
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

/// Kinds of early-committed structural changes (§4.2): changes to database
/// management structures that are allowed to commit independently of the
/// transaction that caused them (nested top-level actions), so no
/// inter-node abort dependency can form through the changed structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructuralKind {
    /// A B-tree node split: the page `new_page` was allocated and keys ≥
    /// `split_key` moved into it from `old_page`.
    BtreeSplit { old_page: u32, new_page: u32, split_key: u64 },
    /// Allocation of a new B-tree root page (tree height grew).
    BtreeNewRoot { root_page: u32 },
    /// Dynamic allocation of lock-table overflow space: `line` was
    /// allocated and linked from `parent`.
    LockSpaceAlloc { line: u64, parent: u64 },
}

/// One commit-LSN dependency recorded in a [`LogPayload::Commit`] record:
/// the committing transaction read or overwrote data whose writer released
/// its locks early (controlled lock violation), so this commit is valid
/// only if `txn`'s commit record at `lsn` (on `txn`'s home log) is durable
/// and itself valid. The partially-constrained-logs idea: constraints ride
/// in the log, so recovery can honour them without any engine state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitDep {
    /// The predecessor transaction this commit depends on.
    pub txn: TxnId,
    /// LSN of the predecessor's commit record on its home node's log.
    pub lsn: Lsn,
}

/// Payload of one log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogPayload {
    /// Transaction commit. Forcing the log up to this record makes the
    /// transaction durable — *provided* every recorded dependency is
    /// durably committed too. `deps` is empty except under early lock
    /// release, where it lists the commit records this one is constrained
    /// by (see [`CommitDep`]).
    Commit {
        /// Committing transaction.
        txn: TxnId,
        /// Commit-LSN dependencies inherited through violated locks.
        deps: Vec<CommitDep>,
    },
    /// Transaction abort (after all its updates were undone).
    Abort { txn: TxnId },
    /// A physical record update carrying both images. The undo image (the
    /// before image, i.e. the last committed value — strict 2PL guarantees
    /// at most one writer) and the redo image (the after image). Written to
    /// the volatile log *before* the updated line can migrate — the LBM
    /// policy (§4.1.1). Compensation records written during transaction
    /// rollback use the same shape with the images swapped.
    Update {
        /// Updating transaction.
        txn: TxnId,
        /// Updated record.
        rec: RecId,
        /// Before image.
        undo: Bytes,
        /// After image.
        redo: Bytes,
        /// Global update sequence number: a machine-wide monotone stamp
        /// that totally orders data updates *across* the per-node logs.
        /// Restart recovery replays redo candidates from several logs in
        /// GSN order — the cross-log analogue of the §6 ordered-update
        /// -logging rule.
        gsn: u64,
    },
    /// Logical insert of a key into the B-tree index (leaf record create).
    IndexInsert {
        /// Inserting transaction.
        txn: TxnId,
        /// Key inserted.
        key: u64,
        /// Value stored with the key.
        value: Bytes,
        /// Global update sequence number (see [`LogPayload::Update`]).
        gsn: u64,
    },
    /// Logical delete of a key from the B-tree index. Implemented as a
    /// delete *mark* (§4.2.1); undo merely unmarks.
    IndexDelete {
        /// Deleting transaction.
        txn: TxnId,
        /// Key marked deleted.
        key: u64,
        /// Value at the time of the delete (for redo of the mark on a
        /// reconstructed node).
        value: Bytes,
        /// Global update sequence number (see [`LogPayload::Update`]).
        gsn: u64,
    },
    /// Compensation record: physical removal of an index entry (the undo of
    /// an uncommitted insert during rollback, or post-commit space reclaim
    /// of a delete-marked entry).
    IndexRemove {
        /// Transaction being rolled back (or committing, for reclaim).
        txn: TxnId,
        /// Key removed.
        key: u64,
        /// Global update sequence number (see [`LogPayload::Update`]).
        gsn: u64,
    },
    /// Compensation record: unmarking a logically deleted index entry (the
    /// undo of an uncommitted delete during rollback).
    IndexUnmark {
        /// Transaction being rolled back.
        txn: TxnId,
        /// Key unmarked.
        key: u64,
        /// Global update sequence number (see [`LogPayload::Update`]).
        gsn: u64,
    },
    /// An early-committed structural change (nested top-level action).
    /// Forced to stable store as part of the early commit, so no other
    /// transaction can become dependent on volatile structural state
    /// (§4.2).
    Structural {
        /// Transaction whose operation triggered the change (the change
        /// commits regardless of this transaction's fate).
        txn: TxnId,
        /// What changed.
        kind: StructuralKind,
    },
    /// Logical lock-acquisition record, written *before* the LCB update
    /// (§4.2.2). Read locks are logged too.
    LockAcquire {
        /// Acquiring transaction.
        txn: TxnId,
        /// Lock name (hash of the resource identity).
        name: u64,
        /// Requested mode.
        mode: LockModeRepr,
        /// Whether the request was queued rather than granted (queued
        /// requests must be logged as well — §4.2.2).
        queued: bool,
    },
    /// Logical lock-release record.
    LockRelease {
        /// Releasing transaction.
        txn: TxnId,
        /// Lock name.
        name: u64,
        /// `true` when only a *queued* request was withdrawn (a no-wait
        /// cancel); the transaction's grant, if any, is unaffected. Replay
        /// must not confuse the two: a cancelled queued upgrade leaves the
        /// original grant in force.
        wait_only: bool,
    },
    /// Sharp checkpoint marker: at this point every dirty page this node
    /// had updated has been flushed and the log forced.
    Checkpoint,
}

impl LogPayload {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogPayload::Commit { txn, .. }
            | LogPayload::Abort { txn }
            | LogPayload::Update { txn, .. }
            | LogPayload::IndexInsert { txn, .. }
            | LogPayload::IndexDelete { txn, .. }
            | LogPayload::IndexRemove { txn, .. }
            | LogPayload::IndexUnmark { txn, .. }
            | LogPayload::Structural { txn, .. }
            | LogPayload::LockAcquire { txn, .. }
            | LogPayload::LockRelease { txn, .. } => Some(*txn),
            LogPayload::Checkpoint => None,
        }
    }

    /// The global update sequence number carried by data records; `None`
    /// for control, lock, and structural records.
    pub fn gsn(&self) -> Option<u64> {
        match self {
            LogPayload::Update { gsn, .. }
            | LogPayload::IndexInsert { gsn, .. }
            | LogPayload::IndexDelete { gsn, .. }
            | LogPayload::IndexRemove { gsn, .. }
            | LogPayload::IndexUnmark { gsn, .. } => Some(*gsn),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes, used for overhead accounting
    /// (Table 1 reports *what* must be logged; the bench reports how many
    /// bytes that costs).
    pub fn approx_size(&self) -> usize {
        let header = 16; // lsn + type tag + txn
        match self {
            LogPayload::Update { undo, redo, .. } => header + 16 + undo.len() + redo.len(),
            LogPayload::IndexInsert { value, .. } | LogPayload::IndexDelete { value, .. } => {
                header + 16 + value.len()
            }
            LogPayload::IndexRemove { .. } | LogPayload::IndexUnmark { .. } => header + 16,
            LogPayload::Structural { .. } => header + 16,
            LogPayload::LockAcquire { .. } => header + 10,
            LogPayload::LockRelease { .. } => header + 10,
            _ => header,
        }
    }
}

/// One record in a node's log (the log knows its node).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Node-local sequence number.
    pub lsn: Lsn,
    /// The logged operation.
    pub payload: LogPayload,
}

/// What restart analysis needs of one data record (a record carrying a
/// GSN) before it applies anything: where the record sits, its global
/// order, its writer and — for a heap `Update` — the record written. A
/// pure function of the log record, kept beside the log so the analysis
/// reads 32 bytes per data record instead of the record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataRef {
    /// LSN of the record on its log ([`NodeLog::record`] opens it).
    pub lsn: Lsn,
    /// The record's global update sequence number.
    pub gsn: u64,
    /// The writing transaction.
    pub txn: TxnId,
    /// The heap record of an `Update`; meaningless unless `is_update`
    /// (flat fields: an `Option<RecId>` would cost a fifth word).
    page: PageId,
    slot: u16,
    is_update: bool,
}

const _: () = assert!(std::mem::size_of::<DataRef>() == 32);

impl DataRef {
    /// The index entry of `record`; `None` unless it carries a GSN.
    fn of(record: &LogRecord) -> Option<DataRef> {
        let (txn, gsn, rec) = match record.payload {
            LogPayload::Update { txn, rec, gsn, .. } => (txn, gsn, Some(rec)),
            LogPayload::IndexInsert { txn, gsn, .. }
            | LogPayload::IndexDelete { txn, gsn, .. }
            | LogPayload::IndexRemove { txn, gsn, .. }
            | LogPayload::IndexUnmark { txn, gsn, .. } => (txn, gsn, None),
            _ => return None,
        };
        let (page, slot) = rec.map_or((PageId(0), 0), |r| (r.page, r.slot));
        Some(DataRef { lsn: record.lsn, gsn, txn, page, slot, is_update: rec.is_some() })
    }

    /// The heap record an `Update` wrote; `None` for the four index
    /// operation kinds, whose keys and values stay log reads.
    pub fn rec(&self) -> Option<RecId> {
        self.is_update.then(|| RecId::new(self.page, self.slot))
    }
}

/// Counters for one node's log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeLogStats {
    /// Records appended.
    pub appends: u64,
    /// Bytes appended (approximate serialized size).
    pub bytes_appended: u64,
    /// Physical log forces performed (calls that actually moved the stable
    /// boundary). The [`CostModel`](smdb_sim) force latency is charged per
    /// *physical* force; see `forces_requested` for the logical count.
    pub forces: u64,
    /// Logical durability requests: every force call that found volatile
    /// records it needed stable. Without coalescing each request is served
    /// by its own physical force (`forces_requested == forces`); with
    /// coalescing, requests inside a transaction's LBM window are absorbed
    /// into the pending-force window and served later by one physical
    /// force, so `forces_requested >= forces`.
    pub forces_requested: u64,
    /// Requests absorbed into the pending-force window instead of being
    /// served by an immediate physical force
    /// (`forces_requested == forces + forces_coalesced`).
    pub forces_coalesced: u64,
    /// Records made stable by forces.
    pub records_forced: u64,
    /// Read-lock acquisition records appended (an IFA-specific overhead —
    /// Table 1).
    pub read_lock_records: u64,
    /// Structural early-commit records appended (an IFA-specific overhead —
    /// Table 1).
    pub structural_records: u64,
}

/// Incremental per-append index over one node's log, maintained by
/// [`NodeLog::append`] so restart recovery never has to scan a log just to
/// answer "who committed?", "where does this transaction start?", or "is
/// there any data record past the checkpoint?".
///
/// What each part is sized by, and why:
///
/// * **Commit entries survive truncation, densely.** A committed
///   transaction whose Commit record has been reclaimed by a checkpoint
///   may still have participant records retained on *another* node's log;
///   classifying it as uncommitted there would patch committed data away.
///   The entry is the durable memory of the reclaimed record
///   (conceptually part of the checkpoint metadata on the shared disk).
///   Commit records live on the home log and sequence numbers are dense
///   per node, so the memory is one LSN per sequence number — an array
///   lookup, not a tree descent — and the whole-history commit oracle
///   ([`NodeLog::stable_commits`]) reads it in order.
/// * **First-record entries are sized by live transactions.** They are
///   only ever read for *active* transactions (the checkpoint's undo
///   floor, lock-log replay), so an entry is retired when its transaction
///   settles ([`NodeLog::retire_txn`], after the transaction's last
///   append — lock-release records follow the Commit record), and
///   truncation drops whatever sits at or below its cutoff: the cutoff is
///   below the first record of every active transaction, so such an entry
///   can only belong to a settled one.
/// * **Crash clamps are conservative upper bounds.** After a crash the
///   retained maximum data LSN may be lower than the clamped value; the
///   safe direction is "scan anyway", never "skip".
#[derive(Clone, Debug)]
pub struct LogIndex {
    /// The log's node: the home of every transaction in `commit_lsns`.
    node: NodeId,
    /// Commit-record LSN of the home transaction with sequence number `i`
    /// at index `i`; [`Lsn::ZERO`] for "no commit record" (kept across
    /// truncation).
    commit_lsns: Vec<Lsn>,
    /// Commit-LSN dependencies per committed transaction (kept across
    /// truncation, like `commit_lsns` — a reclaimed commit record's
    /// constraints remain part of the durable checkpoint metadata). Only
    /// populated for commits with a non-empty dependency list.
    commit_deps: BTreeMap<TxnId, Vec<CommitDep>>,
    /// LSN of the first retained record of each unsettled transaction
    /// that wrote to this log.
    first_txn_lsns: BTreeMap<TxnId, Lsn>,
    /// Highest LSN of any data record (Update / Index*); [`Lsn::ZERO`]
    /// when the log has never carried one.
    last_data_lsn: Lsn,
}

impl LogIndex {
    fn new(node: NodeId) -> Self {
        LogIndex {
            node,
            commit_lsns: Vec::new(),
            commit_deps: BTreeMap::new(),
            first_txn_lsns: BTreeMap::new(),
            last_data_lsn: Lsn::ZERO,
        }
    }

    fn note_append(&mut self, lsn: Lsn, payload: &LogPayload) {
        if let LogPayload::Commit { txn, deps } = payload {
            assert_eq!(txn.node(), self.node, "commit records live on the home log");
            let seq = txn.seq() as usize;
            if self.commit_lsns.len() <= seq {
                self.commit_lsns.resize(seq + 1, Lsn::ZERO);
            }
            self.commit_lsns[seq] = lsn;
            if !deps.is_empty() {
                self.commit_deps.insert(*txn, deps.clone());
            }
        } else if payload.gsn().is_some() {
            self.last_data_lsn = lsn;
        }
        if let Some(txn) = payload.txn() {
            self.first_txn_lsns.entry(txn).or_insert(lsn);
        }
    }

    /// Forget a Commit record lost with the volatile tail.
    fn forget_commit(&mut self, txn: TxnId) {
        self.commit_lsns[txn.seq() as usize] = Lsn::ZERO;
        self.commit_deps.remove(&txn);
    }

    /// Transactions whose Commit record reached LSN ≤ `stable`, ascending.
    pub fn stable_commits(&self, stable: Lsn) -> impl Iterator<Item = TxnId> + '_ {
        let node = self.node;
        self.commit_lsns
            .iter()
            .enumerate()
            .filter(move |(_, l)| **l != Lsn::ZERO && **l <= stable)
            .map(move |(seq, _)| TxnId::new(node, seq as u64))
    }

    /// LSN of `txn`'s Commit record on this log, if it ever committed here.
    pub fn commit_lsn(&self, txn: TxnId) -> Option<Lsn> {
        if txn.node() != self.node {
            return None;
        }
        self.commit_lsns.get(txn.seq() as usize).copied().filter(|l| *l != Lsn::ZERO)
    }

    /// The commit-LSN dependencies recorded with `txn`'s Commit record
    /// (empty for unconstrained commits).
    pub fn commit_deps_of(&self, txn: TxnId) -> &[CommitDep] {
        self.commit_deps.get(&txn).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// LSN of the first retained record of the unsettled transaction
    /// `txn` on this log, if it wrote one.
    pub fn first_txn_lsn(&self, txn: TxnId) -> Option<Lsn> {
        self.first_txn_lsns.get(&txn).copied()
    }

    /// Number of first-record entries held: transactions with a retained
    /// record here that have not been retired (bounded-growth checks).
    pub fn first_txn_entries(&self) -> usize {
        self.first_txn_lsns.len()
    }

    /// Highest LSN of any data record ever appended (upper bound after a
    /// crash; see type docs).
    pub fn last_data_lsn(&self) -> Lsn {
        self.last_data_lsn
    }
}

/// Records per log segment. One constant: a segment is ~104 KB, so the
/// slack of a checkpointed log (one partly filled segment, one partly
/// truncated one) stays below the doubling slack of the `Vec` it
/// replaced, and a long log is a few hundred segments.
const SEGMENT_RECORDS: usize = 1024;

/// A double-ended, exact-size iterator over a run of a log's retained
/// records, in LSN order. Walks the segments slice by slice: the run is
/// the rest of a first segment, whole segments, and the start of a last.
#[derive(Clone, Debug)]
pub struct Records<'a> {
    front: std::slice::Iter<'a, LogRecord>,
    /// The whole segments between `front`'s and `back`'s, each `seg_len`
    /// records long.
    mid: std::collections::vec_deque::Iter<'a, Vec<LogRecord>>,
    back: std::slice::Iter<'a, LogRecord>,
    seg_len: usize,
}

impl<'a> Records<'a> {
    /// The records at physical positions `from..to` of `segments` (every
    /// segment but the last holds `seg_len` records).
    fn new(segments: &'a VecDeque<Vec<LogRecord>>, seg_len: usize, from: usize, to: usize) -> Self {
        let none: &[LogRecord] = &[];
        let (mut front, mut mid, mut back) = (none.iter(), segments.range(0..0), none.iter());
        if from < to {
            let (first, first_at) = (from / seg_len, from % seg_len);
            let (last, last_end) = ((to - 1) / seg_len, (to - 1) % seg_len + 1);
            if first == last {
                front = segments[first][first_at..last_end].iter();
            } else {
                front = segments[first][first_at..].iter();
                mid = segments.range(first + 1..last);
                back = segments[last][..last_end].iter();
            }
        }
        Records { front, mid, back, seg_len }
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = &'a LogRecord;

    #[inline]
    fn next(&mut self) -> Option<&'a LogRecord> {
        loop {
            if let Some(r) = self.front.next() {
                return Some(r);
            }
            match self.mid.next() {
                Some(seg) => self.front = seg.iter(),
                None => return self.back.next(),
            }
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.front.len() + self.mid.len() * self.seg_len + self.back.len();
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Records<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(r) = self.back.next_back() {
                return Some(r);
            }
            match self.mid.next_back() {
                Some(seg) => self.back = seg.iter(),
                None => return self.front.next_back(),
            }
        }
    }
}

impl ExactSizeIterator for Records<'_> {}

/// One node's log: a volatile tail in the node's local memory plus a stable
/// prefix on a shared disk.
///
/// A crash of the node destroys the volatile tail; the stable prefix
/// survives (and is all restart recovery can rely on for crashed nodes —
/// §4.1.1: *"one cannot rely on using the local undo log ... it could
/// easily be the case that the transaction management system left no trace
/// of ever running t_x"*).
///
/// Checkpoints may [`truncate`](NodeLog::truncate_through) the prefix the
/// recovery procedure can no longer need (everything at or below the
/// checkpoint, bounded by the oldest record of any still-active
/// transaction); LSNs are stable identities and survive truncation.
///
/// Records sit in fixed-size segments: an append writes in place and never
/// moves an older record, truncation pops whole segments, a crash pops the
/// tail, and an empty log owns no memory.
#[derive(Clone, Debug)]
pub struct NodeLog {
    node: NodeId,
    /// Retained records. Every segment but the last holds `seg_len`
    /// records and none is empty; the first `head` records of the first
    /// segment are truncated. The retained record at offset `i` has LSN
    /// `base + i + 1`.
    segments: VecDeque<Vec<LogRecord>>,
    /// Truncated records at the front of the first segment: they stay in
    /// place, payload dropped, until the whole segment goes.
    head: usize,
    /// Records per segment ([`SEGMENT_RECORDS`] outside tests).
    seg_len: usize,
    /// Number of records discarded from the front by truncation.
    base: u64,
    /// The [`DataRef`] of every retained record that carries a GSN, and
    /// the LSN of every retained `Structural` record, ascending: the two
    /// classes recovery reads on their own ([`NodeLog::data_refs`],
    /// [`NodeLog::structural_records`]).
    data_refs: VecDeque<DataRef>,
    structural_lsns: VecDeque<Lsn>,
    /// LSN up to which (inclusive) the log is on stable storage.
    stable_upto: Lsn,
    /// Whether logical durability requests may be deferred into the
    /// pending-force window (see [`NodeLog::request_force_to`]).
    coalesce: bool,
    /// High-water mark of deferred force requests. [`Lsn::ZERO`] (or any
    /// value ≤ `stable_upto`) means the window is empty. Volatile: a crash
    /// discards it along with the unforced tail it pointed at.
    pending_force: Lsn,
    /// Incremental per-append index (commits, first records, data mark).
    index: LogIndex,
    stats: NodeLogStats,
}

impl NodeLog {
    /// Create an empty log for `node`.
    pub fn new(node: NodeId) -> Self {
        Self::with_segment_len(node, SEGMENT_RECORDS)
    }

    /// An empty log with `seg_len` records per segment — for tests that
    /// want segment boundaries crossed constantly; [`NodeLog::new`] is the
    /// production constructor.
    #[doc(hidden)]
    pub fn with_segment_len(node: NodeId, seg_len: usize) -> Self {
        assert!(seg_len > 0, "a segment holds at least one record");
        NodeLog {
            node,
            segments: VecDeque::new(),
            head: 0,
            seg_len,
            base: 0,
            data_refs: VecDeque::new(),
            structural_lsns: VecDeque::new(),
            stable_upto: Lsn::ZERO,
            coalesce: false,
            pending_force: Lsn::ZERO,
            index: LogIndex::new(node),
            stats: NodeLogStats::default(),
        }
    }

    /// The node that owns this log.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Append a record to the volatile tail; returns its LSN.
    pub fn append(&mut self, payload: LogPayload) -> Lsn {
        let lsn = Lsn(self.last_lsn().0 + 1);
        self.stats.appends += 1;
        self.stats.bytes_appended += payload.approx_size() as u64;
        if let LogPayload::LockAcquire { mode: LockModeRepr::Shared, .. } = payload {
            self.stats.read_lock_records += 1;
        }
        if let LogPayload::Structural { .. } = payload {
            self.stats.structural_records += 1;
            self.structural_lsns.push_back(lsn);
        }
        self.index.note_append(lsn, &payload);
        let record = LogRecord { lsn, payload };
        if let Some(data) = DataRef::of(&record) {
            self.data_refs.push_back(data);
        }
        if self.segments.back().is_none_or(|s| s.len() == self.seg_len) {
            self.segments.push_back(Vec::with_capacity(self.seg_len));
        }
        let tail = self.segments.back_mut().expect("a segment with room was just ensured");
        tail.push(record);
        lsn
    }

    /// LSN of the most recently appended record ([`Lsn::ZERO`] if empty).
    pub fn last_lsn(&self) -> Lsn {
        Lsn(self.base + self.len() as u64)
    }

    /// LSN up to which (inclusive) the log is stable.
    pub fn stable_lsn(&self) -> Lsn {
        self.stable_upto
    }

    /// Whether the record at `lsn` is on stable storage.
    pub fn is_stable(&self, lsn: Lsn) -> bool {
        lsn <= self.stable_upto
    }

    /// The committed-through high-water mark: every record at or below
    /// this LSN has been covered by a physical force. This is the boundary
    /// the engine tests commit-dependency chains against when deciding
    /// whether an early-lock-release commit may be acknowledged (an alias
    /// of [`NodeLog::stable_lsn`], named for that role).
    pub fn durable_lsn(&self) -> Lsn {
        self.stable_upto
    }

    /// Force the log to stable storage up to `lsn` (inclusive). Returns
    /// `true` if the stable boundary actually moved (i.e. a physical force
    /// was needed); `false` if the prefix was already stable. The caller
    /// charges the force latency when `true`. A physical force also drains
    /// whatever part of the pending-force window it covers — this is how
    /// coalesced requests piggyback on commit/trigger forces.
    pub fn force_to(&mut self, lsn: Lsn) -> bool {
        let want = lsn.min(self.last_lsn());
        if want <= self.stable_upto {
            return false;
        }
        self.stats.forces += 1;
        self.stats.forces_requested += 1;
        self.stats.records_forced += want.0 - self.stable_upto.0;
        self.stable_upto = want;
        if self.pending_force <= self.stable_upto {
            self.pending_force = Lsn::ZERO;
        }
        true
    }

    /// Enable or disable force coalescing for this log.
    pub fn set_coalescing(&mut self, on: bool) {
        self.coalesce = on;
    }

    /// Whether force coalescing is enabled.
    pub fn coalescing(&self) -> bool {
        self.coalesce
    }

    /// Logical durability request under force coalescing: instead of
    /// forcing physically, record `lsn` in the pending-force window. The
    /// next physical force on this log (a commit force, an LBM trigger
    /// force, a checkpoint, or an overflow early commit) covers the whole
    /// window at the cost of one [`CostModel`](smdb_sim) force charge —
    /// the group-commit / piggybacked-force mechanism. Returns `true` if
    /// the request was deferred (there were volatile records to cover);
    /// `false` if the prefix was already stable and nothing was needed.
    ///
    /// Only meaningful with coalescing enabled — eager callers should use
    /// the physical [`NodeLog::force_to`] (or the fault-checked LogSet
    /// wrappers) directly so torn-force crash points keep firing.
    pub fn request_force_to(&mut self, lsn: Lsn) -> bool {
        debug_assert!(self.coalesce, "request_force_to without coalescing enabled");
        let want = lsn.min(self.last_lsn());
        if want <= self.stable_upto {
            return false;
        }
        self.stats.forces_requested += 1;
        self.stats.forces_coalesced += 1;
        if want > self.pending_force {
            self.pending_force = want;
        }
        true
    }

    /// The deferred-force high-water mark, if any request is still pending.
    pub fn pending_force(&self) -> Option<Lsn> {
        (self.pending_force > self.stable_upto).then_some(self.pending_force)
    }

    /// Force the entire log.
    pub fn force_all(&mut self) -> bool {
        self.force_to(self.last_lsn())
    }

    /// Advance the stable boundary by exactly `n` records (bounded by the
    /// volatile tail). This models a force interrupted partway: the first
    /// `n` records of the batch reached the disk, the rest die with the
    /// node. Fault injection uses it to leave a *half-forced* log behind.
    pub fn force_records(&mut self, n: u64) -> bool {
        self.force_to(Lsn(self.stable_upto.0 + n))
    }

    /// Number of volatile-tail records a force to `lsn` would write.
    pub fn unforced_count_to(&self, lsn: Lsn) -> u64 {
        let want = lsn.min(self.last_lsn());
        want.0.saturating_sub(self.stable_upto.0)
    }

    /// Crash this node's log: the volatile tail vanishes; the stable prefix
    /// remains.
    pub fn crash(&mut self) {
        let stable = self.stable_upto;
        // Physical positions: end of the stable prefix, end of the log.
        let (kept, end) = (self.head + self.stable_len(), self.head + self.len());
        // Commit records die with the tail they sat in.
        for rec in Records::new(&self.segments, self.seg_len, kept, end) {
            if let LogPayload::Commit { txn, .. } = rec.payload {
                self.index.forget_commit(txn);
            }
        }
        if kept == self.head {
            self.segments.clear();
            self.head = 0;
        } else {
            self.segments.truncate(kept.div_ceil(self.seg_len));
            let tail = self.segments.back_mut().expect("a kept record retains its segment");
            tail.truncate(kept - (kept - 1) / self.seg_len * self.seg_len);
        }
        self.pending_force = Lsn::ZERO;
        self.data_refs.truncate(self.data_refs.partition_point(|d| d.lsn <= stable));
        self.structural_lsns.truncate(self.structural_lsns.partition_point(|l| *l <= stable));
        self.index.first_txn_lsns.retain(|_, l| *l <= stable);
        self.index.last_data_lsn = self.index.last_data_lsn.min(stable);
    }

    /// Number of retained records on the stable prefix.
    fn stable_len(&self) -> usize {
        (self.stable_upto.0.saturating_sub(self.base) as usize).min(self.len())
    }

    /// The retained records at offsets `from..to`.
    fn range(&self, from: usize, to: usize) -> Records<'_> {
        Records::new(&self.segments, self.seg_len, self.head + from, self.head + to)
    }

    /// All retained records (stable prefix + volatile tail). For a
    /// surviving node this is the full history since the last truncation;
    /// for a crashed node call after [`NodeLog::crash`] and only the
    /// stable prefix remains.
    pub fn records(&self) -> Records<'_> {
        self.range(0, self.len())
    }

    /// Only the (retained part of the) stable prefix.
    pub fn stable_records(&self) -> Records<'_> {
        self.range(0, self.stable_len())
    }

    /// Records with LSN strictly greater than `after`.
    pub fn records_after(&self, after: Lsn) -> Records<'_> {
        let start = (after.0.saturating_sub(self.base) as usize).min(self.len());
        self.range(start, self.len())
    }

    /// The retained record at `lsn`, in O(1); `None` for a truncated or
    /// never-written LSN.
    pub fn record(&self, lsn: Lsn) -> Option<&LogRecord> {
        let offset = lsn.0.checked_sub(self.base + 1)? as usize;
        if offset >= self.len() {
            return None;
        }
        let at = self.head + offset;
        Some(&self.segments[at / self.seg_len][at % self.seg_len])
    }

    /// The [`DataRef`]s of the retained records that carry a GSN
    /// (`Update` / `Index*`), in LSN order; with `stable_only`, those on
    /// the stable prefix. Restart analysis classifies nothing else, and
    /// until it applies a write it needs nothing else of them — it walks
    /// these and opens a record ([`NodeLog::record`]) only for what it
    /// applies.
    pub fn data_refs(&self, stable_only: bool) -> impl ExactSizeIterator<Item = &DataRef> + '_ {
        let upto = if stable_only { self.stable_upto } else { self.last_lsn() };
        self.data_refs.range(..self.data_refs.partition_point(|d| d.lsn <= upto))
    }

    /// The retained `Structural` records (index splits and root growth,
    /// lock-space allocations), in LSN order; with `stable_only`, those on
    /// the stable prefix. They are rare and forced at once, and the two
    /// recoveries that rebuild a skeleton from them read nothing else.
    pub fn structural_records(&self, stable_only: bool) -> impl Iterator<Item = &LogRecord> + '_ {
        let upto = if stable_only { self.stable_upto } else { self.last_lsn() };
        let n = self.structural_lsns.partition_point(|l| *l <= upto);
        self.structural_lsns
            .range(..n)
            .map(|lsn| self.record(*lsn).expect("an indexed LSN is retained"))
    }

    /// Discard every record with LSN ≤ `lsn` (checkpoint-driven log
    /// reclamation). Only durable records may be discarded — the volatile
    /// tail is the crash-recovery source of truth for surviving nodes.
    /// The caller guarantees recovery will never need the discarded
    /// prefix: the checkpoint flushed every page (so no redo below it)
    /// and `lsn` is below the first record of every active transaction
    /// (so no undo below it either).
    pub fn truncate_through(&mut self, lsn: Lsn) {
        assert!(lsn <= self.stable_upto, "cannot truncate unforced records");
        if lsn.0 <= self.base {
            return;
        }
        let n = ((lsn.0 - self.base) as usize).min(self.len());
        if n == self.len() {
            self.segments.clear();
            self.head = 0;
        } else {
            let head = self.head + n;
            let whole = head / self.seg_len;
            self.segments.drain(..whole);
            // The first segment stays where it is; its truncated records
            // give their payloads back now.
            let blank_from = if whole == 0 { self.head } else { 0 };
            self.head = head % self.seg_len;
            for rec in &mut self.segments[0][blank_from..self.head] {
                rec.payload = LogPayload::Checkpoint;
            }
        }
        self.base = lsn.0;
        self.data_refs.drain(..self.data_refs.partition_point(|d| d.lsn <= lsn));
        self.structural_lsns.drain(..self.structural_lsns.partition_point(|l| *l <= lsn));
        self.index.first_txn_lsns.retain(|_, first| *first > lsn);
    }

    /// LSN below which records have been discarded.
    pub fn truncation_point(&self) -> Lsn {
        Lsn(self.base)
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        match self.segments.back() {
            Some(tail) => (self.segments.len() - 1) * self.seg_len + tail.len() - self.head,
            None => 0,
        }
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The incremental per-append index.
    pub fn index(&self) -> &LogIndex {
        &self.index
    }

    /// `txn` has settled and appends nothing further: drop its
    /// first-record entry (see [`LogIndex`]). A no-op for a transaction
    /// that never wrote here.
    pub fn retire_txn(&mut self, txn: TxnId) {
        self.index.first_txn_lsns.remove(&txn);
    }

    /// Transactions whose Commit record is on this log's stable prefix
    /// (including commits whose record was reclaimed by truncation).
    pub fn stable_commits(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.index.stable_commits(self.stable_upto)
    }

    /// Whether `txn`'s Commit record on this log reached stable storage.
    pub fn is_commit_stable(&self, txn: TxnId) -> bool {
        self.index.commit_lsn(txn).is_some_and(|l| l <= self.stable_upto)
    }

    /// Whether any data record with LSN > `after` may be retained — the
    /// checkpoint-bounded scan filter. Conservative: `true` may still mean
    /// an empty scan, `false` guarantees one.
    pub fn has_data_after(&self, after: Lsn) -> bool {
        self.index.last_data_lsn > after
    }

    /// Log statistics.
    pub fn stats(&self) -> &NodeLogStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n0() -> NodeId {
        NodeId(0)
    }

    /// One record of transaction `seq`: its first lock acquisition, which
    /// is what a transaction's first record on a log usually is.
    pub(super) fn acquire(seq: u64) -> LogPayload {
        LogPayload::LockAcquire {
            txn: TxnId::new(NodeId(0), seq),
            name: seq,
            mode: LockModeRepr::Exclusive,
            queued: false,
        }
    }

    #[test]
    fn append_assigns_sequential_lsns() {
        let mut log = NodeLog::new(n0());
        assert_eq!(log.append(acquire(1)), Lsn(1));
        assert_eq!(log.append(acquire(2)), Lsn(2));
        assert_eq!(log.last_lsn(), Lsn(2));
    }

    #[test]
    fn force_moves_stable_boundary_once() {
        let mut log = NodeLog::new(n0());
        log.append(acquire(1));
        log.append(acquire(2));
        assert!(log.force_to(Lsn(1)));
        assert!(!log.force_to(Lsn(1)), "already stable: no physical force");
        assert!(log.is_stable(Lsn(1)));
        assert!(!log.is_stable(Lsn(2)));
        assert_eq!(log.stats().forces, 1);
        assert_eq!(log.stats().forces_requested, 1, "eager: one request, one physical force");
        assert_eq!(log.stats().forces_coalesced, 0);
        assert_eq!(log.stats().records_forced, 1);
    }

    #[test]
    fn coalesced_requests_batch_into_one_physical_force() {
        let mut log = NodeLog::new(n0());
        log.set_coalescing(true);
        let l1 = log.append(acquire(1));
        let l2 = log.append(acquire(2));
        assert!(log.request_force_to(l1), "deferred into the window");
        assert!(log.request_force_to(l2), "window grows, still no physical force");
        assert_eq!(log.stats().forces, 0);
        assert_eq!(log.stats().forces_requested, 2);
        assert_eq!(log.stats().forces_coalesced, 2);
        assert_eq!(log.pending_force(), Some(l2));
        // One physical force (e.g. the commit force) drains the window.
        let l3 = log.append(acquire(3));
        assert!(log.force_to(l3));
        assert_eq!(log.pending_force(), None);
        assert_eq!(log.stats().forces, 1);
        assert_eq!(log.stats().forces_requested, 3);
        assert_eq!(log.stats().records_forced, 3, "every record still reaches stable store");
        // Requests below the stable boundary need nothing.
        assert!(!log.request_force_to(l1));
        assert_eq!(log.stats().forces_requested, 3);
    }

    #[test]
    fn partial_force_keeps_uncovered_window() {
        let mut log = NodeLog::new(n0());
        log.set_coalescing(true);
        log.append(acquire(1));
        let l2 = log.append(acquire(2));
        log.request_force_to(l2);
        // A torn force that persisted only the first record leaves the
        // window demanding the rest.
        assert!(log.force_records(1));
        assert_eq!(log.pending_force(), Some(l2));
        assert!(log.force_to(l2));
        assert_eq!(log.pending_force(), None);
    }

    #[test]
    fn crash_discards_pending_window() {
        let mut log = NodeLog::new(n0());
        log.set_coalescing(true);
        let l1 = log.append(acquire(1));
        log.request_force_to(l1);
        log.crash();
        assert_eq!(log.pending_force(), None, "deferred requests die with the tail");
        assert!(log.is_empty());
    }

    #[test]
    fn crash_destroys_volatile_tail_only() {
        let mut log = NodeLog::new(n0());
        log.append(acquire(1));
        log.append(acquire(2));
        log.append(acquire(3));
        log.force_to(Lsn(2));
        log.crash();
        assert_eq!(log.len(), 2);
        assert_eq!(log.records().next_back().unwrap().lsn, Lsn(2));
        // The paper's "left no trace" scenario: nothing forced, all gone.
        let mut log2 = NodeLog::new(n0());
        log2.append(acquire(9));
        log2.crash();
        assert!(log2.is_empty());
    }

    #[test]
    fn records_after_slices_by_lsn() {
        let mut log = NodeLog::new(n0());
        for i in 1..=5 {
            log.append(acquire(i));
        }
        assert_eq!(log.records_after(Lsn(3)).len(), 2);
        assert_eq!(log.records_after(Lsn(0)).len(), 5);
        assert_eq!(log.records_after(Lsn(99)).len(), 0);
    }

    #[test]
    fn read_lock_records_counted() {
        let mut log = NodeLog::new(n0());
        let t = TxnId::new(NodeId(0), 1);
        log.append(LogPayload::LockAcquire {
            txn: t,
            name: 5,
            mode: LockModeRepr::Shared,
            queued: false,
        });
        log.append(LogPayload::LockAcquire {
            txn: t,
            name: 6,
            mode: LockModeRepr::Exclusive,
            queued: false,
        });
        assert_eq!(log.stats().read_lock_records, 1);
    }

    #[test]
    fn structural_records_counted() {
        let mut log = NodeLog::new(n0());
        let t = TxnId::new(NodeId(0), 1);
        log.append(LogPayload::Structural {
            txn: t,
            kind: StructuralKind::BtreeSplit { old_page: 3, new_page: 7, split_key: 10 },
        });
        assert_eq!(log.stats().structural_records, 1);
    }

    #[test]
    fn force_all_covers_everything() {
        let mut log = NodeLog::new(n0());
        log.append(acquire(1));
        log.append(acquire(2));
        assert!(log.force_all());
        assert_eq!(log.stable_lsn(), Lsn(2));
        log.crash();
        assert_eq!(log.len(), 2, "fully forced log survives crash intact");
    }

    #[test]
    fn payload_txn_extraction() {
        let t = TxnId::new(NodeId(2), 7);
        assert_eq!(LogPayload::Commit { txn: t, deps: vec![] }.txn(), Some(t));
        assert_eq!(LogPayload::Checkpoint.txn(), None);
    }

    #[test]
    fn update_size_includes_images() {
        let t = TxnId::new(NodeId(0), 1);
        let p = LogPayload::Update {
            txn: t,
            rec: RecId::new(PageId(0), 0),
            undo: Bytes::from(vec![0u8; 10]),
            redo: Bytes::from(vec![0u8; 20]),
            gsn: 1,
        };
        assert!(p.approx_size() >= 30);
        assert_eq!(p.gsn(), Some(1));
        assert_eq!(LogPayload::Checkpoint.gsn(), None);
    }
}

#[cfg(test)]
mod truncation_tests {
    use super::tests::acquire;
    use super::*;

    fn n0() -> NodeId {
        NodeId(0)
    }

    #[test]
    fn truncate_preserves_lsn_identity() {
        let mut log = NodeLog::new(n0());
        for i in 1..=6 {
            log.append(acquire(i));
        }
        log.force_all();
        log.truncate_through(Lsn(3));
        assert_eq!(log.truncation_point(), Lsn(3));
        assert_eq!(log.len(), 3);
        assert_eq!(log.records().next().unwrap().lsn, Lsn(4), "LSNs survive truncation");
        assert_eq!(log.last_lsn(), Lsn(6));
        // Appends continue the sequence.
        assert_eq!(log.append(acquire(7)), Lsn(7));
    }

    #[test]
    fn records_after_respects_truncation() {
        let mut log = NodeLog::new(n0());
        for i in 1..=6 {
            log.append(acquire(i));
        }
        log.force_all();
        log.truncate_through(Lsn(3));
        assert_eq!(log.records_after(Lsn(0)).len(), 3, "discarded records are gone");
        assert_eq!(log.records_after(Lsn(4)).len(), 2);
        assert_eq!(log.records_after(Lsn(99)).len(), 0);
    }

    #[test]
    fn stable_records_after_truncation() {
        let mut log = NodeLog::new(n0());
        for i in 1..=6 {
            log.append(acquire(i));
        }
        log.force_to(Lsn(4));
        log.truncate_through(Lsn(2));
        let mut stable = log.stable_records();
        assert_eq!(stable.len(), 2, "lsn 3..=4 retained and stable");
        assert_eq!(stable.next().unwrap().lsn, Lsn(3));
        // Crash drops the volatile tail only.
        log.crash();
        assert_eq!(log.last_lsn(), Lsn(4));
    }

    #[test]
    #[should_panic(expected = "unforced")]
    fn truncating_volatile_tail_rejected() {
        let mut log = NodeLog::new(n0());
        log.append(acquire(1));
        log.truncate_through(Lsn(1));
    }

    #[test]
    fn idempotent_truncation() {
        let mut log = NodeLog::new(n0());
        for i in 1..=4 {
            log.append(acquire(i));
        }
        log.force_all();
        log.truncate_through(Lsn(2));
        log.truncate_through(Lsn(2)); // no-op
        log.truncate_through(Lsn(1)); // below base: no-op
        assert_eq!(log.len(), 2);
    }
}

#[cfg(test)]
mod index_tests {
    use super::tests::acquire;
    use super::*;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(0), seq)
    }

    fn rec(page: u32) -> RecId {
        RecId::new(PageId(page), 0)
    }

    fn update(seq: u64, page: u32, gsn: u64) -> LogPayload {
        LogPayload::Update {
            txn: txn(seq),
            rec: rec(page),
            undo: Bytes::from(vec![1u8; 4]),
            redo: Bytes::from(vec![2u8; 4]),
            gsn,
        }
    }

    #[test]
    fn commit_entries_require_stability() {
        let mut log = NodeLog::new(NodeId(0));
        log.append(acquire(1));
        log.append(LogPayload::Commit { txn: txn(1), deps: vec![] });
        assert!(!log.is_commit_stable(txn(1)), "commit still volatile");
        assert_eq!(log.stable_commits().count(), 0);
        log.force_all();
        assert!(log.is_commit_stable(txn(1)));
        assert_eq!(log.stable_commits().collect::<Vec<_>>(), vec![txn(1)]);
    }

    #[test]
    fn crash_purges_volatile_index_entries() {
        let mut log = NodeLog::new(NodeId(0));
        log.append(acquire(1));
        log.force_all();
        log.append(update(1, 3, 10));
        log.append(LogPayload::Commit { txn: txn(1), deps: vec![] });
        log.append(acquire(2));
        log.crash();
        assert!(!log.is_commit_stable(txn(1)), "commit died with the tail");
        assert_eq!(log.index().first_txn_lsn(txn(1)), Some(Lsn(1)));
        assert_eq!(log.index().first_txn_lsn(txn(2)), None);
        // The clamp is conservative: the high-water mark drops to the
        // stable point (an empty scan may still be suggested), but nothing
        // past it is ever claimed.
        assert!(!log.has_data_after(Lsn(1)), "update died with the tail");
        assert_eq!(log.data_refs(false).len(), 0);
    }

    #[test]
    fn commit_entries_survive_truncation() {
        let mut log = NodeLog::new(NodeId(0));
        log.append(acquire(1));
        log.append(update(1, 0, 1));
        log.append(LogPayload::Commit { txn: txn(1), deps: vec![] });
        log.force_all();
        log.truncate_through(Lsn(3));
        assert!(log.is_commit_stable(txn(1)), "truncated commit is still a commit");
        assert_eq!(log.data_refs(false).len(), 0, "data record reclaimed");
        assert!(!log.has_data_after(Lsn(3)));
        assert!(log.has_data_after(Lsn(1)), "high-water mark is all-time");
    }

    #[test]
    fn data_refs_follow_force_crash_and_truncation() {
        let mut log = NodeLog::with_segment_len(NodeId(0), 2);
        log.append(update(1, 7, 1)); // lsn 1
        log.append(acquire(2)); // lsn 2
        log.append(update(2, 7, 2)); // lsn 3
        log.append(update(2, 9, 3)); // lsn 4
        log.append(LogPayload::IndexRemove { txn: txn(2), key: 5, gsn: 4 }); // lsn 5
        let lsns = |log: &NodeLog, stable| -> Vec<u64> {
            log.data_refs(stable).map(|d| d.lsn.0).collect()
        };
        assert_eq!(lsns(&log, false), [1, 3, 4, 5]);
        assert_eq!(lsns(&log, true), [0u64; 0]);
        assert_eq!(log.index().last_data_lsn(), Lsn(5));
        // An entry is the four words of its record; only an `Update` names
        // a heap record.
        let refs: Vec<DataRef> = log.data_refs(false).copied().collect();
        assert_eq!((refs[2].gsn, refs[2].txn, refs[2].rec()), (3, txn(2), Some(rec(9))));
        assert_eq!((refs[3].gsn, refs[3].txn, refs[3].rec()), (4, txn(2), None));
        for d in &refs {
            assert_eq!(DataRef::of(log.record(d.lsn).expect("retained")), Some(*d));
        }
        log.force_to(Lsn(4));
        assert_eq!(lsns(&log, true), [1, 3, 4]);
        log.truncate_through(Lsn(3));
        assert_eq!(lsns(&log, false), [4, 5]);
        assert!(log.record(Lsn(3)).is_none(), "truncated");
        assert_eq!(log.record(Lsn(4)).map(|r| r.lsn), Some(Lsn(4)));
        log.crash();
        assert_eq!(lsns(&log, false), [4]);
        assert!(log.record(Lsn(5)).is_none(), "died with the tail");
        assert!(log.record(Lsn(0)).is_none() && log.record(Lsn(6)).is_none(), "never written");
    }

    #[test]
    fn first_txn_lsn_is_first_append() {
        let mut log = NodeLog::new(NodeId(0));
        log.append(acquire(5)); // lsn 1
        log.append(update(5, 0, 1)); // lsn 2
        assert_eq!(log.index().first_txn_lsn(txn(5)), Some(Lsn(1)));
    }

    #[test]
    fn first_txn_entries_go_at_retire_and_below_a_truncation() {
        let mut log = NodeLog::new(NodeId(0));
        log.append(acquire(1)); // lsn 1
        log.append(acquire(2)); // lsn 2
        log.append(acquire(3)); // lsn 3
        assert_eq!(log.index().first_txn_entries(), 3);
        log.retire_txn(txn(2));
        log.retire_txn(txn(9)); // never wrote here
        assert_eq!(log.index().first_txn_lsn(txn(2)), None);
        log.force_all();
        // A cutoff below txn 3's first record: txn 1 can only be settled.
        log.truncate_through(Lsn(2));
        assert_eq!(log.index().first_txn_lsn(txn(1)), None);
        assert_eq!(log.index().first_txn_lsn(txn(3)), Some(Lsn(3)));
        assert_eq!(log.index().first_txn_entries(), 1);
    }

    #[test]
    #[should_panic(expected = "home log")]
    fn commit_record_on_a_foreign_log_rejected() {
        let mut log = NodeLog::new(NodeId(1));
        log.append(LogPayload::Commit { txn: txn(1), deps: vec![] });
    }
}
