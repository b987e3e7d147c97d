//! The segmented [`NodeLog`] against the structure it replaced: one plain
//! `Vec<LogRecord>` with a whole-history index recomputed from scratch.
//!
//! * a model proptest drives random append / force / torn force /
//!   coalesced request / crash / truncate / settle scripts with the
//!   segment length shrunk to a handful of records, so every operation
//!   crosses segment boundaries constantly, and after every step compares
//!   every reader and every index answer with the reference;
//! * a test pins in-place append: across 100 000 appends at the production
//!   segment length, the first record never moves.

use bytes::Bytes;
use proptest::prelude::*;
use smdb_sim::{NodeId, TxnId};
use smdb_storage::PageId;
use smdb_wal::{
    CommitDep, DataRef, LockModeRepr, LogPayload, LogRecord, Lsn, NodeLog, NodeLogStats, RecId,
    StructuralKind,
};
use std::collections::{BTreeMap, BTreeSet};

const HOME: NodeId = NodeId(0);
/// Transactions open at a time: slots 0–2 are homed on the log's node,
/// slot 3 is a foreign participant (its records land here, never its
/// Commit).
const OPEN: usize = 4;

#[derive(Clone, Debug)]
enum Step {
    /// Append one record of `kind` for the open transaction in `slot`.
    Append {
        slot: usize,
        kind: u8,
    },
    /// Append the slot's Commit record (home slots, once) and stay live —
    /// a pipelined commit awaiting its acknowledgement.
    Commit {
        slot: usize,
        deps: u8,
    },
    /// Commit-or-abort record, lock release, retire; a fresh transaction
    /// takes the slot.
    Settle {
        slot: usize,
        abort: bool,
    },
    /// Physical force through a point `pick`/255 of the way up the tail.
    Force {
        pick: u8,
    },
    /// Torn force: exactly `n` more records reach the disk.
    ForceRecords {
        n: u8,
    },
    /// Coalesced durability request.
    Request {
        pick: u8,
    },
    Checkpoint,
    Crash,
    /// Truncate as far as the contract allows, scaled by `pick`/255.
    Truncate {
        pick: u8,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        12 => (0..OPEN, 0..6u8).prop_map(|(slot, kind)| Step::Append { slot, kind }),
        2 => (0..OPEN - 1, 0..3u8).prop_map(|(slot, deps)| Step::Commit { slot, deps }),
        4 => (0..OPEN, any::<bool>()).prop_map(|(slot, abort)| Step::Settle { slot, abort }),
        3 => any::<u8>().prop_map(|pick| Step::Force { pick }),
        1 => (0..5u8).prop_map(|n| Step::ForceRecords { n }),
        2 => any::<u8>().prop_map(|pick| Step::Request { pick }),
        1 => Just(Step::Checkpoint),
        1 => Just(Step::Crash),
        3 => any::<u8>().prop_map(|pick| Step::Truncate { pick }),
    ]
}

/// The reference: retained records in one `Vec`, everything else
/// recomputed from it or kept in whole-history maps.
struct Model {
    records: Vec<LogRecord>,
    base: u64,
    stable: u64,
    pending: u64,
    /// High-water data LSN, clamped to the stable point by a crash.
    last_data: u64,
    /// Every Commit record ever appended and not lost with a tail.
    commits: BTreeMap<TxnId, (Lsn, Vec<CommitDep>)>,
    /// Every transaction that ever appended a Commit record.
    ever_committed: BTreeSet<TxnId>,
    open: [TxnId; OPEN],
    next_seq: [u64; 2],
    gsn: u64,
    stats: NodeLogStats,
}

impl Model {
    fn new() -> Self {
        let mut m = Model {
            records: Vec::new(),
            base: 0,
            stable: 0,
            pending: 0,
            last_data: 0,
            commits: BTreeMap::new(),
            ever_committed: BTreeSet::new(),
            open: [TxnId(0); OPEN],
            next_seq: [0; 2],
            gsn: 0,
            stats: NodeLogStats::default(),
        };
        for slot in 0..OPEN {
            m.open[slot] = m.fresh(slot);
        }
        m
    }

    fn fresh(&mut self, slot: usize) -> TxnId {
        let node = usize::from(slot == OPEN - 1);
        self.next_seq[node] += 1;
        TxnId::new(NodeId(node as u16), self.next_seq[node])
    }

    fn last(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    fn payload(&mut self, txn: TxnId, kind: u8) -> LogPayload {
        self.gsn += 1;
        let gsn = self.gsn;
        match kind {
            0 => LogPayload::LockRelease { txn, name: gsn, wait_only: false },
            1 => LogPayload::Update {
                txn,
                rec: RecId::new(PageId(gsn as u32 % 7), 0),
                undo: Bytes::from(vec![1u8; 4]),
                redo: Bytes::from(vec![2u8; 4]),
                gsn,
            },
            2 => LogPayload::LockAcquire {
                txn,
                name: gsn,
                mode: if gsn.is_multiple_of(2) {
                    LockModeRepr::Shared
                } else {
                    LockModeRepr::Exclusive
                },
                queued: false,
            },
            3 => LogPayload::IndexInsert { txn, key: gsn, value: Bytes::from(vec![3u8; 3]), gsn },
            4 => LogPayload::Structural {
                txn,
                kind: StructuralKind::LockSpaceAlloc { line: gsn, parent: 1 },
            },
            _ => LogPayload::IndexUnmark { txn, key: gsn, gsn },
        }
    }

    fn append(&mut self, log: &mut NodeLog, payload: LogPayload) -> Result<(), TestCaseError> {
        let lsn = Lsn(self.last() + 1);
        self.stats.appends += 1;
        self.stats.bytes_appended += payload.approx_size() as u64;
        match &payload {
            LogPayload::LockAcquire { mode: LockModeRepr::Shared, .. } => {
                self.stats.read_lock_records += 1
            }
            LogPayload::Structural { .. } => self.stats.structural_records += 1,
            LogPayload::Commit { txn, deps } => {
                self.commits.insert(*txn, (lsn, deps.clone()));
                self.ever_committed.insert(*txn);
            }
            _ => {}
        }
        if payload.gsn().is_some() {
            self.last_data = lsn.0;
        }
        prop_assert_eq!(log.append(payload.clone()), lsn);
        self.records.push(LogRecord { lsn, payload });
        Ok(())
    }

    fn force_to(&mut self, want: u64) -> bool {
        let want = want.min(self.last());
        if want <= self.stable {
            return false;
        }
        self.stats.forces += 1;
        self.stats.forces_requested += 1;
        self.stats.records_forced += want - self.stable;
        self.stable = want;
        if self.pending <= self.stable {
            self.pending = 0;
        }
        true
    }

    /// First retained record of each open transaction.
    fn first_lsns(&self) -> BTreeMap<TxnId, Lsn> {
        let mut first = BTreeMap::new();
        for r in &self.records {
            if let Some(t) = r.payload.txn() {
                if self.open.contains(&t) {
                    first.entry(t).or_insert(r.lsn);
                }
            }
        }
        first
    }

    fn run(&mut self, log: &mut NodeLog, step: &Step) -> Result<(), TestCaseError> {
        match *step {
            Step::Append { slot, kind } => {
                let p = self.payload(self.open[slot], kind);
                self.append(log, p)?;
            }
            Step::Commit { slot, deps } => {
                let txn = self.open[slot];
                if !self.ever_committed.contains(&txn) {
                    let deps = (0..deps)
                        .map(|i| CommitDep {
                            txn: TxnId::new(NodeId(1), i as u64 + 1),
                            lsn: Lsn(7),
                        })
                        .collect();
                    self.append(log, LogPayload::Commit { txn, deps })?;
                }
            }
            Step::Settle { slot, abort } => {
                let txn = self.open[slot];
                let home = txn.node() == HOME;
                if home && !self.ever_committed.contains(&txn) {
                    let end = if abort {
                        LogPayload::Abort { txn }
                    } else {
                        LogPayload::Commit { txn, deps: Vec::new() }
                    };
                    self.append(log, end)?;
                }
                // Lock releases follow the Commit record; only then is the
                // transaction retired.
                self.append(log, LogPayload::LockRelease { txn, name: 9, wait_only: false })?;
                log.retire_txn(txn);
                self.open[slot] = self.fresh(slot);
            }
            Step::Force { pick } => {
                let tail = self.last() - self.stable;
                let want = self.stable + tail * pick as u64 / 255;
                prop_assert_eq!(log.force_to(Lsn(want)), self.force_to(want));
            }
            Step::ForceRecords { n } => {
                let want = self.stable + n as u64;
                prop_assert_eq!(log.force_records(n as u64), self.force_to(want));
            }
            Step::Request { pick } => {
                let want = (self.last() * pick as u64 / 255).min(self.last());
                let deferred = want > self.stable;
                if deferred {
                    self.stats.forces_requested += 1;
                    self.stats.forces_coalesced += 1;
                    self.pending = self.pending.max(want);
                }
                prop_assert_eq!(log.request_force_to(Lsn(want)), deferred);
            }
            Step::Checkpoint => self.append(log, LogPayload::Checkpoint)?,
            Step::Crash => {
                log.crash();
                let stable = self.stable;
                self.records.retain(|r| r.lsn.0 <= stable);
                self.commits.retain(|_, (l, _)| l.0 <= stable);
                self.pending = 0;
                self.last_data = self.last_data.min(stable);
            }
            Step::Truncate { pick } => {
                // The caller's contract: durable records only, and below
                // the first record of every active transaction.
                let floor = self.first_lsns().values().map(|l| l.0 - 1).min().unwrap_or(u64::MAX);
                let limit = self.stable.min(floor);
                let cutoff = self.base + limit.saturating_sub(self.base) * pick as u64 / 255;
                log.truncate_through(Lsn(cutoff));
                if cutoff > self.base {
                    self.records.retain(|r| r.lsn.0 > cutoff);
                    self.base = cutoff;
                }
            }
        }
        self.compare(log)
    }

    fn compare(&self, log: &NodeLog) -> Result<(), TestCaseError> {
        let all: Vec<&LogRecord> = self.records.iter().collect();
        let stable_n = self.records.iter().filter(|r| r.lsn.0 <= self.stable).count();
        prop_assert_eq!(log.last_lsn(), Lsn(self.last()));
        prop_assert_eq!(log.stable_lsn(), Lsn(self.stable));
        prop_assert_eq!(log.truncation_point(), Lsn(self.base));
        prop_assert_eq!(log.len(), all.len());
        prop_assert_eq!(log.is_empty(), all.is_empty());
        prop_assert_eq!(
            log.pending_force(),
            (self.pending > self.stable).then_some(Lsn(self.pending))
        );
        prop_assert_eq!(log.stats(), &self.stats);

        // Readers: forward, backward, exact length.
        prop_assert_eq!(log.records().len(), all.len());
        prop_assert_eq!(log.records().collect::<Vec<_>>(), all.clone());
        let mut rev = all.clone();
        rev.reverse();
        prop_assert_eq!(log.records().rev().collect::<Vec<_>>(), rev);
        prop_assert_eq!(log.stable_records().len(), stable_n);
        prop_assert_eq!(log.stable_records().collect::<Vec<_>>(), all[..stable_n].to_vec());
        for after in [0, self.base, self.base + 1, self.stable, self.last(), self.last() + 3] {
            let want: Vec<&LogRecord> = all.iter().copied().filter(|r| r.lsn.0 > after).collect();
            prop_assert_eq!(log.records_after(Lsn(after)).len(), want.len());
            prop_assert_eq!(log.records_after(Lsn(after)).collect::<Vec<_>>(), want);
            // Mixed-end consumption meets in the middle.
            let mut it = log.records_after(Lsn(after));
            let (mut lo, mut hi) = (0, all.iter().filter(|r| r.lsn.0 > after).count());
            let offset = all.len() - hi;
            while lo < hi {
                prop_assert_eq!(it.next(), Some(all[offset + lo]));
                lo += 1;
                if lo < hi {
                    hi -= 1;
                    prop_assert_eq!(it.next_back(), Some(all[offset + hi]));
                }
                prop_assert_eq!(it.len(), hi - lo);
            }
            prop_assert_eq!(it.next(), None);
            let data_after = self.last_data > after;
            prop_assert_eq!(log.has_data_after(Lsn(after)), data_after, "after {}", after);
        }

        // Readers by class.
        for stable_only in [false, true] {
            let scope = if stable_only { &all[..stable_n] } else { &all[..] };
            // An index entry is four words of its record — LSN, GSN,
            // writer and, for an `Update` alone, the heap record.
            let data: Vec<_> = scope
                .iter()
                .filter_map(|r| {
                    let rec = match r.payload {
                        LogPayload::Update { rec, .. } => Some(rec),
                        _ => None,
                    };
                    Some((r.lsn, r.payload.gsn()?, r.payload.txn()?, rec))
                })
                .collect();
            prop_assert_eq!(log.data_refs(stable_only).len(), data.len());
            let entry = |d: &DataRef| (d.lsn, d.gsn, d.txn, d.rec());
            prop_assert_eq!(log.data_refs(stable_only).map(entry).collect::<Vec<_>>(), data);
            let structural: Vec<&LogRecord> = scope
                .iter()
                .copied()
                .filter(|r| matches!(r.payload, LogPayload::Structural { .. }))
                .collect();
            prop_assert_eq!(log.structural_records(stable_only).collect::<Vec<_>>(), structural);
        }

        // Positions: every retained LSN opens its record; a truncated or
        // never-written one opens nothing.
        for r in &all {
            prop_assert_eq!(log.record(r.lsn), Some(*r));
        }
        for lsn in (0..=self.base).chain(self.last() + 1..self.last() + 4) {
            prop_assert_eq!(log.record(Lsn(lsn)), None, "lsn {}", lsn);
        }

        // The index: first records of the live, commits of all history.
        let first = self.first_lsns();
        for txn in self.open {
            prop_assert_eq!(log.index().first_txn_lsn(txn), first.get(&txn).copied(), "{:?}", txn);
        }
        prop_assert_eq!(log.index().first_txn_entries(), first.len());
        for txn in &self.ever_committed {
            let kept = self.commits.get(txn);
            prop_assert_eq!(log.index().commit_lsn(*txn), kept.map(|(l, _)| *l), "{:?}", txn);
            prop_assert_eq!(
                log.is_commit_stable(*txn),
                kept.is_some_and(|(l, _)| l.0 <= self.stable)
            );
            prop_assert_eq!(
                log.index().commit_deps_of(*txn),
                kept.map(|(_, d)| d.as_slice()).unwrap_or(&[])
            );
        }
        let stable_commits: Vec<TxnId> =
            self.commits.iter().filter(|(_, (l, _))| l.0 <= self.stable).map(|(t, _)| *t).collect();
        prop_assert_eq!(log.stable_commits().collect::<Vec<_>>(), stable_commits);
        Ok(())
    }
}

proptest! {
    #[test]
    fn segmented_log_matches_plain_vec(
        seg_len in 1..6usize,
        steps in proptest::collection::vec(step_strategy(), 1..160),
    ) {
        let mut log = NodeLog::with_segment_len(HOME, seg_len);
        log.set_coalescing(true);
        let mut model = Model::new();
        model.compare(&log)?;
        for step in &steps {
            model.run(&mut log, step)?;
        }
    }
}

#[test]
fn append_never_moves_a_retained_record() {
    let mut log = NodeLog::new(HOME);
    let txn = TxnId::new(HOME, 1);
    log.append(LogPayload::Abort { txn });
    let first = log.records().next().expect("one record") as *const LogRecord;
    for i in 0..100_000u64 {
        log.append(LogPayload::LockAcquire {
            txn,
            name: i,
            mode: LockModeRepr::Shared,
            queued: false,
        });
    }
    let now = log.records().next().expect("still retained");
    assert_eq!(now.lsn, Lsn(1));
    assert!(std::ptr::eq(first, now), "record 1 moved while the log grew");
    assert_eq!(log.len(), 100_001);
    assert_eq!(log.records().next_back().expect("tail").lsn, Lsn(100_001));
}
