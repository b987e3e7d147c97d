//! Beginning a transaction logs nothing. The transaction table records it;
//! its first record on any log is its first lock or data record, which is
//! where the checkpoint's undo floor and lock replay start for it
//! (`LogIndex::first_txn_lsn`). So a read-only transaction leaves only its
//! shared-lock records, and a transaction that has begun but logged
//! nothing holds no log back from truncation, while one that has updated
//! still does.

use smdb_core::{DbConfig, ProtocolKind, SmDb};
use smdb_sim::NodeId;
use smdb_wal::{LockModeRepr, LogPayload, Lsn};

const N0: NodeId = NodeId(0);
const NODES: u16 = 4;

fn db(protocol: ProtocolKind) -> SmDb {
    SmDb::new(DbConfig::small(NODES, protocol))
}

/// Every log's last LSN.
fn ends(db: &SmDb) -> Vec<Lsn> {
    (0..NODES).map(|n| db.logs().log(NodeId(n)).last_lsn()).collect()
}

#[test]
fn begin_appends_nothing_to_any_log() {
    for protocol in ProtocolKind::all() {
        let mut db = db(protocol);
        let before = ends(&db);
        let txns: Vec<_> = (0..NODES).map(|n| db.begin(NodeId(n)).unwrap()).collect();
        assert_eq!(ends(&db), before, "{protocol:?}");
        for t in txns {
            for n in 0..NODES {
                let index = db.logs().log(NodeId(n)).index();
                assert_eq!(index.first_txn_lsn(t), None, "{protocol:?} {t:?} on n{n}");
            }
        }
    }
}

#[test]
fn a_read_only_transaction_leaves_only_its_shared_lock_records() {
    for protocol in ProtocolKind::all() {
        let mut db = db(protocol);
        let before = ends(&db);
        let t = db.begin(N0).unwrap();
        for slot in [1, 5, 9] {
            db.read(t, slot).unwrap();
        }
        db.commit(t).unwrap();
        for n in 0..NODES {
            let log = db.logs().log(NodeId(n));
            let recs: Vec<_> = log.records_after(before[n as usize]).collect();
            if n != N0.0 {
                assert!(recs.is_empty(), "{protocol:?}: n{n} got {recs:?}");
                continue;
            }
            assert_eq!(recs.len(), 3, "{protocol:?}: {recs:?}");
            for r in recs {
                assert!(
                    matches!(
                        r.payload,
                        LogPayload::LockAcquire {
                            txn,
                            mode: LockModeRepr::Shared,
                            queued: false,
                            ..
                        } if txn == t
                    ),
                    "{protocol:?}: {r:?}"
                );
            }
        }
    }
}

#[test]
fn an_updating_transactions_first_record_is_its_first_lock_record() {
    for protocol in ProtocolKind::all() {
        let mut db = db(protocol);
        let t = db.begin(N0).unwrap();
        let end = db.logs().log(N0).last_lsn();
        db.update(t, 7, b"first").unwrap();
        db.update(t, 8, b"second").unwrap();
        let log = db.logs().log(N0);
        let first = log.index().first_txn_lsn(t).expect("the update logged");
        assert_eq!(first, Lsn(end.0 + 1), "{protocol:?}: nothing before its lock");
        let rec = log.records_after(end).next().expect("retained");
        assert_eq!(rec.lsn, first);
        assert!(
            matches!(
                rec.payload,
                LogPayload::LockAcquire { txn, mode: LockModeRepr::Exclusive, .. } if txn == t
            ),
            "{protocol:?}: {rec:?}"
        );
    }
}

/// Twelve committed updates on `N0`, then a checkpoint; with `open`
/// transactions begun on `N0` first (`true`: that one updates too).
/// Returns `N0`'s truncation point and the open transactions' first
/// records there.
fn truncate_with(open: &[bool]) -> (Lsn, Vec<Option<Lsn>>) {
    let mut db = db(ProtocolKind::VolatileSelectiveRedo);
    let mut txns = Vec::new();
    for (i, &updates) in open.iter().enumerate() {
        let t = db.begin(N0).unwrap();
        if updates {
            db.update(t, 40 + i as u64, b"pinned").unwrap();
        }
        txns.push(t);
    }
    for i in 0..12u64 {
        let t = db.begin(N0).unwrap();
        db.update(t, i, &i.to_le_bytes()).unwrap();
        db.commit(t).unwrap();
    }
    db.checkpoint(N0).unwrap();
    let log = db.logs().log(N0);
    let firsts = txns.iter().map(|&t| log.index().first_txn_lsn(t)).collect();
    let point = log.truncation_point();
    // The open transactions still run to a clean commit after the cut.
    for (i, t) in txns.into_iter().enumerate() {
        db.update(t, 50 + i as u64, b"after").unwrap();
        db.commit(t).unwrap();
    }
    db.crash_and_recover(&[NodeId(3)]).unwrap();
    db.check_ifa(N0).assert_ok();
    (point, firsts)
}

#[test]
fn a_silent_active_transaction_does_not_hold_back_truncation() {
    let (alone, _) = truncate_with(&[]);
    assert!(alone > Lsn::ZERO, "the checkpoint truncated the committed history");
    // Begun, nothing logged: the same cut as with no open transaction.
    let (silent, firsts) = truncate_with(&[false]);
    assert_eq!(firsts, [None]);
    assert_eq!(silent, alone);
    // Begun and updated: the cut stops right below its first record
    // (tests/durability.rs holds the same pin across a crash).
    let (pinned, firsts) = truncate_with(&[false, true]);
    let first = firsts[1].expect("the update logged");
    assert_eq!(firsts[0], None);
    assert_eq!(pinned, Lsn(first.0 - 1));
    assert!(pinned < alone);
}
