//! Lock-space recovery around a transaction's final lock release.
//!
//! §4.2.2 rebuilds LCBs destroyed with a crashed node for the *surviving
//! active* transactions, from the lock requests their nodes logged. These
//! scenarios pin what that must give back at the corners of a
//! transaction's end: an early-lock-release committer (still active, but
//! holding nothing), a surviving holder of shared and exclusive locks, and
//! a transaction whose release loop was cut short by a fault. A final
//! release logs nothing, so on Stable LBM it leaves no unforced tail for a
//! §5.2 trigger to force.

use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_core::{DbConfig, DbError, ProtocolKind, SmDb, TxnStatus};
use smdb_lock::names::name_for_rec;
use smdb_sim::{NodeId, FAULT_INVALIDATE};

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);
const N3: NodeId = NodeId(3);

fn assert_chains_consistent(db: &mut SmDb, node: NodeId) {
    let diffs = db.check_lock_chains(node).expect("lock-chain scan");
    assert!(diffs.is_empty(), "lock chains diverged from the LCBs:\n  {}", diffs.join("\n  "));
}

/// C (node 0) releases its X lock on record 7 at its pipelined append and
/// stays active until the drain. A shared request from node 1 then pulls
/// the name's LCB line over, and node 1 dies with the only copy. Restart
/// must not rebuild C's released grant: C holds nothing, and a writer on
/// node 2 is granted the name.
#[test]
fn early_released_committer_holds_nothing_after_its_lcb_line_dies() {
    let cfg = DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo)
        .without_index()
        .with_early_lock_release()
        .with_lock_polling();
    let mut db = SmDb::new(cfg);
    let name = name_for_rec(7);
    let c = db.begin(N0).unwrap();
    db.update(c, 7, b"from-c").unwrap();
    db.commit_pipelined(c).unwrap();
    assert!(db.held_lock_names(c).is_empty(), "released at the append");
    let toucher = db.begin(N1).unwrap();
    assert!(!db.probe_lock_conflict(toucher, name).unwrap(), "the name is free");

    let outcome = db.crash_and_recover(&[N1]).unwrap();
    assert!(outcome.lock_recovery.lines_reinstalled > 0, "the LCB line died with node 1");
    assert_eq!(db.txn_status(c), Some(TxnStatus::Active), "C awaits its drain");
    assert!(db.held_lock_names(c).is_empty(), "C's released grant came back");
    let s = db.begin(N2).unwrap();
    db.update(s, 7, b"from-s").unwrap();
    assert_eq!(db.held_lock_names(s), vec![name]);
    assert_chains_consistent(&mut db, N2);

    db.drain_commit_pipeline().unwrap();
    assert_eq!(db.txn_status(c), Some(TxnStatus::Committed));
    db.commit(s).unwrap();
    assert_eq!(&db.current_value(7).unwrap()[..6], b"from-s");
    db.check_ifa(N2).assert_ok();
}

/// S (node 1) holds an S lock on record 7 and an X lock on record 8; a
/// committed predecessor on the same node held both names before it.
/// Node 2's requests pull both LCB lines over, and node 2 dies with them.
/// S gets exactly its two locks back, in their modes.
#[test]
fn surviving_holder_gets_exactly_its_locks_back_when_its_lcb_lines_die() {
    let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo).without_index());
    let (n7, n8) = (name_for_rec(7), name_for_rec(8));
    let p = db.begin(N1).unwrap();
    db.update(p, 7, b"from-p").unwrap();
    db.update(p, 8, b"from-p").unwrap();
    db.commit(p).unwrap();
    let s = db.begin(N1).unwrap();
    db.read(s, 7).unwrap();
    db.update(s, 8, b"from-s").unwrap();
    let t = db.begin(N2).unwrap();
    assert!(!db.probe_lock_conflict(t, n7).unwrap(), "a shared request shares record 7");
    assert!(db.probe_lock_conflict(t, n8).unwrap(), "and queues behind S's X on record 8");

    let outcome = db.crash_and_recover(&[N2]).unwrap();
    assert_eq!(outcome.preserved_active, vec![s]);
    assert_eq!(outcome.lock_recovery.lcbs_reconstructed, 2, "both LCBs died with node 2");
    let mut held = db.held_lock_names(s);
    held.sort_unstable();
    assert_eq!(held, vec![n7, n8]);
    assert_chains_consistent(&mut db, N0);
    // The modes came back too: a reader shares record 7 and waits on 8.
    let r = db.begin(N3).unwrap();
    assert!(!db.probe_lock_conflict(r, n7).unwrap(), "S's grant on record 7 is shared");
    assert!(db.probe_lock_conflict(r, n8).unwrap(), "S's grant on record 8 is exclusive");
    db.abort(r).unwrap();

    db.commit(s).unwrap();
    assert_eq!(&db.current_value(8).unwrap()[..6], b"from-s");
    assert_chains_consistent(&mut db, N0);
    db.check_ifa(N0).assert_ok();
}

/// T (node 0) holds X locks on records 7 and 8. A conflicting poll from
/// node 1 replicates record 8's LCB line, so T's abort releases record 7
/// and then faults on the invalidation its release of record 8 needs. T is
/// left active with part of its locks released; the fault's victim is its
/// home. Restart settles T with no grant of T's left anywhere.
#[test]
fn fault_inside_release_all_leaves_no_ghost_grant() {
    let mut db = SmDb::new(
        DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo).without_index().with_lock_polling(),
    );
    let f = FaultInjector::new();
    db.set_fault_injector(f.clone());
    let (n7, n8) = (name_for_rec(7), name_for_rec(8));
    let t = db.begin(N0).unwrap();
    db.update(t, 7, b"from-t").unwrap();
    db.update(t, 8, b"from-t").unwrap();
    let w = db.begin(N1).unwrap();
    assert!(matches!(db.update(w, 8, b"from-w"), Err(DbError::WouldBlock { .. })));

    f.arm(FaultPlan::single(CrashPoint::new(FAULT_INVALIDATE, 0)));
    let err = db.abort(t).expect_err("the armed invalidation must fire");
    let c = *err.fault_crash().unwrap_or_else(|| panic!("{err}"));
    assert_eq!(NodeId(c.node), N0, "the releasing node is the victim");
    assert_eq!(db.txn_status(t), Some(TxnStatus::Active));
    assert_eq!(db.held_lock_names(t), vec![n8], "record 7 was released, record 8 faulted");

    db.crash(&[N0]);
    let outcome = db.recover().unwrap();
    assert_eq!(outcome.aborted, vec![t]);
    assert_eq!(db.txn_status(t), Some(TxnStatus::Aborted));
    assert!(db.held_lock_names(t).is_empty());
    db.update(w, 8, b"from-w").unwrap();
    db.update(w, 7, b"from-w").unwrap();
    let mut held = db.held_lock_names(w);
    held.sort_unstable();
    assert_eq!(held, vec![n7, n8]);
    assert_chains_consistent(&mut db, N1);
    db.commit(w).unwrap();
    assert_eq!(&db.current_value(7).unwrap()[..6], b"from-w");
    db.check_ifa(N1).assert_ok();
}

/// Two serial strict-2PL transactions on StableTriggered hand record 7
/// from node 0 to node 1. The first's commit force covers everything it
/// logged: its lock releases append nothing after it. So the §5.2 trigger
/// that the second's access fires on the still-marked line finds nothing
/// of node 0's unforced and charges node 0 no physical force.
#[test]
fn handing_a_record_over_forces_nothing_for_the_previous_owners_releases() {
    let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::StableTriggered).without_index());
    let a = db.begin(N0).unwrap();
    db.update(a, 7, b"from-a").unwrap();
    db.commit(a).unwrap();
    let (n0_forces, lbm) = (db.logs().log(N0).stats().forces, db.stats().lbm_forces);

    let b = db.begin(N1).unwrap();
    db.update(b, 7, b"from-b").unwrap();
    assert_eq!(db.logs().log(N0).stats().forces, n0_forces, "n0 paid a trigger force");
    assert_eq!(db.stats().lbm_forces, lbm);
    let tip = db.logs().log(N0).last_lsn();
    assert_eq!(db.logs().log(N0).stable_lsn(), tip, "the commit force covered n0's log");
    db.commit(b).unwrap();
    assert_eq!(&db.current_value(7).unwrap()[..6], b"from-b");
    db.check_ifa(N2).assert_ok();
}
