//! Whatever way a transaction leaves the engine, nothing keyed by its id
//! stays behind: no lock chain, no open span, no first-record entry in any
//! log, no violation edge, no pending commit, no pending shadow effects.
//! One scenario per exit — commit, pipelined acknowledgement, voluntary
//! abort, promotion by a crash (home dead, and home alive with its locks
//! still held), a restart's rollback (home dead, home alive, and an early
//! release whose commit record died), the full restart.

use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_core::{DbConfig, ProtocolKind, SmDb, TxnStatus, FAULT_COMMIT, FAULT_COMMIT_DEP};
use smdb_sim::{NodeId, TxnId};

const NODES: u16 = 4;
const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);

fn engine(p: ProtocolKind, elr: bool) -> SmDb {
    let cfg = DbConfig::small(NODES, p).without_index().with_lock_polling();
    let db = SmDb::new(if elr { cfg.with_early_lock_release() } else { cfg });
    db.enable_observability(0);
    db
}

fn begin_update(db: &mut SmDb, node: NodeId, slot: u64, value: &[u8]) -> TxnId {
    let t = db.begin(node).unwrap();
    db.update(t, slot, value).unwrap();
    t
}

/// Every transaction of `gone` has left; the engine holds nothing of them.
/// `slots` are the records they wrote: a fresh transaction that takes them
/// all must inherit no commit dependency (the violation table is empty).
fn assert_nothing_left(db: &mut SmDb, gone: &[TxnId], slots: &[u64], at: &str) {
    for &t in gone {
        assert_ne!(db.txn_status(t), Some(TxnStatus::Active), "{at}: {t} has not left");
        assert!(db.txn(t).is_none(), "{at}: {t} still has a table entry");
        assert_eq!(db.held_lock_names(t), Vec::<u64>::new(), "{at}: {t} kept a lock chain");
    }
    assert_eq!(db.active_txns(None), Vec::<TxnId>::new(), "{at}");
    assert_eq!(db.observability().spans.open_count(), 0, "{at}: open spans");
    for n in 0..NODES {
        let entries = db.logs().log(NodeId(n)).index().first_txn_entries();
        assert_eq!(entries, 0, "{at}: first-record entries on node {n}'s log");
    }
    assert_eq!(db.pending_commit_count(), 0, "{at}: pending commits");
    assert_eq!(db.shadow().pending_txns(), Vec::<TxnId>::new(), "{at}: shadow pending set");
    let live = db.machine().surviving_nodes()[0];
    db.check_ifa(live).assert_ok();
    let deps = db.stats().commit_deps;
    let probe = db.begin(live).unwrap();
    for &slot in slots {
        db.update(probe, slot, b"probe").unwrap_or_else(|e| panic!("{at}: slot {slot}: {e}"));
    }
    db.commit(probe).unwrap();
    assert_eq!(db.stats().commit_deps, deps, "{at}: a violation edge outlived its releaser");
}

#[test]
fn commit_acknowledgement_and_abort_leave_nothing() {
    for elr in [false, true] {
        let mut db = engine(ProtocolKind::VolatileSelectiveRedo, elr);
        let committed = begin_update(&mut db, N0, 1, b"sync");
        db.commit(committed).unwrap();
        let aborted = begin_update(&mut db, N1, 2, b"gone");
        db.abort(aborted).unwrap();
        let piped = begin_update(&mut db, N2, 3, b"piped");
        db.commit_pipelined(piped).unwrap();
        // A successor on the early-released name, acknowledged in turn.
        let next = db.begin(N1).unwrap();
        if elr {
            db.update(next, 3, b"next").unwrap();
        }
        db.commit_pipelined(next).unwrap();
        assert_eq!(db.drain_commit_pipeline().unwrap(), 2);
        let gone = [committed, aborted, piped, next];
        assert_nothing_left(&mut db, &gone, &[1, 2, 3], &format!("forward exits, elr={elr}"));
    }
}

#[test]
fn crash_promotion_leaves_nothing() {
    // Home dead: node 0 dies with its commit record forced and its
    // post-commit processing not run.
    let mut db = engine(ProtocolKind::VolatileSelectiveRedo, false);
    let fault = FaultInjector::new();
    db.set_fault_injector(fault.clone());
    let dead = begin_update(&mut db, N0, 1, b"forced");
    fault.arm(FaultPlan::single(CrashPoint::new(FAULT_COMMIT, 1)));
    let err = db.commit(dead).expect_err("the post-force point fires");
    assert_eq!(err.fault_crash().map(|c| c.node), Some(0));
    // Home alive: node 1's pipelined commit record is made durable by a
    // bystander's commit force, unacknowledged, its locks still held.
    let alive = begin_update(&mut db, N1, 2, b"piped");
    db.commit_pipelined(alive).unwrap();
    let bystander = begin_update(&mut db, N1, 3, b"by");
    db.commit(bystander).unwrap();
    assert!(db.logs().log(N1).is_commit_stable(alive));
    db.crash(&[N0]);
    assert_eq!(db.txn_status(dead), Some(TxnStatus::Committed));
    assert_eq!(db.txn_status(alive), Some(TxnStatus::Committed));
    db.recover().unwrap();
    assert_nothing_left(&mut db, &[dead, alive, bystander], &[1, 2, 3], "crash promotion");
}

#[test]
fn a_restarts_rollback_leaves_nothing() {
    for p in [ProtocolKind::VolatileSelectiveRedo, ProtocolKind::FaOnly] {
        let mut db = engine(p, true);
        let fault = FaultInjector::new();
        db.set_fault_injector(fault.clone());
        // Home dead; home alive with a dead participant (FA-only: merely
        // active); a cascade victim of an early release whose commit
        // record dies unforced, the crash landing between the release and
        // the pipeline entry.
        let home_dead = begin_update(&mut db, N0, 1, b"dead");
        let parallel = begin_update(&mut db, N1, 2, b"par");
        db.attach(parallel, N0).unwrap();
        db.update_on(parallel, N0, 3, b"par-on-0").unwrap();
        let bystander = begin_update(&mut db, N2, 4, b"by");
        let releaser = begin_update(&mut db, N0, 5, b"early");
        fault.arm(FaultPlan::single(CrashPoint::new(FAULT_COMMIT_DEP, 0)));
        let err = db.commit_pipelined(releaser).expect_err("the release point fires");
        assert_eq!(err.fault_crash().map(|c| c.node), Some(0));
        let victim = begin_update(&mut db, N2, 5, b"victim");
        let outcome = db.crash_and_recover(&[N0]).unwrap();
        let mut gone = vec![home_dead, parallel, releaser, victim];
        if p == ProtocolKind::FaOnly {
            gone.push(bystander);
        } else {
            assert_eq!(outcome.preserved_active, vec![bystander]);
            db.commit(bystander).unwrap();
        }
        assert_eq!(outcome.aborted.len(), gone.len(), "{p:?}: {:?}", outcome.aborted);
        assert_nothing_left(&mut db, &gone, &[1, 2, 3, 4, 5], &format!("rollback under {p:?}"));
    }
}

#[test]
fn a_total_failure_leaves_nothing() {
    let mut db = engine(ProtocolKind::VolatileSelectiveRedo, true);
    let mut gone: Vec<TxnId> =
        (0..NODES).map(|n| begin_update(&mut db, NodeId(n), n as u64, b"lost")).collect();
    let piped = begin_update(&mut db, N1, 9, b"piped");
    db.commit_pipelined(piped).unwrap();
    gone.push(piped);
    let all: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let outcome = db.crash_and_recover(&all).unwrap();
    assert_eq!(outcome.aborted.len(), gone.len());
    assert_nothing_left(&mut db, &gone, &[0, 1, 2, 3, 9], "total failure");
}
