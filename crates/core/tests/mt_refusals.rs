//! `SmDb::run_epochs` on work it cannot run: a batch it must refuse is
//! refused before anything is touched, and an error that leaves admission
//! after a grant gives the epoch's parent-side grants back — the names must
//! not stay locked by transactions that never begin. A plain engine, which
//! asked for no stripes, is one the scheduler runs on in parallel.

use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_core::{DbConfig, DbError, MtTxn, Op, ProtocolKind, SmDb};
use smdb_sim::{NodeId, TxnId};
use smdb_wal::Lsn;

const NODES: u16 = 4;

fn engine() -> SmDb {
    SmDb::new(DbConfig::small(NODES, ProtocolKind::VolatileSelectiveRedo))
}

/// What a refusal must leave exactly as a fresh engine has it.
#[derive(Debug, PartialEq)]
struct Untouched {
    committed: Vec<Vec<u8>>,
    log_ends: Vec<Lsn>,
    locks: smdb_lock::LockStats,
    active: Vec<TxnId>,
    max_clock: u64,
}

fn observe(db: &SmDb) -> Untouched {
    Untouched {
        committed: (0..db.record_count() as u64)
            .map(|slot| db.read_committed(slot).expect("slot readable"))
            .collect(),
        log_ends: (0..NODES).map(|n| db.logs().log(NodeId(n)).last_lsn()).collect(),
        locks: db.lock_stats().clone(),
        active: db.active_txns(None),
        max_clock: db.max_clock(),
    }
}

fn update(node: u16, slot: u64) -> MtTxn {
    MtTxn { node: NodeId(node), ops: vec![Op::Update(slot, slot.to_le_bytes())] }
}

#[test]
fn a_bad_transaction_is_refused_before_anything_is_touched() {
    let mut db = engine();
    let fresh = observe(&db);
    let beyond = db.record_count() as u64 + 5000;
    let refusals: Vec<(MtTxn, DbError)> = vec![
        (update(1, beyond), DbError::NoSuchRecord { slot: beyond }),
        (
            MtTxn { node: NodeId(1), ops: vec![Op::Read(70), Op::Insert(7, [0; 8])] },
            DbError::IndexOpInEpoch { key: 7 },
        ),
        (MtTxn { node: NodeId(1), ops: vec![Op::Delete(9)] }, DbError::IndexOpInEpoch { key: 9 }),
        (update(NODES, 70), DbError::NoSuchNode { node: NodeId(NODES) }),
    ];
    for (bad, want) in refusals {
        // The good transaction comes first: at the parent of this test it
        // was granted its lock before the bad one was looked at.
        let got = db.run_epochs(vec![update(0, 1), bad], 2);
        assert_eq!(got, Err(want.clone()), "refusal of {want}");
        assert_eq!(observe(&db), fresh, "refusal ({want}) touched the engine");
    }

    // Nothing is left locked: valid work commits, on every node, slot 1
    // included, and a transaction of another node can take slot 1 after.
    let batch: Vec<MtTxn> = (0..NODES)
        .flat_map(|n| [update(n, 64 * n as u64 + 1), update(n, 64 * n as u64 + 2)])
        .collect();
    let out = db.run_epochs(batch, 2).expect("valid work");
    assert_eq!((out.committed, out.serial_retries), (2 * NODES as u64, 0));
    let t = db.begin(NodeId(2)).unwrap();
    db.update(t, 1, b"after").expect("slot 1 is free");
    db.commit(t).unwrap();
}

/// Each precondition of the epoch scheduler, broken in turn: the engine
/// names it in a typed error and is left as it was.
#[test]
fn an_engine_the_scheduler_cannot_run_on_is_refused_by_name() {
    let small = || DbConfig::small(NODES, ProtocolKind::VolatileSelectiveRedo);
    let one_committed = |db: &mut SmDb| {
        let t = db.begin(NodeId(0)).unwrap();
        db.update(t, 1, b"lost").unwrap();
        db.commit(t).unwrap();
    };
    type Setup = Box<dyn Fn(&mut SmDb)>;
    let cases: Vec<(&str, DbConfig, Setup)> = vec![
        (
            "no early lock release",
            small().with_early_lock_release().with_lock_polling(),
            Box::new(|_| {}),
        ),
        (
            "no instant-restart redo pending",
            small().with_instant_restart(),
            Box::new(move |db| {
                one_committed(db);
                db.crash_and_recover(&[NodeId(0)]).unwrap();
                db.reboot(NodeId(0));
                assert!(db.redo_pending() > 0, "the early open leaves redo pending");
            }),
        ),
        (
            "a completed recovery",
            small(),
            Box::new(|db| {
                db.crash(&[NodeId(3)]);
            }),
        ),
        (
            "a drained commit pipeline",
            small(),
            Box::new(|db| {
                let t = db.begin(NodeId(2)).unwrap();
                db.commit_pipelined(t).unwrap();
            }),
        ),
        (
            "no transaction in flight",
            small(),
            Box::new(|db| {
                db.begin(NodeId(2)).unwrap();
            }),
        ),
        (
            "every node up",
            small(),
            Box::new(|db| {
                db.crash_and_recover(&[NodeId(3)]).unwrap();
            }),
        ),
    ];
    for (requires, cfg, setup) in cases {
        let mut db = SmDb::new(cfg);
        setup(&mut db);
        let before = observe(&db);
        let got = db.run_epochs(vec![update(0, 1), update(1, 70)], 2);
        assert_eq!(got, Err(DbError::EpochRefused { requires }), "{requires}");
        assert_eq!(observe(&db), before, "the refusal ({requires}) touched the engine");
    }
}

/// Every machine is striped: a plain configuration, with no stripe
/// request, puts slot 0's page and slot 100's page in different stripes,
/// so two nodes' updates of them share one epoch.
#[test]
fn a_plain_engine_admits_disjoint_pages_into_one_epoch() {
    let mut db = engine();
    let out = db.run_epochs(vec![update(0, 0), update(1, 100)], 1).expect("epoch run");
    assert_eq!((out.committed, out.epochs, out.data_conflicts), (2, 1, 0));
}

#[test]
fn an_error_inside_admission_gives_the_epochs_grants_back() {
    // One epoch of private updates; a crash point at the k-th invalidation
    // of remote line copies, for every k the run reaches. Admission's lock
    // calls write lock-table lines other nodes hold copies of, so some of
    // those points fire inside admission with earlier candidates granted.
    let batch = || -> Vec<MtTxn> { (0..NODES).map(|n| update(n, 64 * n as u64 + 1)).collect() };
    let mut after_a_grant = 0;
    for k in 0.. {
        let mut db = engine();
        let fault = FaultInjector::new();
        db.set_fault_injector(fault.clone());
        fault.arm(FaultPlan::single(CrashPoint::new(smdb_sim::FAULT_INVALIDATE, k)));
        let Err(e) = db.run_epochs(batch(), 1) else {
            assert!(fault.fired().is_empty(), "a fired point must surface");
            break; // k is past the last invalidation of the run
        };
        assert!(e.fault_crash().is_some(), "point {k}: {e}");
        let locks = db.lock_stats().clone();
        assert_eq!(locks.acquires, locks.releases, "point {k} leaked a parent-side grant");
        if db.stats().begins == 0 && locks.acquires > 0 {
            // No lane ran: the error left admission, after a grant.
            after_a_grant += 1;
            let granted = db.logs().log(NodeId(0)).records().any(|r| r.payload.txn().is_some());
            assert!(granted, "point {k}: node 0 is admitted first");
            let t = db.begin(NodeId(3)).unwrap();
            db.update(t, 1, b"free").expect("node 0's never-run grant is gone");
            db.commit(t).unwrap();
        }
    }
    assert!(after_a_grant > 0, "no crash point fell between two candidates' grants");
}
