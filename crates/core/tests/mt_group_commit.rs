//! Epoch group commit: inside a lane a commit appends its record unforced,
//! and the lane forces its log once, through its last commit record, as
//! its last act (`smdb_core::mt` module docs, step 2). So `run_epochs`
//! pays one commit force per lane that committed a writer, per epoch —
//! and the parent still never sees a commit whose record is volatile.

use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_core::{DbConfig, MtTxn, Op, ProtocolKind, SmDb, TxnStatus, FAULT_COMMIT};
use smdb_sim::{NodeId, TxnId};

const NODES: u16 = 4;

fn engine() -> SmDb {
    SmDb::new(DbConfig::small(NODES, ProtocolKind::VolatileSelectiveRedo))
}

fn update(node: u16, slots: &[u64]) -> MtTxn {
    let ops = slots.iter().map(|&s| Op::Update(s, s.to_le_bytes())).collect();
    MtTxn { node: NodeId(node), ops }
}

fn read(node: u16, slots: &[u64]) -> MtTxn {
    MtTxn { node: NodeId(node), ops: slots.iter().map(|&s| Op::Read(s)).collect() }
}

/// A node's private record slot.
fn own(node: u16, k: u64) -> u64 {
    64 * node as u64 + k
}

/// Every transaction `db` ever began, by node.
fn all_txns(db: &SmDb) -> Vec<TxnId> {
    (0..NODES)
        .flat_map(|n| {
            (1..)
                .map(move |seq| TxnId::new(NodeId(n), seq))
                .take_while(|&t| db.txn_status(t).is_some())
        })
        .collect()
}

/// Every committed transaction's commit record, where it has one, is at or
/// below its home log's durable LSN.
fn assert_commits_durable(db: &SmDb) {
    for t in all_txns(db) {
        if db.txn_status(t) != Some(TxnStatus::Committed) {
            continue;
        }
        let log = db.logs().log(t.node());
        if let Some(lsn) = log.index().commit_lsn(t) {
            assert!(lsn <= log.durable_lsn(), "{t:?}: commit record {lsn:?} is volatile");
        }
    }
}

#[test]
fn every_lane_commit_is_durable_when_run_epochs_returns() {
    let mut db = engine();
    // Private writers, readers, and cross-node collisions on slots 3 and
    // 70 that split the batch over several epochs.
    let mut batch = Vec::new();
    for round in 0..6u64 {
        for n in 0..NODES {
            batch.push(match (n + round as u16) % 3 {
                0 => update(n, &[own(n, 1 + round), own(n, 20 + round)]),
                1 => read(n, &[own(n, 1), 3]),
                _ => update(n, &[3, own(n, 30 + round), 70]),
            });
        }
    }
    let out = db.run_epochs(batch, 2).expect("epoch run");
    assert_eq!(out.committed, 6 * NODES as u64);
    assert!(out.epochs > 1, "the collisions must split the batch into epochs");
    assert_eq!(db.check_commit_predicate(), Vec::<String>::new());
    assert_commits_durable(&db);
}

#[test]
fn one_commit_force_per_lane_that_committed_a_writer() {
    let mut db = engine();
    let batch = vec![
        update(0, &[own(0, 1)]),
        update(0, &[own(0, 2)]),
        update(0, &[own(0, 3)]),
        update(1, &[own(1, 1), own(1, 2)]),
        update(1, &[own(1, 3)]),
        read(2, &[own(2, 1)]),
        read(2, &[own(2, 2)]),
        // Collides with node 0's first transaction: node 3 sits epoch 1
        // out and runs alone in epoch 2.
        update(3, &[own(0, 1)]),
    ];
    let before = db.stats().commit_forces;
    let out = db.run_epochs(batch, 2).expect("epoch run");
    assert_eq!((out.committed, out.epochs, out.serial_retries), (8, 2, 0));
    // Six writers; lanes that committed one: nodes 0 and 1 in epoch 1,
    // node 3 in epoch 2. The all-read lane of node 2 forces nothing.
    assert_eq!(db.stats().commit_forces - before, 3, "one force per (epoch, writing lane)");
    assert_eq!(out.appender_stalls, 1, "only the all-read lane leaves a tail");
    assert_commits_durable(&db);
}

#[test]
fn an_all_read_lane_leaves_its_grants_to_the_barrier() {
    let mut db = engine();
    let batch: Vec<MtTxn> = (0..NODES)
        .flat_map(|n| [read(n, &[own(n, 1)]), read(n, &[own(n, 2), own(n, 3)])])
        .collect();
    let before = db.stats().commit_forces;
    let out = db.run_epochs(batch, 2).expect("epoch run");
    assert_eq!((out.committed, out.epochs), (2 * NODES as u64, 1));
    assert_eq!(db.stats().commit_forces, before, "a read-only lane forced a commit");
    // Admission logged each lane's grants; the barrier forced them.
    assert_eq!(out.appender_stalls, NODES as u64);
    for n in 0..NODES {
        let log = db.logs().log(NodeId(n));
        assert_eq!(log.durable_lsn(), log.last_lsn(), "n{n}'s grant records stayed volatile");
    }
}

/// A fault inside a lane comes back from `run_epochs` as its own
/// `FaultCrash`: the barrier adopts the failed lane's pending transaction
/// (shadow and transaction table alike), so crashing the victim and
/// recovering leaves the committed state the oracle expects.
#[test]
fn a_commit_fault_inside_a_lane_is_a_fault_crash() {
    for hit in 0..3 {
        let mut db = engine();
        let fault = FaultInjector::new();
        db.set_fault_injector(fault.clone());
        fault.arm(FaultPlan::single(CrashPoint::new(FAULT_COMMIT, hit)));
        let batch = vec![update(0, &[own(0, 1)]), update(1, &[own(1, 1)])];
        let err = db.run_epochs(batch, 1).expect_err("the armed commit point fires in a lane");
        let c = *err.fault_crash().unwrap_or_else(|| panic!("hit {hit}: {err}"));
        assert_eq!(c.site, FAULT_COMMIT, "hit {hit}");
        let victim = NodeId(c.node);
        db.crash(&[victim]);
        db.recover().unwrap_or_else(|e| panic!("hit {hit}: recover: {e}"));
        let survivor = NodeId(if c.node == 0 { 1 } else { 0 });
        db.check_ifa(survivor).assert_ok();
    }
}
