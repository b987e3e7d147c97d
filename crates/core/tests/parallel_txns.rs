//! Parallel (multi-node) transactions — the §9 extension: *"For a
//! parallel transaction (one which executes on multiple nodes), the
//! recovery measures are similar to those for independent transactions.
//! However, if one of the nodes executing this transaction were to crash,
//! the entire transaction must be aborted."*

use smdb_core::{DbConfig, DbError, ProtocolKind, SmDb};
use smdb_sim::NodeId;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);
const N3: NodeId = NodeId(3);

fn mk(p: ProtocolKind) -> SmDb {
    SmDb::new(DbConfig::small(4, p))
}

#[test]
fn parallel_commit_spans_nodes() {
    for p in ProtocolKind::all() {
        let mut db = mk(p);
        let t = db.begin(N0).unwrap();
        db.attach(t, N1).unwrap();
        db.attach(t, N2).unwrap();
        db.update_on(t, N0, 0, b"from-n0").unwrap();
        db.update_on(t, N1, 30, b"from-n1").unwrap();
        db.update_on(t, N2, 60, b"from-n2").unwrap();
        db.commit(t).unwrap();
        for (slot, v) in [(0u64, b"from-n0"), (30, b"from-n1"), (60, b"from-n2")] {
            assert_eq!(&db.current_value(slot).unwrap()[..7], v, "{p:?}");
        }
        db.check_ifa(N0).assert_ok();
    }
}

#[test]
fn parallel_commit_is_durable_on_any_participant_crash() {
    for p in ProtocolKind::ifa_protocols() {
        for crash in [N0, N1] {
            let mut db = mk(p);
            let t = db.begin(N0).unwrap();
            db.attach(t, N1).unwrap();
            db.update_on(t, N0, 0, b"home-part").unwrap();
            db.update_on(t, N1, 30, b"away-part").unwrap();
            db.commit(t).unwrap();
            db.crash_and_recover(&[crash]).unwrap();
            assert_eq!(&db.current_value(0).unwrap()[..9], b"home-part", "{p:?}/{crash}");
            assert_eq!(&db.current_value(30).unwrap()[..9], b"away-part", "{p:?}/{crash}");
            db.check_ifa(N2).assert_ok();
        }
    }
}

#[test]
fn crash_of_remote_participant_dooms_whole_txn() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = mk(p);
        // Committed baselines.
        let setup = db.begin(N3).unwrap();
        db.update(setup, 0, b"base-a").unwrap();
        db.update(setup, 30, b"base-b").unwrap();
        db.commit(setup).unwrap();
        // Parallel transaction: home n0, participant n1.
        let t = db.begin(N0).unwrap();
        db.attach(t, N1).unwrap();
        db.update_on(t, N0, 0, b"dirty-a").unwrap();
        db.update_on(t, N1, 30, b"dirty-b").unwrap();
        // Independent survivor transaction on n2.
        let indep = db.begin(N2).unwrap();
        db.update(indep, 60, b"indep!").unwrap();
        // Crash the *participant*: the whole parallel transaction dies,
        // including its home-node effects.
        let outcome = db.crash_and_recover(&[N1]).unwrap();
        assert_eq!(outcome.aborted, vec![t], "{p:?}");
        assert_eq!(&db.current_value(0).unwrap()[..6], b"base-a", "{p:?}: home effect undone");
        assert_eq!(&db.current_value(30).unwrap()[..6], b"base-b", "{p:?}: remote effect undone");
        assert_eq!(&db.current_value(60).unwrap()[..6], b"indep!", "{p:?}: bystander preserved");
        db.check_ifa(N2).assert_ok();
        db.commit(indep).unwrap();
    }
}

#[test]
fn crash_of_home_dooms_participant_effects() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = mk(p);
        let setup = db.begin(N3).unwrap();
        db.update(setup, 30, b"before").unwrap();
        db.commit(setup).unwrap();
        let t = db.begin(N0).unwrap();
        db.attach(t, N1).unwrap();
        db.update_on(t, N1, 30, b"after!").unwrap();
        let outcome = db.crash_and_recover(&[N0]).unwrap();
        assert_eq!(outcome.aborted, vec![t], "{p:?}");
        assert_eq!(&db.current_value(30).unwrap()[..6], b"before", "{p:?}");
        db.check_ifa(N1).assert_ok();
    }
}

#[test]
fn doomed_parallel_txn_releases_its_locks() {
    let mut db = mk(ProtocolKind::VolatileSelectiveRedo);
    let t = db.begin(N0).unwrap();
    db.attach(t, N1).unwrap();
    db.update_on(t, N0, 5, b"aaa").unwrap();
    db.update_on(t, N1, 6, b"bbb").unwrap();
    // Crash the remote participant: home survives, so its LCB entries
    // must be released explicitly by recovery.
    db.crash_and_recover(&[N1]).unwrap();
    db.check_ifa(N2).assert_ok();
    // Both records are lockable again.
    let t2 = db.begin(N2).unwrap();
    db.update(t2, 5, b"ccc").unwrap();
    db.update(t2, 6, b"ddd").unwrap();
    db.commit(t2).unwrap();
    assert_eq!(&db.current_value(5).unwrap()[..3], b"ccc");
}

#[test]
fn bystander_crash_spares_parallel_txn() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = mk(p);
        let t = db.begin(N0).unwrap();
        db.attach(t, N1).unwrap();
        db.update_on(t, N0, 0, b"keep-a").unwrap();
        db.update_on(t, N1, 30, b"keep-b").unwrap();
        // A node the transaction does not run on crashes.
        let outcome = db.crash_and_recover(&[N2]).unwrap();
        assert!(outcome.aborted.is_empty(), "{p:?}");
        db.check_ifa(N0).assert_ok();
        db.commit(t).unwrap();
        assert_eq!(&db.current_value(0).unwrap()[..6], b"keep-a");
        assert_eq!(&db.current_value(30).unwrap()[..6], b"keep-b");
    }
}

#[test]
fn parallel_reads_on_participants() {
    let mut db = mk(ProtocolKind::VolatileSelectiveRedo);
    let setup = db.begin(N2).unwrap();
    db.update(setup, 9, b"shared-val").unwrap();
    db.commit(setup).unwrap();
    let t = db.begin(N0).unwrap();
    db.attach(t, N1).unwrap();
    let a = db.read_on(t, N0, 9).unwrap();
    let b = db.read_on(t, N1, 9).unwrap();
    assert_eq!(a, b);
    assert_eq!(&a[..10], b"shared-val");
    db.commit(t).unwrap();
}

#[test]
fn op_on_unattached_node_requires_attach() {
    let mut db = mk(ProtocolKind::VolatileSelectiveRedo);
    let t = db.begin(N0).unwrap();
    // A usage error, reported as one: the transaction stays usable.
    assert_eq!(db.update_on(t, N1, 0, b"x"), Err(DbError::NotParticipant { txn: t, node: N1 }));
    assert_eq!(db.read_on(t, N1, 0), Err(DbError::NotParticipant { txn: t, node: N1 }));
    db.attach(t, N1).unwrap();
    db.update_on(t, N1, 0, b"x").unwrap();
    db.commit(t).unwrap();
}

#[test]
fn attach_to_crashed_node_rejected() {
    let mut db = mk(ProtocolKind::VolatileSelectiveRedo);
    db.crash_and_recover(&[N3]).unwrap();
    let t = db.begin(N0).unwrap();
    assert_eq!(db.attach(t, N3), Err(DbError::NodeDown { node: N3 }));
}

#[test]
fn voluntary_abort_of_parallel_txn() {
    let mut db = mk(ProtocolKind::VolatileSelectiveRedo);
    let setup = db.begin(N2).unwrap();
    db.update(setup, 0, b"orig-a").unwrap();
    db.update(setup, 30, b"orig-b").unwrap();
    db.commit(setup).unwrap();
    let t = db.begin(N0).unwrap();
    db.attach(t, N1).unwrap();
    db.update_on(t, N0, 0, b"tmp-a").unwrap();
    db.update_on(t, N1, 30, b"tmp-b").unwrap();
    db.abort(t).unwrap();
    assert_eq!(&db.current_value(0).unwrap()[..6], b"orig-a");
    assert_eq!(&db.current_value(30).unwrap()[..6], b"orig-b");
    db.check_ifa(N0).assert_ok();
}
