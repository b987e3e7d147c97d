//! The oracle battery every crash harness runs (DESIGN §8):
//! `SmDb::check_before_recover` between a crash and its recovery,
//! `SmDb::check_after_recover` wherever no crash is pending, and
//! `SmDb::check_predicate_alone` after a recovery a nested crash
//! interrupted; `SmDb::recover_checked` is `recover` between them.

use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_core::{DbConfig, DbError, ProtocolKind, SmDb, FAULT_RECOVERY_PHASE};
use smdb_sim::NodeId;
use smdb_wal::FAULT_FORCE_RECORD;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);

/// Under every protocol, eager and instant: before the crash, between it
/// and its recovery, after it, and once the drain window has closed and
/// nothing is active (the committed-data oracle's turn). Then a second
/// crash whose recovery node dies at a phase boundary — each boundary
/// under some case — and `recover_checked` holds the half-done restart to
/// the predicate alone and the next attempt to both calls.
#[test]
fn a_crash_and_an_interrupted_recovery_pass_the_battery() {
    for (k, protocol) in ProtocolKind::all().into_iter().enumerate() {
        for instant in [false, true] {
            let at = format!("{protocol:?} instant={instant}");
            let cfg = DbConfig::small(4, protocol);
            let mut db = SmDb::new(if instant { cfg.with_instant_restart() } else { cfg });
            let f = FaultInjector::new();
            db.set_fault_injector(f.clone());
            for i in 0..16u64 {
                let t = db.begin(NodeId((i % 4) as u16)).unwrap();
                db.update(t, 3 * i, &i.to_le_bytes()).unwrap();
                db.insert(t, 1000 + i, i.to_le_bytes()).unwrap();
                db.commit(t).unwrap();
            }
            for n in 0..4u16 {
                let t = db.begin(NodeId(n)).unwrap();
                db.update(t, 100 + n as u64, b"inflight").unwrap();
            }
            assert_eq!(db.check_after_recover(), Ok(()), "{at}: before the crash");
            db.crash(&[N1]);
            assert_eq!(db.check_before_recover(), Ok(()), "{at}");
            db.recover().unwrap();
            assert_eq!(db.check_after_recover(), Ok(()), "{at}: after recovery");
            while db.redo_pending() > 0 {
                db.drain_redo(N0, 8).unwrap();
            }
            for t in db.active_txns(None) {
                db.abort(t).unwrap();
            }
            assert_eq!(db.check_after_recover(), Ok(()), "{at}: drained and idle");

            let boundary = (2 * k + instant as usize) as u64 % 6;
            db.crash(&[N0]);
            f.arm(FaultPlan::single(CrashPoint::new(FAULT_RECOVERY_PHASE, boundary)));
            let err = db.recover_checked().unwrap_or_else(|v| panic!("{at}: {v}")).unwrap_err();
            db.crash(&[NodeId(err.fault_crash().expect("a recovery-node crash").node)]);
            db.recover_checked().unwrap_or_else(|v| panic!("{at}: {v}")).unwrap();
        }
    }
}

/// The index grows past one leaf, so a split's separator routes every
/// lookup, and the node that did the inserting dies with more inserts in
/// flight. Under every protocol, eager and instant, `recover_checked`
/// holds the restart to the battery, whose `btree` oracle checks the
/// split tree's separator ranges, and the index then holds exactly the
/// committed keys.
#[test]
fn a_split_index_survives_the_inserting_nodes_crash() {
    for protocol in ProtocolKind::all() {
        for instant in [false, true] {
            let at = format!("{protocol:?} instant={instant}");
            let cfg = DbConfig::small(4, protocol);
            let mut db = SmDb::new(if instant { cfg.with_instant_restart() } else { cfg });
            let mut committed = Vec::new();
            for i in 0..12u64 {
                let t = db.begin(N1).unwrap();
                for k in 0..8u64 {
                    let key = 10 * (8 * i + k);
                    db.insert(t, key, key.to_le_bytes()).unwrap();
                    committed.push(key);
                }
                db.commit(t).unwrap();
            }
            assert!(db.tree_stats().splits > 0, "{at}: the index outgrew its first leaf");
            let t = db.begin(N1).unwrap();
            for key in (5..960).step_by(40) {
                db.insert(t, key, key.to_le_bytes()).unwrap();
            }
            db.crash(&[N1]);
            db.recover_checked().unwrap_or_else(|v| panic!("{at}: {v}")).unwrap();
            while db.redo_pending() > 0 {
                db.drain_redo(N0, 8).unwrap();
            }
            assert_eq!(db.check_after_recover(), Ok(()), "{at}: drained");
            let keys: Vec<u64> = db.index_scan(N0).unwrap().into_iter().map(|(k, _)| k).collect();
            assert_eq!(keys, committed, "{at}: the in-flight inserts are gone, the rest kept");
        }
    }
}

/// Node 1's cache vanishes behind the engine's back (a reboot of a node
/// that never crashed), taking a committed update that never reached the
/// stable database: the violation names its oracle as the fuzzer prints it.
#[test]
fn lost_committed_data_is_an_ifa_violation() {
    let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo));
    let t = db.begin(N1).unwrap();
    db.update(t, 7, b"kept").unwrap();
    db.commit(t).unwrap();
    db.reboot(N1);
    let v = db.check_after_recover().unwrap_err();
    assert_eq!(v.oracle, "IFA");
    assert!(v.detail.starts_with("record 7: expected"), "{v}");
    assert_eq!(String::from(v.clone()), format!("IFA: {}", v.detail));
}

/// Under Stable Triggered a coherent read of a line another node updated
/// forces that node's log first (§5.2), a `wal.force.record` visit. The
/// battery's reads make it with the injector paused: the armed point
/// neither fires nor counts it, so the workload's next force is visit 0.
#[test]
fn oracle_reads_leave_an_armed_crash_point_alone() {
    let setup = || {
        let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::StableTriggered));
        let f = FaultInjector::new();
        db.set_fault_injector(f.clone());
        let t = db.begin(N1).unwrap();
        db.insert(t, 42, *b"pending.").unwrap();
        f.arm(FaultPlan::single(CrashPoint::new(FAULT_FORCE_RECORD, 0)));
        (db, f, t)
    };
    // Unpaused, the same read is the visit that fires.
    let (mut db, _, _) = setup();
    let fired = db.index_scan(N0).unwrap_err();
    assert_eq!(fired.fault_crash().map(|c| c.site), Some(FAULT_FORCE_RECORD));

    let (mut db, f, t) = setup();
    assert_eq!(db.check_after_recover(), Ok(()));
    assert!(f.pending() && f.fired().is_empty(), "the oracle's visit fired or disarmed it");
    let err = db.commit(t).unwrap_err();
    assert!(matches!(err, DbError::FaultCrash(c) if c.site == FAULT_FORCE_RECORD && c.hit == 0));
}
