//! Restart analysis reads the logs' data-record indexes, not the logs:
//! the log records a recovery *opens* follow the crash, not the retained
//! history behind it. (That the index-derived analysis equals a fold over
//! every retained record — `SmDb::check_redo_plan` — is held between every
//! crash and recovery of the random scripts in `txn_table.rs`, the crash
//! sweep, the restart goldens and the schedule fuzzer.)

use smdb_core::{DbConfig, ProtocolKind, RecoveryOutcome, SmDb};
use smdb_obs::names;
use smdb_sim::{NodeId, TxnId};

const NODES: u16 = 4;

/// Records the forward history and the crash-time in-flight set touch.
const FOOTPRINT: u64 = 64;

/// Commit `history` un-checkpointed single-update transactions round the
/// footprint, then one more lap (so the caches and the last writers are
/// the same whatever `history` was), leave one transaction in flight per
/// node — node 0's update reaches its stable log behind a later commit
/// force — crash node 0 and recover. Returns what the recovery counted.
fn recover_after(history: u64) -> (RecoveryOutcome, u64, u64) {
    let mut db =
        SmDb::new(DbConfig::small(NODES, ProtocolKind::VolatileSelectiveRedo).without_index());
    let commit_one = |db: &mut SmDb, i: u64| {
        let t = db.begin(NodeId((i % NODES as u64) as u16)).unwrap();
        db.update(t, i % FOOTPRINT, &i.to_le_bytes()).unwrap();
        db.commit(t).unwrap();
    };
    for i in 0..history {
        commit_one(&mut db, i);
    }
    for slot in 0..FOOTPRINT {
        commit_one(&mut db, slot);
    }
    let live: Vec<TxnId> = (0..NODES)
        .map(|n| {
            let t = db.begin(NodeId(n)).unwrap();
            db.update(t, 8 + n as u64, b"live").unwrap();
            t
        })
        .collect();
    commit_one(&mut db, 0);
    db.enable_observability(0);
    db.crash(&[NodeId(0)]);
    assert!(db.check_redo_plan().is_empty());
    let outcome = db.recover().unwrap();
    assert_eq!(outcome.aborted, vec![live[0]]);
    db.check_ifa(NodeId(1)).assert_ok();
    let snap = db.observability().metrics.snapshot();
    let counter = |name: &str| {
        snap.counters.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("{name}")).1
    };
    let read = counter(names::RESTART_LOG_RECORDS_READ);
    assert_eq!(read, outcome.log_records_read);
    (outcome, read, counter(names::RESTART_SCAN_RECORDS))
}

#[test]
fn recovery_opens_log_records_for_what_it_applies_only() {
    let (short, read_5k, scanned_5k) = recover_after(5_000);
    let (long, read_50k, scanned_50k) = recover_after(50_000);
    assert_eq!(read_5k, read_50k, "log records opened must not grow with history");
    assert!(scanned_50k >= 9 * scanned_5k, "scanned {scanned_5k} vs {scanned_50k} records");
    for outcome in [&short, &long] {
        // A plan entry skipped as cached never touches the log; every
        // other one opens its record once. Node 0's in-flight update is
        // the one undo candidate on a stable log: the scan opens it for
        // its undo image, and each undo write may open the record's last
        // committed update once more.
        let applied = outcome.redo_applied + outcome.redo_skipped_stable;
        let undone = outcome.undo_records_applied;
        assert!(applied > 0 && outcome.redo_skipped_cached > 0, "{outcome:?}");
        assert!(
            (applied..=applied + 1 + undone).contains(&outcome.log_records_read),
            "opened {} log records for {applied} redo writes and {undone} undo writes",
            outcome.log_records_read
        );
    }
}
