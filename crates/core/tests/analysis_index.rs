//! Restart analysis reads the logs' data-record indexes, not the logs.
//!
//! * a proptest drives random begin / update / commit / abort / checkpoint
//!   / crash / interrupted recovery / reboot scripts and, between every
//!   crash and its recovery, holds the analysis' reduced redo plan and
//!   committed values against a fold over every retained log record
//!   ([`SmDb::check_redo_plan`]) — positions derived afresh by each
//!   attempt, over logs that truncation, lost tails and recovery's own
//!   appends have reshaped;
//! * a count pins the property the index exists for: the log records a
//!   recovery *opens* follow the crash, not the retained history behind
//!   it.

use proptest::prelude::*;
use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_core::{DbConfig, DbError, ProtocolKind, RecoveryOutcome, SmDb, FAULT_RECOVERY_PHASE};
use smdb_obs::names;
use smdb_sim::{NodeId, TxnId};

const NODES: u16 = 4;

// ---------------------------------------------------------------------------
// The index against the whole-log fold, under random histories.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Step {
    Begin(u16),
    Update(usize, u64),
    Commit(usize),
    Abort(usize),
    Checkpoint(u16),
    /// Crash the nodes in the mask; `Some(k)` also kills the recovery node
    /// at the `k`-th phase boundary of the restart that follows.
    Crash(u8, Option<u64>),
    Reboot(u16),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let pick = 0usize..64;
    prop_oneof![
        4 => (0..NODES).prop_map(Step::Begin),
        8 => (pick.clone(), 0u64..24).prop_map(|(t, s)| Step::Update(t, s)),
        5 => pick.clone().prop_map(Step::Commit),
        1 => pick.prop_map(Step::Abort),
        1 => (0..NODES).prop_map(Step::Checkpoint),
        2 => (1u8..16, 0u64..9).prop_map(|(m, k)| Step::Crash(m, (k < 7).then_some(k))),
        2 => (0..NODES).prop_map(Step::Reboot),
    ]
}

fn protocol_strategy() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::FaOnly),
        Just(ProtocolKind::VolatileRedoAll),
        Just(ProtocolKind::VolatileSelectiveRedo),
        Just(ProtocolKind::StableEager),
        Just(ProtocolKind::StableTriggered),
    ]
}

fn fail(what: &str, e: DbError) -> TestCaseError {
    TestCaseError::fail(format!("{what}: {e}"))
}

/// Crash `nodes` and hold the pending restart's analysis against the
/// references before anything recovers.
fn crash_checked(db: &mut SmDb, nodes: &[NodeId], at: &str) -> Result<(), TestCaseError> {
    db.crash(nodes);
    let diffs = db.check_redo_plan();
    prop_assert!(diffs.is_empty(), "redo plan diverged {}:\n  {}", at, diffs.join("\n  "));
    let diffs = db.check_cached_probe();
    prop_assert!(diffs.is_empty(), "cached probe diverged {}:\n  {}", at, diffs.join("\n  "));
    Ok(())
}

fn run(db: &mut SmDb, fault: &FaultInjector, step: &Step) -> Result<(), TestCaseError> {
    let up = |db: &SmDb, n: u16| !db.machine().is_crashed(NodeId(n));
    let pick = |db: &SmDb, pick: usize| -> Option<TxnId> {
        let active = db.active_txns(None);
        (!active.is_empty()).then(|| active[pick % active.len()])
    };
    match *step {
        Step::Begin(n) => {
            if up(db, n) {
                db.begin(NodeId(n)).map_err(|e| fail("begin", e))?;
            }
        }
        Step::Update(p, slot) => {
            let Some(txn) = pick(db, p) else { return Ok(()) };
            match db.update(txn, slot, &(slot ^ txn.0).to_le_bytes()) {
                Ok(()) => {}
                // No-wait policy: a transaction that met a conflict rolls back.
                Err(DbError::WouldBlock { .. }) => db.abort(txn).map_err(|e| fail("abort", e))?,
                Err(e) => return Err(fail("update", e)),
            }
        }
        Step::Commit(p) => {
            let Some(txn) = pick(db, p) else { return Ok(()) };
            db.commit(txn).map_err(|e| fail("commit", e))?;
        }
        Step::Abort(p) => {
            let Some(txn) = pick(db, p) else { return Ok(()) };
            db.abort(txn).map_err(|e| fail("abort", e))?;
        }
        Step::Checkpoint(n) => {
            if up(db, n) {
                db.checkpoint(NodeId(n)).map_err(|e| fail("checkpoint", e))?;
            }
        }
        Step::Crash(mask, interrupt) => {
            let nodes: Vec<NodeId> =
                (0..NODES).filter(|n| mask & (1 << n) != 0 && up(db, *n)).map(NodeId).collect();
            if nodes.is_empty() {
                return Ok(());
            }
            crash_checked(db, &nodes, "after crash")?;
            if let Some(k) = interrupt {
                fault.arm(FaultPlan::single(CrashPoint::new(FAULT_RECOVERY_PHASE, k)));
            }
            let mut result = db.recover();
            fault.off();
            if let Err(e) = &result {
                // The recovery node died at a phase boundary; the next
                // attempt analyses the logs as that attempt left them.
                let Some(victim) = e.fault_crash().map(|c| NodeId(c.node)) else {
                    return Err(TestCaseError::fail(format!("recover: {e}")));
                };
                crash_checked(db, &[victim], "after recovery-node crash")?;
                result = db.recover();
            }
            result.map_err(|e| fail("recover", e))?;
        }
        Step::Reboot(n) => {
            if !up(db, n) {
                db.reboot(NodeId(n));
            }
        }
    }
    Ok(())
}

proptest! {
    /// Whatever the history did to the logs, the analysis of the next
    /// crash holds what a fold over their every retained record holds.
    #[test]
    fn analysis_agrees_with_whole_log_fold(
        protocol in protocol_strategy(),
        steps in proptest::collection::vec(step_strategy(), 1..120),
    ) {
        let mut db = SmDb::new(DbConfig::small(NODES, protocol).without_index());
        let fault = FaultInjector::new();
        db.set_fault_injector(fault.clone());
        for step in &steps {
            run(&mut db, &fault, step)?;
        }
    }
}

// ---------------------------------------------------------------------------
// The property itself, as a count.
// ---------------------------------------------------------------------------

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
        let undone = outcome.undo_records_applied + outcome.stable_undo_patches;
        assert!(applied > 0 && outcome.redo_skipped_cached > 0, "{outcome:?}");
        assert!(
            (applied..=applied + 1 + undone).contains(&outcome.log_records_read),
            "opened {} log records for {applied} redo writes and {undone} undo writes",
            outcome.log_records_read
        );
    }
}
