//! Deterministic crash-point sweep: for a fixed workload, crash at every
//! k-th transaction boundary under every protocol and run the oracle
//! battery's second call (`SmDb::check_after_recover`: IFA and the rest)
//! each time. Complements the randomized property tests with exhaustive
//! coverage of one trace.

use smdb::core::{DbConfig, ProtocolKind, SmDb};
use smdb::sim::NodeId;
use smdb::workload::{run_mix_with_crash, CrashPlan, MixParams};

fn sweep(protocol: ProtocolKind, crash_nodes: Vec<NodeId>) {
    for crash_after in (0..30).step_by(5) {
        let mut db = SmDb::new(DbConfig::small(4, protocol));
        let params = MixParams {
            txns: 30,
            sharing: 0.7,
            read_fraction: 0.2,
            index_fraction: 0.3,
            seed: 0xC0FFEE,
            ..Default::default()
        };
        let plan = CrashPlan { after_txns: crash_after, nodes: crash_nodes.clone() };
        let (report, recovery) =
            run_mix_with_crash(&mut db, params, Some(plan)).expect("recovery succeeds");
        assert!(recovery.is_some(), "{protocol:?}@{crash_after}: crash did not fire");
        assert!(
            report.committed >= 25,
            "{protocol:?}@{crash_after}: too few commits ({})",
            report.committed
        );
        if let Err(v) = db.check_after_recover() {
            panic!("{protocol:?}@{crash_after}: {v}");
        }
    }
}

#[test]
fn sweep_volatile_selective() {
    sweep(ProtocolKind::VolatileSelectiveRedo, vec![NodeId(1)]);
}

#[test]
fn sweep_volatile_redo_all() {
    sweep(ProtocolKind::VolatileRedoAll, vec![NodeId(1)]);
}

#[test]
fn sweep_stable_eager() {
    sweep(ProtocolKind::StableEager, vec![NodeId(1)]);
}

#[test]
fn sweep_stable_triggered() {
    sweep(ProtocolKind::StableTriggered, vec![NodeId(1)]);
}

#[test]
fn sweep_fa_only() {
    sweep(ProtocolKind::FaOnly, vec![NodeId(1)]);
}

#[test]
fn sweep_two_node_crashes() {
    sweep(ProtocolKind::VolatileSelectiveRedo, vec![NodeId(1), NodeId(2)]);
}

/// Crash at every transaction boundary (finer sweep, one protocol) with
/// a checkpoint in the middle, exercising truncated-log recovery at every
/// point.
#[test]
fn fine_sweep_with_checkpoint() {
    for crash_after in 0..20 {
        let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo));
        // First half of the workload + checkpoint.
        let params = MixParams {
            txns: 10,
            sharing: 0.5,
            seed: 0xBEEF,
            index_fraction: 0.2,
            ..Default::default()
        };
        run_mix_with_crash(&mut db, params.clone(), None).expect("mix runs");
        db.checkpoint(NodeId(0)).unwrap();
        // Second half with the crash somewhere inside.
        let plan = CrashPlan { after_txns: crash_after, nodes: vec![NodeId(2)] };
        let (_, recovery) = run_mix_with_crash(
            &mut db,
            MixParams { txns: 20, seed: 0xBEEF ^ 1, ..params },
            Some(plan),
        )
        .expect("recovery succeeds");
        assert!(recovery.is_some());
        if let Err(v) = db.check_after_recover() {
            panic!("@{crash_after}: {v}");
        }
    }
}
