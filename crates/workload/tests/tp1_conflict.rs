//! TP1's conflict path through the driver: a transaction that meets a
//! held record aborts and retries within its budget, then gives up.

use smdb_core::{DbConfig, Op, ProtocolKind, SmDb};
use smdb_sim::NodeId;
use smdb_workload::{run_tp1, Tp1Params};

/// Branch, teller and account balance totals under the default TP1
/// layout (4 branches, then 16 tellers, then the accounts).
fn totals(db: &SmDb) -> [i64; 3] {
    let sum = |range: std::ops::Range<u64>| -> i64 {
        range
            .map(|s| i64::from_le_bytes(db.current_value(s).unwrap()[..8].try_into().unwrap()))
            .sum()
    };
    [sum(0..4), sum(4..20), sum(20..db.record_count() as u64)]
}

#[test]
fn a_held_branch_record_gives_up_its_transactions_and_no_history_key() {
    let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo));
    // Node 0 parks a transaction holding branch 1's record; TP1 homes
    // every fourth transaction on node 1, whose branch that is.
    let holder = db.begin(NodeId(0)).unwrap();
    db.apply(holder, &Op::Add(1, 500)).unwrap();
    let params = Tp1Params { txns: 40, retries: 3, ..Default::default() };
    let report = run_tp1(&mut db, params.clone());
    assert_eq!(report.gave_up, 10, "every transaction homed on node 1 gives up");
    assert_eq!(report.conflict_aborts, report.gave_up * (params.retries as u64 + 1));
    assert_eq!(report.committed, 30);
    let first = (1u64 << 32) + params.seed * (1 << 20);
    let keys: Vec<u64> = db.index_scan(NodeId(0)).unwrap().iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, (first..first + 30).collect::<Vec<_>>(), "history keys are consecutive");
    db.abort(holder).unwrap();
    let [branch, teller, account] = totals(&db);
    assert_eq!((branch, branch), (teller, account), "money is conserved");
    db.check_ifa(NodeId(0)).assert_ok();
}
