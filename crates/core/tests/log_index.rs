//! The per-log first-record index is sized by live transactions: what it
//! holds after a long run follows the transactions still open, never the
//! history behind them — with or without checkpoints to truncate the logs,
//! for parallel transactions whose participant logs never see a Commit
//! record, and for transactions settled inside an epoch lane whose locks
//! the barrier releases afterwards.

use smdb_core::{DbConfig, MtTxn, Op, ProtocolKind, SmDb};
use smdb_sim::NodeId;

const NODES: u16 = 4;

/// Settle `settled` transactions of every shape, leave one open per node,
/// and return each log's first-record entry count.
fn first_record_entries(settled: u64, checkpoints: bool) -> Vec<usize> {
    let mut db =
        SmDb::new(DbConfig::small(NODES, ProtocolKind::VolatileSelectiveRedo).without_index());
    for i in 0..settled {
        if i % 1000 == 999 {
            // One epoch of private single-update transactions: settled in
            // the lanes, their locks released at the barrier.
            let txns: Vec<MtTxn> = (0..NODES as u64)
                .map(|n| MtTxn {
                    node: NodeId(n as u16),
                    ops: vec![Op::Update(64 * n + i % 64, i.to_le_bytes())],
                })
                .collect();
            assert_eq!(db.run_epochs(txns, 2).unwrap().committed, NODES as u64);
            continue;
        }
        let home = NodeId((i % NODES as u64) as u16);
        let t = db.begin(home).unwrap();
        if i % 8 == 0 {
            db.update(t, 64 * home.0 as u64 + i % 64, &i.to_le_bytes()).unwrap();
        }
        if i % 16 == 3 {
            // A participant's log carries the lock and update records of a
            // transaction whose Commit lands on another node's log.
            let away = NodeId((home.0 + 1) % NODES);
            db.attach(t, away).unwrap();
            db.update_on(t, away, 64 * away.0 as u64 + i % 64, b"away").unwrap();
        }
        if i % 5 == 0 {
            db.abort(t).unwrap();
        } else if i % 7 == 0 {
            db.commit_pipelined(t).unwrap();
            db.drain_commit_pipeline().unwrap();
        } else {
            db.commit(t).unwrap();
        }
        if checkpoints && i % 1024 == 0 {
            db.checkpoint(NodeId(0)).unwrap();
        }
    }
    for n in 0..NODES {
        let t = db.begin(NodeId(n)).unwrap();
        db.update(t, 64 * n as u64, b"live").unwrap();
    }
    (0..NODES).map(|n| db.logs().log(NodeId(n)).index().first_txn_entries()).collect()
}

#[test]
fn first_record_index_follows_live_transactions_not_history() {
    for checkpoints in [false, true] {
        let after_5k = first_record_entries(5_000, checkpoints);
        let after_50k = first_record_entries(50_000, checkpoints);
        assert_eq!(after_5k, after_50k, "checkpoints: {checkpoints}");
        // One open transaction per node, each with records on its own log.
        assert_eq!(after_50k, vec![1; NODES as usize], "checkpoints: {checkpoints}");
    }
}
