//! Property tests for the shared-memory lock manager: compatibility
//! invariants under random acquire/release traffic, and §4.2.2 recovery
//! invariants under random crashes.
//!
//! A release-all is its transaction's end, as in the engine: its queued
//! requests are withdrawn first, its releases are not logged, and the next
//! op on that `(node, seq)` slot starts a fresh transaction id. Recovery
//! is told only the live transactions.

use proptest::prelude::*;
use smdb_lock::{LcbGeometry, LockManager, LockMode, LockOutcome, LockTable};
use smdb_sim::{Machine, NodeId, SimConfig, TxnId};
use smdb_wal::LogSet;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Debug)]
enum Op {
    Acquire { node: u16, seq: u64, name: u64, exclusive: bool },
    ReleaseAll { node: u16, seq: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u16..4, 1u64..4, 1u64..12, any::<bool>())
            .prop_map(|(node, seq, name, exclusive)| Op::Acquire { node, seq, name, exclusive }),
        2 => (0u16..4, 1u64..4).prop_map(|(node, seq)| Op::ReleaseAll { node, seq }),
    ]
}

fn check_lcb_invariants(
    m: &mut Machine,
    mgr: &LockManager,
    names: impl Iterator<Item = u64>,
) -> Result<(), TestCaseError> {
    for name in names {
        let mut holders = Vec::new();
        // Scan via the public query path (node 0 acts).
        let mgr2 = mgr.clone();
        if let Ok(h) = mgr2.holders_of(m, NodeId(0), name) {
            holders = h;
        }
        let exclusive = holders.iter().filter(|e| e.mode == LockMode::Exclusive).count();
        if exclusive > 0 {
            prop_assert_eq!(holders.len(), 1, "X lock on {} must be sole", name);
        }
        // Every holder appears in its transaction's chain.
        for e in &holders {
            prop_assert!(
                mgr.held_locks(e.txn).contains(&name),
                "chain of {:?} missing lock {}",
                e.txn,
                name
            );
        }
    }
    Ok(())
}

/// `PROPTEST_CASES` from the environment (a deeper run), else `default`.
fn cases_or(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases_or(48), ..ProptestConfig::default() })]

    #[test]
    fn lock_invariants_under_random_traffic(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        crash_node in 0u16..4,
    ) {
        let mut m = Machine::new(SimConfig::new(4));
        let mut logs = LogSet::new(4);
        let table = LockTable::create(&mut m, NodeId(0), 9000, 8, LcbGeometry::co_located())
            .expect("create table");
        let mut mgr = LockManager::new(table);
        // Model: which (txn) → granted names and queued names, and how
        // many transactions each `(node, seq)` slot has ended.
        let mut granted: BTreeMap<TxnId, BTreeSet<u64>> = BTreeMap::new();
        let mut queued: BTreeMap<TxnId, BTreeSet<u64>> = BTreeMap::new();
        let mut ends: BTreeMap<(u16, u64), u64> = BTreeMap::new();
        let current = |ends: &BTreeMap<(u16, u64), u64>, node: u16, seq: u64| {
            TxnId::new(NodeId(node), seq + 3 * ends.get(&(node, seq)).copied().unwrap_or(0))
        };
        for op in &ops {
            match *op {
                Op::Acquire { node, seq, name, exclusive } => {
                    let txn = current(&ends, node, seq);
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    match mgr.acquire(&mut m, &mut logs, txn, name, mode) {
                        Ok(LockOutcome::Granted) => {
                            granted.entry(txn).or_default().insert(name);
                        }
                        Ok(LockOutcome::AlreadyHeld) => {
                            prop_assert!(granted.get(&txn).map(|g| g.contains(&name)).unwrap_or(false));
                        }
                        Ok(LockOutcome::Waiting) => {
                            queued.entry(txn).or_default().insert(name);
                        }
                        Err(smdb_lock::LockError::CapacityExceeded { .. }) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("acquire: {e}"))),
                    }
                }
                Op::ReleaseAll { node, seq } => {
                    let txn = current(&ends, node, seq);
                    *ends.entry((node, seq)).or_default() += 1;
                    // Withdraw its queued requests first (the engine's
                    // abort does; a committer has none). A withdrawal can
                    // promote the waiters behind it.
                    for name in queued.remove(&txn).unwrap_or_default() {
                        let before = mgr.holders_of(&mut m, NodeId(0), name)
                            .map_err(|e| TestCaseError::fail(format!("holders_of: {e}")))?;
                        mgr.cancel_wait(&mut m, &mut logs, txn, name)
                            .map_err(|e| TestCaseError::fail(format!("cancel_wait: {e}")))?;
                        let after = mgr.holders_of(&mut m, NodeId(0), name)
                            .map_err(|e| TestCaseError::fail(format!("holders_of: {e}")))?;
                        for h in after.iter().filter(|h| !before.iter().any(|b| b.txn == h.txn)) {
                            granted.entry(h.txn).or_default().insert(name);
                        }
                    }
                    let promoted = mgr
                        .release_all(&mut m, &mut logs, txn)
                        .map_err(|e| TestCaseError::fail(format!("release: {e}")))?;
                    granted.remove(&txn);
                    for (name, p) in promoted {
                        granted.entry(p.txn).or_default().insert(name);
                    }
                }
            }
            check_lcb_invariants(&mut m, &mgr, 1..12)?;
        }
        // Crash a node and recover: afterwards no lock is held by any of
        // its transactions, and invariants still hold.
        let crashed = NodeId(crash_node);
        m.crash(&[crashed]);
        logs.crash(&[crashed]);
        let survivors: Vec<NodeId> = m.surviving_nodes();
        let recovery_node = survivors[0];
        // Active survivors: each surviving slot's live transaction. An
        // ended one's grants are gone from the LCBs, and its releases are
        // not logged.
        let active: BTreeSet<TxnId> = (0..4u16)
            .filter(|n| *n != crash_node)
            .flat_map(|n| (1u64..4).map(move |s| (n, s)))
            .map(|(n, s)| current(&ends, n, s))
            .collect();
        mgr.recover(&mut m, &mut logs, &[crashed], &active, recovery_node)
            .map_err(|e| TestCaseError::fail(format!("recover: {e}")))?;
        for name in 1..12u64 {
            let holders = mgr.holders_of(&mut m, recovery_node, name)
                .map_err(|e| TestCaseError::fail(format!("holders_of: {e}")))?;
            for e in &holders {
                prop_assert!(e.txn.node() != crashed, "crashed holder survived recovery");
            }
            let waiters = mgr.waiters_of(&mut m, recovery_node, name)
                .map_err(|e| TestCaseError::fail(format!("waiters_of: {e}")))?;
            for e in &waiters {
                prop_assert!(e.txn.node() != crashed, "crashed waiter survived recovery");
            }
        }
        check_lcb_invariants(&mut m, &mgr, 1..12)?;
    }
}
