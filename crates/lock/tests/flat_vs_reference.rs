//! Differential testing: the flat-slot lock manager (placement-hint cache,
//! inline entry arrays, per-txn chain arena, re-acquire fast lane) against
//! the pure-logic [`ReferenceLockManager`].
//!
//! Random schedules of acquire / poll / upgrade / cancel / release /
//! release-all / early-release-all must produce *identical* outcomes
//! (grant / already-held / queue / capacity error), identical promotion
//! lists, identical per-transaction chains, identical violation-edge
//! inheritance, and — because the lock log is what recovery replays —
//! identical per-node lock-record streams.
//!
//! A release-all or early-release-all is its transaction's end, as in the
//! engine: its queued requests are withdrawn first, its releases are not
//! logged, and the schedule's next op on that `(node, seq)` slot starts a
//! fresh transaction id. Recovery is told only the live transactions.

use proptest::prelude::*;
use smdb_lock::reference::{RefLockRecord, ReferenceLockManager};
use smdb_lock::{LcbGeometry, LockManager, LockMode, LockOutcome, LockTable, ViolationTable};
use smdb_sim::{Machine, NodeId, SimConfig, TxnId};
use smdb_wal::{LogPayload, LogSet, Lsn};
use std::collections::{BTreeMap, BTreeSet};

const NODES: u16 = 4;
const SEQS: u64 = 4;
const NAMES: u64 = 10;

#[derive(Clone, Debug)]
enum Op {
    Acquire { node: u16, seq: u64, name: u64, exclusive: bool },
    Poll { node: u16, seq: u64, name: u64, exclusive: bool },
    Release { node: u16, seq: u64, name: u64 },
    CancelWait { node: u16, seq: u64, name: u64 },
    ReleaseAll { node: u16, seq: u64 },
    EarlyReleaseAll { node: u16, seq: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let ids = (0..NODES, 1..SEQS + 1);
    prop_oneof![
        5 => (ids.clone(), 1..NAMES + 1, any::<bool>()).prop_map(|((node, seq), name, exclusive)| {
            Op::Acquire { node, seq, name, exclusive }
        }),
        3 => (ids.clone(), 1..NAMES + 1, any::<bool>()).prop_map(|((node, seq), name, exclusive)| {
            Op::Poll { node, seq, name, exclusive }
        }),
        2 => (ids.clone(), 1..NAMES + 1)
            .prop_map(|((node, seq), name)| Op::Release { node, seq, name }),
        1 => (ids.clone(), 1..NAMES + 1)
            .prop_map(|((node, seq), name)| Op::CancelWait { node, seq, name }),
        1 => ids.clone().prop_map(|(node, seq)| Op::ReleaseAll { node, seq }),
        1 => ids.prop_map(|(node, seq)| Op::EarlyReleaseAll { node, seq }),
    ]
}

fn setup() -> (Machine, LogSet, LockManager, ReferenceLockManager) {
    let mut m = Machine::new(SimConfig::new(NODES));
    let logs = LogSet::new(NODES);
    let geom = LcbGeometry::co_located();
    let reference = ReferenceLockManager::new(geom.max_holders, geom.max_waiters);
    let table = LockTable::create(&mut m, NodeId(0), 9000, 8, geom).expect("create table");
    (m, logs, LockManager::new(table), reference)
}

fn t(node: u16, seq: u64) -> TxnId {
    TxnId::new(NodeId(node), seq)
}

/// The transaction ids a schedule's `(node, seq)` slots stand for: a slot
/// names a fresh transaction after each end (the engine never reuses an
/// id).
#[derive(Default)]
struct Ids {
    ends: BTreeMap<(u16, u64), u64>,
}

impl Ids {
    fn current(&self, node: u16, seq: u64) -> TxnId {
        t(node, seq + SEQS * self.ends.get(&(node, seq)).copied().unwrap_or(0))
    }

    fn end(&mut self, node: u16, seq: u64) {
        *self.ends.entry((node, seq)).or_default() += 1;
    }

    /// The live transactions: each slot's current one.
    fn live(&self) -> Vec<TxnId> {
        (0..NODES)
            .flat_map(|n| (1..=SEQS).map(move |s| (n, s)))
            .map(|(n, s)| self.current(n, s))
            .collect()
    }

    /// Every transaction the schedule named, ended ones included.
    fn all(&self) -> Vec<TxnId> {
        let mut ids = Vec::new();
        for node in 0..NODES {
            for seq in 1..=SEQS {
                let ends = self.ends.get(&(node, seq)).copied().unwrap_or(0);
                ids.extend((0..=ends).map(|e| t(node, seq + SEQS * e)));
            }
        }
        ids
    }
}

/// Withdraw every queued request of `txn`, on both managers, before its
/// final release (the engine's abort does the same; a committer has none).
fn withdraw_waits(
    m: &mut Machine,
    logs: &mut LogSet,
    mgr: &mut LockManager,
    reference: &mut ReferenceLockManager,
    txn: TxnId,
) -> Result<(), TestCaseError> {
    for name in 1..=NAMES {
        if reference.waiters_of(name).iter().any(|w| w.txn == txn) {
            let real = mgr.cancel_wait(m, logs, txn, name);
            let model = reference.cancel_wait(txn, name);
            prop_assert_eq!(&real, &model, "withdraw {:?} {}", txn, name);
        }
    }
    Ok(())
}

/// The real manager's logical lock-record stream for `node` (recovery's
/// input), in the reference model's vocabulary.
fn lock_stream(logs: &LogSet, node: NodeId) -> Vec<RefLockRecord> {
    logs.log(node)
        .records()
        .filter_map(|r| match &r.payload {
            LogPayload::LockAcquire { txn, name, mode, queued } => Some(RefLockRecord::Acquire {
                txn: *txn,
                name: *name,
                mode: LockMode::from(*mode),
                queued: *queued,
            }),
            LogPayload::LockRelease { txn, name, wait_only } => {
                Some(RefLockRecord::Release { txn: *txn, name: *name, wait_only: *wait_only })
            }
            _ => None,
        })
        .collect()
}

fn run_schedule(
    ops: &[Op],
    m: &mut Machine,
    logs: &mut LogSet,
    mgr: &mut LockManager,
    reference: &mut ReferenceLockManager,
) -> Result<Ids, TestCaseError> {
    let mut ids = Ids::default();
    // Violation-edge lockstep: one table fed by the real manager's
    // early releases, one by the model's. Granted acquires must then
    // inherit identical dependency edges from both.
    let mut real_viol = ViolationTable::new();
    let mut model_viol = ViolationTable::new();
    let mut next_lsn = 1u64;
    for op in ops {
        match *op {
            Op::Acquire { node, seq, name, exclusive } => {
                let txn = ids.current(node, seq);
                let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                let real = mgr.acquire(m, logs, txn, name, mode);
                let model = reference.acquire_from(txn, name, mode, txn.node());
                prop_assert_eq!(&real, &model, "acquire {:?} {} {:?}", txn, name, mode);
                if real == Ok(LockOutcome::Granted) {
                    prop_assert_eq!(
                        real_viol.deps_for(name, txn),
                        model_viol.deps_for(name, txn),
                        "inherited deps of {:?} on {}",
                        txn,
                        name
                    );
                }
            }
            Op::Poll { node, seq, name, exclusive } => {
                let txn = ids.current(node, seq);
                let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                let real = mgr.poll_from(m, logs, txn, name, mode, txn.node());
                let model = reference.poll_from(txn, name, mode, txn.node());
                prop_assert_eq!(&real, &model, "poll {:?} {} {:?}", txn, name, mode);
                if real == Ok(LockOutcome::Granted) {
                    prop_assert_eq!(
                        real_viol.deps_for(name, txn),
                        model_viol.deps_for(name, txn),
                        "inherited deps of {:?} on {} (poll)",
                        txn,
                        name
                    );
                }
            }
            Op::EarlyReleaseAll { node, seq } => {
                let txn = ids.current(node, seq);
                withdraw_waits(m, logs, mgr, reference, txn)?;
                ids.end(node, seq);
                let real = mgr.early_release_all(m, logs, txn);
                let model = reference.early_release_all(txn);
                prop_assert_eq!(&real, &model, "early_release_all {:?}", txn);
                if let Ok((released, _)) = real {
                    let lsn = Lsn(next_lsn);
                    next_lsn += 1;
                    let xnames: Vec<u64> = released
                        .iter()
                        .filter(|(_, m)| *m == LockMode::Exclusive)
                        .map(|(n, _)| *n)
                        .collect();
                    real_viol.record_release(txn, lsn, &xnames);
                    let (model_released, _) = model.expect("compared equal to Ok");
                    let model_xnames: Vec<u64> = model_released
                        .iter()
                        .filter(|(_, m)| *m == LockMode::Exclusive)
                        .map(|(n, _)| *n)
                        .collect();
                    model_viol.record_release(txn, lsn, &model_xnames);
                }
            }
            Op::Release { node, seq, name } => {
                let txn = ids.current(node, seq);
                let real = mgr.release(m, logs, txn, name);
                let model = reference.release(txn, name);
                prop_assert_eq!(&real, &model, "release {:?} {}", txn, name);
            }
            Op::CancelWait { node, seq, name } => {
                let txn = ids.current(node, seq);
                let real = mgr.cancel_wait(m, logs, txn, name);
                let model = reference.cancel_wait(txn, name);
                prop_assert_eq!(&real, &model, "cancel {:?} {}", txn, name);
            }
            Op::ReleaseAll { node, seq } => {
                let txn = ids.current(node, seq);
                withdraw_waits(m, logs, mgr, reference, txn)?;
                ids.end(node, seq);
                let real = mgr.release_all(m, logs, txn);
                let model = reference.release_all(txn);
                prop_assert_eq!(&real, &model, "release_all {:?}", txn);
                // The engine resolves a releaser's violation edges when its
                // commit is acknowledged (or its cascade handled); the
                // final lock release stands in for that here.
                real_viol.resolve(txn);
                model_viol.resolve(txn);
            }
        }
    }
    prop_assert_eq!(real_viol.edges_recorded(), model_viol.edges_recorded(), "edge totals");
    prop_assert_eq!(real_viol.violated_names(), model_viol.violated_names(), "violated names");
    Ok(ids)
}

fn assert_equivalent_state(
    m: &mut Machine,
    mgr: &LockManager,
    reference: &ReferenceLockManager,
    ids: &Ids,
    query_node: NodeId,
    sorted: bool,
) -> Result<(), TestCaseError> {
    let mgr2 = mgr.clone();
    for name in 1..=NAMES {
        let mut real_h = mgr2.holders_of(m, query_node, name).expect("holders_of");
        let mut real_w = mgr2.waiters_of(m, query_node, name).expect("waiters_of");
        let mut model_h = reference.holders_of(name);
        let mut model_w = reference.waiters_of(name);
        if sorted {
            real_h.sort_by_key(|e| e.txn);
            real_w.sort_by_key(|e| e.txn);
            model_h.sort_by_key(|e| e.txn);
            model_w.sort_by_key(|e| e.txn);
        }
        prop_assert_eq!(&real_h, &model_h, "holders of {}", name);
        prop_assert_eq!(&real_w, &model_w, "waiters of {}", name);
    }
    for txn in ids.all() {
        let real = mgr.held_locks(txn);
        let model = reference.held_locks(txn);
        if sorted {
            let real: BTreeSet<u64> = real.into_iter().collect();
            let model: BTreeSet<u64> = model.into_iter().collect();
            prop_assert_eq!(real, model, "chain of {:?}", txn);
        } else {
            prop_assert_eq!(real, model, "chain of {:?}", txn);
        }
    }
    Ok(())
}

/// `PROPTEST_CASES` from the environment (a deeper run), else `default`.
fn cases_or(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases_or(64), ..ProptestConfig::default() })]

    #[test]
    fn flat_lock_table_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let (mut m, mut logs, mut mgr, mut reference) = setup();
        let ids = run_schedule(&ops, &mut m, &mut logs, &mut mgr, &mut reference)?;
        // Identical lock state, chain state (order included), and — the
        // part recovery depends on — identical per-node lock-log streams.
        assert_equivalent_state(&mut m, &mgr, &reference, &ids, NodeId(0), false)?;
        for node in 0..NODES {
            prop_assert_eq!(
                lock_stream(&logs, NodeId(node)),
                reference.log_of(NodeId(node)).to_vec(),
                "lock-record stream of node {}",
                node
            );
        }
    }

    #[test]
    fn flat_lock_table_matches_reference_across_crash(
        ops in proptest::collection::vec(op_strategy(), 1..100),
        crash_node in 0..NODES,
    ) {
        let (mut m, mut logs, mut mgr, mut reference) = setup();
        let ids = run_schedule(&ops, &mut m, &mut logs, &mut mgr, &mut reference)?;
        // Wait-queue order is not durable state (§4.2.2 reconstructs queued
        // requests from per-node logs, losing global FIFO order), so a
        // promotion race between two queued waiters after the crash could
        // resolve differently in the two implementations. Drain all waiters
        // first — the no-wait engines abort waiting transactions anyway —
        // then the post-crash state is uniquely determined.
        loop {
            let mut cancelled = false;
            for name in 1..=NAMES {
                for w in reference.waiters_of(name) {
                    let real = mgr.cancel_wait(&mut m, &mut logs, w.txn, name);
                    let model = reference.cancel_wait(w.txn, name);
                    prop_assert_eq!(&real, &model, "drain {:?} {}", w.txn, name);
                    cancelled = true;
                }
            }
            if !cancelled {
                break;
            }
        }
        let crashed = NodeId(crash_node);
        m.crash(&[crashed]);
        logs.crash(&[crashed]);
        reference.crash_node(crashed);
        let recovery_node = m.surviving_nodes()[0];
        // The live transactions of the surviving nodes: an ended one's
        // grants are gone from the LCBs, and its releases are not logged.
        let active: BTreeSet<TxnId> =
            ids.live().into_iter().filter(|txn| txn.node() != crashed).collect();
        mgr.recover(&mut m, &mut logs, &[crashed], &active, recovery_node)
            .map_err(|e| TestCaseError::fail(format!("recover: {e}")))?;
        // Reconstruction packs multi-holder LCBs in log-scan order, so
        // compare entry *sets* (with modes), not entry order.
        assert_equivalent_state(&mut m, &mgr, &reference, &ids, recovery_node, true)?;
        // The fast lane must stay truthful after recovery: every grant the
        // reference still sees is answerable from the rebuilt chains.
        for name in 1..=NAMES {
            for h in reference.holders_of(name) {
                prop_assert_eq!(
                    mgr.held_mode(h.txn, name),
                    Some(h.mode),
                    "chain mode of {:?} on {}",
                    h.txn,
                    name
                );
            }
        }
    }
}

/// Deterministic §4.2.2 promotion-across-crash scenario with a single
/// waiter (no ordering ambiguity): the holder's node crashes *and* takes
/// the only copy of the LCB line with it, so the waiter's promotion must
/// come out of log reconstruction, not a surviving-line scrub.
#[test]
fn lost_line_promotion_matches_reference() {
    let (mut m, mut logs, mut mgr, mut reference) = setup();
    let holder = t(2, 1); // crashes
    let waiter = t(1, 1); // survives
    let toucher = t(2, 2); // crashes; its queued request pulls the line to n2
    assert_eq!(
        mgr.acquire(&mut m, &mut logs, holder, 7, LockMode::Exclusive).unwrap(),
        LockOutcome::Granted
    );
    assert_eq!(
        mgr.acquire(&mut m, &mut logs, waiter, 7, LockMode::Exclusive).unwrap(),
        LockOutcome::Waiting
    );
    assert_eq!(
        mgr.acquire(&mut m, &mut logs, toucher, 7, LockMode::Shared).unwrap(),
        LockOutcome::Waiting
    );
    reference.acquire_from(holder, 7, LockMode::Exclusive, holder.node()).unwrap();
    reference.acquire_from(waiter, 7, LockMode::Exclusive, waiter.node()).unwrap();
    reference.acquire_from(toucher, 7, LockMode::Shared, toucher.node()).unwrap();
    // The last touch came from n2, so n2's crash destroys the only copy of
    // the LCB line — holder's grant included.
    assert_eq!(m.exclusive_owner(mgr.table().bucket_line(7)), Some(NodeId(2)));
    m.crash(&[NodeId(2)]);
    logs.crash(&[NodeId(2)]);
    reference.crash_node(NodeId(2));
    let active: BTreeSet<TxnId> = [waiter].into_iter().collect();
    let st = mgr.recover(&mut m, &mut logs, &[NodeId(2)], &active, NodeId(1)).unwrap();
    assert_eq!(st.promotions, 1, "waiter promoted out of the reconstructed LCB");
    let holders = mgr.holders_of(&mut m, NodeId(1), 7).unwrap();
    assert_eq!(holders, reference.holders_of(7));
    assert_eq!(holders.len(), 1);
    assert_eq!(holders[0].txn, waiter);
    assert_eq!(mgr.held_mode(waiter, 7), Some(LockMode::Exclusive));
}
