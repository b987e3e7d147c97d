//! The transaction table — an active table of live transactions plus a
//! dense settled-status index — against the structure it replaced: one
//! map of every transaction ever begun, never pruned.
//!
//! * a lockstep proptest drives random begin / update / commit /
//!   pipelined commit (with and without early lock release) / drain /
//!   abort / checkpoint / crash / interrupted recovery / reboot /
//!   `run_epochs` sequences and, after every step, compares everything
//!   the engine answers from the table with what a whole-history map
//!   kept beside it answers — and runs the oracle battery's first call
//!   between every crash and its recovery ([`SmDb::check_before_recover`]:
//!   the commit predicate, and the pending restart's analysis against a
//!   fold over every retained log record, against itself over every order
//!   the logs are read in, its tag scan and cached-line probe against
//!   whole-cache walks). After a recovery, interrupted or not, it runs
//!   the commit predicate alone ([`SmDb::check_predicate_alone`]): the
//!   battery's second call there meets two pinned IFA defects (ROADMAP
//!   item 1);
//! * a scenario pins the one settled transaction that must stay in the
//!   active table: a recovery victim whose commit record is durable;
//! * a count pins the property the split exists for: what `crash`,
//!   `recover` and `checkpoint` visit follows the live transactions, not
//!   the history behind them.

use proptest::prelude::*;
use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_core::{
    DbConfig, DbError, MtTxn, Op, ProtocolKind, SmDb, TxnStatus, FAULT_RECOVERY_PHASE,
};
use smdb_obs::names;
use smdb_sim::{NodeId, TxnId};
use std::collections::{BTreeMap, BTreeSet};

const NODES: u16 = 4;

// ---------------------------------------------------------------------------
// The reference: a whole-history map, maintained the way the engine's
// table used to be, from nothing but what each call returns.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct WholeHistory {
    /// Every transaction ever begun. Entries are never removed.
    status: BTreeMap<TxnId, TxnStatus>,
    /// Commit record appended, acknowledgement pending.
    pipelined: BTreeSet<TxnId>,
    /// Highest sequence number begun per node.
    seqs: [u64; NODES as usize],
}

impl WholeHistory {
    fn active(&self, node: Option<NodeId>) -> Vec<TxnId> {
        self.status
            .iter()
            .filter(|(t, s)| **s == TxnStatus::Active && node.is_none_or(|n| t.node() == n))
            .map(|(t, _)| *t)
            .collect()
    }

    fn settle(&mut self, txn: TxnId, status: TxnStatus) {
        self.status.insert(txn, status);
        self.pipelined.remove(&txn);
    }

    /// The engine's old `settled_unacked_commits`, verbatim, over the
    /// whole map: every entry that is not `Committed` but has a stable
    /// commit record, minus — to a fixpoint — those resting on a
    /// dependency that is neither acknowledged nor in the set.
    fn settled_unacked(&self, db: &SmDb) -> BTreeSet<TxnId> {
        let acked = |t: TxnId| self.status.get(&t) == Some(&TxnStatus::Committed);
        let mut set: BTreeSet<TxnId> = self
            .status
            .iter()
            .filter(|(t, s)| {
                **s != TxnStatus::Committed && db.logs().log(t.node()).is_commit_stable(**t)
            })
            .map(|(t, _)| *t)
            .collect();
        loop {
            let dropped: Vec<TxnId> = set
                .iter()
                .copied()
                .filter(|t| {
                    let deps = db.logs().log(t.node()).index().commit_deps_of(*t);
                    deps.iter().any(|d| !acked(d.txn) && !set.contains(&d.txn))
                })
                .collect();
            if dropped.is_empty() {
                return set;
            }
            for t in dropped {
                set.remove(&t);
            }
        }
    }

    /// What `crash()` promotes: active transactions whose commit settled.
    fn promote(&mut self, db: &SmDb) {
        for t in self.settled_unacked(db) {
            if self.status[&t] == TxnStatus::Active {
                self.settle(t, TxnStatus::Committed);
            }
        }
    }

    /// What a pipeline drain acknowledges once its forces are in: every
    /// pending commit whose record is durable and whose recorded
    /// predecessors are all acknowledged, to a fixpoint.
    fn acknowledge(&mut self, db: &SmDb) -> usize {
        let mut acked = 0;
        loop {
            let ready: Vec<TxnId> = self
                .pipelined
                .iter()
                .copied()
                .filter(|t| {
                    let log = db.logs().log(t.node());
                    log.index().commit_lsn(*t).is_some_and(|l| l <= log.durable_lsn())
                        && log.index().commit_deps_of(*t).iter().all(|d| {
                            self.status.get(&d.txn).is_none_or(|s| *s == TxnStatus::Committed)
                        })
                })
                .collect();
            if ready.is_empty() {
                return acked;
            }
            for t in ready {
                self.settle(t, TxnStatus::Committed);
                acked += 1;
            }
        }
    }

    /// Everything the engine answers from its table, against this map.
    fn compare(&self, db: &SmDb, at: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(db.active_txns(None), self.active(None), "active_txns(None) {}", at);
        for n in 0..NODES {
            let n = NodeId(n);
            prop_assert_eq!(
                db.active_txns(Some(n)),
                self.active(Some(n)),
                "active on {} {}",
                n,
                at
            );
            let unborn = TxnId::new(n, self.seqs[n.0 as usize] + 1);
            prop_assert_eq!(db.txn_status(unborn), None, "{} was never begun ({})", unborn, at);
        }
        for (t, s) in &self.status {
            prop_assert_eq!(db.txn_status(*t), Some(*s), "status of {} {}", t, at);
            match s {
                TxnStatus::Active => {
                    let live = db.txn(*t).map(|st| (st.is_active(), st.committing));
                    let want = Some((true, self.pipelined.contains(t)));
                    prop_assert_eq!(live, want, "live state of {} {}", t, at);
                }
                TxnStatus::Committed => {
                    prop_assert!(db.txn(*t).is_none(), "{} committed yet still live {}", t, at)
                }
                TxnStatus::Aborted => {
                    let stripped = db.txn(*t).is_none_or(|st| !st.is_active() && st.ops.is_empty());
                    prop_assert!(stripped, "{} aborted but keeps live state {}", t, at);
                }
            }
        }
        prop_assert_eq!(db.settled_unacked_commits(), self.settled_unacked(db), "fixpoint {}", at);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The script.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Step {
    Begin(u16),
    Update(usize, u64),
    Commit(usize),
    CommitPipelined(usize),
    Drain,
    Abort(usize),
    Checkpoint(u16),
    /// Crash the nodes in the mask; `Some(k)` also kills the recovery node
    /// at the `k`-th phase boundary of the restart that follows.
    Crash(u8, Option<u64>),
    Reboot(u16),
    RunEpochs(usize),
    /// A violated-lock chain in the making: P on the first node updates
    /// the slot and commits pipelined; S on the second overwrites it (under
    /// early lock release, inheriting the dependency) and commits
    /// pipelined too; a bystander's synchronous commit then forces the
    /// second node's log past S's record while P's is still volatile.
    Chain(u16, u16, u64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let pick = 0usize..64;
    prop_oneof![
        4 => (0..NODES).prop_map(Step::Begin),
        6 => (pick.clone(), 0u64..24).prop_map(|(t, s)| Step::Update(t, s)),
        3 => pick.clone().prop_map(Step::Commit),
        3 => pick.clone().prop_map(Step::CommitPipelined),
        2 => Just(Step::Drain),
        1 => pick.prop_map(Step::Abort),
        1 => (0..NODES).prop_map(Step::Checkpoint),
        1 => (1u8..16, 0u64..9).prop_map(|(m, k)| Step::Crash(m, (k < 7).then_some(k))),
        1 => (1u8..16).prop_map(|m| Step::Crash(m, None)),
        2 => (0..NODES).prop_map(Step::Reboot),
        1 => (1usize..12).prop_map(Step::RunEpochs),
        2 => (0..NODES, 0..NODES, 0u64..24).prop_map(|(a, b, s)| Step::Chain(a, b, s)),
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

struct Lockstep {
    db: SmDb,
    model: WholeHistory,
    fault: FaultInjector,
    elr: bool,
}

impl Lockstep {
    fn new(protocol: ProtocolKind, elr: bool) -> Self {
        let mut cfg = DbConfig::small(NODES, protocol).without_index();
        if elr {
            cfg = cfg.with_early_lock_release().with_lock_polling();
        }
        let mut db = SmDb::new(cfg);
        let fault = FaultInjector::new();
        db.set_fault_injector(fault.clone());
        Lockstep { db, model: WholeHistory::default(), fault, elr }
    }

    fn up(&self, node: NodeId) -> bool {
        !self.db.machine().is_crashed(node)
    }

    /// The `pick`-th active transaction (there are no active transactions
    /// on a down node once its recovery has completed).
    fn pick(&self, pick: usize) -> Option<TxnId> {
        let active = self.model.active(None);
        (!active.is_empty()).then(|| active[pick % active.len()])
    }

    /// Whether the engine is right to refuse `txn` further operations: its
    /// commit record is appended, or it has settled.
    fn takes_no_ops(&self, txn: TxnId) -> bool {
        self.model.pipelined.contains(&txn) || self.model.status[&txn] != TxnStatus::Active
    }

    /// No-wait policy: a transaction that met a conflict rolls back.
    fn abort(&mut self, txn: TxnId) -> Result<(), TestCaseError> {
        match self.db.abort(txn) {
            Ok(()) => self.model.settle(txn, TxnStatus::Aborted),
            Err(e) => return Err(TestCaseError::fail(format!("abort {txn}: {e}"))),
        }
        Ok(())
    }

    fn crash(&mut self, nodes: &[NodeId], at: &str) -> Result<(), TestCaseError> {
        self.db.crash(nodes);
        self.model.promote(&self.db);
        self.model.compare(&self.db, at)?;
        self.db.check_before_recover().map_err(|v| TestCaseError::fail(format!("{at}: {v}")))
    }

    fn begin(&mut self, node: NodeId) -> Result<Option<TxnId>, TestCaseError> {
        match self.db.begin(node) {
            Ok(txn) => {
                prop_assert!(self.up(node));
                let seq = &mut self.model.seqs[node.0 as usize];
                *seq += 1;
                prop_assert_eq!(txn, TxnId::new(node, *seq));
                self.model.status.insert(txn, TxnStatus::Active);
                Ok(Some(txn))
            }
            Err(e) => {
                prop_assert_eq!(e, DbError::NodeDown { node });
                Ok(None)
            }
        }
    }

    fn update(&mut self, txn: TxnId, slot: u64) -> Result<(), TestCaseError> {
        match self.db.update(txn, slot, &slot.to_le_bytes()) {
            Ok(()) => prop_assert!(self.model.status[&txn] == TxnStatus::Active),
            Err(DbError::TxnNotActive { .. }) => prop_assert!(self.takes_no_ops(txn)),
            Err(DbError::WouldBlock { .. }) => self.abort(txn)?,
            Err(e) => return Err(TestCaseError::fail(format!("update {txn}: {e}"))),
        }
        Ok(())
    }

    fn commit(&mut self, txn: TxnId) -> Result<(), TestCaseError> {
        match self.db.commit(txn) {
            Ok(()) => self.model.settle(txn, TxnStatus::Committed),
            Err(DbError::TxnNotActive { .. }) => prop_assert!(self.takes_no_ops(txn)),
            // A predecessor's commit record is beyond saving.
            Err(DbError::WouldBlock { .. }) => self.abort(txn)?,
            Err(e) => return Err(TestCaseError::fail(format!("commit {txn}: {e}"))),
        }
        Ok(())
    }

    fn commit_pipelined(&mut self, txn: TxnId) -> Result<(), TestCaseError> {
        match self.db.commit_pipelined(txn) {
            Ok(()) => {
                self.model.pipelined.insert(txn);
            }
            Err(DbError::TxnNotActive { .. }) => prop_assert!(self.takes_no_ops(txn)),
            Err(e) => return Err(TestCaseError::fail(format!("pipeline {txn}: {e}"))),
        }
        Ok(())
    }

    fn run(&mut self, step: &Step) -> Result<(), TestCaseError> {
        match *step {
            Step::Begin(n) => {
                self.begin(NodeId(n))?;
            }
            Step::Update(pick, slot) => {
                let Some(txn) = self.pick(pick) else { return Ok(()) };
                self.update(txn, slot)?;
            }
            Step::Commit(pick) => {
                let Some(txn) = self.pick(pick) else { return Ok(()) };
                self.commit(txn)?;
            }
            Step::CommitPipelined(pick) => {
                let Some(txn) = self.pick(pick) else { return Ok(()) };
                self.commit_pipelined(txn)?;
            }
            Step::Chain(a, b, slot) => {
                let (a, b) = (NodeId(a), NodeId(b));
                if a == b || !self.up(a) || !self.up(b) {
                    return Ok(());
                }
                for node in [a, b] {
                    let txn = self.begin(node)?.expect("node is up");
                    self.update(txn, slot)?;
                    self.commit_pipelined(txn)?;
                }
                let bystander = self.begin(b)?.expect("node is up");
                self.update(bystander, 200 + slot)?;
                self.commit(bystander)?;
            }
            Step::Drain => {
                let acked = self
                    .db
                    .drain_commit_pipeline()
                    .map_err(|e| TestCaseError::fail(format!("drain: {e}")))?;
                prop_assert_eq!(acked, self.model.acknowledge(&self.db));
            }
            Step::Abort(pick) => {
                let Some(txn) = self.pick(pick) else { return Ok(()) };
                if self.model.pipelined.contains(&txn) {
                    prop_assert_eq!(self.db.abort(txn), Err(DbError::TxnNotActive { txn }));
                } else {
                    self.abort(txn)?;
                }
            }
            Step::Checkpoint(n) => {
                if self.up(NodeId(n)) {
                    self.db
                        .checkpoint(NodeId(n))
                        .map_err(|e| TestCaseError::fail(format!("checkpoint: {e}")))?;
                }
            }
            Step::Crash(mask, interrupt) => {
                let nodes: Vec<NodeId> =
                    (0..NODES).filter(|n| mask & (1 << n) != 0).map(NodeId).collect();
                let nodes: Vec<NodeId> = nodes.into_iter().filter(|n| self.up(*n)).collect();
                if nodes.is_empty() {
                    return Ok(());
                }
                self.crash(&nodes, "after crash")?;
                if let Some(k) = interrupt {
                    self.fault.arm(FaultPlan::single(CrashPoint::new(FAULT_RECOVERY_PHASE, k)));
                }
                let mut result = self.db.recover();
                self.fault.off();
                if let Err(e) = &result {
                    // The recovery node died at a phase boundary: nothing
                    // settled yet. A fresh survivor starts over.
                    let victim = e.fault_crash().map(|c| NodeId(c.node));
                    let Some(victim) = victim else {
                        return Err(TestCaseError::fail(format!("recover: {e}")));
                    };
                    self.model.compare(&self.db, "after interrupted recover")?;
                    self.db.check_predicate_alone().map_err(|v| {
                        TestCaseError::fail(format!("after interrupted recover: {v}"))
                    })?;
                    self.crash(&[victim], "after recovery-node crash")?;
                    result = self.db.recover();
                }
                let outcome = result.map_err(|e| TestCaseError::fail(format!("recover: {e}")))?;
                for txn in outcome.aborted {
                    self.model.settle(txn, TxnStatus::Aborted);
                }
                self.db
                    .check_predicate_alone()
                    .map_err(|v| TestCaseError::fail(format!("after recover: {v}")))?;
            }
            Step::Reboot(n) => {
                if !self.up(NodeId(n)) {
                    self.db.reboot(NodeId(n));
                }
            }
            Step::RunEpochs(k) => {
                let quiescent = self.model.active(None).is_empty()
                    && self.db.pending_commit_count() == 0
                    && (0..NODES).all(|n| self.up(NodeId(n)));
                if self.elr || !quiescent {
                    return Ok(());
                }
                // Private slots per node: no footprint escapes, so every
                // admitted transaction commits under its admission id.
                let txns: Vec<MtTxn> = (0..k as u64)
                    .map(|i| {
                        let n = i % NODES as u64;
                        let slot = 64 * n + (i * 7) % 64;
                        MtTxn {
                            node: NodeId(n as u16),
                            ops: vec![Op::Update(slot, i.to_le_bytes()), Op::Read(64 * n)],
                        }
                    })
                    .collect();
                let out = self
                    .db
                    .run_epochs(txns.clone(), 2)
                    .map_err(|e| TestCaseError::fail(format!("run_epochs: {e}")))?;
                prop_assert_eq!((out.committed, out.serial_retries), (k as u64, 0));
                for t in txns {
                    let n = t.node.0 as usize;
                    self.model.seqs[n] += 1;
                    self.model.settle(TxnId::new(t.node, self.model.seqs[n]), TxnStatus::Committed);
                }
            }
        }
        Ok(())
    }
}

proptest! {
    /// After every step, the active table and the status index answer
    /// exactly what a never-pruned map of all transactions answers.
    #[test]
    fn table_agrees_with_whole_history_map(
        protocol in protocol_strategy(),
        elr in any::<bool>(),
        steps in proptest::collection::vec(step_strategy(), 1..90),
    ) {
        let mut ls = Lockstep::new(protocol, elr);
        for (i, step) in steps.iter().enumerate() {
            ls.run(step)?;
            ls.model.compare(&ls.db, &format!("after step {i} {step:?}"))?;
        }
    }
}

// ---------------------------------------------------------------------------
// The settled transaction that must stay live.
// ---------------------------------------------------------------------------

/// P (node 0) releases its lock early; S (node 1) overwrites P's value and
/// gets its own commit record forced while P's is still volatile. Node 0
/// dies: S is a cascade victim *with a durable commit record*. It settles
/// as aborted — and its entry must stay in the active table, because the
/// commit-dependency fixpoint has to keep meeting (and refusing) that
/// record: across two further recoveries S stays out of the committed
/// class, its value stays undone, and the whole-history oracle agrees.
#[test]
fn cascade_victim_with_stable_commit_record_stays_excluded() {
    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);
    let cfg = DbConfig::small(4, ProtocolKind::StableEager)
        .without_index()
        .with_early_lock_release()
        .with_lock_polling();
    let mut db = SmDb::new(cfg);
    let base = db.begin(N2).unwrap();
    db.update(base, 7, b"base").unwrap();
    db.commit(base).unwrap();
    let p = db.begin(N0).unwrap();
    db.update(p, 7, b"from-p").unwrap();
    db.commit_pipelined(p).unwrap();
    let s = db.begin(N1).unwrap();
    db.update(s, 7, b"from-s").unwrap();
    db.commit_pipelined(s).unwrap();
    let bystander = db.begin(N1).unwrap();
    db.update(bystander, 100, b"bystander").unwrap();
    db.commit(bystander).unwrap();
    assert!(db.logs().log(N1).is_commit_stable(s), "S's commit record is durable");

    db.crash_and_recover(&[N0]).unwrap();
    assert_eq!(db.txn_status(p), Some(TxnStatus::Aborted));
    assert_eq!(db.txn_status(s), Some(TxnStatus::Aborted), "cascade abort");
    assert!(db.txn(p).is_none(), "P's commit record died with node 0: nothing left to refuse");
    let kept = db.txn(s).expect("S's durable commit record keeps its entry live");
    assert!(!kept.is_active() && kept.ops.is_empty(), "stripped to its status");
    assert!(db.txn(bystander).is_none() && db.txn(base).is_none(), "settled ⇒ dropped");
    assert!(db.active_txns(None).is_empty());

    // Node 0 comes back; the checkpoint reclaims the old log records (a
    // rebooted node's retained prefix is a defect of its own, pinned in
    // engine_recovery.rs) — the commit index entries outlive them.
    db.reboot(N0);
    db.checkpoint(N2).unwrap();
    assert!(db.logs().log(N1).is_commit_stable(s), "S's commit entry survives truncation");
    for (round, victim) in [N1, N2].into_iter().enumerate() {
        db.crash(&[victim]);
        assert!(!db.settled_unacked_commits().contains(&s), "round {round}: S counted committed");
        assert!(db.check_commit_predicate().is_empty(), "round {round}");
        db.recover().unwrap();
        assert!(db.check_commit_predicate().is_empty(), "round {round}");
        assert_eq!(db.txn_status(s), Some(TxnStatus::Aborted), "round {round}");
        assert!(db.txn(s).is_some(), "round {round}: S's entry outlives the recovery");
        assert_eq!(&db.current_value(7).unwrap()[..4], b"base", "round {round}");
        db.check_ifa(N0).assert_ok();
        db.reboot(victim);
    }
}

// ---------------------------------------------------------------------------
// The property itself, as a count.
// ---------------------------------------------------------------------------

/// Settle `settled` transactions, leave four active (one per node), crash
/// node 0, recover, checkpoint; return what those three calls visited in
/// the transaction table.
fn entries_visited(settled: u64) -> u64 {
    let mut db =
        SmDb::new(DbConfig::small(NODES, ProtocolKind::VolatileSelectiveRedo).without_index());
    for i in 0..settled {
        let t = db.begin(NodeId((i % NODES as u64) as u16)).unwrap();
        if i % 8 == 0 {
            db.update(t, i % 256, &i.to_le_bytes()).unwrap();
        }
        if i % 5 == 0 {
            db.abort(t).unwrap();
        } else {
            db.commit(t).unwrap();
        }
        if i % 4096 == 0 {
            db.checkpoint(NodeId(0)).unwrap();
        }
    }
    let live: Vec<TxnId> = (0..NODES)
        .map(|n| {
            let t = db.begin(NodeId(n)).unwrap();
            db.update(t, 10 * n as u64, b"live").unwrap();
            t
        })
        .collect();
    db.enable_observability(0);
    db.crash(&[NodeId(0)]);
    let outcome = db.recover().unwrap();
    assert_eq!(outcome.aborted, vec![live[0]]);
    db.checkpoint(NodeId(1)).unwrap();
    db.check_ifa(NodeId(1)).assert_ok();
    let snap = db.observability().metrics.snapshot();
    let visited = snap.counters.iter().find(|(n, _)| n == names::RESTART_TXN_ENTRIES_VISITED);
    visited.expect("the table walks are counted").1
}

#[test]
fn restart_and_checkpoint_visit_live_entries_only() {
    let after_5k = entries_visited(5_000);
    let after_50k = entries_visited(50_000);
    assert_eq!(after_5k, after_50k, "the walk must not grow with history");
    // crash: the promotion walk; recover: the scope's walk, the analysis'
    // fixpoint; checkpoint: the undo-floor walk — a handful
    // of walks over the four live entries (three once node 0's has died).
    assert!((4..=8 * 4).contains(&after_50k), "visited {after_50k} entries for 4 live ones");
}
