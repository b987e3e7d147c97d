//! The IFA oracle: a shadow model of what the database *should* contain,
//! and the checker that compares it with the engine after crash recovery.
//!
//! IFA (§3.3) demands that after any crash-and-recover episode:
//!
//! 1. every effect of every transaction that was active on a **crashed**
//!    node is gone;
//! 2. no effect of any transaction on a **surviving** node — committed or
//!    still active — is lost;
//! 3. locks mirror the same rule (§4.2.2): crashed transactions hold none,
//!    surviving active transactions hold exactly what they held.
//!
//! The shadow model is maintained by the engine on every logical operation
//! (it is test harness state, not part of the recovery protocols — the
//! protocols never read it).
//!
//! Every crash harness reaches the standing oracles through one battery:
//! [`SmDb::check_before_recover`] between a crash and its recovery,
//! [`SmDb::check_after_recover`] where none is pending, and
//! [`SmDb::check_predicate_alone`] after an interrupted recovery;
//! [`SmDb::recover_checked`] runs them around a `recover`.

use crate::engine::SmDb;
use crate::error::DbError;
use crate::restart::RecoveryOutcome;
use crate::txn::TxnStatus;
use smdb_btree::VAL_SIZE;
use smdb_fault::FaultInjector;
use smdb_sim::{NodeId, TxnId};
use smdb_wal::{LogPayload, RecId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Debug};

/// Pending (uncommitted) effects of one transaction. Every entry carries
/// the global write sequence number it was noted at, so commit application
/// can respect *write* order even when commits settle out of order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Pending {
    /// slot → (write seq, written payload) (last write wins).
    writes: BTreeMap<u64, (u64, Vec<u8>)>,
    /// key → (write seq, Some(value) for inserts / None for deletes).
    index: BTreeMap<u64, (u64, Option<[u8; VAL_SIZE]>)>,
}

/// The logical shadow database.
///
/// Committed state is keyed by *write order*, not commit order: under early
/// lock release with pipelined group commit, per-node force acknowledgements
/// can settle two dependent commits in either order (the predecessor's
/// commit record may be durable long before its own ack arrives), while the
/// physical database — and recovery's highest-GSN redo — is always
/// last-*writer*-wins. So each noted write is stamped with a monotonic
/// sequence number, and [`ShadowDb::commit`] only overwrites a committed
/// entry with a newer-stamped one. (Found by the schedule fuzzer: a
/// successor's commit acked before its ELR predecessor's made the shadow
/// resurrect the predecessor's overwritten value.)
#[derive(Clone, Debug, Default)]
pub struct ShadowDb {
    committed: BTreeMap<u64, (u64, Vec<u8>)>,
    /// `None` is a delete tombstone: it must keep its seq so an
    /// out-of-order earlier insert cannot resurrect the key.
    committed_index: BTreeMap<u64, (u64, Option<[u8; VAL_SIZE]>)>,
    pending: BTreeMap<TxnId, Pending>,
    /// Global write sequence, bumped on every noted operation.
    seq: u64,
}

impl ShadowDb {
    /// Empty shadow state (all records zero, empty index).
    pub fn new() -> Self {
        Self::default()
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Note an uncommitted record write.
    pub fn note_update(&mut self, txn: TxnId, slot: u64, payload: Vec<u8>) {
        let seq = self.next_seq();
        self.pending.entry(txn).or_default().writes.insert(slot, (seq, payload));
    }

    /// Note an uncommitted index insert.
    pub fn note_index_insert(&mut self, txn: TxnId, key: u64, value: [u8; VAL_SIZE]) {
        let seq = self.next_seq();
        self.pending.entry(txn).or_default().index.insert(key, (seq, Some(value)));
    }

    /// Note an uncommitted index delete.
    pub fn note_index_delete(&mut self, txn: TxnId, key: u64) {
        let seq = self.next_seq();
        self.pending.entry(txn).or_default().index.insert(key, (seq, None));
    }

    /// Promote a transaction's pending effects to committed state.
    ///
    /// Each effect is applied only if it is *newer in write order* than the
    /// committed entry it would replace — commits may settle in either
    /// order under pipelined early lock release, but writes are serialized
    /// by 2PL, so write order is the ground truth.
    pub fn commit(&mut self, txn: TxnId) {
        if let Some(p) = self.pending.remove(&txn) {
            for (slot, (seq, v)) in p.writes {
                match self.committed.get(&slot) {
                    Some((have, _)) if *have > seq => {}
                    _ => {
                        self.committed.insert(slot, (seq, v));
                    }
                }
            }
            for (key, (seq, op)) in p.index {
                match self.committed_index.get(&key) {
                    Some((have, _)) if *have > seq => {}
                    _ => {
                        self.committed_index.insert(key, (seq, op));
                    }
                }
            }
        }
    }

    /// Discard a transaction's pending effects (abort or crash).
    pub fn drop_pending(&mut self, txn: TxnId) {
        self.pending.remove(&txn);
    }

    /// The committed value of a record (zeros if never written).
    pub fn committed_value(&self, slot: u64, data_size: usize) -> Vec<u8> {
        self.committed.get(&slot).map(|(_, v)| v.clone()).unwrap_or_else(|| vec![0u8; data_size])
    }

    /// Every value record `slot` may legitimately hold *right now*: one
    /// candidate per active writer's pending value, or the committed
    /// value when no active transaction wrote the slot. Under strict 2PL
    /// at most one active writer exists, so this is a singleton; under
    /// early lock release a committing predecessor (commit record
    /// appended, locks shed, ack pending) and a successor running on the
    /// violated lock can both have pending writes on the slot, and the
    /// shadow model does not track which physically wrote last — any of
    /// their values is consistent.
    pub fn expected_values(&self, slot: u64, data_size: usize, active: &[TxnId]) -> Vec<Vec<u8>> {
        let mut vals: Vec<Vec<u8>> = Vec::new();
        for txn in active {
            if let Some((_, v)) = self.pending.get(txn).and_then(|p| p.writes.get(&slot)) {
                if !vals.contains(v) {
                    vals.push(v.clone());
                }
            }
        }
        if vals.is_empty() {
            vals.push(self.committed_value(slot, data_size));
        }
        vals
    }

    /// The live index contents expected right now given the active
    /// transactions (their uncommitted inserts are physically present and
    /// unmarked; their uncommitted deletes are marked and thus invisible).
    pub fn expected_index(&self, active: &[TxnId]) -> BTreeMap<u64, [u8; VAL_SIZE]> {
        let mut map: BTreeMap<u64, [u8; VAL_SIZE]> =
            self.committed_index.iter().filter_map(|(k, (_, op))| op.map(|v| (*k, v))).collect();
        for txn in active {
            if let Some(p) = self.pending.get(txn) {
                for (key, (_, op)) in &p.index {
                    match op {
                        Some(v) => {
                            map.insert(*key, *v);
                        }
                        None => {
                            map.remove(key);
                        }
                    }
                }
            }
        }
        map
    }

    /// An empty shadow for an execution lane (epoch-parallel execution),
    /// with the write-sequence counter seeded from the parent. Sibling
    /// lanes start from the same seed, but the epoch scheduler only
    /// admits transactions with pairwise-disjoint footprints across
    /// lanes, so no two lanes ever stamp the same slot or key — equal
    /// stamps never meet at a merge.
    pub fn lane_fork(&self) -> ShadowDb {
        ShadowDb { seq: self.seq, ..ShadowDb::default() }
    }

    /// Fold a lane shadow back into the parent at an epoch barrier,
    /// applying the same newest-write-wins rule as [`ShadowDb::commit`],
    /// and adopt whatever the lane left pending (nothing, unless the lane
    /// failed mid-transaction), as the transaction table adopts its live
    /// entries. The parent's sequence counter advances past every stamp
    /// the lane issued, so later epochs always out-stamp earlier ones.
    pub fn absorb(&mut self, lane: ShadowDb) {
        self.pending.extend(lane.pending);
        for (slot, (seq, v)) in lane.committed {
            match self.committed.get(&slot) {
                Some((have, _)) if *have > seq => {}
                _ => {
                    self.committed.insert(slot, (seq, v));
                }
            }
        }
        for (key, (seq, op)) in lane.committed_index {
            match self.committed_index.get(&key) {
                Some((have, _)) if *have > seq => {}
                _ => {
                    self.committed_index.insert(key, (seq, op));
                }
            }
        }
        self.seq = self.seq.max(lane.seq);
    }

    /// Record slots any pending transaction has written (for lock checks).
    pub fn pending_slots(&self, txn: TxnId) -> Vec<u64> {
        self.pending.get(&txn).map(|p| p.writes.keys().copied().collect()).unwrap_or_default()
    }

    /// Transactions with pending state.
    pub fn pending_txns(&self) -> Vec<TxnId> {
        self.pending.keys().copied().collect()
    }
}

/// Result of one IFA check.
#[derive(Clone, Debug, Default)]
pub struct IfaReport {
    /// Human-readable descriptions of every violation found.
    pub violations: Vec<String>,
}

impl IfaReport {
    /// Whether IFA held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with the violation list if IFA did not hold (test helper).
    pub fn assert_ok(&self) {
        assert!(self.ok(), "IFA violated:\n  {}", self.violations.join("\n  "));
    }
}

/// Disagreements between what the analysis holds per record (`got`) and
/// the reference fold (`want`), one line each.
fn diff_per_record<V: PartialEq + Debug>(
    what: &str,
    got: &BTreeMap<RecId, V>,
    want: &BTreeMap<RecId, V>,
) -> Vec<String> {
    let recs: BTreeSet<&RecId> = got.keys().chain(want.keys()).collect();
    recs.into_iter()
        .filter(|rec| got.get(rec) != want.get(rec))
        .map(|rec| {
            format!(
                "{what} of {rec:?}: analysis holds {:?}, whole-log fold says {:?}",
                got.get(rec),
                want.get(rec)
            )
        })
        .collect()
}

impl SmDb {
    /// Check the IFA guarantee against the shadow model.
    ///
    /// Valid after a completed recovery ([`SmDb::crash_and_recover`] or
    /// [`SmDb::recover`] returning `Ok`) or at any other point where no
    /// crash is pending recovery. Transactions still active on surviving
    /// nodes are fine — their pending effects are expected in place, and
    /// they are *masked into* the expectation rather than assumed away.
    ///
    /// Between [`SmDb::crash`] and a completed [`SmDb::recover`] the
    /// physical state legitimately still carries doomed transactions'
    /// residue, so nothing meaningful can be compared: the check reports
    /// a single violation naming the pending recovery instead of a storm
    /// of spurious value mismatches. Transactions doomed by the pending
    /// crash are likewise excluded from the active mask — recovery will
    /// abort them.
    ///
    /// `scan_node` performs the coherent index scan (pick any survivor).
    pub fn check_ifa(&mut self, scan_node: NodeId) -> IfaReport {
        let mut report = IfaReport::default();
        if self.recovery_pending() {
            report.violations.push(format!(
                "recovery pending for {:?}: call SmDb::recover before check_ifa",
                self.restart.crashed.iter().map(|n| n.0).collect::<Vec<_>>()
            ));
            return report;
        }
        // Instant restart: lines with deferred redo still carry stale
        // pre-crash images, and `current_value` peeks past the coherence
        // guard that would repair them — the comparison is meaningless
        // until the plan drains.
        if self.redo_pending() > 0 {
            report.violations.push(format!(
                "{} redo entries pending: drain_redo to empty before check_ifa",
                self.redo_pending()
            ));
            return report;
        }
        // Mask: only transactions whose every participant is up count as
        // active writers. A transaction with a crashed participant is
        // doomed — its pending effects must NOT be expected.
        let active: Vec<TxnId> = self
            .active_txns(None)
            .into_iter()
            .filter(|t| {
                self.txns.get(*t).is_some_and(|s| {
                    s.participants.as_slice().iter().all(|p| !self.m.is_crashed(*p))
                })
            })
            .collect();
        let data_size = self.record_layout().data_size;
        // 1. Record values.
        for slot in 0..self.record_count() as u64 {
            let expected = self.shadow.expected_values(slot, data_size, &active);
            match self.current_value(slot) {
                Ok(got) => {
                    if !expected.contains(&got) {
                        report.violations.push(format!(
                            "record {slot}: expected {:?}…, found {:?}…",
                            &expected[0][..expected[0].len().min(8)],
                            &got[..got.len().min(8)]
                        ));
                    }
                }
                Err(e) => report.violations.push(format!("record {slot}: unreadable: {e}")),
            }
        }
        // 2. Index contents.
        if self.tree.is_some() {
            let expected = self.shadow.expected_index(&active);
            match self.index_scan(scan_node) {
                Ok(live) => {
                    let got: BTreeMap<u64, [u8; VAL_SIZE]> = live.into_iter().collect();
                    for (k, v) in &expected {
                        match got.get(k) {
                            Some(g) if g == v => {}
                            Some(g) => report
                                .violations
                                .push(format!("index key {k}: expected {v:?}, found {g:?}")),
                            None => report
                                .violations
                                .push(format!("index key {k}: expected present, missing")),
                        }
                    }
                    for k in got.keys() {
                        if !expected.contains_key(k) {
                            report.violations.push(format!("index key {k}: unexpected entry"));
                        }
                    }
                }
                Err(e) => report.violations.push(format!("index scan failed: {e}")),
            }
        }
        // 3. Lock space: crashed/finished transactions hold nothing;
        // surviving active transactions hold the locks covering their
        // pending writes.
        //
        // Only `Active` transactions may hold locks, and they all sit in
        // the active table: when they account for every lock chain the
        // manager knows, no finished transaction can hold one, and the
        // walk is over. Only a mismatch — a violation to be named — sends
        // the check through every transaction ever begun.
        let mut violations = Vec::new();
        let mut chains = 0usize;
        for st in self.txns.live() {
            chains += usize::from(self.check_locks_of(st.id, st.status, &active, &mut violations));
        }
        if chains != self.locks.transactions_with_locks() {
            violations.clear();
            for txn in self.txns.all_ids() {
                if let Some(status) = self.txns.status(txn) {
                    self.check_locks_of(txn, status, &active, &mut violations);
                }
            }
        }
        report.violations.append(&mut violations);
        report
    }

    /// The lock-space rule of [`SmDb::check_ifa`] for one transaction;
    /// returns whether it holds any lock.
    fn check_locks_of(
        &self,
        txn: TxnId,
        status: TxnStatus,
        active: &[TxnId],
        violations: &mut Vec<String>,
    ) -> bool {
        let held = self.locks.held_locks(txn);
        match status {
            TxnStatus::Active => {
                // Doomed by an unrecovered crash: masked. Under early lock
                // release a committing transaction has legitimately shed
                // its locks at commit-record append; it stays `Active`
                // only until the ack, so requiring held locks of it would
                // be a false positive.
                let shed = self.cfg.early_lock_release
                    && self.txns.get(txn).is_some_and(|st| st.committing);
                if active.contains(&txn) && !shed {
                    for slot in self.shadow.pending_slots(txn) {
                        if !held.contains(&Self::lock_name_for_rec(slot)) {
                            violations
                                .push(format!("{txn}: active but lost its lock on record {slot}"));
                        }
                    }
                }
            }
            TxnStatus::Committed | TxnStatus::Aborted => {
                if !held.is_empty() {
                    violations.push(format!(
                        "{txn}: finished ({status:?}) but still holds {} lock(s)",
                        held.len()
                    ));
                }
            }
        }
        !held.is_empty()
    }

    /// Independent oracle for restart's commit predicate. Restart answers
    /// "is this transaction durably committed?" from the transaction table
    /// (acknowledged ⇒ settled) plus a dependency fixpoint over the few
    /// unacknowledged commits ([`SmDb::settled_unacked_commits`]). This
    /// reference recomputes the answer the long way — the dependency
    /// fixpoint over **every** stable commit record of all history,
    /// never consulting the transaction table — and compares the two for
    /// every transaction either side knows. Valid at any point, including
    /// between [`SmDb::crash`] and [`SmDb::recover`]; the crash sweeps and
    /// the schedule fuzzer call it after each of the two. Returns
    /// human-readable disagreements (empty = the predicate is exact).
    ///
    /// One transaction is outside the comparison: a `Committed` one with no
    /// commit record on its home log, which [`SmDb::commit`] acknowledged
    /// read-only. It has no effect for the fixpoint to decide; what must
    /// hold of it is that it logged none, so one with a data record on any
    /// retained log is reported instead.
    pub fn check_commit_predicate(&self) -> Vec<String> {
        let mut reference: BTreeSet<TxnId> = BTreeSet::new();
        for n in self.m.node_ids() {
            reference.extend(self.logs.log(n).stable_commits());
        }
        loop {
            let dropped: Vec<TxnId> = reference
                .iter()
                .copied()
                .filter(|t| {
                    let deps = self.logs.log(t.node()).index().commit_deps_of(*t);
                    deps.iter().any(|d| !reference.contains(&d.txn))
                })
                .collect();
            if dropped.is_empty() {
                break;
            }
            for t in dropped {
                reference.remove(&t);
            }
        }
        let unacked = self.settled_unacked_commits();
        let writers: BTreeSet<TxnId> =
            self.logs.iter().flat_map(|log| log.data_refs(false)).map(|d| d.txn).collect();
        let known: BTreeSet<TxnId> = self.txns.all_ids().chain(reference.iter().copied()).collect();
        known
            .into_iter()
            .filter_map(|t| {
                let status = self.txns.status(t);
                let acked = status == Some(TxnStatus::Committed);
                if acked && self.logs.log(t.node()).index().commit_lsn(t).is_none() {
                    return writers.contains(&t).then(|| {
                        format!("{t:?}: acknowledged without a commit record, but logged data")
                    });
                }
                let predicate = acked || unacked.contains(&t);
                (predicate != reference.contains(&t)).then(|| {
                    format!(
                        "{t:?} ({status:?}): restart says committed={predicate}, \
                         whole-history fixpoint says {}",
                        !predicate
                    )
                })
            })
            .collect()
    }

    /// Independent oracle for the analysis' per-record reductions. Restart
    /// folds each retained log into a reduced heap redo plan (the final
    /// image per record past the checkpoint bound) and the last committed
    /// value per record ([`SmDb::recover`]'s first phase). This reference
    /// takes the long way round — every retained record of every log,
    /// payload in hand, each transaction classified afresh, a plain
    /// max-GSN fold into a `BTreeMap` — and compares the two record by
    /// record: GSN, writer, after image. Call between [`SmDb::crash`] and
    /// [`SmDb::recover`] (also after an interrupted `recover`). Returns
    /// human-readable disagreements (empty = the analysis is exact).
    pub fn check_redo_plan(&self) -> Vec<String> {
        let scope = self.restart_scope();
        let unacked = self.settled_unacked_commits();
        let mut plan = BTreeMap::new();
        let mut values = BTreeMap::new();
        for n in self.m.node_ids() {
            let log = self.logs.log(n);
            let is_analysed = scope.analysed.contains(&n);
            let bound = self.ckpt.last().lsn_for(n);
            let covered = if is_analysed { log.stable_records() } else { log.records() };
            for r in covered {
                let LogPayload::Update { txn, rec, redo: after, gsn, .. } = &r.payload else {
                    continue;
                };
                let committed =
                    self.txns.status(*txn) == Some(TxnStatus::Committed) || unacked.contains(txn);
                if committed && values.get(rec).is_none_or(|(g, _, _)| gsn >= g) {
                    values.insert(*rec, (*gsn, *txn, after.clone()));
                }
                let redo =
                    r.lsn > bound && !scope.doomed.contains(txn) && (committed || !is_analysed);
                if redo && plan.get(rec).is_none_or(|(g, _, _)| gsn >= g) {
                    plan.insert(*rec, (*gsn, *txn, after.clone()));
                }
            }
        }
        let got = match self.scan_products(&scope, self.m.node_ids()) {
            Ok(products) => products,
            Err(e) => return vec![format!("analysis failed: {e}")],
        };
        let mut diffs = diff_per_record("redo plan", &got.plan, &plan);
        diffs.extend(diff_per_record("committed value", &got.values, &values));
        diffs
    }

    /// Lockstep cross-check of the lock manager's two representations:
    /// the volatile per-transaction chains against the durable LCB table
    /// in shared memory (see [`smdb_lock::LockManager::verify_chains`]).
    /// Reads run as `scan_node`; call when no recovery is pending.
    /// Returns human-readable violations (empty = consistent).
    pub fn check_lock_chains(&mut self, scan_node: NodeId) -> Result<Vec<String>, DbError> {
        Ok(self.locks.verify_chains(&mut self.m, scan_node)?)
    }
}

/// The first violation a battery call met: the standing oracle's name —
/// the one VOPR's repro lines print — and what it found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleViolation {
    /// `commit-predicate`, `redo-plan`, `IFA`, `btree`, `lock-chains` or
    /// `committed-data`.
    pub oracle: &'static str,
    /// What the oracle found.
    pub detail: String,
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.oracle, self.detail)
    }
}

/// The one-line form a harness's `Result<_, String>` reports.
impl From<OracleViolation> for String {
    fn from(v: OracleViolation) -> Self {
        v.to_string()
    }
}

fn violation(oracle: &'static str, detail: impl Into<String>) -> OracleViolation {
    OracleViolation { oracle, detail: detail.into() }
}

/// `oracle`'s disagreements, if it found any.
fn none_of(oracle: &'static str, found: Vec<String>) -> Result<(), OracleViolation> {
    if found.is_empty() {
        Ok(())
    } else {
        Err(violation(oracle, found.join("; ")))
    }
}

/// Pauses a fault injector while it lives. Oracle reads walk the same
/// instrumented paths as the workload; paused, they neither fire a crash
/// point nor advance its visit ordinal.
struct Paused(FaultInjector);

impl Paused {
    fn new(fault: &FaultInjector) -> Self {
        fault.pause();
        Paused(fault.clone())
    }
}

impl Drop for Paused {
    fn drop(&mut self) {
        self.0.resume();
    }
}

impl SmDb {
    /// The commit predicate (`commit-predicate`), first in both calls and
    /// alone after a `recover` a nested crash interrupted: the rest of the
    /// battery waits for the harness to crash that victim.
    pub fn check_predicate_alone(&self) -> Result<(), OracleViolation> {
        let _paused = Paused::new(&self.fault);
        none_of("commit-predicate", self.check_commit_predicate())
    }

    /// The standing oracles between a crash and its recovery, in order:
    /// the commit predicate ([`SmDb::check_commit_predicate`]), then the
    /// pending restart's analysis ([`SmDb::check_redo_plan`],
    /// [`SmDb::check_scan_order`], [`SmDb::check_tag_scan`],
    /// [`SmDb::check_cached_probe`], `redo-plan`). Returns the first
    /// oracle that disagreed. Every read is a peek.
    pub fn check_before_recover(&self) -> Result<(), OracleViolation> {
        self.check_predicate_alone()?;
        let _paused = Paused::new(&self.fault);
        none_of(
            "redo-plan",
            [
                self.check_redo_plan(),
                self.check_scan_order(),
                self.check_tag_scan(),
                self.check_cached_probe(),
            ]
            .concat(),
        )
    }

    /// The standing oracles after a recovery, or wherever else no crash
    /// is pending, in order: the commit predicate (`commit-predicate`);
    /// [`SmDb::check_ifa`] unless instant-restart redo is pending (`IFA`);
    /// [`SmDb::check_index_invariants`] (`btree`);
    /// [`SmDb::check_lock_chains`] (`lock-chains`); and, once nothing is
    /// active and no redo pending, every record's committed value in
    /// place (`committed-data`). Returns the first oracle that disagreed.
    /// The index, tree and lock-table reads are coherent reads by the
    /// first survivor, so they move cache lines as any reader would.
    pub fn check_after_recover(&mut self) -> Result<(), OracleViolation> {
        self.check_predicate_alone()?;
        let _paused = Paused::new(&self.fault);
        let scan = *self.m.surviving_nodes().first().ok_or(violation("IFA", "no survivor"))?;
        if self.redo_pending() == 0 {
            none_of("IFA", self.check_ifa(scan).violations)?;
        }
        self.check_index_invariants(scan).map_err(|e| violation("btree", e.to_string()))?;
        let chains =
            self.check_lock_chains(scan).map_err(|e| violation("lock-chains", e.to_string()))?;
        none_of("lock-chains", chains)?;
        if self.active_txns(None).is_empty() && self.redo_pending() == 0 {
            for slot in 0..self.record_count() as u64 {
                let (got, want) = (self.current_value(slot), self.read_committed(slot));
                if got != want {
                    return Err(violation(
                        "committed-data",
                        format!("slot {slot}: expected {want:?}, found {got:?}"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// [`SmDb::recover`] inside the battery: the first call before it, the
    /// second if it returns, the predicate alone if it fails (the harness
    /// crashes the nested victim and calls this again). The outer `Err` is
    /// the first violation, the inner result `recover`'s.
    pub fn recover_checked(&mut self) -> Result<Result<RecoveryOutcome, DbError>, OracleViolation> {
        self.check_before_recover()?;
        let recovered = self.recover();
        match recovered {
            Ok(_) => self.check_after_recover()?,
            Err(_) => self.check_predicate_alone()?,
        }
        Ok(recovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(node: u16, seq: u64) -> TxnId {
        TxnId::new(NodeId(node), seq)
    }

    #[test]
    fn commit_promotes_pending() {
        let mut s = ShadowDb::new();
        let tx = t(0, 1);
        s.note_update(tx, 5, vec![1, 2]);
        s.note_index_insert(tx, 9, [7u8; VAL_SIZE]);
        assert_eq!(s.committed_value(5, 2), vec![0, 0]);
        s.commit(tx);
        assert_eq!(s.committed_value(5, 2), vec![1, 2]);
        assert_eq!(s.expected_index(&[]).get(&9), Some(&[7u8; VAL_SIZE]));
    }

    #[test]
    fn drop_pending_discards() {
        let mut s = ShadowDb::new();
        let tx = t(0, 1);
        s.note_update(tx, 5, vec![1]);
        s.drop_pending(tx);
        s.commit(tx); // no-op
        assert_eq!(s.committed_value(5, 1), vec![0]);
    }

    #[test]
    fn expected_value_prefers_active_writer() {
        let mut s = ShadowDb::new();
        let tx = t(0, 1);
        s.note_update(tx, 5, vec![9]);
        assert_eq!(s.expected_values(5, 1, &[tx]), vec![vec![9]]);
        assert_eq!(s.expected_values(5, 1, &[]), vec![vec![0]]);
    }

    #[test]
    fn pending_delete_hides_committed_key() {
        let mut s = ShadowDb::new();
        let a = t(0, 1);
        s.note_index_insert(a, 3, [1u8; VAL_SIZE]);
        s.commit(a);
        let b = t(1, 1);
        s.note_index_delete(b, 3);
        assert!(!s.expected_index(&[b]).contains_key(&3));
        assert!(s.expected_index(&[]).contains_key(&3));
    }
}
