//! Record-update mix workload and crash scheduling.

use crate::driver::{self, Hooks, Window};
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smdb_core::{DbError, Op, RecoveryOutcome, SmDb};
use smdb_sim::{NodeId, TxnId};

/// Parameters for the record-update mix.
#[derive(Clone, Debug)]
pub struct MixParams {
    /// Transactions to run (committed ones count; conflict retries don't).
    pub txns: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Fraction of operations that are reads (the rest are updates, or
    /// index ops per `index_fraction`).
    pub read_fraction: f64,
    /// Probability that an operation targets the *shared region* (the
    /// first `shared_slots` record slots, touched by every node) rather
    /// than the executing node's private partition. This is the
    /// inter-node data-sharing knob: 0.0 produces no ww/wr coherence
    /// patterns, 1.0 maximises them.
    pub sharing: f64,
    /// Size of the shared region, slots.
    pub shared_slots: u64,
    /// Fraction of non-read operations that are index inserts/deletes
    /// (requires the engine to have an index; 0.0 disables).
    pub index_fraction: f64,
    /// Zipf skew θ for slot selection within a region (0 = uniform; ~1 =
    /// classic hot-spot skew).
    pub zipf_theta: f64,
    /// RNG seed (workloads are deterministic given the seed).
    pub seed: u64,
    /// Retries after a no-wait conflict before giving up on a
    /// transaction.
    pub retries: usize,
    /// Take a sharp checkpoint every this many transactions (0 disables).
    /// Checkpoints bound how far back restart recovery must scan and let
    /// the engine reclaim redo-free log prefixes.
    pub checkpoint_every: usize,
    /// Pipelined group commit: keep up to this many transactions in
    /// flight, round-robin one operation each, and commit them with
    /// `commit_pipelined` (commit record appended, acknowledgement
    /// deferred to the next pipeline drain). 0 or 1 is serial execution:
    /// one transaction at a time, synchronous commits, conflicts abort
    /// and retry. Pipelined mode expects the engine
    /// to be configured with lock *polling* (`DbConfig::with_lock_polling`):
    /// a blocked transaction retries its operation in place instead of
    /// aborting, so commit-window lock conflicts cost stall cycles, not
    /// retry storms. See [`crate::driver`].
    pub commit_window: usize,
    /// Drain the commit pipeline (group-force the pending commit records
    /// and acknowledge the covered transactions) after this many pipelined
    /// commits. 0 drains only when the whole window is blocked and at the
    /// end of the run. Ignored in serial mode.
    pub drain_every: usize,
}

impl Default for MixParams {
    fn default() -> Self {
        MixParams {
            txns: 100,
            ops_per_txn: 4,
            read_fraction: 0.25,
            sharing: 0.3,
            shared_slots: 32,
            index_fraction: 0.0,
            zipf_theta: 0.0,
            seed: 42,
            retries: 8,
            checkpoint_every: 0,
            commit_window: 0,
            drain_every: 0,
        }
    }
}

impl MixParams {
    /// The high-contention skewed cell used by experiment E10-elr: a pure
    /// write mix (TP1-style fixed-length update transactions) hammering a
    /// tiny shared hot set under classic Zipf skew, run through the
    /// pipelined commit window. Under these parameters nearly every
    /// transaction collides on the hottest record slots, so the run is
    /// dominated by lock waits and commit forces — exactly the regime
    /// where controlled lock violation pays.
    pub fn contended_tp1(txns: usize) -> Self {
        MixParams {
            txns,
            ops_per_txn: 4,
            read_fraction: 0.0,
            sharing: 1.0,
            shared_slots: 4,
            index_fraction: 0.0,
            zipf_theta: 0.95,
            seed: 0xE10,
            retries: 64,
            checkpoint_every: 0,
            commit_window: 8,
            drain_every: 8,
        }
    }
}

/// Outcome of a mix run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MixReport {
    /// Transactions committed.
    pub committed: u64,
    /// Conflict aborts — serial no-wait conflicts, pipelined deadlock
    /// breaks — each followed by a retry, budget permitting.
    pub conflict_aborts: u64,
    /// Transactions abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Operations executed (within committed transactions).
    pub ops: u64,
    /// Simulated machine makespan consumed by the run, cycles.
    pub sim_cycles: u64,
    /// Whether the [`CrashPlan`] actually fired. A plan whose
    /// `after_txns` is at or beyond the transaction count never triggers;
    /// callers that assumed "plan given ⇒ crash exercised" can now tell.
    pub crash_fired: bool,
    /// Physical log forces performed (each paid the full force latency).
    pub physical_forces: u64,
    /// Log records made durable by those physical forces.
    pub records_forced: u64,
    /// Pipelined mode only: operations that found their lock held by
    /// another in-flight transaction and retried in place (polling
    /// stalls). A serial window leaves this 0 — its conflicts surface
    /// as `conflict_aborts` instead.
    pub lock_stalls: u64,
}

/// A mid-workload crash schedule: after `after_txns` committed
/// transactions, crash `nodes`.
#[derive(Clone, Debug)]
pub struct CrashPlan {
    /// Commit count that triggers the crash.
    pub after_txns: usize,
    /// Nodes to crash.
    pub nodes: Vec<NodeId>,
}

pub(crate) struct Generator {
    rng: StdRng,
    pub(crate) params: MixParams,
    pub(crate) nodes: u16,
    /// Whether the engine has an index (index ops are generated only then).
    with_index: bool,
    private_per_node: u64,
    shared_dist: Zipf,
    private_dist: Zipf,
    /// Committed index keys available for deletion.
    live_keys: Vec<u64>,
    next_key: u64,
}

impl Generator {
    pub(crate) fn new(db: &SmDb, params: MixParams) -> Self {
        let nodes = db.config().nodes;
        let total = db.record_count() as u64;
        let shared = params.shared_slots.min(total.saturating_sub(nodes as u64));
        let private_per_node = (total - shared) / nodes as u64;
        Generator {
            rng: StdRng::seed_from_u64(params.seed),
            shared_dist: Zipf::new(shared.max(1), params.zipf_theta),
            private_dist: Zipf::new(private_per_node.max(1), params.zipf_theta),
            params: MixParams { shared_slots: shared, ..params },
            nodes,
            with_index: db.config().has_index(),
            private_per_node,
            live_keys: Vec::new(),
            next_key: 1,
        }
    }

    fn pick_slot(&mut self, node: NodeId) -> u64 {
        if self.rng.gen_bool(self.params.sharing) || self.private_per_node == 0 {
            self.shared_dist.sample(&mut self.rng)
        } else {
            let base = self.params.shared_slots + node.0 as u64 * self.private_per_node;
            base + self.private_dist.sample(&mut self.rng)
        }
    }

    pub(crate) fn gen_txn_ops(&mut self, node: NodeId) -> Vec<Op> {
        let mut ops = Vec::with_capacity(self.params.ops_per_txn);
        for _ in 0..self.params.ops_per_txn {
            if self.rng.gen_bool(self.params.read_fraction) {
                ops.push(Op::Read(self.pick_slot(node)));
            } else if self.with_index
                && self.params.index_fraction > 0.0
                && self.rng.gen_bool(self.params.index_fraction)
            {
                // Prefer deletes of committed keys half the time, when
                // available.
                if !self.live_keys.is_empty() && self.rng.gen_bool(0.5) {
                    let i = self.rng.gen_range(0..self.live_keys.len());
                    ops.push(Op::Delete(self.live_keys[i]));
                } else {
                    let key = self.next_key;
                    self.next_key += 1;
                    ops.push(Op::Insert(key, self.rng.gen::<u64>().to_le_bytes()));
                }
            } else {
                let slot = self.pick_slot(node);
                ops.push(Op::Update(slot, self.rng.gen::<u64>().to_le_bytes()));
            }
        }
        ops
    }

    fn note_committed(&mut self, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Insert(k, _) => self.live_keys.push(*k),
                Op::Delete(k) => self.live_keys.retain(|x| x != k),
                _ => {}
            }
        }
    }
}

/// Run start's clock and force counters, to turn into a report's deltas.
pub(crate) struct Meter {
    clock: u64,
    physical: u64,
    records: u64,
}

impl Meter {
    pub(crate) fn start(db: &SmDb) -> Self {
        let logs = db.logs();
        Meter {
            clock: db.max_clock(),
            physical: logs.total_forces(),
            records: logs.total_records_forced(),
        }
    }

    /// Fill in what the run consumed since [`Meter::start`].
    pub(crate) fn stamp(&self, db: &SmDb, report: &mut MixReport) {
        let logs = db.logs();
        report.sim_cycles = db.max_clock() - self.clock;
        report.physical_forces = logs.total_forces() - self.physical;
        report.records_forced = logs.total_records_forced() - self.records;
    }
}

/// Run the mix to completion (no crash plan, no fault injection).
/// Returns the report. Panics on engine errors — with no crash plan and
/// the fault injector disabled, the mix cannot fail; harnesses that arm
/// fault injection must use [`run_mix_with_crash`] and handle the error.
pub fn run_mix(db: &mut SmDb, params: MixParams) -> MixReport {
    run_mix_with_crash(db, params, None)
        .unwrap_or_else(|e| panic!("workload operation failed: {e}"))
        .0
}

/// Home of a workload's transaction `i`: round-robin over the nodes,
/// routed around down ones.
pub(crate) fn home(db: &SmDb, i: usize) -> NodeId {
    let node = NodeId((i % db.config().nodes as usize) as u16);
    if !db.machine().is_crashed(node) {
        return node;
    }
    let survivors = db.machine().surviving_nodes();
    survivors[i % survivors.len()]
}

/// The mix as a transaction source for [`driver::run`]: round-robin homes
/// over the live nodes, the seeded generator's operations, periodic
/// checkpoints, and the crash plan.
struct MixHooks {
    g: Generator,
    issued: usize,
    plan: Option<CrashPlan>,
    recovery: Option<RecoveryOutcome>,
}

impl Hooks for MixHooks {
    type Fatal = DbError;

    /// Periodic sharp checkpoint, hosted by the next transaction's home.
    /// (In a serial window nothing of this workload is in flight at that
    /// point, so the checkpointed stable image is consistent.)
    fn checkpoint_host(&mut self, db: &SmDb) -> Option<NodeId> {
        let (i, ck) = (self.issued, self.g.params.checkpoint_every);
        (i < self.g.params.txns && ck > 0 && i > 0 && i.is_multiple_of(ck)).then(|| home(db, i))
    }

    fn next_txn(&mut self, db: &SmDb) -> Option<(usize, NodeId, Vec<Op>)> {
        if self.issued == self.g.params.txns {
            return None;
        }
        let node = home(db, self.issued);
        let ops = self.g.gen_txn_ops(node);
        self.issued += 1;
        Some((self.issued - 1, node, ops))
    }

    /// Fire the crash plan once `after_txns` transactions have been
    /// issued. A pipelined run crashes at the next round boundary, window
    /// full or not; the serial window first lets its one transaction
    /// finish, so the crash lands between transactions.
    fn between_rounds(&mut self, db: &mut SmDb, _: u64, in_flight: usize) -> Result<bool, DbError> {
        let txns = self.g.params.txns;
        let due = self.plan.as_ref().is_some_and(|p| {
            self.issued >= p.after_txns
                && p.after_txns < txns
                && (in_flight > 0 || self.issued < txns)
                && (in_flight == 0 || self.g.params.commit_window > 1)
        });
        if due {
            let plan = self.plan.take().expect("plan is due");
            self.recovery = Some(db.crash_and_recover(&plan.nodes)?);
        }
        Ok(due)
    }

    fn committed(&mut self, ops: &[Op]) {
        self.g.note_committed(ops);
    }
}

/// Run the mix, optionally crashing mid-stream per `plan`. Returns the
/// report plus the recovery outcome if the plan fired (also surfaced as
/// [`MixReport::crash_fired`] — a plan with `after_txns >= txns` never
/// triggers).
///
/// Errors — a failed recovery, or a [`DbError::FaultCrash`] from an armed
/// fault injector — are returned, not panicked, with the partial progress
/// lost: the caller (typically a crash-sweep driver) owns the
/// crash-and-recover response. An injected crash means the acting node is
/// dead at that instant, so nothing is aborted on its behalf (a dead node
/// cannot write compensation records — recovery rolls its work back).
pub fn run_mix_with_crash(
    db: &mut SmDb,
    params: MixParams,
    plan: Option<CrashPlan>,
) -> Result<(MixReport, Option<RecoveryOutcome>), DbError> {
    let shape = Window {
        window: params.commit_window.max(1),
        drain_every: params.drain_every,
        retries: params.retries,
    };
    let mut hooks = MixHooks { g: Generator::new(db, params), issued: 0, plan, recovery: None };
    let meter = Meter::start(db);
    let mut report = MixReport::default();
    driver::run(db, shape, &mut hooks, &mut report)?;
    meter.stamp(db, &mut report);
    report.crash_fired = hooks.recovery.is_some();
    Ok((report, hooks.recovery))
}

/// Start `per_node` transactions on every (live) node, each performing
/// `ops_each` updates in its private partition plus optionally one shared
/// update, and leave them **active**. The setup for the crash/abort-count
/// experiments: these are the transactions a crash puts at risk.
pub fn spawn_active(
    db: &mut SmDb,
    per_node: usize,
    ops_each: usize,
    shared_touch: bool,
    seed: u64,
) -> Vec<TxnId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = db.config().nodes;
    let total = db.record_count() as u64;
    let shared = 16u64.min(total / 4).max(1);
    let private_per_node = (total - shared) / nodes as u64;
    let mut out = Vec::new();
    // Distinct slots per transaction so no two conflict.
    for node in db.machine().surviving_nodes() {
        for k in 0..per_node {
            let txn = db.begin(node).expect("node is alive");
            let base = shared + node.0 as u64 * private_per_node;
            for j in 0..ops_each {
                let slot = base + (k * ops_each + j) as u64 % private_per_node.max(1);
                let v = rng.gen::<u64>().to_le_bytes();
                match db.update(txn, slot, &v) {
                    Ok(()) => {}
                    Err(DbError::WouldBlock { .. }) => {} // private overlap; skip op
                    Err(e) => panic!("spawn_active update failed: {e}"),
                }
            }
            if shared_touch {
                let slot = rng.gen_range(0..shared);
                let v = rng.gen::<u64>().to_le_bytes();
                // Shared slots can conflict between active transactions;
                // ignore conflicts (the point is inter-node line sharing).
                let _ = db.update(txn, slot, &v);
            }
            out.push(txn);
        }
    }
    out
}

/// Start `per_node` **parallel** transactions homed on every live node,
/// each enlisting `fan - 1` additional participant nodes (round-robin)
/// and updating one private slot per participant. Left active. §9:
/// a crash of *any* participant aborts the whole transaction, so larger
/// fan-out widens a crash's blast radius — experiment E10.
pub fn spawn_active_parallel(db: &mut SmDb, per_node: usize, fan: u16, seed: u64) -> Vec<TxnId> {
    assert!(fan >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = db.machine().surviving_nodes();
    let n = nodes.len() as u64;
    let total = db.record_count() as u64;
    let per_node_slots = total / n.max(1);
    let mut out = Vec::new();
    for (hi, &home) in nodes.iter().enumerate() {
        for k in 0..per_node {
            let txn = db.begin(home).expect("node is alive");
            let mut participants = vec![home];
            for f in 1..fan {
                let p = nodes[(hi + f as usize) % nodes.len()];
                if p != home {
                    db.attach(txn, p).expect("attach");
                    participants.push(p);
                }
            }
            for (j, &p) in participants.iter().enumerate() {
                // Distinct per-(txn, participant) slots: no conflicts.
                let slot = p.0 as u64 * per_node_slots
                    + ((k * fan as usize + j) as u64) % per_node_slots.max(1);
                let v = rng.gen::<u64>().to_le_bytes();
                match db.update_on(txn, p, slot, &v) {
                    Ok(()) | Err(DbError::WouldBlock { .. }) => {}
                    Err(e) => panic!("parallel spawn update failed: {e}"),
                }
            }
            out.push(txn);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_core::{DbConfig, ProtocolKind};

    fn small_db(p: ProtocolKind) -> SmDb {
        SmDb::new(DbConfig::small(4, p))
    }

    #[test]
    fn mix_runs_and_commits() {
        let mut db = small_db(ProtocolKind::VolatileSelectiveRedo);
        let report = run_mix(&mut db, MixParams { txns: 50, ..Default::default() });
        assert_eq!(report.committed + report.gave_up, 50);
        assert!(report.committed > 40, "most transactions should commit");
        assert!(report.sim_cycles > 0);
        db.check_ifa(NodeId(0)).assert_ok();
    }

    #[test]
    fn mix_is_deterministic_given_seed() {
        let run = |seed| {
            let mut db = small_db(ProtocolKind::VolatileRedoAll);
            let r = run_mix(&mut db, MixParams { txns: 40, seed, ..Default::default() });
            (r.committed, r.conflict_aborts, r.ops, db.max_clock())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ somewhere");
    }

    #[test]
    fn mix_with_index_ops() {
        let mut db = small_db(ProtocolKind::VolatileSelectiveRedo);
        let report = run_mix(
            &mut db,
            MixParams { txns: 60, index_fraction: 0.5, read_fraction: 0.0, ..Default::default() },
        );
        assert!(report.committed > 0);
        let live = db.index_scan(NodeId(0)).unwrap();
        assert!(!live.is_empty(), "inserts should have landed");
        db.check_ifa(NodeId(0)).assert_ok();
    }

    #[test]
    fn mid_run_crash_preserves_ifa_and_run_continues() {
        for p in ProtocolKind::ifa_protocols() {
            let mut db = small_db(p);
            let plan = CrashPlan { after_txns: 20, nodes: vec![NodeId(3)] };
            let (report, recovery) = run_mix_with_crash(
                &mut db,
                MixParams { txns: 60, sharing: 0.6, ..Default::default() },
                Some(plan),
            )
            .expect("recovery succeeds");
            let outcome = recovery.expect("crash fired");
            assert!(report.crash_fired);
            assert_eq!(outcome.crashed, vec![NodeId(3)]);
            assert!(report.committed > 40, "{p:?}: survivors kept working");
            db.check_ifa(NodeId(0)).assert_ok();
        }
    }

    #[test]
    fn crash_plan_beyond_txn_count_is_surfaced_not_silent() {
        let mut db = small_db(ProtocolKind::VolatileSelectiveRedo);
        // after_txns == txns: the plan can never trigger. Previously this
        // was indistinguishable from a run whose crash fired.
        let plan = CrashPlan { after_txns: 10, nodes: vec![NodeId(1)] };
        let (report, recovery) =
            run_mix_with_crash(&mut db, MixParams { txns: 10, ..Default::default() }, Some(plan))
                .expect("mix runs");
        assert!(!report.crash_fired, "plan at txns boundary must not fire");
        assert!(recovery.is_none());
        assert!(!db.machine().is_crashed(NodeId(1)));
    }

    #[test]
    fn spawn_active_leaves_txns_in_flight() {
        let mut db = small_db(ProtocolKind::VolatileSelectiveRedo);
        let txns = spawn_active(&mut db, 3, 2, true, 9);
        assert_eq!(txns.len(), 12);
        assert_eq!(db.active_txns(None).len(), 12);
        // Crash one node: exactly its transactions abort.
        let outcome = db.crash_and_recover(&[NodeId(1)]).unwrap();
        assert_eq!(outcome.aborted.len(), 3);
        db.check_ifa(NodeId(0)).assert_ok();
    }

    #[test]
    fn parallel_spawn_and_crash_blast_radius() {
        let mut db = small_db(ProtocolKind::VolatileSelectiveRedo);
        let txns = spawn_active_parallel(&mut db, 2, 2, 77);
        assert_eq!(txns.len(), 8);
        // fan=2 on 4 nodes: a crash of one node dooms its 2 homed txns
        // plus the 2 txns homed on the previous node (which enlisted it).
        let outcome = db.crash_and_recover(&[NodeId(1)]).unwrap();
        assert_eq!(outcome.aborted.len(), 4);
        db.check_ifa(NodeId(0)).assert_ok();
    }

    #[test]
    fn periodic_checkpoints_truncate_logs_and_preserve_recovery() {
        let mut db = small_db(ProtocolKind::VolatileSelectiveRedo);
        let r = run_mix(
            &mut db,
            MixParams { txns: 60, checkpoint_every: 10, sharing: 0.6, ..Default::default() },
        );
        assert!(r.committed > 40);
        assert!(db.checkpoint_store().checkpoints_taken >= 5, "checkpoints fired periodically");
        let truncated: u64 = (0..4).map(|n| db.logs().log(NodeId(n)).truncation_point().0).sum();
        assert!(truncated > 0, "redo-free prefixes were reclaimed");
        // A crash after checkpointing still recovers to an IFA-consistent
        // state, scanning only past the checkpoint bound.
        let outcome = db.crash_and_recover(&[NodeId(2)]).unwrap();
        assert!(outcome.ckpt_bound_lsn > 0);
        db.check_ifa(NodeId(0)).assert_ok();
    }

    fn pipelined_db(p: ProtocolKind, elr: bool) -> SmDb {
        let cfg = DbConfig::small(4, p).with_lock_polling();
        SmDb::new(if elr { cfg.with_early_lock_release() } else { cfg })
    }

    #[test]
    fn pipelined_mix_commits_everything_and_stalls_instead_of_aborting() {
        let mut db = pipelined_db(ProtocolKind::StableEager, true);
        let report = run_mix(&mut db, MixParams::contended_tp1(40));
        assert_eq!(report.committed, 40, "sorted lock order: nobody deadlocks or gives up");
        assert_eq!(report.conflict_aborts, 0, "stalls retry in place, never abort");
        assert!(report.lock_stalls > 0, "the hot set must actually contend");
        assert_eq!(db.pending_commit_count(), 0, "final drain acknowledged everyone");
        assert!(db.active_txns(None).is_empty());
        db.check_ifa(NodeId(0)).assert_ok();
    }

    #[test]
    fn pipelined_mix_is_deterministic_given_seed() {
        let run = |elr| {
            let mut db = pipelined_db(ProtocolKind::StableTriggered, elr);
            let r = run_mix(&mut db, MixParams::contended_tp1(30));
            (r.committed, r.lock_stalls, r.ops, db.max_clock())
        };
        assert_eq!(run(true), run(true));
        assert_eq!(run(false), run(false));
    }

    #[test]
    fn pipelined_durability_volume_is_lock_policy_independent() {
        // The record stream a pipelined run appends — and therefore, after
        // a closing checkpoint forces every log to its tip, the records
        // made durable — must not depend on whether the engine released
        // locks early. This is the invariant the E10-elr gate relies on.
        let volume = |elr| {
            let mut db = pipelined_db(ProtocolKind::StableEager, elr);
            let before = db.logs().total_records_forced();
            run_mix(&mut db, MixParams::contended_tp1(30));
            db.checkpoint(NodeId(0)).unwrap();
            db.logs().total_records_forced() - before
        };
        assert_eq!(volume(false), volume(true));
    }

    #[test]
    fn pipelined_mid_run_crash_recovers_and_run_continues() {
        for elr in [false, true] {
            let mut db = pipelined_db(ProtocolKind::VolatileSelectiveRedo, elr);
            let plan = CrashPlan { after_txns: 16, nodes: vec![NodeId(2)] };
            let params = MixParams { txns: 48, ..MixParams::contended_tp1(48) };
            let (report, recovery) =
                run_mix_with_crash(&mut db, params, Some(plan)).expect("recovery succeeds");
            assert!(report.crash_fired, "elr={elr}");
            assert_eq!(recovery.expect("crash fired").crashed, vec![NodeId(2)]);
            assert!(report.committed > 30, "elr={elr}: survivors kept working");
            assert_eq!(db.pending_commit_count(), 0);
            db.check_ifa(NodeId(0)).assert_ok();
        }
    }

    #[test]
    fn zero_sharing_produces_no_migrations_between_nodes() {
        let mut db = small_db(ProtocolKind::VolatileSelectiveRedo);
        let r = run_mix(
            &mut db,
            MixParams { txns: 40, sharing: 0.0, read_fraction: 0.0, ..Default::default() },
        );
        assert!(r.committed > 0);
        assert_eq!(r.conflict_aborts, 0, "private partitions cannot conflict");
    }
}
