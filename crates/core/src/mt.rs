//! True multicore execution: a deterministic epoch scheduler driving
//! per-node execution **lanes** on OS threads.
//!
//! The paper's machine is N nodes sharing one coherent memory; until this
//! module the simulator *modelled* that concurrency on one OS thread. Here
//! N threads drive N simulated nodes concurrently while every observable
//! result stays byte-identical to the single-threaded run:
//!
//! 1. **Serial admission.** Between epochs the parent engine owns every
//!    shard, every per-node WAL appender, and the lock table. The
//!    scheduler walks the pending transactions in a fixed order (node
//!    order, program order within a node) and *admits* a transaction into
//!    the epoch iff (a) the set of coherence-directory stripes its record
//!    pages map to is disjoint from every *other* node's admitted stripes
//!    — same-node overlap is fine, those run sequentially in one lane —
//!    and (b) every record lock it needs can be granted right now, on the
//!    parent lock manager, in its strongest needed mode. Grants happen
//!    here, serially, in deterministic order (Calvin-style deterministic
//!    locking): the striped lock table's LCB lines never leave the parent,
//!    so lanes never race on lock state. A stalled candidate whose record
//!    names collide cross-node in incompatible modes bumps
//!    `lock.shard_conflicts`; any other stripe overlap is false sharing
//!    and bumps `sim.shard_conflicts`. Either stalls that node for the
//!    epoch (`engine.epoch_waits`).
//! 2. **Lane execution.** Each participating node gets a lane: a real
//!    [`SmDb`] assembled from the parent's detached parts — its admitted
//!    stripes ([`Machine::lane_split`]), its own WAL appender
//!    (`LogSet::lane_split`), a forked lock manager, shadow, and stats.
//!    The lane runs the §6 update protocol *verbatim*; only record-lock
//!    acquisition short-circuits against the pre-granted set. Any access
//!    outside the admitted footprint surfaces as
//!    [`MemError::ForeignStripe`] (or a lock-grant miss), aborts the
//!    transaction inside the lane, and escalates it to a serial retry.
//! 3. **Epoch barrier.** Lanes are merged back in node order (machine,
//!    logs, page-LSN table, transaction table, stats, shadow — every merge
//!    operator commutes or is order-fixed), each appender's pending
//!    coalesced-force window is drained (`wal.appender_stalls`), the
//!    admitted transactions' locks are released on the parent in admission
//!    order, and active LBM marks in the lane stripes are cleared —
//!    *after* the force, preserving the Stable-LBM invariant.
//!
//! **Determinism argument.** A lane's inputs are fixed at the barrier
//! (admitted transactions, stripe contents, pre-assigned GSN blocks and
//! transaction ids, pre-granted locks); its execution is single-threaded;
//! lanes share no mutable state (disjoint stripes, per-node logs, disjoint
//! lock grants). Hence each lane's output is a pure function of barrier
//! state, independent of OS-thread interleaving, and the node-ordered
//! merge makes the epoch result — committed bytes, log contents, force
//! counts, clocks — identical at every thread count, including 1. The
//! only scheduling freedom is *which* transactions share an epoch, and
//! that choice is made serially at the [`SITE_ADMIT`] tape site, so a
//! recorded schedule replays byte-identically on any host.

use crate::engine::{engine_ctx, SmDb};
use crate::error::DbError;
use crate::restart::InstantRedoState;
use crate::stats::EngineStats;
use crate::txn::Op;
use serde::{Deserialize, Serialize};
use smdb_btree::TreeCtx;
use smdb_fault::Scheduler;
use smdb_lock::{LockMode, LockOutcome, ViolationTable};
use smdb_obs::names;
use smdb_sim::{LineId, MemError, NodeId, TxnId};
use smdb_storage::{PageId, StableDb};
use smdb_wal::{CheckpointStore, PageLsnTable};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Schedule-tape site drawn once per admission candidate (after the
/// footprint checks pass): choice `1` defers the transaction to a later
/// epoch, `0` admits it. Disabled/replay-exhausted draws return `0` — the
/// greedy historical admission — so the fuzzer explores epoch partitions
/// while the default stays deterministic.
pub const SITE_ADMIT: &str = "mt.admit";

/// The record slot an epoch-scheduled operation touches and the lock mode
/// it needs. Index operations are not admitted in this mode (their page
/// footprints are data-dependent); use the serial API for index workloads.
fn rec_access(op: &Op) -> (u64, LockMode) {
    match op {
        Op::Read(slot) => (*slot, LockMode::Shared),
        Op::Update(slot, _) => (*slot, LockMode::Exclusive),
        Op::Insert(..) | Op::Delete(..) => panic!("mt excludes index operations"),
    }
}

/// One transaction submitted to the epoch scheduler: a home node and its
/// operations in program order.
#[derive(Clone, Debug)]
pub struct MtTxn {
    /// The node the transaction runs on.
    pub node: NodeId,
    /// Operations, in order (record reads and updates only).
    pub ops: Vec<Op>,
}

/// What one [`SmDb::run_epochs`] call did.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MtOutcome {
    /// Transactions committed (inside lanes or by serial retry).
    pub committed: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Most transactions admitted into a single epoch.
    pub max_epoch_txns: u64,
    /// Node-epochs stalled by a footprint or lock conflict
    /// (`engine.epoch_waits`).
    pub epoch_waits: u64,
    /// Admissions rejected by cross-node stripe false sharing — a foreign
    /// page, or a foreign stripe by hash, with no record-level collision
    /// (`sim.shard_conflicts`).
    pub data_conflicts: u64,
    /// Admissions rejected by a cross-node record-name collision in an
    /// incompatible mode (`lock.shard_conflicts`).
    pub lock_conflicts: u64,
    /// Pending coalesced-force windows drained at epoch barriers
    /// (`wal.appender_stalls`; in-lane commit drains are counted on the
    /// metric only).
    pub appender_stalls: u64,
    /// Admissions deferred by the schedule tape ([`SITE_ADMIT`]).
    pub deferred: u64,
    /// Transactions aborted inside a lane (footprint violation) and
    /// re-run serially between epochs.
    pub serial_retries: u64,
}

/// One admitted transaction with everything the lane needs pre-assigned.
#[derive(Clone, Debug)]
struct Admitted {
    txn: TxnId,
    ops: Vec<Op>,
    gsn_base: u64,
    gsn_block: u64,
}

/// One node's lane between assembly and the barrier: the node, its
/// claimed stripes, the detached child engine, and its admitted work.
type Lane = (NodeId, Vec<u32>, SmDb, Vec<Admitted>);

/// What one lane reports back at the barrier.
#[derive(Debug, Default)]
struct LaneReport {
    committed: u64,
    /// Transactions that hit a footprint violation: aborted in the lane,
    /// to be re-run serially on the parent.
    retries: Vec<Admitted>,
}

/// Whether a lane error means "escalate this transaction to a serial
/// retry" rather than "the engine is broken". `ForeignStripe` is the
/// designed escape hatch; a `WouldBlock` in a lane is a lock-grant miss
/// (same cause: the admitted footprint was wrong); `StablePageMissing` is
/// the lane's stub stable database refusing a page the pre-faulter did
/// not pin.
fn escalates(e: &DbError) -> bool {
    matches!(
        e,
        DbError::Mem(MemError::ForeignStripe { .. })
            | DbError::WouldBlock { .. }
            | DbError::StablePageMissing { .. }
    )
}

/// The lock names a transaction needs, in first-touch order, each in the
/// strongest mode any of its operations requires. Admission grants these
/// serially on the parent manager; the lane then treats membership in the
/// granted set as the grant.
fn lock_plan(ops: &[Op]) -> Vec<(u64, LockMode)> {
    let mut order: Vec<u64> = Vec::new();
    let mut modes: BTreeMap<u64, LockMode> = BTreeMap::new();
    for op in ops {
        let (slot, mode) = rec_access(op);
        let name = SmDb::lock_name_for_rec(slot);
        match modes.get_mut(&name) {
            None => {
                order.push(name);
                modes.insert(name, mode);
            }
            Some(m) => {
                if mode > *m {
                    *m = mode;
                }
            }
        }
    }
    order.into_iter().map(|n| (n, modes[&n])).collect()
}

impl SmDb {
    /// The coherence-directory stripes and heap pages a transaction's
    /// operations touch. The engine pins `stripe_lines` to
    /// `lines_per_page`, so a page (including its Page-LSN line) never
    /// straddles stripes and one probe per page suffices.
    fn mt_footprint(&self, ops: &[Op]) -> (BTreeSet<u32>, BTreeSet<PageId>) {
        let mut stripes = BTreeSet::new();
        let mut pages = BTreeSet::new();
        for op in ops {
            let rec = self.layout.rec_of_global(rec_access(op).0);
            pages.insert(rec.page);
            let line0 = LineId(self.layout.geometry.line_addr(rec.page, 0));
            stripes.insert(self.m.stripe_of(line0));
        }
        (stripes, pages)
    }

    /// Assemble an execution lane for `node`: a real engine over the
    /// detached stripes and the node's own WAL appender. The lane runs
    /// the full §6 protocol; only record-lock acquisition short-circuits
    /// against `granted` (the locks admission took on the parent).
    fn lane_for(&mut self, node: NodeId, stripes: &[u32], granted: BTreeSet<(TxnId, u64)>) -> SmDb {
        SmDb {
            cfg: self.cfg.clone(),
            m: self.m.lane_split(stripes),
            sdb: StableDb::new(self.layout.geometry),
            logs: self.logs.lane_split(node),
            plt: PageLsnTable::new(),
            ckpt: CheckpointStore::new(self.cfg.nodes),
            locks: self.locks.lane_fork(),
            tree: None,
            txns: self.txns.lane_fork(),
            layout: self.layout,
            heap_pages: self.heap_pages,
            gsn: 0,
            stats: EngineStats::default(),
            shadow: self.shadow.lane_fork(),
            pending_waits: BTreeMap::new(),
            fault: self.fault.clone(),
            sched: Scheduler::new(),
            pending_recovery: BTreeSet::new(),
            pending_lost_lines: 0,
            pending_total_failure: false,
            stale_heap_lines: BTreeSet::new(),
            stale_tree_pages: BTreeSet::new(),
            pending_commits: Vec::new(),
            violations: ViolationTable::new(),
            inherited_deps: BTreeMap::new(),
            instant: InstantRedoState::default(),
            mt_granted: Some(granted),
        }
    }

    /// Merge a lane back at the epoch barrier. Every component merge
    /// either commutes (counter addition, max-merge) or touches only the
    /// lane's own slice of parent state (its shards, its node's log and
    /// its node's segment of the transaction-status index, which the lane
    /// extended from the parent's high-water mark), so the node-ordered
    /// merge is deterministic.
    fn lane_merge(&mut self, node: NodeId, lane: SmDb) {
        let SmDb { m, logs, plt, locks, txns, stats, shadow, .. } = lane;
        self.m.lane_merge(node, m);
        self.logs.lane_merge(node, logs);
        self.plt.absorb(&plt);
        self.locks.lane_absorb(&locks);
        self.txns.lane_absorb(node, txns);
        self.stats.absorb(&stats);
        self.shadow.absorb(shadow);
    }

    /// Drain every appender and clear every active LBM mark, so no
    /// deferred-force obligation crosses into a lane whose owner cannot
    /// force the mark owner's log (forcing first keeps the Stable-LBM
    /// invariant while clearing).
    fn settle_lbm_marks(&mut self) -> Result<(), DbError> {
        let all_stripes: Vec<u32> = (0..self.m.shard_count() as u32).collect();
        for n in 0..self.cfg.nodes {
            let node = NodeId(n);
            if self.logs.force_all_checked(node)? {
                let cost = self.m.config().cost.log_force;
                self.m.advance(node, cost);
            }
            self.m.clear_active_in_stripes(node, &all_stripes);
        }
        Ok(())
    }

    /// Run `txns` to completion under the deterministic epoch scheduler,
    /// executing each epoch's per-node lanes on up to `threads` OS
    /// threads. The result — committed data, log bytes, force counts,
    /// clocks, [`MtOutcome`] — is identical at every `threads` value;
    /// see the module docs for the argument.
    ///
    /// Requires a quiescent engine (no active transactions, no pending
    /// recovery) and the serial feature set: no early lock release, no
    /// instant restart, no pipelined commits, no index operations.
    pub fn run_epochs(&mut self, txns: Vec<MtTxn>, threads: usize) -> Result<MtOutcome, DbError> {
        let threads = threads.max(1);
        let nodes = self.cfg.nodes as usize;
        assert!(!self.cfg.early_lock_release, "mt excludes early lock release");
        assert!(!self.instant_active(), "mt excludes instant restart");
        assert!(self.pending_recovery.is_empty(), "mt requires completed recovery");
        assert!(self.pending_commits.is_empty(), "mt requires drained commit pipeline");
        assert_eq!(self.txns.in_flight(), 0, "mt requires a quiescent engine");
        assert_eq!(self.m.surviving_nodes().len(), nodes, "mt requires every node up");
        for t in &txns {
            assert!((t.node.0 as usize) < nodes, "mt transaction on unknown node");
        }

        self.settle_lbm_marks()?;

        let mut queues: Vec<VecDeque<MtTxn>> = (0..nodes).map(|_| VecDeque::new()).collect();
        for t in txns {
            queues[t.node.0 as usize].push_back(t);
        }
        let mut out = MtOutcome::default();
        let obs_on = self.m.obs().is_enabled();

        while queues.iter().any(|q| !q.is_empty()) {
            // ---- serial admission --------------------------------------
            let mut admitted: Vec<Vec<Admitted>> = (0..nodes).map(|_| Vec::new()).collect();
            // stripe -> claiming node, across this epoch.
            let mut claimed: BTreeMap<u32, usize> = BTreeMap::new();
            let mut granted: Vec<BTreeSet<(TxnId, u64)>> =
                (0..nodes).map(|_| BTreeSet::new()).collect();
            // name -> (claiming node, parent-side holder txn, held mode).
            // Same-node siblings piggyback on the holder's parent-side
            // grant (they serialize inside one lane), upgrading the
            // holder's mode through the manager when a later sibling
            // needs a stronger one.
            let mut name_holders: BTreeMap<u64, (usize, TxnId, LockMode)> = BTreeMap::new();
            let mut faulted: BTreeSet<(u16, PageId)> = BTreeSet::new();
            let mut epoch_txns: Vec<TxnId> = Vec::new();
            let mut admitted_total = 0u64;
            let mut gsn_cursor = self.gsn;
            // Round-robin over nodes, one candidate per node per round:
            // stripe claims — and therefore lane work — grow evenly across
            // nodes, instead of the first node swallowing its whole queue
            // and starving the epoch of parallelism. A node that hits a
            // conflict (or a tape deferral) sits out the rest of the
            // epoch; same-node stripe overlap is fine, those transactions
            // run sequentially in one lane.
            let mut seqs: Vec<u64> = self.txns.seqs();
            let mut stalled = vec![false; nodes];
            let mut waited = vec![false; nodes];
            let mut progress = true;
            while progress {
                progress = false;
                for n in 0..nodes {
                    if stalled[n] {
                        continue;
                    }
                    let node = NodeId(n as u16);
                    let Some(t) = queues[n].front() else { continue };
                    let (stripes, pages) = self.mt_footprint(&t.ops);
                    if stripes.iter().any(|s| claimed.get(s).is_some_and(|&o| o != n)) {
                        // Classify the stall. A record name held in an
                        // incompatible mode by another node's admitted
                        // transaction is a logical collision in the striped
                        // lock space (the lock table would block it too);
                        // anything else is physical false sharing in the
                        // coherence directory — a foreign page, or a
                        // foreign stripe by hash. Either way the candidate
                        // waits for the next epoch, so the split changes
                        // attribution only, never the schedule.
                        let lock_hit = lock_plan(&t.ops).iter().any(|&(name, mode)| {
                            name_holders.get(&name).is_some_and(|&(o, _, held)| {
                                o != n && !(mode == LockMode::Shared && held == LockMode::Shared)
                            })
                        });
                        if lock_hit {
                            out.lock_conflicts += 1;
                            if obs_on {
                                self.m.obs().metrics.inc(names::LOCK_SHARD_CONFLICTS);
                            }
                        } else {
                            out.data_conflicts += 1;
                            if obs_on {
                                self.m.obs().metrics.inc(names::SIM_SHARD_CONFLICTS);
                            }
                        }
                        stalled[n] = true;
                        waited[n] = true;
                        continue;
                    }
                    if admitted_total > 0 && self.sched.choose(SITE_ADMIT, 2) == 1 {
                        out.deferred += 1;
                        stalled[n] = true;
                        continue;
                    }
                    // Deterministic serial lock grant on the parent. A
                    // conflict can only be with a lock granted to another
                    // node's admitted transaction (everything else was
                    // released at the last barrier): a cross-node name
                    // collision in the striped lock space.
                    let plan = lock_plan(&t.ops);
                    let txn = TxnId::new(node, seqs[n] + 1);
                    let mut blocked = false;
                    // Parent-side grants/upgrades performed for THIS
                    // candidate, undone if a later plan entry blocks.
                    let mut acquired: Vec<(u64, TxnId)> = Vec::new();
                    for &(name, mode) in &plan {
                        match name_holders.get(&name).copied() {
                            Some((owner, _, _)) if owner != n => {
                                blocked = true;
                                break;
                            }
                            Some((_, _holder, held)) if held >= mode => {
                                // Sibling piggyback: the holder's
                                // parent-side grant already protects the
                                // name in a sufficient mode.
                            }
                            Some((_, holder, _)) => {
                                // Sibling upgrade: promote the holder's
                                // grant (sole holder — any other holder
                                // would be cross-node, caught above).
                                match self.locks.poll_from(
                                    &mut self.m,
                                    &mut self.logs,
                                    holder,
                                    name,
                                    mode,
                                    node,
                                )? {
                                    LockOutcome::Granted | LockOutcome::AlreadyHeld => {
                                        acquired.push((name, holder));
                                        name_holders.insert(name, (n, holder, mode));
                                    }
                                    LockOutcome::Waiting => {
                                        blocked = true;
                                        break;
                                    }
                                }
                            }
                            None => {
                                match self.locks.poll_from(
                                    &mut self.m,
                                    &mut self.logs,
                                    txn,
                                    name,
                                    mode,
                                    node,
                                )? {
                                    LockOutcome::Granted | LockOutcome::AlreadyHeld => {
                                        acquired.push((name, txn));
                                        name_holders.insert(name, (n, txn, mode));
                                    }
                                    LockOutcome::Waiting => {
                                        blocked = true;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    if blocked {
                        // Roll back this candidate's fresh grants (an
                        // upgraded sibling grant stays — strictly
                        // stronger protection, still released at the
                        // barrier by the holder).
                        for &(name, holder) in &acquired {
                            if holder == txn {
                                name_holders.remove(&name);
                            }
                        }
                        self.locks.release_all(&mut self.m, &mut self.logs, txn)?;
                        out.lock_conflicts += 1;
                        if obs_on {
                            self.m.obs().metrics.inc(names::LOCK_SHARD_CONFLICTS);
                        }
                        stalled[n] = true;
                        waited[n] = true;
                        continue;
                    }
                    // Admitted: claim stripes, pre-fault pages, assign the
                    // GSN block, record the grants for the lane.
                    seqs[n] += 1;
                    for s in stripes {
                        claimed.insert(s, n);
                    }
                    for page in pages {
                        if faulted.insert((node.0, page)) {
                            let mut ctx = engine_ctx!(self);
                            ctx.ensure_resident(node, page)?;
                        }
                    }
                    for &(name, _) in &plan {
                        granted[n].insert((txn, name));
                    }
                    let t = queues[n].pop_front().expect("front() just matched");
                    // Worst case per operation: one Update record (undo +
                    // redo GSN) plus slack for Begin/Commit bookkeeping.
                    let gsn_block = t.ops.len() as u64 * 2 + 8;
                    admitted[n].push(Admitted { txn, ops: t.ops, gsn_base: gsn_cursor, gsn_block });
                    gsn_cursor += gsn_block;
                    epoch_txns.push(txn);
                    admitted_total += 1;
                    progress = true;
                }
            }
            for &w in &waited {
                if w {
                    out.epoch_waits += 1;
                    if obs_on {
                        self.m.obs().metrics.inc(names::ENGINE_EPOCH_WAITS);
                    }
                }
            }
            assert!(
                admitted_total > 0,
                "epoch admitted nothing with work pending: admission cannot stall every node"
            );
            out.epochs += 1;
            out.max_epoch_txns = out.max_epoch_txns.max(admitted_total);
            self.gsn = gsn_cursor;

            // ---- lane assembly (serial) --------------------------------
            let participants: Vec<usize> =
                (0..nodes).filter(|&n| !admitted[n].is_empty()).collect();
            let mut lanes: Vec<Lane> = Vec::new();
            for &n in &participants {
                let node = NodeId(n as u16);
                let stripes: Vec<u32> =
                    claimed.iter().filter(|&(_, &o)| o == n).map(|(&s, _)| s).collect();
                let lane = self.lane_for(node, &stripes, std::mem::take(&mut granted[n]));
                lanes.push((node, stripes, lane, std::mem::take(&mut admitted[n])));
            }

            // ---- parallel execution ------------------------------------
            // Lanes are distributed round-robin over `threads` OS threads;
            // each thread runs its lanes sequentially. Outcomes are a pure
            // function of barrier state, so the distribution (and the
            // interleaving) cannot affect results.
            let mut results: Vec<Option<Result<LaneReport, DbError>>> =
                (0..lanes.len()).map(|_| None).collect();
            if threads == 1 || lanes.len() == 1 {
                results =
                    lanes.iter_mut().map(|(_, _, lane, work)| Some(run_lane(lane, work))).collect();
            } else {
                let spawn = threads.min(lanes.len());
                let mut buckets: Vec<Vec<(usize, &mut Lane)>> =
                    (0..spawn).map(|_| Vec::new()).collect();
                for (i, lane) in lanes.iter_mut().enumerate() {
                    buckets[i % spawn].push((i, lane));
                }
                let bucket_results = std::thread::scope(|s| {
                    let handles: Vec<_> = buckets
                        .into_iter()
                        .map(|bucket| {
                            s.spawn(move || {
                                bucket
                                    .into_iter()
                                    .map(|(i, (_, _, lane, work))| (i, run_lane(lane, work)))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("lane thread panicked"))
                        .collect::<Vec<_>>()
                });
                for (i, r) in bucket_results {
                    results[i] = Some(r);
                }
            }

            // ---- epoch barrier (serial, node order) --------------------
            let mut retries: Vec<(NodeId, Admitted)> = Vec::new();
            let mut first_error: Option<DbError> = None;
            for ((node, stripes, lane, _), result) in lanes.into_iter().zip(results) {
                let report = result.expect("every lane produced a result");
                self.lane_merge(node, lane);
                match report {
                    Ok(rep) => {
                        out.committed += rep.committed;
                        for a in rep.retries {
                            retries.push((node, a));
                        }
                    }
                    Err(e) => {
                        // Merge every lane before surfacing the error so
                        // the parent is structurally whole (shards and
                        // logs reattached) even on a failed epoch.
                        first_error.get_or_insert(e);
                    }
                }
                // Drain the appender: anything the lane left volatile
                // (abort compensation tails, a pending coalesced-force
                // window) becomes durable before the active marks that
                // defer to it are cleared.
                let log = self.logs.log(node);
                if (log.pending_force().is_some() || log.stable_lsn() < log.last_lsn())
                    && self.logs.force_all_checked(node)?
                {
                    let cost = self.m.config().cost.log_force;
                    self.m.advance(node, cost);
                    out.appender_stalls += 1;
                    if obs_on {
                        self.m.obs().metrics.inc(names::WAL_APPENDER_STALLS);
                    }
                }
                self.m.clear_active_in_stripes(node, &stripes);
            }
            // Release every admitted transaction's locks on the parent
            // (admission granted them there), in admission order.
            for txn in epoch_txns {
                self.locks.release_all(&mut self.m, &mut self.logs, txn)?;
                // The lane settled it; these releases were its last records.
                self.logs.retire_txn(txn);
            }
            if let Some(e) = first_error {
                return Err(e);
            }

            // ---- serial retries (footprint escapes) --------------------
            let retried = !retries.is_empty();
            for (node, a) in retries {
                out.serial_retries += 1;
                let txn = self.begin(node)?;
                for op in &a.ops {
                    self.apply(txn, op)?;
                }
                self.commit(txn)?;
                out.committed += 1;
            }
            // Retries run the normal deferred-LBM path, whose active marks
            // assume any node can force the mark owner's log at the
            // trigger — untrue inside a lane. Re-run the prologue sweep so
            // no such mark survives into the next epoch's lanes.
            if retried {
                self.settle_lbm_marks()?;
            }
        }
        Ok(out)
    }
}

/// Execute one lane's admitted transactions in program order. Runs on a
/// worker thread; touches only the lane engine.
fn run_lane(lane: &mut SmDb, work: &[Admitted]) -> Result<LaneReport, DbError> {
    let mut report = LaneReport::default();
    for a in work {
        lane.gsn = a.gsn_base;
        let txn = lane.begin(a.txn.node())?;
        debug_assert_eq!(txn, a.txn, "lane sequence drifted from admission");
        let outcome =
            a.ops.iter().try_for_each(|op| lane.apply(txn, op)).and_then(|()| lane.commit(txn));
        match outcome {
            Ok(()) => report.committed += 1,
            Err(e) if escalates(&e) => {
                lane.abort(txn)?;
                report.retries.push(a.clone());
            }
            Err(e) => return Err(e),
        }
        assert!(
            lane.gsn <= a.gsn_base + a.gsn_block,
            "transaction overran its pre-assigned GSN block"
        );
    }
    Ok(report)
}
