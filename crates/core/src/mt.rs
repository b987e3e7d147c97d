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
//!    (`LogSet::lane_split`), a forked lock manager, shadow, and stats,
//!    and an empty undo-tag ledger the barrier ORs back.
//!    The lane runs the §6 update protocol *verbatim*; only record-lock
//!    acquisition short-circuits: an admitted transaction carries the
//!    lock names of its plan, the lane holds the running transaction's,
//!    and a lock call is a membership check against that list. Any access
//!    outside the admitted footprint surfaces as
//!    [`MemError::ForeignStripe`] (or a lock-grant miss), aborts the
//!    transaction inside the lane, and escalates it to a serial retry.
//!    Lanes go to OS threads longest first by admitted operation count
//!    (`assign_lanes`): a node that meets a stripe conflict sits the
//!    epoch out, so lanes are routinely lopsided by two orders of
//!    magnitude, and a round-robin deal can put the two big ones on one
//!    thread.
//!    **One force per lane** (epoch group commit): a lane's commits
//!    append their records unforced, and the lane's last act is one
//!    commit force through the highest of them — on an error exit too. No
//!    observer outside the lane can see a lane commit before the barrier:
//!    its locks are held on the parent until step 3, its stripes are its
//!    own for the epoch, and its status segment and shadow are adopted
//!    only by the merge, which comes after that force (and checks it:
//!    [`DbError::LaneCommitNotDurable`]). A lane that committed no writer
//!    forces nothing.
//! 3. **Epoch barrier.** Lanes are merged back in node order (machine,
//!    logs, page-LSN table, transaction table, stats, shadow — every merge
//!    operator commutes or is order-fixed), each appender's unforced
//!    tail is forced (`wal.appender_stalls`; admission logged the grants
//!    before the lane ran, so the lane's own force covers them, and the
//!    tail is only an all-read lane's grants or an abort's compensation),
//!    the admitted transactions' locks are released on the parent in
//!    admission order, and active LBM marks in the lane stripes are
//!    cleared — *after* the force, preserving the Stable-LBM invariant.
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
//! recorded schedule replays byte-identically on any host. Which thread
//! runs which lane is not a freedom in that sense: no lane reads what
//! another writes and reports are written back by lane index, so the
//! assignment moves wall time only — and it is itself a pure function of
//! barrier state (the admitted operation counts), never of the host.
//!
//! **Admission state.** What admission knows about the epoch so far lives
//! in `EpochTables`: three dense arrays owned by the `run_epochs` call —
//! stripe → claiming node, record slot → the parent-side grant protecting
//! its lock name, heap page → pre-faulted — each entry stamped with the
//! epoch that wrote it. Starting an epoch bumps the stamp and an entry is
//! *present* only while its stamp equals the current one; the arrays are
//! created zeroed and stamps start at 1, so an entry of an earlier epoch
//! (or one never written) cannot be read as current, and nothing is
//! cleared or reallocated between epochs. A candidate's lock plan and
//! footprint are computed once per attempt into one reused `Candidate`;
//! its pages are pre-faulted in ascending page order — pre-faulting is
//! simulated traffic, and that is the order every fixture pins it in.

use crate::engine::{tree_ctx, SmDb};
use crate::error::DbError;
use crate::restart::RestartState;
use crate::stats::EngineStats;
use crate::tag_ledger::TagLedger;
use crate::txn::Op;
use smdb_btree::TreeCtx;
use smdb_fault::Scheduler;
use smdb_lock::{LockMode, LockOutcome, ViolationTable};
use smdb_obs::{names, ForceReason};
use smdb_sim::{LineId, MemError, NodeId, TxnId};
use smdb_storage::{PageId, StableDb};
use smdb_wal::{CheckpointStore, Lsn, PageLsnTable};
use std::collections::VecDeque;

/// Schedule-tape site drawn once per admission candidate (after the
/// footprint checks pass): choice `1` defers the transaction to a later
/// epoch, `0` admits it. Disabled/replay-exhausted draws return `0` — the
/// greedy historical admission — so the fuzzer explores epoch partitions
/// while the default stays deterministic.
pub const SITE_ADMIT: &str = "mt.admit";

/// The record slot an epoch-scheduled operation touches and the lock mode
/// it needs. Index operations are not admitted in this mode (their page
/// footprints are data-dependent); use the serial API for index workloads.
fn rec_access(op: &Op) -> Result<(u64, LockMode), DbError> {
    match op {
        Op::Read(slot) => Ok((*slot, LockMode::Shared)),
        Op::Update(slot, _) | Op::Add(slot, _) => Ok((*slot, LockMode::Exclusive)),
        Op::Insert(key, _) | Op::Delete(key) => Err(DbError::IndexOpInEpoch { key: *key }),
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
    /// Lane log tails the epoch barrier had to force
    /// (`wal.appender_stalls`). A lane that committed a writer forced its
    /// log through its last commit record, which covers the grants
    /// admission logged for it; what is left is the grants of a lane that
    /// committed no writer, or an abort's compensation records.
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
    /// The lock names of the transaction's plan. Admission granted each on
    /// the parent manager (to this transaction, or to an earlier one of
    /// the same lane it piggybacks on); the lane treats membership as the
    /// grant.
    names: Vec<u64>,
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

/// One admission candidate's lock plan and footprint, computed once per
/// attempt by [`SmDb::mt_candidate`] into buffers every candidate of the
/// call reuses (each holds at most one entry per operation).
#[derive(Default)]
struct Candidate {
    /// The record slots the transaction locks, in first-touch order, each
    /// with the strongest mode any of its operations requires. The lock
    /// name is [`SmDb::lock_name_for_rec`] of the slot. Admission grants
    /// these serially on the parent manager; the lane then treats
    /// membership of the name in the transaction's plan as the grant.
    plan: Vec<(u64, LockMode)>,
    /// The distinct heap pages the operations touch, ascending.
    pages: Vec<PageId>,
    /// The distinct coherence-directory stripes those pages map to.
    stripes: Vec<u32>,
}

/// The parent-side grant protecting one lock name for the current epoch.
#[derive(Clone, Copy)]
struct Holder {
    stamp: u64,
    /// The lane (node) whose transactions run under the grant.
    node: usize,
    /// The transaction the parent manager granted the name to. Later
    /// transactions of the same node piggyback on it (they serialize
    /// inside one lane), upgrading the holder's mode through the manager
    /// when one needs a stronger one.
    txn: TxnId,
    mode: LockMode,
}

/// What admission knows about the epoch so far, as arrays indexed by
/// stripe, record slot and heap page (module docs, "Admission state"). An
/// entry is present only while its stamp is the current epoch's.
struct EpochTables {
    /// The current epoch's stamp: 1 for the call's first epoch.
    stamp: u64,
    /// stripe → (stamp, claiming node).
    claimed: Vec<(u64, usize)>,
    /// record slot → the grant protecting `lock_name_for_rec(slot)`.
    holders: Vec<Holder>,
    /// heap page → stamp of the epoch that pre-faulted it. Indexed by page
    /// alone: a page lies in one stripe and a stripe has one claimant per
    /// epoch, so only that node can have faulted it.
    faulted: Vec<u64>,
}

impl EpochTables {
    fn new(stripes: usize, records: usize, heap_pages: usize) -> Self {
        let empty = Holder { stamp: 0, node: 0, txn: TxnId(0), mode: LockMode::Shared };
        EpochTables {
            stamp: 0,
            claimed: vec![(0, 0); stripes],
            holders: vec![empty; records],
            faulted: vec![0; heap_pages],
        }
    }

    fn claimant(&self, stripe: u32) -> Option<usize> {
        let (stamp, node) = self.claimed[stripe as usize];
        (stamp == self.stamp).then_some(node)
    }

    fn claim(&mut self, stripe: u32, node: usize) {
        self.claimed[stripe as usize] = (self.stamp, node);
    }

    fn holder(&self, slot: u64) -> Option<Holder> {
        let h = self.holders[slot as usize];
        (h.stamp == self.stamp).then_some(h)
    }

    fn hold(&mut self, slot: u64, node: usize, txn: TxnId, mode: LockMode) {
        self.holders[slot as usize] = Holder { stamp: self.stamp, node, txn, mode };
    }

    fn unhold(&mut self, slot: u64) {
        self.holders[slot as usize].stamp = 0;
    }

    /// Mark `page` pre-faulted; whether this epoch had not yet done so.
    fn first_fault(&mut self, page: PageId) -> bool {
        let stamp = std::mem::replace(&mut self.faulted[page.0 as usize], self.stamp);
        stamp != self.stamp
    }
}

/// Which of up to `threads` OS threads runs each lane, given every lane's
/// admitted work (its operation count): longest lane first, each to the
/// thread with the least work so far; equal lanes go in lane order, equal
/// threads in thread order. Greedy, so the busiest thread carries at most
/// 4/3 of the best possible split, where a deal in lane order carries
/// whatever the lane order deals it. Equal lanes reproduce that deal
/// (`lane % threads`).
fn assign_lanes(work: &[u64], threads: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..work.len()).collect();
    order.sort_by_key(|&lane| (std::cmp::Reverse(work[lane]), lane));
    let mut load = vec![0u64; threads.clamp(1, work.len().max(1))];
    let mut thread_of = vec![0usize; work.len()];
    for lane in order {
        // `min_by_key` returns the first of equal minima: the lowest thread.
        let thread = (0..load.len()).min_by_key(|&t| load[t]).unwrap_or(0);
        load[thread] += work[lane];
        thread_of[lane] = thread;
    }
    thread_of
}

impl SmDb {
    /// Refuse what the scheduler cannot run before anything is touched: an
    /// engine outside the serial feature set or not quiescent, and a batch
    /// naming a node the machine does not have, an index operation or a
    /// record slot outside the heap (which would also index past the
    /// admission tables).
    fn mt_validate(&self, txns: &[MtTxn]) -> Result<(), DbError> {
        let preconditions = [
            (!self.cfg.early_lock_release, "no early lock release"),
            (self.redo_pending() == 0, "no instant-restart redo pending"),
            (!self.recovery_pending(), "a completed recovery"),
            (self.pending_commits.is_empty(), "a drained commit pipeline"),
            (self.txns.in_flight() == 0, "no transaction in flight"),
            (self.m.surviving_nodes().len() == self.cfg.nodes as usize, "every node up"),
        ];
        if let Some(&(_, requires)) = preconditions.iter().find(|(holds, _)| !holds) {
            return Err(DbError::EpochRefused { requires });
        }
        for t in txns {
            if t.node.0 >= self.cfg.nodes {
                return Err(DbError::NoSuchNode { node: t.node });
            }
            for op in &t.ops {
                self.check_slot(rec_access(op)?.0)?;
            }
        }
        Ok(())
    }

    /// Compute a candidate's lock plan and footprint into `c`. The engine
    /// pins `stripe_lines` to `lines_per_page`, so a page (including its
    /// Page-LSN line) never straddles stripes and one probe per page
    /// suffices.
    fn mt_candidate(&self, ops: &[Op], c: &mut Candidate) -> Result<(), DbError> {
        c.plan.clear();
        c.pages.clear();
        c.stripes.clear();
        for op in ops {
            let (slot, mode) = rec_access(op)?;
            if let Some((_, m)) = c.plan.iter_mut().find(|(s, _)| *s == slot) {
                if mode > *m {
                    *m = mode;
                }
                continue;
            }
            c.plan.push((slot, mode));
            let page = self.layout.rec_of_global(slot).page;
            if c.pages.contains(&page) {
                continue;
            }
            c.pages.push(page);
            let line0 = LineId(self.layout.geometry.line_addr(page, 0));
            let stripe = self.m.stripe_of(line0);
            if !c.stripes.contains(&stripe) {
                c.stripes.push(stripe);
            }
        }
        c.pages.sort_unstable();
        Ok(())
    }

    /// Assemble an execution lane for `node`: a real engine over the
    /// detached stripes and the node's own WAL appender. The lane runs
    /// the full §6 protocol; only record-lock acquisition short-circuits
    /// against the running transaction's plan (`mt_plan`, which
    /// `run_lane` fills per transaction).
    fn lane_for(&mut self, node: NodeId, stripes: &[u32]) -> SmDb {
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
            fault: self.fault.clone(),
            sched: Scheduler::new(),
            restart: RestartState::default(),
            tags: TagLedger::new(self.cfg.nodes),
            pending_commits: Vec::new(),
            violations: ViolationTable::new(),
            mt_plan: Some(Vec::new()),
        }
    }

    /// Merge a lane back at the epoch barrier. Every component merge
    /// either commutes (counter addition, max-merge) or touches only the
    /// lane's own slice of parent state (its shards, its node's log and
    /// its node's segment of the transaction-status index, which the lane
    /// extended from the parent's high-water mark), so the node-ordered
    /// merge is deterministic. The lane is merged whole either way; the
    /// merge is an error if it adopts a commit whose record the lane left
    /// volatile (`run_lane` forces them all before it returns).
    fn lane_merge(&mut self, node: NodeId, lane: SmDb) -> Result<(), DbError> {
        let SmDb { m, logs, plt, locks, txns, stats, shadow, tags, .. } = lane;
        let log = logs.log(node);
        let durable = log.durable_lsn();
        let volatile = txns.committed_on(node).find_map(|txn| {
            let lsn = log.index().commit_lsn(txn).filter(|&lsn| lsn > durable)?;
            Some(DbError::LaneCommitNotDurable { txn, lsn, durable })
        });
        self.m.lane_merge(node, m);
        self.logs.lane_merge(node, logs);
        self.plt.absorb(&plt);
        self.locks.lane_absorb(&locks);
        self.txns.lane_absorb(node, txns);
        self.stats.absorb(&stats);
        self.shadow.absorb(shadow);
        self.tags.absorb(&tags);
        volatile.map_or(Ok(()), Err)
    }

    /// Drain every appender and clear every active LBM mark, so no
    /// deferred-force obligation crosses into a lane whose owner cannot
    /// force the mark owner's log (forcing first keeps the Stable-LBM
    /// invariant while clearing).
    fn settle_lbm_marks(&mut self) -> Result<(), DbError> {
        let all_stripes: Vec<u32> = (0..self.m.shard_count() as u32).collect();
        for n in 0..self.cfg.nodes {
            let node = NodeId(n);
            let last = self.logs.log(node).last_lsn();
            self.logs.force(&mut self.m, node, last, ForceReason::Lbm)?;
            self.m.clear_active_in_stripes(node, &all_stripes);
        }
        Ok(())
    }

    /// Serial admission of one epoch (module docs, step 1): returns each
    /// node's admitted transactions. `epoch_txns` lists, in admission
    /// order, every transaction that may hold a parent-side grant — the
    /// admitted ones and, while its plan is being granted, the candidate —
    /// so a caller that gets an error knows what to release.
    fn admit_epoch(
        &mut self,
        queues: &mut [VecDeque<MtTxn>],
        tables: &mut EpochTables,
        cand: &mut Candidate,
        epoch_txns: &mut Vec<TxnId>,
        out: &mut MtOutcome,
    ) -> Result<Vec<Vec<Admitted>>, DbError> {
        let nodes = queues.len();
        let obs_on = self.m.obs().is_enabled();
        tables.stamp += 1;
        let mut admitted: Vec<Vec<Admitted>> = (0..nodes).map(|_| Vec::new()).collect();
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
                self.mt_candidate(&t.ops, cand)?;
                if cand.stripes.iter().any(|&s| tables.claimant(s).is_some_and(|o| o != n)) {
                    // Classify the stall. A record name held in an
                    // incompatible mode by another node's admitted
                    // transaction is a logical collision in the striped
                    // lock space (the lock table would block it too);
                    // anything else is physical false sharing in the
                    // coherence directory — a foreign page, or a
                    // foreign stripe by hash. Either way the candidate
                    // waits for the next epoch, so the split changes
                    // attribution only, never the schedule.
                    let lock_hit = cand.plan.iter().any(|&(slot, mode)| {
                        tables.holder(slot).is_some_and(|h| {
                            h.node != n && !(mode == LockMode::Shared && h.mode == LockMode::Shared)
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
                let txn = TxnId::new(node, seqs[n] + 1);
                epoch_txns.push(txn);
                let mut blocked = false;
                for &(slot, mode) in &cand.plan {
                    // Whose parent-side grant to take or promote.
                    let grantee = match tables.holder(slot) {
                        Some(h) if h.node != n => {
                            blocked = true;
                            break;
                        }
                        // Sibling piggyback: the holder's parent-side
                        // grant already protects the name in a
                        // sufficient mode.
                        Some(h) if h.mode >= mode => continue,
                        // Sibling upgrade: promote the holder's grant
                        // (sole holder — any other holder would be
                        // cross-node, caught above).
                        Some(h) => h.txn,
                        None => txn,
                    };
                    let name = Self::lock_name_for_rec(slot);
                    match self.locks.poll_from(
                        &mut self.m,
                        &mut self.logs,
                        grantee,
                        name,
                        mode,
                        node,
                    )? {
                        LockOutcome::Granted | LockOutcome::AlreadyHeld => {
                            tables.hold(slot, n, grantee, mode);
                        }
                        LockOutcome::Waiting => {
                            blocked = true;
                            break;
                        }
                    }
                }
                if blocked {
                    // Roll back this candidate's fresh grants (an
                    // upgraded sibling grant stays — strictly
                    // stronger protection, still released at the
                    // barrier by the holder).
                    for &(slot, _) in &cand.plan {
                        if tables.holder(slot).is_some_and(|h| h.txn == txn) {
                            tables.unhold(slot);
                        }
                    }
                    self.locks.release_all(&mut self.m, &mut self.logs, txn)?;
                    epoch_txns.pop();
                    out.lock_conflicts += 1;
                    if obs_on {
                        self.m.obs().metrics.inc(names::LOCK_SHARD_CONFLICTS);
                    }
                    stalled[n] = true;
                    waited[n] = true;
                    continue;
                }
                // Admitted: claim stripes, pre-fault pages, assign the
                // GSN block, hand the plan's names to the lane.
                seqs[n] += 1;
                for &s in &cand.stripes {
                    tables.claim(s, n);
                }
                for &page in &cand.pages {
                    if tables.first_fault(page) {
                        let mut ctx = tree_ctx!(self);
                        ctx.ensure_resident(node, page)?;
                    }
                }
                let t = queues[n].pop_front().expect("front() just matched");
                let names =
                    cand.plan.iter().map(|&(slot, _)| Self::lock_name_for_rec(slot)).collect();
                // Worst case per operation: one Update record (undo +
                // redo GSN), plus a fixed slack of 8 per transaction.
                let gsn_block = t.ops.len() as u64 * 2 + 8;
                admitted[n].push(Admitted {
                    txn,
                    ops: t.ops,
                    names,
                    gsn_base: gsn_cursor,
                    gsn_block,
                });
                gsn_cursor += gsn_block;
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
        if admitted_total == 0 {
            // Admission cannot stall every node: the first candidate of an
            // epoch meets no claim, no grant and no tape deferral.
            return Err(DbError::EpochRefused { requires: "an epoch that admits a transaction" });
        }
        out.epochs += 1;
        out.max_epoch_txns = out.max_epoch_txns.max(admitted_total);
        self.gsn = gsn_cursor;
        Ok(admitted)
    }

    /// Run `txns` to completion under the deterministic epoch scheduler,
    /// executing each epoch's per-node lanes on up to `threads` OS
    /// threads. The result — committed data, log bytes, force counts,
    /// clocks, [`MtOutcome`] — is identical at every `threads` value;
    /// see the module docs for the argument.
    ///
    /// Requires a quiescent engine (no active transactions, no pending
    /// recovery, every node up) and the serial feature set: no early lock
    /// release, no instant-restart redo pending, no pipelined commits;
    /// anything else is [`DbError::EpochRefused`]. A batch naming a node
    /// the machine does not have, a record slot outside the heap or an
    /// index operation is refused too. All before anything is touched.
    pub fn run_epochs(&mut self, txns: Vec<MtTxn>, threads: usize) -> Result<MtOutcome, DbError> {
        let threads = threads.max(1);
        let nodes = self.cfg.nodes as usize;
        self.mt_validate(&txns)?;

        self.settle_lbm_marks()?;

        let mut queues: Vec<VecDeque<MtTxn>> = (0..nodes).map(|_| VecDeque::new()).collect();
        for t in txns {
            queues[t.node.0 as usize].push_back(t);
        }
        let mut out = MtOutcome::default();
        let obs_on = self.m.obs().is_enabled();
        let stripe_count = self.m.shard_count();
        let mut tables =
            EpochTables::new(stripe_count, self.cfg.records as usize, self.heap_pages as usize);
        let mut cand = Candidate::default();
        let mut epoch_txns: Vec<TxnId> = Vec::new();

        while queues.iter().any(|q| !q.is_empty()) {
            // ---- serial admission --------------------------------------
            epoch_txns.clear();
            let admitted = match self.admit_epoch(
                &mut queues,
                &mut tables,
                &mut cand,
                &mut epoch_txns,
                &mut out,
            ) {
                Ok(admitted) => admitted,
                Err(e) => {
                    // Nothing admitted this epoch will run: give back what
                    // admission took on the parent manager, or the names
                    // stay locked by transactions that never begin. Best
                    // effort — the admission error is the one to report.
                    for &txn in &epoch_txns {
                        let _ = self.locks.release_all(&mut self.m, &mut self.logs, txn);
                        self.logs.retire_txn(txn);
                    }
                    return Err(e);
                }
            };

            // ---- lane assembly (serial) --------------------------------
            let mut lane_stripes: Vec<Vec<u32>> = (0..nodes).map(|_| Vec::new()).collect();
            for s in 0..stripe_count as u32 {
                if let Some(n) = tables.claimant(s) {
                    lane_stripes[n].push(s);
                }
            }
            let mut lanes: Vec<Lane> = Vec::new();
            for (n, work) in admitted.into_iter().enumerate().filter(|(_, w)| !w.is_empty()) {
                let node = NodeId(n as u16);
                let stripes = std::mem::take(&mut lane_stripes[n]);
                let lane = self.lane_for(node, &stripes);
                lanes.push((node, stripes, lane, work));
            }

            // ---- parallel execution ------------------------------------
            // Lanes go to `threads` OS threads by admitted work
            // ([`assign_lanes`]); each thread runs its lanes sequentially.
            // Outcomes are a pure function of barrier state, so the
            // distribution (and the interleaving) cannot affect results.
            let mut results: Vec<Option<Result<LaneReport, DbError>>> =
                (0..lanes.len()).map(|_| None).collect();
            if threads == 1 || lanes.len() == 1 {
                results =
                    lanes.iter_mut().map(|(_, _, lane, work)| Some(run_lane(lane, work))).collect();
            } else {
                let work: Vec<u64> = lanes
                    .iter()
                    .map(|(_, _, _, work)| work.iter().map(|a| a.ops.len() as u64).sum())
                    .collect();
                let thread_of = assign_lanes(&work, threads);
                let mut buckets: Vec<Vec<(usize, &mut Lane)>> = Vec::new();
                for (i, lane) in lanes.iter_mut().enumerate() {
                    if buckets.len() <= thread_of[i] {
                        buckets.resize_with(thread_of[i] + 1, Vec::new);
                    }
                    buckets[thread_of[i]].push((i, lane));
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
                        .flat_map(|h| h.join().unwrap_or_default())
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
                // A lane with no result was on a thread that panicked.
                let report = result.unwrap_or(Err(DbError::EpochRefused {
                    requires: "lane threads that do not panic",
                }));
                let merged = self.lane_merge(node, lane);
                match report.and_then(|rep| merged.map(|()| rep)) {
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
                // becomes durable before the active marks that defer to
                // it are cleared. Admission logged the lane's grants
                // before it ran, so the lane's one commit force covers
                // them; an all-read lane (it forces nothing) or an
                // aborted transaction's compensation leaves a tail.
                let last = self.logs.log(node).last_lsn();
                if self.logs.force(&mut self.m, node, last, ForceReason::Lbm)? > 0 {
                    out.appender_stalls += 1;
                    if obs_on {
                        self.m.obs().metrics.inc(names::WAL_APPENDER_STALLS);
                    }
                }
                self.m.clear_active_in_stripes(node, &stripes);
            }
            // Release every admitted transaction's locks on the parent
            // (admission granted them there), in admission order.
            for &txn in &epoch_txns {
                self.locks.release_all(&mut self.m, &mut self.logs, txn)?;
                // The lane settled it; its grants here were logged, its
                // releases are not: retire the records admission logged.
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
///
/// The lane's commits append their records unforced; its last act is one
/// commit force through the highest of them (module docs, step 2), on
/// every exit — an error's too, since the barrier merges the lane either
/// way and adopts what it committed.
fn run_lane(lane: &mut SmDb, work: &[Admitted]) -> Result<LaneReport, DbError> {
    let mut report = LaneReport::default();
    let mut upto = Lsn::ZERO;
    let mut run = || -> Result<(), DbError> {
        for a in work {
            lane.gsn = a.gsn_base;
            // The grants travel with the transaction: what `lock_from`
            // checks is the plan of the one transaction running.
            lane.mt_plan.get_or_insert_with(Vec::new).clone_from(&a.names);
            let txn = lane.begin(a.txn.node())?;
            debug_assert_eq!(txn, a.txn, "lane sequence drifted from admission");
            let outcome =
                a.ops.iter().try_for_each(|op| lane.apply(txn, op)).and_then(|()| lane.commit(txn));
            match outcome {
                Ok(()) => {
                    report.committed += 1;
                    // A read-only commit has no record.
                    let lsn = lane.logs.log(txn.node()).index().commit_lsn(txn);
                    upto = upto.max(lsn.unwrap_or(Lsn::ZERO));
                }
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
        Ok(())
    };
    let ran = run();
    // A lane that committed no writer forces nothing: its grant records
    // stay for the barrier's tail force (`wal.appender_stalls`).
    let forced = match work.first() {
        Some(a) if upto > Lsn::ZERO => lane.commit_force(a.txn.node(), upto),
        _ => Ok(()),
    };
    ran.and(forced).map(|()| report)
}

#[cfg(test)]
mod tests {
    use super::{assign_lanes, run_lane, Admitted};
    use crate::engine::{tree_ctx, SmDb};
    use crate::{DbConfig, DbError, Op, ProtocolKind};
    use smdb_btree::TreeCtx;
    use smdb_sim::{NodeId, TxnId};

    /// A lane for `node` over every stripe of `db`, with `slot`'s page
    /// pre-faulted as admission would have.
    fn lane_over(db: &mut SmDb, node: NodeId, slot: u64) -> SmDb {
        let page = db.layout.rec_of_global(slot).page;
        tree_ctx!(db).ensure_resident(node, page).expect("pre-fault");
        let stripes: Vec<u32> = (0..db.m.shard_count() as u32).collect();
        db.lane_for(node, &stripes)
    }

    fn two_nodes() -> SmDb {
        SmDb::new(DbConfig::small(2, ProtocolKind::VolatileSelectiveRedo))
    }

    #[test]
    fn merging_a_volatile_lane_commit_is_a_typed_error() {
        let (mut db, node) = (two_nodes(), NodeId(1));
        let mut lane = lane_over(&mut db, node, 70);
        lane.mt_plan = Some(vec![SmDb::lock_name_for_rec(70)]);
        let txn = lane.begin(node).unwrap();
        lane.update(txn, 70, b"x").unwrap();
        lane.commit(txn).unwrap();
        let lsn = lane.logs.log(node).index().commit_lsn(txn).expect("a commit record");
        let durable = lane.logs.log(node).durable_lsn();
        assert!(lsn > durable, "a lane commit forced its own record");
        let merged = db.lane_merge(node, lane);
        assert_eq!(merged, Err(DbError::LaneCommitNotDurable { txn, lsn, durable }));
        // Merged whole all the same: the lane's log is back on the parent.
        assert_eq!(db.logs.log(node).index().commit_lsn(txn), Some(lsn));
    }

    #[test]
    fn a_failing_lane_still_forces_what_it_committed() {
        let (mut db, node) = (two_nodes(), NodeId(1));
        let mut lane = lane_over(&mut db, node, 70);
        let admitted = |seq, slot| Admitted {
            txn: TxnId::new(node, seq),
            ops: vec![Op::Update(slot, [7; 8])],
            names: vec![SmDb::lock_name_for_rec(slot)],
            gsn_base: 8 * seq,
            gsn_block: 8,
        };
        // The second transaction fails with an error that does not
        // escalate: the lane stops there.
        let beyond = db.record_count() as u64;
        let work = [admitted(1, 70), admitted(2, beyond)];
        let got = run_lane(&mut lane, &work).map(|_| ());
        assert_eq!(got, Err(DbError::NoSuchRecord { slot: beyond }));
        let log = lane.logs.log(node);
        let lsn = log.index().commit_lsn(TxnId::new(node, 1)).expect("the first one committed");
        assert!(lsn <= log.durable_lsn(), "the lane returned with its commit volatile");
        assert_eq!(db.lane_merge(node, lane), Ok(()));
    }

    /// The busiest thread's work under an assignment.
    fn max_load(work: &[u64], thread_of: &[usize]) -> u64 {
        let threads = thread_of.iter().max().map_or(0, |&t| t + 1);
        (0..threads)
            .map(|t| work.iter().zip(thread_of).filter(|&(_, &of)| of == t).map(|(w, _)| w).sum())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn measured_lopsided_epoch_splits_its_two_large_lanes() {
        // One `epoch_mt2` epoch's admitted transactions per lane.
        let work = [310, 4, 2, 1243, 3, 1247];
        let thread_of = assign_lanes(&work, 2);
        assert_ne!(thread_of[3], thread_of[5], "the two large lanes share a thread");
        assert_eq!(max_load(&work, &thread_of), 1553);
        let round_robin: Vec<usize> = (0..work.len()).map(|i| i % 2).collect();
        assert_eq!(max_load(&work, &round_robin), 2494);
    }

    #[test]
    fn every_lane_gets_exactly_one_thread_in_range() {
        for threads in 1..=5 {
            for lanes in 0..=7usize {
                let work: Vec<u64> = (0..lanes as u64).map(|i| (i * 7) % 5).collect();
                let thread_of = assign_lanes(&work, threads);
                assert_eq!(thread_of.len(), lanes);
                assert!(thread_of.iter().all(|&t| t < threads.min(lanes).max(1)));
                assert_eq!(thread_of, assign_lanes(&work, threads), "not a pure function");
            }
        }
    }

    #[test]
    fn ties_go_to_the_lower_lane_then_the_lower_thread() {
        // Equal lanes are dealt in lane order: the round-robin deal.
        assert_eq!(assign_lanes(&[5; 7], 3), [0, 1, 2, 0, 1, 2, 0]);
        // Lanes 0 and 2 tie for longest: lane 0 is placed first (thread 0),
        // lane 2 next (thread 1); lane 1 then meets equal loads and takes
        // thread 0; lane 3 goes to the lighter thread 1.
        assert_eq!(assign_lanes(&[9, 4, 9, 1], 2), [0, 0, 1, 1]);
        // More threads than lanes: one lane each, in order of size.
        assert_eq!(assign_lanes(&[1, 3, 2], 8), [2, 0, 1]);
        // No work at all is still an assignment.
        assert_eq!(assign_lanes(&[0, 0, 0], 2), [0, 0, 0]);
    }
}
