//! The shared-memory database engine: normal (failure-free) operation.
//!
//! The update protocol follows §6 of the paper: after the record lock is
//! obtained, line locks are acquired on (a) the cache line containing the
//! Page-LSN of the page (by convention its first line) and (b) the cache
//! line containing the record; the record and Page-LSN are updated; the
//! log record is written; the line locks are released. Holding the line
//! locks across the update and the log write simultaneously enforces
//! **Volatile LBM** (the line cannot migrate before the log record exists)
//! and the **ordered update logging** rule (log order matches update
//! order).

use crate::config::{DbConfig, ProtocolKind};
use crate::error::{req, DbError};
use crate::oracle::ShadowDb;
use crate::record::{RecordLayout, NULL_TAG, TAG_SIZE};
use crate::restart::RestartState;
use crate::stats::EngineStats;
use crate::tag_ledger::TagLedger;
use crate::txn::{Op, TxnOp, TxnState, TxnStatus, TxnTable};
use bytes::Bytes;
use smdb_btree::{BTree, BtreeError, LineSpan, TreeCtx, APPEND_BYTES_COUNTER, VAL_SIZE};
use smdb_fault::{FaultInjector, Scheduler};
use smdb_lock::{LockManager, LockMode, LockOutcome, LockTable, ViolationTable};
use smdb_obs::{names, Event as ObsEvent, ForceReason, Obs, Stage};
use smdb_sim::{LineId, Machine, NodeId, SimConfig, TxnId};
use smdb_storage::{PageGeometry, PageId, StableDb};
use smdb_wal::{
    assign_flushers, CheckpointMeta, CheckpointStore, CommitDep, LogPayload, LogSet, Lsn,
    PageLsnTable, RecId,
};

/// Slack between the page-backed line address range and the lock table.
const LOCK_TABLE_GAP: u64 = 4096;

/// What an index operation on an engine without an index violates.
const INDEX_OP: &str = "index op on an engine with an index";

/// Histogram of simulated cycles per completed record update.
pub const UPDATE_CYCLES_HISTOGRAM: &str = names::ENGINE_UPDATE_CYCLES;

/// Fault-injection site visited on the commit path: once before the commit
/// record is appended (a crash here dooms the transaction) and once after
/// the commit force succeeds but before post-commit processing (a crash
/// here must preserve the transaction — its commit record is durable).
pub const FAULT_COMMIT: &str = "core.commit";

/// Fault-injection site on the pipelined commit path with early lock
/// release: visited *after* the commit record is appended and the write
/// locks are released (violation edges recorded) but *before* any covering
/// force. A crash here loses the commit record, dooms the transaction, and
/// must cascade-abort every dependent that touched the violated names.
pub const FAULT_COMMIT_DEP: &str = "core.commit.dep";

/// One commit-LSN dependency a transaction inherited by acquiring a lock
/// name that a not-yet-durable committer released early.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InheritedDep {
    /// The early-releasing predecessor.
    pub releaser: TxnId,
    /// LSN of the predecessor's commit record on its home log.
    pub commit_lsn: Lsn,
    /// The violated lock name the dependency was inherited through.
    pub name: u64,
}

/// How a transaction leaves the engine ([`SmDb::retire`]).
#[derive(Clone, Copy)]
pub(crate) enum Fate {
    Committed,
    Aborted,
}

/// When the step after a fan-out ([`SmDb::fan_out`]) may start.
#[derive(Clone, Copy)]
pub(crate) enum Join {
    /// The caller waits for the latest node that had a share, no other
    /// clock moves: the next step is the caller's alone.
    Caller,
    /// Every live clock is synced before the first share and after the
    /// last, if any share is non-empty: the shares need what the caller
    /// has, and every node takes part in the next step.
    Barrier,
}

/// A commit between its append and its acknowledgement
/// ([`SmDb::acknowledge`]). A synchronous commit's entry is acknowledged
/// right after its own force. A pipelined one waits in
/// `SmDb::pending_commits` until a physical force covers `lsn` *and*
/// every dependency predecessor has itself been acknowledged.
#[derive(Clone, Debug)]
pub(crate) struct PendingCommit {
    pub txn: TxnId,
    /// LSN of the commit record on the home log.
    pub lsn: Lsn,
    /// Dependencies recorded inside the commit record.
    pub deps: Vec<CommitDep>,
    /// Home-node clock when the append completed (force-wait attribution).
    pub appended_at: u64,
    /// Whether its locks are still held (early lock release lets them go
    /// at the append); the acknowledgement releases them.
    pub locks_held: bool,
}

/// The shared-memory multi-node database engine.
///
/// See the crate-level docs for an overview and a usage example.
pub struct SmDb {
    pub(crate) cfg: DbConfig,
    pub(crate) m: Machine,
    pub(crate) sdb: StableDb,
    pub(crate) logs: LogSet,
    pub(crate) plt: PageLsnTable,
    pub(crate) ckpt: CheckpointStore,
    pub(crate) locks: LockManager,
    pub(crate) tree: Option<BTree>,
    /// Live transactions plus the status of every one ever begun (and
    /// the per-node sequence counters the ids come from).
    pub(crate) txns: TxnTable,
    pub(crate) layout: RecordLayout,
    pub(crate) heap_pages: u32,
    pub(crate) gsn: u64,
    pub(crate) stats: EngineStats,
    pub(crate) shadow: ShadowDb,
    /// Fault-injection handle shared with the machine, log set, and stable
    /// database (disabled by default: one relaxed load per crash point).
    pub(crate) fault: FaultInjector,
    /// Schedule handle: ordering decisions the engine exposes to the
    /// deterministic fuzzer (disabled by default: every choice is 0, the
    /// historical order, at the cost of one relaxed load per decision).
    pub(crate) sched: Scheduler,
    /// What carries a restart across an interruption: the crashed nodes
    /// awaiting recovery, what interrupted attempts left stale, and what
    /// the restart still owes the heap.
    pub(crate) restart: RestartState,
    /// Which heap lines may carry each node's undo tag: what restart's tag
    /// scan visits ([`crate::tag_ledger`]).
    pub(crate) tags: TagLedger,
    /// Pipelined commits awaiting acknowledgement, in append order.
    pub(crate) pending_commits: Vec<PendingCommit>,
    /// Lock names released early by not-yet-acknowledged committers
    /// (controlled lock violation bookkeeping).
    pub(crate) violations: ViolationTable,
    /// Epoch-parallel lane marker (see [`crate::mt`]). `Some` makes this
    /// engine an execution lane, and holds the lock names of the plan of
    /// the one transaction the lane is running: the deterministic epoch
    /// scheduler granted each of them *serially* on the parent manager
    /// before the lane ran, so [`SmDb::lock_from`] treats membership as a
    /// grant without touching the (parent-owned) lock table, and treats a
    /// miss as a footprint violation to escalate.
    pub(crate) mt_plan: Option<Vec<u64>>,
}

/// Construct a [`TreeCtx`] over the engine's split-borrowed fields: what
/// every forward and restart index or page operation runs on.
macro_rules! tree_ctx {
    ($self:expr) => {
        TreeCtx::new(
            &mut $self.m,
            &mut $self.sdb,
            &mut $self.logs,
            &mut $self.plt,
            $self.cfg.protocol.lbm_mode(),
            &mut $self.gsn,
        )
    };
}
pub(crate) use tree_ctx;

impl SmDb {
    /// Build and initialise an engine from a configuration: formats the
    /// stable database, creates the shared-memory lock table, and (if
    /// configured) the B+-tree index.
    pub fn new(cfg: DbConfig) -> Self {
        let geometry = PageGeometry::new(cfg.line_size, cfg.lines_per_page);
        let layout = RecordLayout::new(geometry, cfg.rec_data_size);
        let heap_pages = layout.pages_for(cfg.records);
        let total_pages = heap_pages + cfg.index_pages;
        let sim_cfg = SimConfig {
            nodes: cfg.nodes,
            line_size: cfg.line_size,
            coherence: cfg.coherence,
            cost: cfg.cost.clone(),
            stall_on_lost: cfg.stall_on_lost,
            stripe_lines: cfg.lines_per_page as u64,
        };
        let mut m = Machine::new(sim_cfg);
        let mut sdb = StableDb::new(geometry);
        sdb.format(total_pages);
        // Pre-set every record's undo tag to null in the stable images (a
        // zero tag would read as "tagged by node 0").
        for p in 0..heap_pages {
            for slot in 0..layout.records_per_page() as u16 {
                let off = layout.page_offset(slot);
                sdb.patch(PageId(p), off, &NULL_TAG.to_le_bytes());
            }
        }
        let logs = LogSet::new(cfg.nodes);
        let lock_base = total_pages as u64 * cfg.lines_per_page as u64 + LOCK_TABLE_GAP;
        let table =
            LockTable::create(&mut m, NodeId(0), lock_base, cfg.lock_buckets, cfg.lcb_geometry)
                .expect("lock table creation on a fresh machine cannot fail");
        let locks = LockManager::new(table);
        let txns = TxnTable::new(cfg.nodes);
        let ckpt = CheckpointStore::new(cfg.nodes);
        let cfg_nodes = cfg.nodes;
        let mut db = SmDb {
            cfg,
            m,
            sdb,
            logs,
            plt: PageLsnTable::new(),
            ckpt,
            locks,
            tree: None,
            txns,
            layout,
            heap_pages,
            gsn: 0,
            stats: EngineStats::default(),
            shadow: ShadowDb::new(),
            fault: FaultInjector::new(),
            sched: Scheduler::new(),
            restart: RestartState::default(),
            tags: TagLedger::new(cfg_nodes),
            pending_commits: Vec::new(),
            violations: ViolationTable::new(),
            mt_plan: None,
        };
        if db.cfg.has_index() {
            let mut ctx = tree_ctx!(db);
            db.tree = Some(
                BTree::create(&mut ctx, NodeId(0), heap_pages, db.cfg.index_pages)
                    .expect("index creation on a fresh machine cannot fail"),
            );
        }
        db
    }

    /// Wire one fault injector through every layer: coherence traffic
    /// (`sim.migrate`/`sim.invalidate`), log forces (`wal.force.record`),
    /// stable-page flushes (`storage.flush.line`), the commit path
    /// (`core.commit`), and the restart phases (`recovery.phase`). All
    /// layers share the handle, so a single plan sequences crash points
    /// across them.
    pub fn set_fault_injector(&mut self, fault: FaultInjector) {
        self.m.set_fault_injector(fault.clone());
        self.logs.set_fault_injector(fault.clone());
        self.sdb.set_fault_injector(fault.clone());
        self.fault = fault;
    }

    /// A clone of the engine's fault-injection handle.
    pub fn fault_handle(&self) -> FaultInjector {
        self.fault.clone()
    }

    /// Wire a schedule handle into the engine's ordering decisions: the
    /// per-node force order of a pipeline drain (`core.drain.force`), which
    /// ready pending commit is acknowledged next (`core.ack.pick`), and
    /// which survivor hosts recovery (`core.recovery.host`). With the
    /// handle disabled (the default) every choice is 0 — exactly the
    /// engine's historical order — so production paths are unperturbed.
    pub fn set_scheduler(&mut self, sched: Scheduler) {
        self.sched = sched;
    }

    /// A clone of the engine's schedule handle.
    pub fn sched_handle(&self) -> Scheduler {
        self.sched.clone()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The engine configuration.
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// The recovery protocol in force.
    pub fn protocol(&self) -> ProtocolKind {
        self.cfg.protocol
    }

    /// The simulated machine (read-only).
    pub fn machine(&self) -> &Machine {
        &self.m
    }

    /// Engine counters. The `structural_early_commits` field is derived
    /// on the fly from the tree and lock-manager counters.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats.clone();
        let t = self.tree_stats();
        s.structural_early_commits = t.splits + t.root_grows + self.locks.stats().overflow_allocs;
        s
    }

    /// Lock-manager counters.
    pub fn lock_stats(&self) -> &smdb_lock::LockStats {
        self.locks.stats()
    }

    /// B-tree counters (zeroed struct if no index).
    pub fn tree_stats(&self) -> smdb_btree::BtreeStats {
        self.tree.as_ref().map(|t| t.stats().clone()).unwrap_or_default()
    }

    /// The per-node logs (read-only).
    pub fn logs(&self) -> &LogSet {
        &self.logs
    }

    /// The sharp-checkpoint store (last installed checkpoint + count).
    pub fn checkpoint_store(&self) -> &CheckpointStore {
        &self.ckpt
    }

    /// The shared (page, LSN) table: which pages differ from their stable
    /// images, and by whose updates.
    pub fn page_lsn_table(&self) -> &PageLsnTable {
        &self.plt
    }

    /// Record layout.
    pub fn record_layout(&self) -> &RecordLayout {
        &self.layout
    }

    /// Number of heap record slots configured.
    pub fn record_count(&self) -> u32 {
        self.cfg.records
    }

    /// Number of heap pages.
    pub fn heap_pages(&self) -> u32 {
        self.heap_pages
    }

    /// Total simulated log forces so far (all causes).
    pub fn total_log_forces(&self) -> u64 {
        self.logs.total_forces()
    }

    /// The observability handle (cross-layer event bus + metrics
    /// registry), shared with the underlying machine: coherence, lock,
    /// WAL, buffer, and recovery events all land on one sequence-numbered
    /// timeline. Clone semantics — the returned handle observes the same
    /// state as the engine's own.
    pub fn observability(&self) -> Obs {
        self.m.obs_handle()
    }

    /// Convenience: switch observability on — bus (ring of `bus_capacity`
    /// records; 0 means the default), metrics, spans and timeline.
    pub fn enable_observability(&self, bus_capacity: usize) {
        self.m.obs().enable(bus_capacity);
    }

    /// Machine-wide simulated makespan, cycles.
    pub fn max_clock(&self) -> u64 {
        self.m.max_clock()
    }

    /// Synchronise every live node's clock to the makespan (a barrier).
    /// Benchmarks call this before injecting a crash so the availability
    /// window (crash → first post-recovery commit) is measured from a
    /// common time origin rather than being offset by whatever clock skew
    /// the pre-crash workload left behind.
    pub fn sync_clocks(&mut self) {
        self.m.sync_clocks();
    }

    /// The built-in shadow model (for the IFA oracle).
    pub fn shadow(&self) -> &ShadowDb {
        &self.shadow
    }

    /// The state of a *live* transaction: in flight, committing, or
    /// aborted by a recovery while its commit record is still on its home
    /// log. `None` once the transaction has settled — its operations and
    /// participants are gone; [`SmDb::txn_status`] still answers for it.
    pub fn txn(&self, txn: TxnId) -> Option<&TxnState> {
        self.txns.get(txn)
    }

    /// The status of any transaction this engine ever began (`None` for an
    /// id it never issued).
    pub fn txn_status(&self, txn: TxnId) -> Option<TxnStatus> {
        self.txns.status(txn)
    }

    /// Currently active transactions, optionally filtered by node.
    pub fn active_txns(&self, node: Option<NodeId>) -> Vec<TxnId> {
        self.txns
            .live()
            .filter(|t| t.is_active() && node.map(|n| t.id.node() == n).unwrap_or(true))
            .map(|t| t.id)
            .collect()
    }

    /// Account one walk of the active table by `crash`, `recover` or
    /// `checkpoint` (`restart.txn_entries_visited`): the count must follow
    /// the transactions live at the time, never the history behind them.
    pub(crate) fn note_table_walk(&self) {
        self.m.obs().metrics.add(names::RESTART_TXN_ENTRIES_VISITED, self.txns.live_len() as u64);
    }

    pub(crate) fn lock_name_for_rec(slot: u64) -> u64 {
        smdb_lock::names::name_for_rec(slot)
    }

    pub(crate) fn lock_name_for_key(key: u64) -> u64 {
        smdb_lock::names::name_for_key(key)
    }

    /// Whether a line address belongs to the record heap.
    pub(crate) fn is_heap_line(&self, line: LineId) -> bool {
        line.0 < self.heap_pages as u64 * self.cfg.lines_per_page as u64
    }

    fn check_active(&self, txn: TxnId) -> Result<(), DbError> {
        match self.txns.get(txn) {
            // A pipelined commit in flight (`committing`) accepts no
            // further operations: its commit record is already appended.
            Some(t) if t.is_active() && !t.committing => Ok(()),
            _ => Err(DbError::TxnNotActive { txn }),
        }
    }

    pub(crate) fn check_slot(&self, slot: u64) -> Result<RecId, DbError> {
        if slot >= self.cfg.records as u64 {
            return Err(DbError::NoSuchRecord { slot });
        }
        Ok(self.layout.rec_of_global(slot))
    }

    /// Acquire a record/key lock for `txn` under the no-wait policy,
    /// acting on the home node.
    fn lock(&mut self, txn: TxnId, name: u64, mode: LockMode) -> Result<(), DbError> {
        self.lock_from(txn, name, mode, txn.node())
    }

    /// Acquire a record/key lock with the lock-table work on `acting`.
    fn lock_from(
        &mut self,
        txn: TxnId,
        name: u64,
        mode: LockMode,
        acting: NodeId,
    ) -> Result<(), DbError> {
        // Execution lane (epoch-parallel): every lock of the running
        // transaction's plan was granted serially by the scheduler on the
        // parent manager before the lane ran, in its strongest needed
        // mode, and a lane runs one transaction at a time. Membership in
        // that plan is the grant; the LCB lines stay parent-owned and are
        // never touched from a lane. A miss means the admitted footprint
        // was wrong — surface it as a conflict so the lane aborts the
        // transaction and the scheduler retries it serially.
        if let Some(plan) = &self.mt_plan {
            if plan.contains(&name) {
                return Ok(());
            }
            self.stats.would_blocks += 1;
            return Err(DbError::WouldBlock { txn, lock: name });
        }
        let spans_on = self.m.obs().is_enabled();
        let t0 = if spans_on { self.m.now(acting) } else { 0 };
        let outcome = if self.cfg.lock_poll {
            self.locks.poll_from(&mut self.m, &mut self.logs, txn, name, mode, acting)
        } else {
            self.locks.acquire_from(&mut self.m, &mut self.logs, txn, name, mode, acting)
        };
        if spans_on {
            let waited = self.m.now(acting).saturating_sub(t0);
            self.m.obs().spans.add(txn.0, Stage::LockWait, waited);
        }
        match outcome? {
            LockOutcome::Granted => {
                // Controlled lock violation: acquiring a name a
                // not-yet-durable committer released early inherits a
                // commit-LSN dependency on each such releaser.
                if self.cfg.early_lock_release {
                    self.inherit_violation_deps(txn, name);
                }
                self.redo_on_lock(txn, name, acting)?;
                Ok(())
            }
            LockOutcome::AlreadyHeld => {
                self.redo_on_lock(txn, name, acting)?;
                Ok(())
            }
            LockOutcome::Waiting => {
                self.stats.would_blocks += 1;
                // A polled conflict parked nothing in the LCB, so there is
                // no queued request to remember (or cancel on abort).
                if !self.cfg.lock_poll {
                    req(self.txns.get_mut(txn), "a waiting txn is live")?.waits.push(name);
                }
                Err(DbError::WouldBlock { txn, lock: name })
            }
        }
    }

    /// Controlled lock violation bookkeeping: `txn` now holds `name`, so it
    /// inherits a commit-LSN dependency on every not-yet-durable committer
    /// that released the name early.
    fn inherit_violation_deps(&mut self, txn: TxnId, name: u64) {
        let edges = self.violations.deps_for(name, txn);
        if edges.is_empty() {
            return;
        }
        let obs = self.m.obs();
        if obs.is_enabled() {
            obs.metrics.add(names::TXN_COMMIT_DEPS, edges.len() as u64);
        }
        self.stats.commit_deps += edges.len() as u64;
        if let Some(t) = self.txns.get_mut(txn) {
            t.inherited.extend(edges.into_iter().map(|e| InheritedDep {
                releaser: e.releaser,
                commit_lsn: e.commit_lsn,
                name,
            }));
        }
    }

    /// Instant restart: a granted record lock must not let its holder
    /// bypass the record's pending redo — the line may still carry the
    /// stale pre-crash image. Apply the line's deferred entries inline,
    /// charging the cycles to the accessor's force-wait stage (the
    /// transaction is waiting on recovery work, not executing).
    fn redo_on_lock(&mut self, txn: TxnId, name: u64, acting: NodeId) -> Result<(), DbError> {
        if self.redo_pending() == 0 {
            return Ok(());
        }
        let Some(slot) = smdb_lock::names::rec_slot_of_name(name) else {
            return Ok(()); // key locks guard the (fully recovered) index
        };
        if slot >= self.cfg.records as u64 {
            return Ok(());
        }
        let line = self.rec_line(self.layout.rec_of_global(slot));
        let spans_on = self.m.obs().is_enabled();
        let t0 = if spans_on { self.m.now(acting) } else { 0 };
        self.ensure_line_recovered(acting, line)?;
        if spans_on {
            let cycles = self.m.now(acting).saturating_sub(t0);
            if cycles > 0 {
                self.m.obs().spans.add(txn.0, Stage::ForceWait, cycles);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transaction API
    // ------------------------------------------------------------------

    /// Begin a transaction on `node`. Nothing is logged: the transaction
    /// table records it, and its first record on any log is its first
    /// lock or data record — where the checkpoint's undo floor and lock
    /// replay start for it.
    pub fn begin(&mut self, node: NodeId) -> Result<TxnId, DbError> {
        if self.m.is_crashed(node) {
            return Err(DbError::NodeDown { node });
        }
        let txn = self.txns.begin(node);
        self.stats.begins += 1;
        let obs = self.m.obs();
        if obs.is_enabled() {
            obs.spans.begin(txn.0, node.0, self.m.now(node));
            obs.timeline.on_begin(self.m.max_clock(), self.txns.in_flight());
        }
        Ok(txn)
    }

    /// Enlist another node in a (now parallel) transaction — §9. Its
    /// subsequent operations may execute on any participant via
    /// [`SmDb::read_on`]/[`SmDb::update_on`]; if *any* participant
    /// crashes, recovery aborts the whole transaction.
    pub fn attach(&mut self, txn: TxnId, node: NodeId) -> Result<(), DbError> {
        self.check_active(txn)?;
        if self.m.is_crashed(node) {
            return Err(DbError::NodeDown { node });
        }
        req(self.txns.get_mut(txn), "txn checked active")?.participants.insert(node);
        Ok(())
    }

    /// Read record `slot` under a shared lock. Returns the payload bytes.
    pub fn read(&mut self, txn: TxnId, slot: u64) -> Result<Vec<u8>, DbError> {
        self.read_on(txn, txn.node(), slot)
    }

    /// [`SmDb::read`] executed on a participant node of a parallel
    /// transaction.
    pub fn read_on(&mut self, txn: TxnId, node: NodeId, slot: u64) -> Result<Vec<u8>, DbError> {
        self.check_active(txn)?;
        self.check_participant(txn, node)?;
        let rec = self.check_slot(slot)?;
        self.lock_from(txn, Self::lock_name_for_rec(slot), LockMode::Shared, node)?;
        let off = self.layout.payload_offset(rec.slot);
        let mut buf = vec![0u8; self.layout.data_size];
        self.forward(txn, node, |ctx, _| Ok(ctx.read(node, rec.page, off, &mut buf)?))?;
        self.stats.reads += 1;
        Ok(buf)
    }

    /// One forward operation of `txn` on `node`: `op` runs on a context
    /// that tallies the force cycles charged to `node`, next to the index
    /// (if any). On success the context's LBM counters fold into the
    /// engine's, and `node`'s clock delta goes to the span as `ForceWait`
    /// (those force cycles) and `Execute` (the rest).
    fn forward<R>(
        &mut self,
        txn: TxnId,
        node: NodeId,
        op: impl FnOnce(&mut TreeCtx<'_>, Option<&mut BTree>) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        let spans_on = self.m.obs().is_enabled();
        let t0 = if spans_on { self.m.now(node) } else { 0 };
        let mut ctx = tree_ctx!(self).with_attribution(node);
        let out = op(&mut ctx, self.tree.as_mut())?;
        let force_cycles = ctx.attr_force_cycles;
        self.stats.add_lbm(&ctx);
        if spans_on {
            let cycles = self.m.now(node).saturating_sub(t0);
            let obs = self.m.obs();
            obs.spans.add(txn.0, Stage::ForceWait, force_cycles);
            obs.spans.add(txn.0, Stage::Execute, cycles.saturating_sub(force_cycles));
        }
        Ok(out)
    }

    fn check_participant(&self, txn: TxnId, node: NodeId) -> Result<(), DbError> {
        if self.m.is_crashed(node) {
            return Err(DbError::NodeDown { node });
        }
        let t = self.txns.get(txn).ok_or(DbError::TxnNotActive { txn })?;
        if !t.runs_on(node) {
            return Err(DbError::NotParticipant { txn, node });
        }
        Ok(())
    }

    /// Update record `slot` to `data` (padded to the record payload size)
    /// under an exclusive lock, following the §6 update protocol.
    pub fn update(&mut self, txn: TxnId, slot: u64, data: &[u8]) -> Result<(), DbError> {
        self.update_on(txn, txn.node(), slot, data)
    }

    /// [`SmDb::update`] executed on a participant node of a parallel
    /// transaction (§9). The log record goes to the *executing* node's
    /// log and the undo tag carries the executing node's id.
    pub fn update_on(
        &mut self,
        txn: TxnId,
        node: NodeId,
        slot: u64,
        data: &[u8],
    ) -> Result<(), DbError> {
        self.check_active(txn)?;
        self.check_participant(txn, node)?;
        let rec = self.check_slot(slot)?;
        if data.len() > self.layout.data_size {
            return Err(DbError::PayloadTooLarge { len: data.len(), max: self.layout.data_size });
        }
        self.lock_from(txn, Self::lock_name_for_rec(slot), LockMode::Exclusive, node)?;
        let obs_on = self.m.obs().is_enabled();
        let update_t0 = if obs_on { self.m.now(node) } else { 0 };
        let tagging = self.cfg.protocol.uses_undo_tags();
        let mut payload = vec![0u8; self.layout.data_size];
        payload[..data.len()].copy_from_slice(data);

        let geometry = self.layout.geometry;
        let page_lsn_line = LineId(geometry.line_addr(rec.page, 0));
        let (line_idx, _) = self.layout.line_and_offset(rec.slot);
        let rec_line = LineId(geometry.line_addr(rec.page, line_idx));
        let rec_off = self.layout.page_offset(rec.slot);
        let payload_off = self.layout.payload_offset(rec.slot);
        if tagging {
            self.tags.set(node.0, rec_line);
        }

        let mut ctx = tree_ctx!(self).with_attribution(node);
        // Fault the page in before taking line locks.
        ctx.ensure_resident(node, rec.page)?;
        // §5.2 triggers must fire *before* the line locks migrate the
        // lines to this node.
        ctx.enforce_trigger(node, page_lsn_line, true)?;
        ctx.enforce_trigger(node, rec_line, true)?;
        // §6: line locks on the Page-LSN line and the record's line for
        // the duration of update + log write (ordered update logging +
        // volatile LBM).
        ctx.m.getline(node, page_lsn_line)?;
        if rec_line != page_lsn_line {
            ctx.m.getline(node, rec_line)?;
        }
        let mut append_cycles = 0u64;
        let result: Result<(u64, [LineSpan; 2], Bytes), DbError> = (|| {
            // Before image (the last committed value under strict 2PL —
            // or our own earlier write; the log keeps per-update images so
            // rollback replays them in reverse). Undo and redo images are
            // zero-copy views of one backing buffer: a single allocation
            // serves the log record and the rollback bookkeeping.
            let ds = self.layout.data_size;
            let mut img = vec![0u8; 2 * ds];
            ctx.read(node, rec.page, payload_off, &mut img[..ds])?;
            img[ds..].copy_from_slice(&payload);
            let backing = Bytes::from(img);
            let before = backing.slice(..ds);
            let gsn = ctx.next_gsn();
            let append_t0 = ctx.m.now(node);
            let lsn = ctx.logs.append(
                node,
                LogPayload::Update {
                    txn,
                    rec,
                    undo: before.clone(),
                    redo: backing.slice(ds..),
                    gsn,
                },
            );
            let at = ctx.m.now(node);
            append_cycles = at.saturating_sub(append_t0);
            if obs_on {
                ctx.m.obs().metrics.add(APPEND_BYTES_COUNTER, 2 * ds as u64);
            }
            ctx.m.obs().bus.emit(at, || ObsEvent::WalAppend { node: node.0, lsn: lsn.0 });
            // In-place update: tag + payload share the record's line.
            let tag = if tagging { node.0 } else { NULL_TAG };
            let rec_bytes = self.layout.encode(tag, &payload);
            let data_span = ctx.write(node, rec.page, rec_off, &rec_bytes)?;
            let lsn_span = ctx.note_update(node, rec.page, lsn)?;
            Ok((gsn, [data_span, lsn_span], before))
        })();
        // Release line locks before propagating errors.
        let _ = ctx.m.releaseline(node, page_lsn_line);
        if rec_line != page_lsn_line {
            let _ = ctx.m.releaseline(node, rec_line);
        }
        let (_gsn, touched, before) = result?;
        // LBM policy (eager force or active-bit marking): the forces it
        // charges to this node's clock are the force-wait span stage.
        let policy = ctx.after_update(node, &touched);
        let force_cycles = ctx.attr_force_cycles;
        self.stats.add_lbm(&ctx);
        policy?;
        if tagging {
            self.stats.undo_tag_writes += 1;
            self.stats.undo_tag_bytes += TAG_SIZE as u64;
        }
        self.stats.updates += 1;
        if obs_on {
            let cycles = self.m.now(node).saturating_sub(update_t0);
            let obs = self.m.obs();
            obs.metrics.observe(UPDATE_CYCLES_HISTOGRAM, cycles);
            // Stage attribution: the appends and forces measured above,
            // the remainder of this node's clock delta as execution —
            // stage sums stay within epsilon of the span's total latency.
            obs.spans.add(txn.0, Stage::LogAppend, append_cycles);
            obs.spans.add(txn.0, Stage::ForceWait, force_cycles);
            let execute = cycles.saturating_sub(append_cycles + force_cycles);
            obs.spans.add(txn.0, Stage::Execute, execute);
        }
        let t = req(self.txns.get_mut(txn), "txn checked active")?;
        t.ops.push(TxnOp::Update { rec, before, node });
        self.shadow.note_update(txn, slot, payload);
        Ok(())
    }

    /// Insert `key → value` into the index under an exclusive key lock.
    pub fn insert(&mut self, txn: TxnId, key: u64, value: [u8; VAL_SIZE]) -> Result<(), DbError> {
        self.check_active(txn)?;
        if self.tree.is_none() {
            return Err(DbError::NoIndex);
        }
        self.lock(txn, Self::lock_name_for_key(key), LockMode::Exclusive)?;
        self.forward(txn, txn.node(), |ctx, tree| {
            Ok(req(tree, INDEX_OP)?.insert(ctx, txn, key, value)?)
        })?;
        if self.cfg.protocol.uses_undo_tags() {
            self.stats.undo_tag_writes += 1;
            self.stats.undo_tag_bytes += TAG_SIZE as u64;
        }
        self.stats.index_inserts += 1;
        let t = req(self.txns.get_mut(txn), "txn checked active")?;
        t.ops.push(TxnOp::IndexInsert { key });
        self.shadow.note_index_insert(txn, key, value);
        Ok(())
    }

    /// Look up `key` in the index under a shared key lock.
    pub fn lookup(&mut self, txn: TxnId, key: u64) -> Result<Option<[u8; VAL_SIZE]>, DbError> {
        self.check_active(txn)?;
        if self.tree.is_none() {
            return Err(DbError::NoIndex);
        }
        self.lock(txn, Self::lock_name_for_key(key), LockMode::Shared)?;
        let node = txn.node();
        let hit =
            self.forward(txn, node, |ctx, tree| Ok(req(tree, INDEX_OP)?.search(ctx, node, key)?))?;
        Ok(hit.map(|h| h.entry.value))
    }

    /// Range lookup over the index: returns the live `(key, value)` pairs
    /// in `[lo, hi]`, taking a shared lock on each returned key (committed
    /// read of current entries; phantom protection would need predicate
    /// locks, which the paper's model does not include).
    pub fn range_lookup(
        &mut self,
        txn: TxnId,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, [u8; VAL_SIZE])>, DbError> {
        self.check_active(txn)?;
        if self.tree.is_none() {
            return Err(DbError::NoIndex);
        }
        let node = txn.node();
        let hits = self.forward(txn, node, |ctx, tree| {
            Ok(req(tree, INDEX_OP)?.range_live(ctx, node, lo, hi)?)
        })?;
        for (key, _) in &hits {
            self.lock(txn, Self::lock_name_for_key(*key), LockMode::Shared)?;
        }
        Ok(hits)
    }

    /// Logically delete `key` from the index under an exclusive key lock.
    pub fn delete(&mut self, txn: TxnId, key: u64) -> Result<(), DbError> {
        self.check_active(txn)?;
        if self.tree.is_none() {
            return Err(DbError::NoIndex);
        }
        self.lock(txn, Self::lock_name_for_key(key), LockMode::Exclusive)?;
        self.forward(txn, txn.node(), |ctx, tree| Ok(req(tree, INDEX_OP)?.delete(ctx, txn, key)?))?;
        if self.cfg.protocol.uses_undo_tags() {
            self.stats.undo_tag_writes += 1;
            self.stats.undo_tag_bytes += TAG_SIZE as u64;
        }
        self.stats.index_deletes += 1;
        let t = req(self.txns.get_mut(txn), "txn checked active")?;
        t.ops.push(TxnOp::IndexDelete { key });
        self.shadow.note_index_delete(txn, key);
        Ok(())
    }

    /// Apply one generated operation on behalf of `txn`. An insert of a
    /// key that is already present, or a delete of one that is not, counts
    /// as done: a retried transaction may meet the effects of an
    /// independent earlier attempt at the same keys. An add on records
    /// shorter than eight bytes is refused before it touches the machine.
    pub fn apply(&mut self, txn: TxnId, op: &Op) -> Result<(), DbError> {
        match op {
            Op::Read(slot) => self.read(txn, *slot).map(drop),
            Op::Update(slot, v) => self.update(txn, *slot, v),
            Op::Add(slot, delta) => {
                if self.layout.data_size < 8 {
                    return Err(DbError::PayloadTooLarge { len: 8, max: self.layout.data_size });
                }
                let cur = self.read(txn, *slot)?;
                let bal = i64::from_le_bytes(cur[..8].try_into().expect("8 bytes"));
                self.update(txn, *slot, &bal.wrapping_add(*delta).to_le_bytes())
            }
            Op::Insert(k, v) => match self.insert(txn, *k, *v) {
                Err(DbError::Btree(BtreeError::DuplicateKey { .. })) => Ok(()),
                other => other,
            },
            Op::Delete(k) => match self.delete(txn, *k) {
                Err(DbError::Btree(BtreeError::KeyNotFound { .. })) => Ok(()),
                other => other,
            },
        }
    }

    /// What both commit flavours do before their commit record exists: the
    /// pre-append crash point (a crash here dooms the transaction) and, for
    /// parallel transactions (§9), a force of every other participant's
    /// log — their updates must be durable before the home node's commit
    /// record. Participant forces advance the *participants'* clocks, so
    /// they stay outside the home-clock span total. Returns the home clock
    /// the commit stage starts at (0 with spans off).
    fn commit_prologue(&mut self, txn: TxnId) -> Result<u64, DbError> {
        self.check_active(txn)?;
        let node = txn.node();
        if let Some(c) = self.fault.hit(FAULT_COMMIT, node.0) {
            return Err(DbError::FaultCrash(c));
        }
        let t = req(self.txns.get(txn), "txn checked active")?;
        if t.is_parallel() {
            let participants = t.participants.clone();
            for &p in participants.as_slice().iter().filter(|p| **p != node) {
                self.commit_force(p, self.logs.log(p).last_lsn())?;
            }
        }
        Ok(if self.m.obs().is_enabled() { self.m.now(node) } else { 0 })
    }

    /// A commit-path log force on `node` through `upto`.
    pub(crate) fn commit_force(&mut self, node: NodeId, upto: Lsn) -> Result<(), DbError> {
        if self.logs.force(&mut self.m, node, upto, ForceReason::Commit)? > 0 {
            self.stats.commit_forces += 1;
        }
        Ok(())
    }

    /// Append `txn`'s commit record to its home log.
    fn append_commit(&mut self, txn: TxnId, deps: Vec<CommitDep>) -> Lsn {
        let node = txn.node();
        let lsn = self.logs.append(node, LogPayload::Commit { txn, deps });
        self.m
            .obs()
            .bus
            .emit(self.m.now(node), || ObsEvent::WalAppend { node: node.0, lsn: lsn.0 });
        lsn
    }

    /// Commit `txn` synchronously: make the chain it rests on durable,
    /// append its commit record, force it, and acknowledge it at once
    /// (strict 2PL: its locks go then). Only `txn` is acknowledged; its
    /// predecessors stay pending for the next drain. A transaction that
    /// logged no data record (no heap update, no index insert or delete)
    /// has nothing a commit record would make durable: once the chain it
    /// read from is durable it is acknowledged with no record and no force.
    ///
    /// Inside an epoch lane the record is appended but not forced: the
    /// lane forces its last commit record once, before it returns (`mt`
    /// module docs, step 2).
    pub fn commit(&mut self, txn: TxnId) -> Result<(), DbError> {
        let node = txn.node();
        let commit_t0 = self.commit_prologue(txn)?;
        // Restart relies on acknowledged ⇒ settled: the chain this commit
        // rests on must be durable first. A member that can never settle
        // means it saw data that will never commit — a retryable conflict,
        // before anything is appended; the caller aborts and retries.
        let deps = self.commit_deps_for(txn);
        if self.drain_for(&deps)?.is_some() {
            req(self.txns.get_mut(txn), "txn checked active")?.inherited.clear();
            return Err(DbError::WouldBlock { txn, lock: 0 });
        }
        let read_only = req(self.txns.get(txn), "txn checked active")?.ops.is_empty();
        let (lsn, appended_at) = if read_only {
            (Lsn::ZERO, self.m.now(node))
        } else {
            let lsn = self.append_commit(txn, deps);
            let appended_at = self.m.now(node);
            // A lane's commit is invisible outside the lane until the
            // barrier merges it, and the lane forces first.
            if self.mt_plan.is_none() {
                self.drain_for(&[CommitDep { txn, lsn }])?;
            }
            (lsn, appended_at)
        };
        // Crash point: the commit record is durable but post-commit
        // processing (tag clears, delete reclaim, lock release) has not
        // run — recovery must treat the transaction as committed. A
        // read-only transaction has no record: it dies active and is
        // aborted, which undoes nothing. Inside an epoch lane the record
        // here is not yet durable (the lane's one force comes last);
        // lanes are not crash-hardened, and VOPR pauses its faults across
        // `run_epochs` (ROADMAP item 2).
        if let Some(c) = self.fault.hit(FAULT_COMMIT, node.0) {
            return Err(DbError::FaultCrash(c));
        }
        if self.m.obs().is_enabled() {
            self.m.obs().spans.add(txn.0, Stage::Commit, appended_at.saturating_sub(commit_t0));
        }
        // Its dependencies are durable already; the entry waits on none.
        let deps = Vec::new();
        self.acknowledge(PendingCommit { txn, lsn, deps, appended_at, locks_held: true })?;
        if read_only {
            self.m.obs().metrics.inc(names::TXN_COMMITTED_READ_ONLY);
        }
        Ok(())
    }

    /// The not-yet-acknowledged commit-LSN dependencies `txn` inherited,
    /// deduplicated per predecessor. The per-name list stays in the
    /// transaction's entry until acknowledgement or abort — recovery's
    /// cascade analysis needs the violated names.
    fn commit_deps_for(&self, txn: TxnId) -> Vec<CommitDep> {
        let mut deps: Vec<CommitDep> = Vec::new();
        if let Some(t) = self.txns.get(txn) {
            for d in &t.inherited {
                let unacked =
                    self.txns.status(d.releaser).is_some_and(|s| s != TxnStatus::Committed);
                if unacked && !deps.iter().any(|c| c.txn == d.releaser) {
                    deps.push(CommitDep { txn: d.releaser, lsn: d.commit_lsn });
                }
            }
        }
        deps
    }

    /// **The** commit-record force, over the chain rooted at `roots`: the
    /// roots and, transitively, every unacknowledged dependency a pending
    /// member recorded, walked breadth-first. The walk stops at a member
    /// that can never settle (home down, record still volatile) and
    /// returns it. Each live home on the walked chain is forced once,
    /// through its highest LSN there, in a schedulable order (forces
    /// advance clocks and fire crash points; node order by default).
    fn drain_for(&mut self, roots: &[CommitDep]) -> Result<Option<TxnId>, DbError> {
        let mut chain: Vec<CommitDep> = Vec::new();
        let (mut i, mut never) = (0, None);
        while let Some(&d) = roots.get(i).or_else(|| chain.get(i - roots.len())) {
            let home = d.txn.node();
            if self.m.is_crashed(home) && self.logs.log(home).durable_lsn() < d.lsn {
                never = Some(d.txn);
                break;
            }
            let recorded = self.pending_commits.iter().filter(|p| p.txn == d.txn);
            for dep in recorded.flat_map(|p| &p.deps) {
                let known = roots.iter().chain(&chain).any(|c| c.txn == dep.txn);
                if !known && !self.acknowledged(dep.txn) {
                    chain.push(*dep);
                }
            }
            i += 1;
        }
        let upto = |db: &Self, n: NodeId| {
            let on_n = roots.iter().chain(&chain).take(i).filter(|d| d.txn.node() == n);
            on_n.map(|d| d.lsn).max().filter(|_| !db.m.is_crashed(n))
        };
        // A pick is remembered only if another follows: a one-home drain
        // (a synchronous commit's own record) allocates nothing.
        let mut picked: Vec<NodeId> = Vec::new();
        let homes = self.m.node_ids().filter(|&n| upto(self, n).is_some()).count();
        for left in (1..=homes).rev() {
            let k = self.sched.choose("core.drain.force", left);
            let unpicked = self.m.node_ids().filter(|n| !picked.contains(n));
            let home = unpicked.filter_map(|n| Some((n, upto(self, n)?))).nth(k);
            let (node, lsn) = req(home, "a drain pick names a live home")?;
            picked.extend((left > 1).then_some(node));
            if self.logs.log(node).durable_lsn() < lsn {
                self.commit_force(node, lsn)?;
            }
        }
        Ok(never)
    }

    /// Pipelined commit (group commit): append the commit record and
    /// return *without* forcing — acknowledgement is deferred to
    /// [`SmDb::drain_commit_pipeline`], which covers a whole batch with
    /// one physical force per node.
    ///
    /// Under [`DbConfig::early_lock_release`] the transaction's locks are
    /// released *now*, at append time (controlled lock violation): the
    /// released exclusive names are recorded as violation edges, so a
    /// successor acquiring one inherits a commit-LSN dependency instead of
    /// blocking until the force. The transaction stays `Active` with the
    /// `committing` flag set — a crash before the covering force dooms it
    /// (and cascades through its dependents) exactly like any active
    /// transaction.
    pub fn commit_pipelined(&mut self, txn: TxnId) -> Result<(), DbError> {
        let node = txn.node();
        let commit_t0 = self.commit_prologue(txn)?;
        let deps = self.commit_deps_for(txn);
        let lsn = self.append_commit(txn, deps.clone());
        let locks_held = !self.cfg.early_lock_release;
        if !locks_held {
            let (released, promoted) =
                self.locks.early_release_all(&mut self.m, &mut self.logs, txn)?;
            let xnames: Vec<u64> = released
                .iter()
                .filter(|(_, m)| *m == LockMode::Exclusive)
                .map(|(n, _)| *n)
                .collect();
            self.stats.early_lock_releases += xnames.len() as u64;
            self.violations.record_release(txn, lsn, &xnames);
            req(self.txns.get_mut(txn), "txn checked active")?.waits.clear();
            // A promoted waiter acquires the (possibly still violated)
            // name without passing through the `lock_from` inheritance
            // hook — inherit its dependencies here.
            for (name, entry) in promoted {
                self.inherit_violation_deps(entry.txn, name);
                if let Some(waiter) = self.txns.get_mut(entry.txn) {
                    waiter.waits.retain(|n| *n != name);
                }
            }
        }
        // Crash point: commit record appended, locks (possibly) released,
        // no covering force yet — a crash here dooms the transaction and
        // must cascade through every dependent.
        if let Some(c) = self.fault.hit(FAULT_COMMIT_DEP, node.0) {
            return Err(DbError::FaultCrash(c));
        }
        let appended_at = self.m.now(node);
        if self.m.obs().is_enabled() {
            self.m.obs().spans.add(txn.0, Stage::Commit, appended_at.saturating_sub(commit_t0));
        }
        req(self.txns.get_mut(txn), "txn checked active")?.committing = true;
        self.pending_commits.push(PendingCommit { txn, lsn, deps, appended_at, locks_held });
        Ok(())
    }

    /// Drain the commit pipeline: force the chain of every pending commit
    /// on a live home (one group force per live home), then acknowledge
    /// every pending commit that settled. Returns how many it acknowledged.
    pub fn drain_commit_pipeline(&mut self) -> Result<usize, DbError> {
        // A commit homed on a crashed node waits for its recovery; as a
        // root it would end the walk before the live homes.
        let live = self.pending_commits.iter().filter(|p| !self.m.is_crashed(p.txn.node()));
        let roots: Vec<CommitDep> = live.map(|p| CommitDep { txn: p.txn, lsn: p.lsn }).collect();
        self.drain_for(&roots)?;
        self.ack_scan()
    }

    /// Whether `txn`'s commit has been acknowledged.
    pub(crate) fn acknowledged(&self, txn: TxnId) -> bool {
        self.txns.status(txn) == Some(TxnStatus::Committed)
    }

    /// **The** settled predicate over a commit's recorded dependencies:
    /// each is acknowledged or counted by `settled` — by nothing more for
    /// an acknowledgement ([`Self::ack_scan`]), by membership in the
    /// crash's fixpoint ([`SmDb::settled_unacked_commits`]). An unknown
    /// predecessor is not acknowledged; only an epoch lane's table lacks
    /// transactions, and lane commits record no dependencies.
    pub(crate) fn deps_settled(&self, deps: &[CommitDep], settled: impl Fn(TxnId) -> bool) -> bool {
        deps.iter().all(|d| self.acknowledged(d.txn) || settled(d.txn))
    }

    /// Acknowledge every pending commit whose record is durable and whose
    /// dependency predecessors have all been acknowledged, iterating to a
    /// fixpoint so a whole dependency chain settles in one call once the
    /// covering forces are in.
    fn ack_scan(&mut self) -> Result<usize, DbError> {
        let mut acked = 0usize;
        loop {
            // Any settled pending commit may be acknowledged next; the order
            // is observable (post-commit processing touches shared pages),
            // so the pick is schedulable. Choice 0 = lowest index = append
            // order, the historical behavior.
            let mut ready: Vec<usize> = Vec::new();
            for (i, p) in self.pending_commits.iter().enumerate() {
                let durable = self.logs.log(p.txn.node()).durable_lsn() >= p.lsn;
                if durable && self.deps_settled(&p.deps, |_| false) {
                    ready.push(i);
                    if !self.sched.is_enabled() {
                        break;
                    }
                }
            }
            if ready.is_empty() {
                break;
            }
            let i = ready[self.sched.choose("core.ack.pick", ready.len())];
            let p = self.pending_commits.remove(i);
            self.acknowledge(p)?;
            acked += 1;
        }
        Ok(acked)
    }

    /// **The** acknowledgement of a durable commit: post-commit processing
    /// with the wait since the append attributed to force wait.
    fn acknowledge(&mut self, p: PendingCommit) -> Result<(), DbError> {
        let spans_on = self.m.obs().is_enabled();
        let waited =
            if spans_on { self.m.now(p.txn.node()).saturating_sub(p.appended_at) } else { 0 };
        self.finish_commit(&p, waited)
    }

    /// Post-commit processing of an acknowledged commit: undo-tag clears,
    /// delete reclaim, lock release (or, when the locks were released
    /// early at append time, violation resolution), the flip to
    /// `Committed`, and span / metric / timeline emission with
    /// `force_wait` cycles attributed to the force-wait stage.
    fn finish_commit(&mut self, p: &PendingCommit, force_wait: u64) -> Result<(), DbError> {
        let (txn, node) = (p.txn, p.txn.node());
        let spans_on = self.m.obs().is_enabled();
        let t0 = if spans_on { self.m.now(node) } else { 0 };
        // The entry retires here, so its operation list moves out with it;
        // a failure (an injected crash mid-processing) puts it back.
        let t = req(self.txns.take(txn), "committing txn present in table")?;
        if let Err(e) = self.post_commit(&t, !p.locks_held) {
            self.txns.restore(t);
            return Err(e);
        }
        self.stats.commits += 1;
        let obs = self.m.obs();
        if spans_on {
            let end_at = self.m.now(node);
            obs.spans.add(txn.0, Stage::ForceWait, force_wait);
            obs.spans.add(txn.0, Stage::Commit, end_at.saturating_sub(t0));
            let mut latency = 0;
            if let Some(span) = obs.spans.end(txn.0, end_at, true) {
                latency = span.latency();
                obs.metrics.observe(names::TXN_LATENCY_CYCLES, latency);
            }
            obs.metrics.inc(names::TXN_COMMITTED);
            obs.timeline.on_commit(self.m.max_clock(), latency, self.txns.in_flight());
        }
        // Its lock releases were its last act and are not logged: nothing
        // of it is appended again.
        self.retire(txn, Fate::Committed);
        Ok(())
    }

    /// **The** way out of the transaction table, whatever ends `txn` — a
    /// commit or its pipelined acknowledgement, a voluntary abort, a
    /// promotion by a crash, a restart's rollback. The table settles it,
    /// the shadow keeps or drops its effects, and everything else keyed by
    /// its id is let go: the logs' first-record entries (it appends nothing
    /// further: callers retire after its last record), its lock chain (its
    /// LCB entries were released, or scrubbed by lock recovery), its
    /// violation edges (successors stop inheriting; its own dependencies
    /// went with its entry) and a span its exit did not end on its home
    /// clock, which can never be ended consistently. Counting the exit is
    /// the caller's. Idempotent, so what a later step logs under a retired
    /// id can be retired by calling it again.
    pub(crate) fn retire(&mut self, txn: TxnId, fate: Fate) {
        match fate {
            Fate::Committed => {
                self.txns.settle_committed(txn);
                self.shadow.commit(txn);
            }
            Fate::Aborted => {
                // The entry stays in the active table, stripped to the
                // status, only if a commit record of its sits on its home
                // log: stable now or forced later, that record keeps
                // entering the commit-dependency fixpoint
                // ([`SmDb::settled_unacked_commits`]), which must go on
                // refusing it.
                let owed = self.logs.log(txn.node()).index().commit_lsn(txn).is_some();
                self.txns.settle_aborted(txn, owed);
                self.shadow.drop_pending(txn);
            }
        }
        self.logs.retire_txn(txn);
        self.locks.drop_chain(txn);
        self.violations.resolve(txn);
        self.m.obs().spans.discard(txn.0);
    }

    /// The fallible half of [`Self::finish_commit`], over the retiring
    /// entry `t`: undo-tag clears, index post-commit processing, and lock
    /// release or violation resolution.
    fn post_commit(&mut self, t: &TxnState, early_released: bool) -> Result<(), DbError> {
        let txn = t.id;
        let node = txn.node();
        // Clear heap undo tags (the data is no longer active — §4.1.2:
        // "Once the data is no longer active, the node ID is assigned a
        // null value").
        if self.cfg.protocol.uses_undo_tags() {
            for rec in t.touched_records() {
                // A successor that inherited the record through early
                // lock release may have re-tagged it and still be in
                // flight: the tag is the successor's responsibility now.
                if early_released {
                    let owned_elsewhere = self.txns.live().any(|o| {
                        o.is_active()
                            && o.ops
                                .iter()
                                .any(|op| matches!(op, TxnOp::Update { rec: r, .. } if *r == rec))
                    });
                    if owned_elsewhere {
                        continue;
                    }
                }
                // The tag clear must land on a recovered line: applying a
                // deferred redo entry afterwards would resurrect the tag.
                self.ensure_line_recovered(node, self.rec_line(rec))?;
                let off = self.layout.page_offset(rec.slot);
                let mut ctx = tree_ctx!(self);
                ctx.write(node, rec.page, off, &NULL_TAG.to_le_bytes())?;
            }
        }
        // Index post-commit processing (tag clears + delete reclaim).
        if let Some(tree) = self.tree.as_mut() {
            let deleted: Vec<u64> = t
                .ops
                .iter()
                .filter_map(|op| match op {
                    TxnOp::IndexDelete { key } => Some(*key),
                    _ => None,
                })
                .collect();
            let mut ctx = tree_ctx!(self);
            for key in t.index_keys() {
                // The physical reclaim of a committed delete is logged so
                // log replay converges to the same physical state.
                if deleted.contains(&key) {
                    let gsn = ctx.next_gsn();
                    ctx.logs.append(node, LogPayload::IndexRemove { txn, key, gsn });
                }
                tree.commit_key(&mut ctx, txn, key)?;
            }
            self.stats.add_lbm(&ctx);
        }
        // Locks `early_released` at append time left violation edges
        // instead; retiring the transaction settles those.
        if !early_released {
            self.locks.release_all(&mut self.m, &mut self.logs, txn)?;
        }
        Ok(())
    }

    /// Pipelined commits currently awaiting acknowledgement.
    pub fn pending_commit_count(&self) -> usize {
        self.pending_commits.len()
    }

    /// Voluntarily abort `txn`: undo all its effects (installing before
    /// images — strict 2PL makes this sufficient), write compensation
    /// records, release locks.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), DbError> {
        self.check_active(txn)?;
        let node = txn.node();
        let spans_on = self.m.obs().is_enabled();
        // The whole rollback body is finalization work: attributed to the
        // commit/abort stage rather than re-execution.
        let abort_t0 = if spans_on { self.m.now(node) } else { 0 };
        let t = req(self.txns.take(txn), "txn checked active")?;
        if let Err(e) = self.rollback(&t) {
            self.txns.restore(t);
            return Err(e);
        }
        self.stats.voluntary_aborts += 1;
        if spans_on {
            let end_at = self.m.now(node);
            let obs = self.m.obs();
            obs.spans.add(txn.0, Stage::Commit, end_at.saturating_sub(abort_t0));
            if let Some(span) = obs.spans.end(txn.0, end_at, false) {
                obs.metrics.observe(names::TXN_LATENCY_CYCLES, span.latency());
            }
            obs.metrics.inc(names::TXN_ABORTED);
            obs.timeline.on_abort(self.m.max_clock(), self.txns.in_flight());
        }
        // A voluntary abort restores every inherited value itself; its
        // commit dependencies die with its entry (it never appended a
        // commit record — `check_active` rejects committing transactions
        // here).
        self.retire(txn, Fate::Aborted);
        Ok(())
    }

    /// The fallible half of [`Self::abort`], over the retiring entry `t`:
    /// restore before images in reverse order under compensation records,
    /// log the abort, withdraw queued lock requests, release the locks.
    fn rollback(&mut self, t: &TxnState) -> Result<(), DbError> {
        let txn = t.id;
        let node = txn.node();
        for op in t.ops.iter().rev() {
            match op {
                TxnOp::Update { rec, before, node: op_node } => {
                    let node = if self.m.is_crashed(*op_node) { node } else { *op_node };
                    // The before-image restore (and the compensation
                    // record's read of the current value) must see a
                    // recovered line, and no deferred entry may land on
                    // top of the restored value afterwards.
                    self.ensure_line_recovered(node, self.rec_line(*rec))?;
                    let mut ctx = tree_ctx!(self);
                    let gsn = ctx.next_gsn();
                    let off = self.layout.page_offset(rec.slot);
                    // Compensation record: redo-image = the restored value.
                    let mut current = vec![0u8; self.layout.data_size];
                    ctx.read(node, rec.page, off + TAG_SIZE, &mut current)?;
                    let lsn = ctx.logs.append(
                        node,
                        LogPayload::Update {
                            txn,
                            rec: *rec,
                            undo: Bytes::copy_from_slice(&current),
                            redo: before.clone(),
                            gsn,
                        },
                    );
                    let rec_bytes = self.layout.encode(NULL_TAG, before);
                    ctx.write(node, rec.page, off, &rec_bytes)?;
                    let _ = ctx.note_update(node, rec.page, lsn)?;
                }
                TxnOp::IndexInsert { key } => {
                    let tree = req(self.tree.as_mut(), "logged op implies an index")?;
                    let mut ctx = tree_ctx!(self);
                    let gsn = ctx.next_gsn();
                    ctx.logs.append(node, LogPayload::IndexRemove { txn, key: *key, gsn });
                    tree.undo_insert(&mut ctx, node, *key)?;
                }
                TxnOp::IndexDelete { key } => {
                    let tree = req(self.tree.as_mut(), "logged op implies an index")?;
                    let mut ctx = tree_ctx!(self);
                    let gsn = ctx.next_gsn();
                    ctx.logs.append(node, LogPayload::IndexUnmark { txn, key: *key, gsn });
                    tree.undo_delete(&mut ctx, node, *key)?;
                }
            }
        }
        self.logs.append(node, LogPayload::Abort { txn });
        // Withdraw any queued lock requests, then release held locks.
        for &name in &t.waits {
            self.locks.cancel_wait(&mut self.m, &mut self.logs, txn, name)?;
        }
        self.locks.release_all(&mut self.m, &mut self.logs, txn)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Buffer management (no-force / steal)
    // ------------------------------------------------------------------

    /// Flush one page to the stable database (a *steal* if it carries
    /// uncommitted data — permitted; the WAL rule forces the updaters'
    /// logs first). `node` performs (and is charged for) the I/O.
    pub fn flush_page(&mut self, node: NodeId, page: PageId) -> Result<(), DbError> {
        self.flush_pages(node, &[page])
    }

    /// [`SmDb::flush_page`] for each of `pages` in order, through one
    /// context: the page image is assembled in the context's buffer, so a
    /// checkpoint's dirty set shares one allocation instead of paying one
    /// (and its zero-fill) per page.
    fn flush_pages(&mut self, node: NodeId, pages: &[PageId]) -> Result<(), DbError> {
        let mut ctx = tree_ctx!(self);
        for &page in pages {
            let forces = ctx.flush_page(node, page)?;
            self.stats.wal_flush_forces += forces;
            self.stats.page_flushes += 1;
            // A flush that fired the WAL rule wrote back records with
            // unforced (hence uncommitted) updates: a buffer *steal*.
            ctx.m.obs().bus.emit(ctx.m.now(node), || {
                if forces > 0 {
                    ObsEvent::BufSteal { node: node.0, page: page.0 as u64 }
                } else {
                    ObsEvent::BufFlush { node: node.0, page: page.0 as u64 }
                }
            });
        }
        Ok(())
    }

    /// **The** fan-out: each live node does a share, on its own clock
    /// (§4.1.2). `shares` is one list per node of `live` ([`assign_flushers`],
    /// [`smdb_wal::assign_scanners`]), an empty one skipped. Before the share
    /// of every node but `caller`, `site` is visited on that node's behalf;
    /// `share` does the work as that node and returns its weight. Returns
    /// `(items, max)`, the weights' sum and the busiest node's, after `join`.
    pub(crate) fn fan_out<T>(
        &mut self,
        caller: NodeId,
        live: &[NodeId],
        shares: &[Vec<T>],
        site: Option<&'static str>,
        join: Join,
        mut share: impl FnMut(&mut Self, NodeId, &[T]) -> Result<u64, DbError>,
    ) -> Result<(u64, u64), DbError> {
        let busy = || live.iter().zip(shares).filter(|(_, items)| !items.is_empty());
        let barrier = matches!(join, Join::Barrier) && busy().next().is_some();
        if barrier {
            self.m.sync_clocks();
        }
        let (mut items, mut max, mut done_at) = (0, 0, 0);
        for (&n, of) in busy() {
            if let Some(c) = site.filter(|_| n != caller).and_then(|s| self.fault.hit(s, n.0)) {
                return Err(DbError::FaultCrash(c));
            }
            let weight = share(self, n, of)?;
            (items, max) = (items + weight, max.max(weight));
            done_at = done_at.max(self.m.now(n));
        }
        match join {
            Join::Caller => self.m.advance(caller, done_at.saturating_sub(self.m.now(caller))),
            Join::Barrier if barrier => self.m.sync_clocks(),
            Join::Barrier => {}
        }
        Ok((items, max))
    }

    /// Evict a page's lines from every cache (requires a prior flush; the
    /// stable image must be authoritative).
    pub fn evict_page(&mut self, page: PageId) {
        let mut ctx = tree_ctx!(self);
        ctx.evict_page(page);
    }

    /// Take a sharp checkpoint: flush every dirty page (WAL-safe), write a
    /// checkpoint record per node, force all logs, and durably install the
    /// checkpoint metadata. `node` hosts it; every live node writes back a
    /// share of the dirty set ([`assign_flushers`]).
    pub fn checkpoint(&mut self, node: NodeId) -> Result<(), DbError> {
        // A checkpoint advances the redo bound past the log records that
        // back any still-deferred instant-restart entries; drain them all
        // first so no pending redo is orphaned by log truncation.
        while self.redo_pending() > 0 {
            self.drain_redo(node, usize::MAX)?;
        }
        let live = self.m.surviving_nodes();
        let updaters = self.plt.dirty().map(|(page, by)| (page, by.map(|(n, _)| n)));
        let shares = assign_flushers(updaters, &live);
        // The checkpoint is not complete before its last page is: the host
        // waits for the latest flusher before it writes the records. (Its
        // own clock may have passed that already — another node's flush of
        // a page the host updated charges the WAL-rule force to the host.)
        self.fan_out(node, &live, &shares, None, Join::Caller, |db, flusher, pages| {
            db.flush_pages(flusher, pages).map(|()| pages.len() as u64)
        })?;
        let mut lsns = Vec::with_capacity(self.cfg.nodes as usize);
        for n in 0..self.cfg.nodes {
            let n = NodeId(n);
            if self.m.is_crashed(n) {
                lsns.push(self.logs.log(n).stable_lsn());
                continue;
            }
            let lsn = self.logs.append_checkpoint_checked(n)?;
            self.logs.force(&mut self.m, n, lsn, ForceReason::Checkpoint)?;
            lsns.push(lsn);
        }
        self.ckpt.install(CheckpointMeta { node_lsns: lsns.clone() });
        // Log reclamation: recovery never scans below the checkpoint for
        // redo (every page is flushed), and never needs undo information
        // below the first record of any still-active transaction. The
        // truncation point per node is the minimum of the two.
        self.note_table_walk();
        let active = self.active_txns(None);
        for n in 0..self.cfg.nodes {
            let nid = NodeId(n);
            if self.m.is_crashed(nid) {
                continue;
            }
            let ckpt_lsn = lsns[n as usize];
            let mut cutoff = ckpt_lsn;
            // The log's incremental index knows where each transaction's
            // first record sits; no scan needed to find the undo floor.
            for &txn in &active {
                if let Some(first) = self.logs.log(nid).index().first_txn_lsn(txn) {
                    cutoff = cutoff.min(Lsn(first.0.saturating_sub(1)));
                }
            }
            let cutoff = cutoff.min(self.logs.log(nid).stable_lsn());
            self.logs.truncate_through_checked(nid, cutoff)?;
        }
        self.stats.checkpoints += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Non-transactional inspection (oracle, examples, tests)
    // ------------------------------------------------------------------

    /// Record `slot`'s bytes (tag, then payload) as recovery would see
    /// them: the coherent cached copy if any survives, else the stable
    /// image. Zero-cost (no coherence side effects).
    fn current_record(&self, slot: u64) -> Result<&[u8], DbError> {
        let rec = self.check_slot(slot)?;
        let (image, at) = match self.m.peek(self.rec_line(rec)) {
            Some(cached) => (cached, self.layout.line_and_offset(rec.slot).1),
            None => {
                let page = rec.page;
                let stable = self.sdb.peek_page(page).ok_or(DbError::StablePageMissing { page })?;
                (stable, self.layout.page_offset(rec.slot))
            }
        };
        req(image.get(at..at + self.layout.rec_size()), "a record lies inside its line and page")
    }

    /// The current value of record `slot` as recovery would see it: the
    /// coherent cached copy if any survives, else the stable image.
    /// Zero-cost (no coherence side effects).
    pub fn current_value(&self, slot: u64) -> Result<Vec<u8>, DbError> {
        Ok(self.current_record(slot)?[TAG_SIZE..].to_vec())
    }

    /// The current undo tag of record `slot` (same lookup rules as
    /// [`SmDb::current_value`]).
    pub fn current_tag(&self, slot: u64) -> Result<u16, DbError> {
        Ok(RecordLayout::tag_of(self.current_record(slot)?))
    }

    /// Convenience: the committed value of `slot` per the shadow model.
    pub fn read_committed(&self, slot: u64) -> Result<Vec<u8>, DbError> {
        self.check_slot(slot)?;
        Ok(self.shadow.committed_value(slot, self.layout.data_size))
    }

    /// Live index contents, scanned by `node` (coherent reads).
    pub fn index_scan(&mut self, node: NodeId) -> Result<Vec<(u64, [u8; VAL_SIZE])>, DbError> {
        let tree = self.tree.as_mut().ok_or(DbError::NoIndex)?;
        let mut ctx = tree_ctx!(self);
        Ok(tree.scan_live(&mut ctx, node)?)
    }

    /// Check the index's structural invariants (sorted leaf chain, branch
    /// separator ranges) via `node`'s coherent reads. Panics with a
    /// description on violation; no-op without an index. The B+-tree
    /// oracle of the crash-sweep harness.
    pub fn check_index_invariants(&mut self, node: NodeId) -> Result<(), DbError> {
        let Some(tree) = self.tree.as_mut() else {
            return Ok(());
        };
        let mut ctx = tree_ctx!(self);
        tree.check_invariants(&mut ctx, node)?;
        Ok(())
    }

    /// Bring a crashed node back online (empty cache; it resumes logging
    /// after its stable prefix).
    pub fn reboot(&mut self, node: NodeId) {
        self.m.reboot_node(node);
    }

    /// Lockless *browse-mode* read (§3.2's dirty read, as in the `browse`
    /// / `chaos` isolation degrees): a coherent read of the record with no
    /// record lock, so it may observe uncommitted data — and, crucially,
    /// it **replicates the record's cache line** onto the reading node
    /// (the `H_wr` pattern). The paper's point: with dirty reads allowed,
    /// the recovery problems arise even when a single object is stored
    /// per cache line, so layout alone can never substitute for the
    /// recovery protocols.
    pub fn read_dirty(&mut self, node: NodeId, slot: u64) -> Result<Vec<u8>, DbError> {
        if self.m.is_crashed(node) {
            return Err(DbError::NodeDown { node });
        }
        let rec = self.check_slot(slot)?;
        // Dirty reads skip locking, so the lock-acquisition redo hook
        // never fires for them — ensure the line here instead.
        self.ensure_line_recovered(node, self.rec_line(rec))?;
        let off = self.layout.payload_offset(rec.slot);
        let mut buf = vec![0u8; self.layout.data_size];
        let mut ctx = tree_ctx!(self);
        ctx.read(node, rec.page, off, &mut buf)?;
        self.stats.add_lbm(&ctx);
        self.stats.reads += 1;
        Ok(buf)
    }

    /// Degraded recovery-window read: the best value obtainable *without*
    /// touching recovery state — no locks, no coherence traffic, and no
    /// inline redo. Returns the cached copy if one survives anywhere
    /// (possibly a stale pre-crash image on an unrecovered line), else the
    /// stable image. Unlike [`SmDb::read_dirty`] it never replicates the
    /// line and never blocks on pending redo, so it stays available during
    /// the instant-restart drain window; callers trade freshness for that
    /// availability.
    pub fn read_degraded(&self, node: NodeId, slot: u64) -> Result<Vec<u8>, DbError> {
        if self.m.is_crashed(node) {
            return Err(DbError::NodeDown { node });
        }
        self.current_value(slot)
    }

    /// Raw lock names currently held by `txn` (experiment instrumentation).
    pub fn held_lock_names(&self, txn: TxnId) -> Vec<u64> {
        self.locks.held_locks(txn)
    }

    /// Issue a *shared* request on a raw lock name and report whether it
    /// conflicted (queuing a waiter). Touching the LCB moves its cache
    /// line to the probing node — experiment instrumentation for the
    /// §4.2.2 scenarios.
    pub fn probe_lock_conflict(&mut self, txn: TxnId, name: u64) -> Result<bool, DbError> {
        self.check_active(txn)?;
        match self.lock(txn, name, LockMode::Shared) {
            Ok(()) => Ok(false),
            Err(DbError::WouldBlock { .. }) => Ok(true),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_slot_5_on_disk_only() -> SmDb {
        let mut db = SmDb::new(DbConfig::small(2, ProtocolKind::VolatileSelectiveRedo));
        let t = db.begin(NodeId(0)).unwrap();
        db.update(t, 5, b"kept").unwrap();
        db.commit(t).unwrap();
        let page = db.layout.rec_of_global(5).page;
        db.flush_page(NodeId(1), page).unwrap();
        db.evict_page(page);
        assert_eq!(&db.current_value(5).unwrap()[..4], b"kept");
        assert_eq!(db.current_tag(5).unwrap(), NULL_TAG);
        db
    }

    #[test]
    fn inspecting_a_record_whose_stable_page_is_gone_is_an_error_not_a_panic() {
        let mut db = db_with_slot_5_on_disk_only();
        let page = db.layout.rec_of_global(5).page;
        db.sdb = StableDb::new(db.layout.geometry);
        assert_eq!(db.current_value(5), Err(DbError::StablePageMissing { page }));
        assert_eq!(db.current_tag(5), Err(DbError::StablePageMissing { page }));
        assert_eq!(db.read_degraded(NodeId(1), 5), Err(DbError::StablePageMissing { page }));
    }

    #[test]
    fn inspecting_a_record_that_overruns_its_image_is_an_error_not_a_panic() {
        // A layout that disagrees with the machine's lines and the disk's
        // pages: the record's offset falls outside both images.
        let mut db = db_with_slot_5_on_disk_only();
        let t = db.begin(NodeId(0)).unwrap();
        db.update(t, 30, b"cached").unwrap();
        db.commit(t).unwrap();
        let cached = db.rec_line(db.layout.rec_of_global(30));
        let wide = PageGeometry::new(4 * db.layout.geometry.line_size, 8);
        db.layout = RecordLayout::new(wide, db.layout.data_size);
        // Slot 83 is looked up on disk, past the end of page 0; slot 124
        // in the line slot 30 left cached, past the end of the line.
        assert_eq!(db.rec_line(db.layout.rec_of_global(124)), cached);
        for slot in [83, 124] {
            assert!(matches!(db.current_value(slot), Err(DbError::Invariant { .. })), "{slot}");
            assert!(matches!(db.current_tag(slot), Err(DbError::Invariant { .. })), "{slot}");
        }
    }
}
