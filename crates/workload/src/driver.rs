//! The transaction driver: the one interactive loop every harness runs
//! its transactions through — the record-update mix, TP1, the crash sweep
//! and the schedule fuzzer alike, so a throughput measured here and an
//! invariant fuzzed here are statements about the same executions.
//!
//! The loop keeps up to `window` transactions in flight and proceeds in
//! **rounds**; each round steps every in-flight transaction by one
//! operation ([`SmDb::apply`]).
//!
//! * **Step rule.** The candidates are the in-flight entries not yet
//!   stepped this round, in current window order; the engine's schedule
//!   handle picks one ([`SITE_STEP`]). Choice 0 — all a disabled handle
//!   ever returns — is the first of them, which is plain round-robin: a
//!   commit's `swap_remove` moves the window's last (still unstepped)
//!   entry into the freed position, and it steps next.
//! * **Window 1 is serial execution.** A finished transaction commits
//!   synchronously ([`SmDb::commit`]); a lock conflict aborts it and
//!   starts it over, up to `retries` times (the engine's no-wait policy).
//! * **Window > 1 is pipelined group commit.** Operations are issued in a
//!   global lock order ([`sort_for_pipeline`]); a lock conflict (the engine
//!   must poll: `DbConfig::with_lock_polling`) stalls the transaction in
//!   place to retry next round; a finished transaction commits with
//!   [`SmDb::commit_pipelined`] — record appended, locks released early
//!   under controlled lock violation, acknowledgement deferred.
//! * **Drain policy.** The commit pipeline is drained (one group force per
//!   home node, then dependency-ordered acknowledgement) every
//!   `drain_every` pipelined commits, whenever a round moved nothing while
//!   commits are pending, when the schedule asks for it ([`SITE_DRAIN`]),
//!   and until it is empty at the end of the run.
//! * **Deadlock breaker.** Stalled transactions block and retry, and the
//!   sorted lock order admits no wait-for cycle between window members, so
//!   a conflict generates no log records and no compensation. The breaker
//!   is the fallback for lock orders sorting cannot fix (S→X upgrades):
//!   after two rounds without a grant or an acknowledgement, the oldest
//!   entry is aborted and started over within its retry budget.
//!
//! Everything that differs between harnesses is a [`Hooks`] method: where
//! transactions come from and where they run, what happens between rounds
//! (a crash plan; redo drains and oracles), whether an engine error can be
//! absorbed (crash the victim, recover, carry on), and an event log.

use crate::mix::MixReport;
use smdb_core::{DbError, Op, SmDb};
use smdb_sim::{NodeId, TxnId};
use std::fmt;

/// Schedule site: which unstepped in-flight transaction steps next.
pub const SITE_STEP: &str = "vopr.step";
/// Schedule site: drain the commit pipeline early (choice 1) or not (0).
pub const SITE_DRAIN: &str = "vopr.drain";

/// The loop's shape.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Transactions kept in flight; 1 is serial execution.
    pub window: usize,
    /// Drain the commit pipeline after this many pipelined commits (0:
    /// only when the window is stalled, and at the end).
    pub drain_every: usize,
    /// Conflict aborts a transaction may suffer before it is given up.
    pub retries: usize,
}

/// What a harness plugs into [`run`]. Only the transaction source is
/// mandatory; the defaults are the plain workload's behaviour.
pub trait Hooks {
    /// What ends a run early.
    type Fatal: From<DbError>;

    /// Called before each admission: the node that should take a sharp
    /// checkpoint first, if one is due (and a transaction is left to admit).
    fn checkpoint_host(&mut self, _db: &SmDb) -> Option<NodeId> {
        None
    }

    /// The next transaction to admit — its index (for the event log), home
    /// node and operations — or `None` once the stream is exhausted.
    fn next_txn(&mut self, db: &SmDb) -> Option<(usize, NodeId, Vec<Op>)>;

    /// Pick a live home for an in-flight transaction whose home died
    /// (window position `slot`, transaction `idx`); may replace `ops`.
    fn rehome(
        &mut self,
        db: &SmDb,
        slot: usize,
        _idx: usize,
        node: &mut NodeId,
        _ops: &mut Vec<Op>,
    ) {
        let survivors = db.machine().surviving_nodes();
        *node = survivors[slot % survivors.len()];
    }

    /// An engine call failed. `Ok` means the error was an injected crash
    /// that has been absorbed — victim crashed, recovery converged — and
    /// the window must be reconciled with the survivors.
    fn absorb(&mut self, _db: &mut SmDb, e: DbError) -> Result<(), Self::Fatal> {
        Err(e.into())
    }

    /// Called at the top of every round (`round` counts from 1) with the
    /// number of transactions in flight, and once more when the run is
    /// over. Returns whether a crash happened (reconcile the window).
    fn between_rounds(
        &mut self,
        _db: &mut SmDb,
        _round: u64,
        _in_flight: usize,
    ) -> Result<bool, Self::Fatal> {
        Ok(false)
    }

    /// A transaction with these operations committed (its commit record is
    /// appended; a pipelined one may still await acknowledgement).
    fn committed(&mut self, _ops: &[Op]) {}

    /// One token of the event log: `b`egin, `o`p, `c`ommit, `g`ave up,
    /// `k` checkpoint, `d`rain.
    fn log(&mut self, _event: fmt::Arguments<'_>) {}
}

/// One transaction in the window.
struct Entry {
    idx: usize,
    txn: TxnId,
    node: NodeId,
    ops: Vec<Op>,
    /// Next operation to issue (retried in place on a lock stall).
    next: usize,
    /// Conflict aborts suffered so far.
    attempts: usize,
    /// The last round this entry was stepped in.
    stepped: u64,
}

/// Order a transaction's operations by a single global key — record slots
/// first, then index keys, each ascending. Every pipelined transaction
/// acquires its locks along this order and holds them to commit, so no
/// wait-for cycle can form between window members. (Duplicates are fine —
/// re-acquisition hits the already-held fast path.) The sort is stable,
/// so a read and an update of the same slot keep their program order.
pub fn sort_for_pipeline(ops: &mut [Op]) {
    ops.sort_by_key(|op| match op {
        Op::Read(s) | Op::Update(s, _) | Op::Add(s, _) => (0u8, *s),
        Op::Insert(k, _) | Op::Delete(k) => (1u8, *k),
    });
}

struct Driver<'a, H: Hooks> {
    db: &'a mut SmDb,
    hooks: &'a mut H,
    shape: Window,
    inflight: Vec<Entry>,
    report: &'a mut MixReport,
}

impl<H: Hooks> Driver<'_, H> {
    fn pipelined(&self) -> bool {
        self.shape.window > 1
    }

    /// Give entry `slot` a live home and a fresh transaction, from its
    /// first operation.
    fn begin_again(&mut self, slot: usize, rehome: bool) -> Result<(), H::Fatal> {
        let pipelined = self.pipelined();
        let e = &mut self.inflight[slot];
        if rehome {
            self.hooks.rehome(self.db, slot, e.idx, &mut e.node, &mut e.ops);
            if pipelined {
                sort_for_pipeline(&mut e.ops);
            }
        }
        e.txn = self.db.begin(e.node)?;
        e.next = 0;
        Ok(())
    }

    /// After a crash and its recovery: every in-flight transaction homed
    /// on a crashed node (and, under early lock release, any dependent
    /// doomed in cascade) was aborted — start those over on live nodes.
    fn reconcile(&mut self) -> Result<(), H::Fatal> {
        let alive = self.db.active_txns(None);
        for slot in 0..self.inflight.len() {
            if !alive.contains(&self.inflight[slot].txn) {
                self.begin_again(slot, true)?;
            }
        }
        Ok(())
    }

    /// Pass an engine error to the harness; if it was an absorbed crash,
    /// reconcile the window.
    fn absorb(&mut self, e: DbError) -> Result<(), H::Fatal> {
        self.hooks.absorb(self.db, e)?;
        self.reconcile()
    }

    /// Abort entry `slot` after a conflict and start it over, or give it
    /// up once its retry budget is spent.
    fn restart(&mut self, slot: usize) -> Result<(), H::Fatal> {
        self.report.conflict_aborts += 1;
        let e = &mut self.inflight[slot];
        e.attempts += 1;
        if let Err(err) = self.db.abort(e.txn) {
            return self.absorb(err);
        }
        if e.attempts > self.shape.retries {
            self.report.gave_up += 1;
            self.hooks.log(format_args!("g {}", e.idx));
            self.inflight.swap_remove(slot);
            return Ok(());
        }
        let home_down = self.db.machine().is_crashed(e.node);
        self.begin_again(slot, home_down)
    }

    /// Step entry `slot` by one operation; commit it if that was its last.
    /// Returns whether the round made progress through it.
    fn step(&mut self, slot: usize) -> Result<bool, H::Fatal> {
        let e = &mut self.inflight[slot];
        match self.db.apply(e.txn, &e.ops[e.next]) {
            Ok(()) => {
                self.hooks.log(format_args!("o {}.{}", e.idx, e.next));
                e.next += 1;
                if e.next == e.ops.len() {
                    let txn = e.txn;
                    let commit = if self.pipelined() {
                        self.db.commit_pipelined(txn)
                    } else {
                        self.db.commit(txn)
                    };
                    match commit {
                        Ok(()) => {
                            let done = self.inflight.swap_remove(slot);
                            self.hooks.log(format_args!("c {}", done.idx));
                            self.hooks.committed(&done.ops);
                            self.report.committed += 1;
                            self.report.ops += done.ops.len() as u64;
                        }
                        Err(err) => self.absorb(err)?,
                    }
                }
                Ok(true)
            }
            Err(DbError::WouldBlock { .. }) if self.pipelined() => {
                self.report.lock_stalls += 1;
                Ok(false)
            }
            Err(DbError::WouldBlock { .. }) => self.restart(slot).map(|()| true),
            Err(err) => self.absorb(err).map(|()| false),
        }
    }

    fn run(&mut self) -> Result<(), H::Fatal> {
        let sched = self.db.sched_handle();
        let mut commits_since_drain = 0u64;
        let mut fruitless_rounds = 0u32;
        for round in 1u64.. {
            if self.hooks.between_rounds(self.db, round, self.inflight.len())? {
                self.reconcile()?;
            }
            // Fill the window.
            while self.inflight.len() < self.shape.window {
                if let Some(host) = self.hooks.checkpoint_host(self.db) {
                    self.hooks.log(format_args!("k n{}", host.0));
                    if let Err(err) = self.db.checkpoint(host) {
                        self.absorb(err)?;
                    }
                }
                let Some((idx, node, mut ops)) = self.hooks.next_txn(self.db) else { break };
                if self.pipelined() {
                    sort_for_pipeline(&mut ops);
                }
                let txn = self.db.begin(node)?;
                self.hooks.log(format_args!("b {idx}@n{}", node.0));
                self.inflight.push(Entry { idx, txn, node, ops, next: 0, attempts: 0, stepped: 0 });
            }
            if self.inflight.is_empty() {
                break;
            }
            // One operation per in-flight transaction.
            let committed0 = self.report.committed;
            let mut progressed = false;
            loop {
                let mut unstepped =
                    (0..self.inflight.len()).filter(|&i| self.inflight[i].stepped != round);
                // Unscheduled runs take the first candidate without
                // counting the rest.
                let pick = if sched.is_enabled() {
                    sched.choose(SITE_STEP, unstepped.clone().count())
                } else {
                    0
                };
                let Some(slot) = unstepped.nth(pick) else { break };
                self.inflight[slot].stepped = round;
                progressed |= self.step(slot)?;
            }
            if self.pipelined() {
                commits_since_drain += self.report.committed - committed0;
            }
            // Drain policy: every `drain_every` commits, whenever nothing
            // moved (the window is stalled behind unacknowledged commits
            // that still hold locks, or behind the force itself), or when
            // the schedule says so.
            let drain_every = self.shape.drain_every as u64;
            if (drain_every > 0 && commits_since_drain >= drain_every)
                || (self.db.pending_commit_count() > 0
                    && (!progressed || sched.choose(SITE_DRAIN, 2) == 1))
            {
                match self.db.drain_commit_pipeline() {
                    Ok(n) => {
                        self.hooks.log(format_args!("d {n}"));
                        progressed |= n > 0;
                        commits_since_drain = 0;
                    }
                    Err(err) => self.absorb(err)?,
                }
            }
            if progressed {
                fruitless_rounds = 0;
            } else {
                fruitless_rounds += 1;
                if fruitless_rounds >= 2 && !self.inflight.is_empty() {
                    // Two whole rounds without a single grant or
                    // acknowledgement: a genuine wait cycle. Break it
                    // deterministically at the oldest entry.
                    self.restart(0)?;
                    fruitless_rounds = 0;
                }
            }
        }
        // Final drain: acknowledge everything still pending. Each pass pays
        // at most one physical force per home node; a pass that acknowledges
        // nothing means the remaining entries are unacknowledgeable (homed
        // on crashed nodes — recovery already resolved them).
        while self.db.pending_commit_count() > 0 {
            match self.db.drain_commit_pipeline() {
                Ok(0) => break,
                Ok(n) => self.hooks.log(format_args!("d {n}")),
                Err(err) => self.hooks.absorb(self.db, err)?,
            }
        }
        Ok(())
    }
}

/// Run `hooks`' transaction stream to completion through a window of the
/// given shape, tallying into `report`'s transaction counters
/// (`committed`, `conflict_aborts`, `gave_up`, `ops`, `lock_stalls` — kept
/// up to the failing step when the run ends early); clocks and force
/// counts are the caller's to add.
///
/// `committed` counts commit-record *appends*. A crash between a pipelined
/// append and its covering force can still doom such a transaction (that
/// is the controlled-violation window), so across a crash the count is an
/// upper bound on durably-acknowledged commits.
pub fn run<H: Hooks>(
    db: &mut SmDb,
    shape: Window,
    hooks: &mut H,
    report: &mut MixReport,
) -> Result<(), H::Fatal> {
    Driver { db, hooks, shape, inflight: Vec::new(), report }.run()
}
