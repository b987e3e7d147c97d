//! The scheduler-driven run: execute one scenario under one schedule tape
//! and one fault plan, checking the standing oracles after every round.
//!
//! The driver is modeled on the workload crate's pipelined mix driver but
//! every ordering decision goes through the shared [`Scheduler`]: which
//! node hosts each admitted transaction, which in-flight transaction steps
//! next within a round, whether the commit pipeline drains early, and —
//! inside the engine — the per-node force order of a drain, which ready
//! commit is acknowledged next, and which survivor hosts recovery. With an
//! all-zero tape every choice is the historical order, so the canonical
//! schedule is exactly the deterministic round-robin the existing tests
//! run.
//!
//! Fault handling: an armed [`FaultPlan`] fires at a crash-point visit;
//! the injected error propagates to the driver, which crashes the victim,
//! drives recovery to convergence (a nested plan point may crash a second
//! node mid-recovery), and restarts the doomed in-flight transactions on
//! surviving nodes — the same discipline as the crash sweep.

use crate::config::VoprConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smdb_core::{DbError, MtOp, MtTxn, SmDb};
use smdb_fault::{FaultInjector, FaultPlan, Scheduler};
use smdb_sim::NodeId;
use smdb_workload::Zipf;
use std::collections::BTreeSet;

/// How the scheduler is driven for one run.
#[derive(Clone, Debug)]
pub enum SchedInput {
    /// Draw every choice from the seeded stream, recording the tape.
    Record(u64),
    /// Replay a tape (decisions past its end collapse to 0).
    Replay(Vec<u32>),
}

/// Extra oracle hook, run with the standing oracles each round. Receives
/// the engine and the commit count; returns `Err(detail)` to fail the run
/// under the oracle name `"canary"`. Lets tests manufacture deterministic
/// failures to exercise the shrinker and replay machinery.
pub type ExtraOracle<'a> = &'a dyn Fn(&mut SmDb, u64) -> Result<(), String>;

/// Outcome of one driven schedule.
#[derive(Clone, Debug, Default)]
pub struct RunOutcome {
    /// `Some((oracle, detail))` if an oracle failed; `None` = run passed.
    pub failure: Option<(String, String)>,
    /// The driver event log: one compact token per observable step
    /// (admit, op, commit, crash, recovery, drain, checkpoint). Two runs
    /// of the same repro must produce identical logs.
    pub events: Vec<String>,
    /// The schedule tape (recorded, or the replayed input).
    pub tape: Vec<u32>,
    /// Transactions committed (commit-record appends).
    pub committed: u64,
    /// Lock stalls (polled retries) observed.
    pub stalls: u64,
    /// Fired crash points, in fire order (`site#hit@nN` form).
    pub fired: Vec<String>,
}

impl RunOutcome {
    /// The failed oracle's name, if any.
    pub fn failed_oracle(&self) -> Option<&str> {
        self.failure.as_ref().map(|(o, _)| o.as_str())
    }
}

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One generated operation.
#[derive(Clone, Debug)]
enum Op {
    Read(u64),
    Update(u64, [u8; 8]),
    Insert(u64, [u8; 8]),
    Delete(u64),
}

/// Generate transaction `idx`'s operations for home `node`. Derived from
/// `(seed, idx, node)` alone — independent of every other transaction —
/// so the shrinker can drop transactions without perturbing the ops of
/// the ones that remain.
fn gen_ops(cfg: &VoprConfig, seed: u64, idx: usize, node: NodeId, records: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ (idx as u64).wrapping_mul(0x9E37)) ^ 0xA11C);
    let theta = cfg.zipf_x100 as f64 / 100.0;
    let shared = cfg.shared_slots.min(records.saturating_sub(cfg.nodes as u64)).max(1);
    let private_per_node = (records - shared) / cfg.nodes as u64;
    let shared_dist = Zipf::new(shared, theta);
    let private_dist = Zipf::new(private_per_node.max(1), theta);
    let pick_slot = |rng: &mut StdRng| {
        if rng.gen_bool(cfg.sharing_pct as f64 / 100.0) || private_per_node == 0 {
            shared_dist.sample(rng)
        } else {
            shared + node.0 as u64 * private_per_node + private_dist.sample(rng)
        }
    };
    let mut ops = Vec::with_capacity(cfg.ops_per_txn);
    let mut inserted: Vec<u64> = Vec::new();
    for op_i in 0..cfg.ops_per_txn {
        if rng.gen_bool(cfg.read_pct as f64 / 100.0) {
            ops.push(Op::Read(pick_slot(&mut rng)));
        } else if cfg.index_pct > 0 && rng.gen_bool(cfg.index_pct as f64 / 100.0) {
            // Keys are unique per (transaction, op): disjoint across
            // transactions, so dropping one transaction never creates or
            // resolves a key collision in another.
            if !inserted.is_empty() && rng.gen_bool(0.5) {
                let k = inserted[rng.gen_range(0..inserted.len())];
                ops.push(Op::Delete(k));
            } else {
                let key = 1 + idx as u64 * 16 + op_i as u64;
                inserted.push(key);
                ops.push(Op::Insert(key, rng.gen::<u64>().to_le_bytes()));
            }
        } else {
            ops.push(Op::Update(pick_slot(&mut rng), rng.gen::<u64>().to_le_bytes()));
        }
    }
    ops
}

/// Global lock order for the pipelined window (same rule as the workload
/// driver): record slots before index keys, each ascending, stable.
fn sort_for_pipeline(ops: &mut [Op]) {
    ops.sort_by_key(|op| match op {
        Op::Read(s) | Op::Update(s, _) => (0u8, *s),
        Op::Insert(k, _) | Op::Delete(k) => (1u8, *k),
    });
}

fn apply_op(db: &mut SmDb, txn: smdb_sim::TxnId, op: &Op) -> Result<(), DbError> {
    match op {
        Op::Read(slot) => db.read(txn, *slot).map(|_| ()),
        Op::Update(slot, v) => db.update(txn, *slot, v),
        Op::Insert(k, v) => match db.insert(txn, *k, *v) {
            Err(DbError::Btree(smdb_btree::BtreeError::DuplicateKey { .. })) => Ok(()),
            other => other,
        },
        Op::Delete(k) => match db.delete(txn, *k) {
            Err(DbError::Btree(smdb_btree::BtreeError::KeyNotFound { .. })) => Ok(()),
            other => other,
        },
    }
}

struct Flight {
    idx: usize,
    txn: smdb_sim::TxnId,
    node: NodeId,
    ops: Vec<Op>,
    next: usize,
    attempts: usize,
}

/// What absorbing an engine error produced.
enum Absorbed {
    /// A crash fired and recovery converged; the window needs reconciling.
    Crashed,
    /// Unrecoverable: becomes the run's failure verdict.
    Fatal(String, String),
}

struct Driver<'a> {
    cfg: &'a VoprConfig,
    seed: u64,
    db: SmDb,
    sched: Scheduler,
    fault: FaultInjector,
    events: Vec<String>,
    fired: Vec<String>,
    committed: u64,
    stalls: u64,
    records: u64,
    extra: Option<ExtraOracle<'a>>,
}

impl<'a> Driver<'a> {
    /// Crash the fired victim and drive recovery to convergence (nested
    /// plan points may crash further nodes mid-recovery). Returns
    /// `Crashed` once recovery completes.
    fn absorb(&mut self, e: DbError) -> Absorbed {
        let Some(c) = e.fault_crash() else {
            return Absorbed::Fatal("engine-error".into(), e.to_string());
        };
        self.events.push(format!("X n{} {}#{}", c.node, c.site, c.hit));
        self.fired.push(c.to_string());
        self.db.crash(&[NodeId(c.node)]);
        for _ in 0..8 {
            if let Some(fatal) = self.commit_predicate_oracle("crash") {
                return fatal;
            }
            let recovered = self.db.recover();
            if let Some(fatal) = self.commit_predicate_oracle("recover") {
                return fatal;
            }
            match recovered {
                Ok(o) => {
                    self.events.push(format!("R n{} a{}", o.recovery_node.0, o.aborted.len()));
                    return Absorbed::Crashed;
                }
                Err(e2) => match e2.fault_crash() {
                    Some(c2) => {
                        self.events.push(format!("X n{} {}#{}", c2.node, c2.site, c2.hit));
                        self.fired.push(c2.to_string());
                        self.db.crash(&[NodeId(c2.node)]);
                    }
                    None => return Absorbed::Fatal("recovery-error".into(), e2.to_string()),
                },
            }
        }
        Absorbed::Fatal(
            "recovery-livelock".into(),
            "recovery did not converge in 8 attempts".into(),
        )
    }

    /// Standing oracle around every crash and recovery: restart's commit
    /// predicate must equal the whole-history reference fixpoint
    /// ([`SmDb::check_commit_predicate`]).
    fn commit_predicate_oracle(&self, after: &str) -> Option<Absorbed> {
        let diffs = self.db.check_commit_predicate();
        (!diffs.is_empty()).then(|| {
            Absorbed::Fatal(
                "commit-predicate".into(),
                format!("after {after}: {}", diffs.join("; ")),
            )
        })
    }

    /// Pick a home node: the candidate list is the survivors rotated so
    /// index 0 is the historical round-robin pick for `ordinal`.
    fn pick_home(&mut self, site: &'static str, ordinal: usize) -> NodeId {
        let surv = self.db.machine().surviving_nodes();
        let rot = ordinal % surv.len();
        let pick = self.sched.choose(site, surv.len());
        surv[(rot + pick) % surv.len()]
    }

    /// Restart every in-flight transaction recovery doomed, on a live
    /// node. Ops are regenerated for the new home (slot choice is
    /// node-relative).
    fn reconcile(&mut self, inflight: &mut [Flight]) -> Result<(), (String, String)> {
        let alive = self.db.active_txns(None);
        for f in inflight.iter_mut() {
            if alive.contains(&f.txn) {
                continue;
            }
            f.node = self.pick_home("vopr.rehome", f.idx);
            f.ops = gen_ops(self.cfg, self.seed, f.idx, f.node, self.records);
            if self.cfg.window > 1 {
                sort_for_pipeline(&mut f.ops);
            }
            f.next = 0;
            match self.db.begin(f.node) {
                Ok(t) => f.txn = t,
                Err(e) => match self.absorb(e) {
                    Absorbed::Fatal(o, d) => return Err((o, d)),
                    // A crash during re-begin doomed more transactions;
                    // the outer loop will reconcile again next round. Park
                    // this flight on a sentinel by retrying once.
                    Absorbed::Crashed => {
                        let home = self.pick_home("vopr.rehome", f.idx);
                        match self.db.begin(home) {
                            Ok(t) => f.txn = t,
                            Err(e2) => {
                                let Absorbed::Fatal(o, d) = self.absorb(e2) else {
                                    return Err((
                                        "driver".into(),
                                        "begin crashed twice in reconcile".into(),
                                    ));
                                };
                                return Err((o, d));
                            }
                        }
                    }
                },
            }
        }
        Ok(())
    }

    /// Run the standing oracles. The injector is paused around the scans
    /// so oracle reads (which walk the same instrumented paths as the
    /// workload) don't advance armed visit ordinals.
    fn oracles(&mut self, final_check: bool) -> Result<(), (String, String)> {
        self.fault.pause();
        let r = self.oracles_inner(final_check);
        self.fault.resume();
        r
    }

    fn oracles_inner(&mut self, final_check: bool) -> Result<(), (String, String)> {
        // Durability-volume parity: every force request is either a
        // physical force or absorbed by the coalescing window.
        let logs = self.db.logs();
        let (req, phys, coal) =
            (logs.total_forces_requested(), logs.total_forces(), logs.total_forces_coalesced());
        if req != phys + coal {
            return Err((
                "force-parity".into(),
                format!("requested {req} != physical {phys} + coalesced {coal}"),
            ));
        }
        let Some(&scan) = self.db.machine().surviving_nodes().first() else {
            return Err(("driver".into(), "no surviving nodes".into()));
        };
        // IFA: records, live index contents, and lock space vs the shadow.
        // Skipped inside an instant-restart drain window: the heap is
        // intentionally stale until the deferred redo retires (the engine
        // refuses the comparison outright), and the driver's per-round
        // drain plus the final full drain guarantee the window closes
        // before the last pass.
        if self.db.redo_pending() == 0 {
            let r = self.db.check_ifa(scan);
            if !r.ok() {
                return Err(("IFA".into(), r.violations.join("; ")));
            }
        }
        // B+-tree structural invariants (panics with a description).
        let tree = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.db.check_index_invariants(scan)
        }));
        match tree {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(("btree".into(), format!("unreadable: {e}"))),
            Err(p) => {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".into());
                return Err(("btree".into(), msg));
            }
        }
        // Lock lockstep: volatile chains vs the durable LCB table.
        match self.db.check_lock_chains(scan) {
            Ok(v) if v.is_empty() => {}
            Ok(v) => return Err(("lock-chains".into(), v.join("; "))),
            Err(e) => return Err(("lock-chains".into(), format!("unreadable: {e}"))),
        }
        // Committed-data: once nothing is active, every record physically
        // holds its committed value.
        if final_check && self.db.active_txns(None).is_empty() && self.db.redo_pending() == 0 {
            for slot in 0..self.db.record_count() as u64 {
                let got = self
                    .db
                    .current_value(slot)
                    .map_err(|e| ("committed-data".into(), format!("slot {slot}: {e}")))?;
                let want = self
                    .db
                    .read_committed(slot)
                    .map_err(|e| ("committed-data".into(), format!("slot {slot}: {e}")))?;
                if got != want {
                    return Err((
                        "committed-data".into(),
                        format!("slot {slot}: expected {want:?}, found {got:?}"),
                    ));
                }
            }
        }
        if let Some(extra) = self.extra {
            let committed = self.committed;
            extra(&mut self.db, committed).map_err(|d| ("canary".to_string(), d))?;
        }
        Ok(())
    }

    /// Multicore epoch-scheduler preamble (`mt:1` scenarios): drive one
    /// deterministic record-only batch through `SmDb::run_epochs` before
    /// the interactive rounds. One lane thread — VOPR replay is
    /// sequential by design — but the admission deferral draws
    /// (`mt.admit`) go through the shared scheduler, so the tape records
    /// them and the shrinker can reshape the epoch partition. The fault
    /// injector is paused across the batch (epoch lanes are not
    /// crash-hardened mid-merge; crashes belong to the interactive
    /// phase), which also keeps the interactive phase's crash-point
    /// ordinals independent of the preamble's cache traffic.
    fn mt_preamble(&mut self) -> Option<(String, String)> {
        self.fault.pause();
        let r = self.mt_preamble_inner();
        self.fault.resume();
        r
    }

    fn mt_preamble_inner(&mut self) -> Option<(String, String)> {
        let mut batch: Vec<MtTxn> = Vec::new();
        for idx in 0..self.cfg.txns {
            let node = NodeId((idx % self.cfg.nodes as usize) as u16);
            // A distinct op stream (seed perturbed) so the preamble does
            // not mirror the interactive transactions slot-for-slot.
            let ops: Vec<MtOp> =
                gen_ops(self.cfg, self.seed ^ 0x00E1_0C4E, idx, node, self.records)
                    .into_iter()
                    .filter_map(|op| match op {
                        Op::Read(slot) => Some(MtOp::Read { slot }),
                        Op::Update(slot, v) => Some(MtOp::Update { slot, data: v.to_vec() }),
                        // Index footprints are data-dependent; the epoch
                        // scheduler excludes them by construction.
                        Op::Insert(..) | Op::Delete(..) => None,
                    })
                    .collect();
            if !ops.is_empty() {
                batch.push(MtTxn { node, ops });
            }
        }
        match self.db.run_epochs(batch, 1) {
            Ok(out) => {
                self.committed += out.committed;
                self.events
                    .push(format!("mt e{} c{} d{}", out.epochs, out.committed, out.deferred));
                None
            }
            Err(e) => Some(("mt-preamble".into(), e.to_string())),
        }
    }

    fn run(&mut self, skip: &BTreeSet<usize>) -> Option<(String, String)> {
        if self.cfg.mt {
            if let Some(f) = self.mt_preamble() {
                return Some(f);
            }
            // The standing oracles vet the merged post-epoch state before
            // any interactive transaction builds on it.
            if let Err(f) = self.oracles(false) {
                return Some(f);
            }
        }
        let window = self.cfg.window.max(1);
        let mut inflight: Vec<Flight> = Vec::new();
        let mut next_idx = 0usize;
        let mut admitted = 0usize;
        let mut commits_since_drain = 0usize;
        let mut fruitless_rounds = 0u32;
        let mut rounds = 0u64;
        loop {
            // Admit transactions until the window is full.
            while inflight.len() < window && next_idx < self.cfg.txns {
                let idx = next_idx;
                next_idx += 1;
                if skip.contains(&idx) {
                    continue;
                }
                let ck = self.cfg.checkpoint_every;
                if ck > 0 && admitted > 0 && admitted.is_multiple_of(ck) {
                    let host = self.pick_home("vopr.ck.host", admitted);
                    self.events.push(format!("k n{}", host.0));
                    if let Err(e) = self.db.checkpoint(host) {
                        match self.absorb(e) {
                            Absorbed::Crashed => {
                                if let Err(f) = self.reconcile(&mut inflight) {
                                    return Some(f);
                                }
                            }
                            Absorbed::Fatal(o, d) => return Some((o, d)),
                        }
                    }
                }
                let node = self.pick_home("vopr.home", idx);
                let mut ops = gen_ops(self.cfg, self.seed, idx, node, self.records);
                if window > 1 {
                    sort_for_pipeline(&mut ops);
                }
                match self.db.begin(node) {
                    Ok(txn) => {
                        self.events.push(format!("b {idx}@n{}", node.0));
                        inflight.push(Flight { idx, txn, node, ops, next: 0, attempts: 0 });
                        admitted += 1;
                    }
                    Err(e) => match self.absorb(e) {
                        Absorbed::Crashed => {
                            if let Err(f) = self.reconcile(&mut inflight) {
                                return Some(f);
                            }
                            // Re-admit this index next pass.
                            next_idx = idx;
                        }
                        Absorbed::Fatal(o, d) => return Some((o, d)),
                    },
                }
            }
            if inflight.is_empty() {
                break;
            }
            rounds += 1;
            if rounds > 10_000 {
                return Some((
                    "driver-livelock".into(),
                    format!("no termination after {rounds} rounds"),
                ));
            }
            // One round: step each in-flight transaction once, in an order
            // the scheduler picks (choice 0 = window order = round-robin).
            let mut pending: Vec<smdb_sim::TxnId> = inflight.iter().map(|f| f.txn).collect();
            let mut progressed = false;
            while !pending.is_empty() {
                let t = pending.remove(self.sched.choose("vopr.step", pending.len()));
                let Some(i) = inflight.iter().position(|f| f.txn == t) else {
                    continue; // replaced by a crash reconcile mid-round
                };
                let (idx, op) = {
                    let f = &inflight[i];
                    (f.idx, f.ops[f.next].clone())
                };
                match apply_op(&mut self.db, t, &op) {
                    Ok(()) => {
                        progressed = true;
                        self.events.push(format!("o {idx}.{}", inflight[i].next));
                        inflight[i].next += 1;
                        if inflight[i].next == inflight[i].ops.len() {
                            let commit = if window > 1 {
                                self.db.commit_pipelined(t)
                            } else {
                                self.db.commit(t)
                            };
                            match commit {
                                Ok(()) => {
                                    self.events.push(format!("c {idx}"));
                                    self.committed += 1;
                                    commits_since_drain += 1;
                                    inflight.swap_remove(i);
                                }
                                Err(e) => match self.absorb(e) {
                                    Absorbed::Crashed => {
                                        if let Err(f) = self.reconcile(&mut inflight) {
                                            return Some(f);
                                        }
                                    }
                                    Absorbed::Fatal(o, d) => return Some((o, d)),
                                },
                            }
                        }
                    }
                    Err(DbError::WouldBlock { .. }) => {
                        self.stalls += 1;
                        if window == 1 {
                            // Serial window: no-wait abort and retry.
                            let f = &mut inflight[i];
                            f.attempts += 1;
                            if let Err(e2) = self.db.abort(f.txn) {
                                match self.absorb(e2) {
                                    Absorbed::Crashed => {
                                        if let Err(fl) = self.reconcile(&mut inflight) {
                                            return Some(fl);
                                        }
                                        continue;
                                    }
                                    Absorbed::Fatal(o, d) => return Some((o, d)),
                                }
                            }
                            let f = &mut inflight[i];
                            if f.attempts > 8 {
                                self.events.push(format!("g {}", f.idx));
                                inflight.swap_remove(i);
                            } else {
                                f.next = 0;
                                match self.db.begin(f.node) {
                                    Ok(txn) => f.txn = txn,
                                    Err(e) => match self.absorb(e) {
                                        Absorbed::Crashed => {
                                            if let Err(fl) = self.reconcile(&mut inflight) {
                                                return Some(fl);
                                            }
                                        }
                                        Absorbed::Fatal(o, d) => return Some((o, d)),
                                    },
                                }
                            }
                        }
                    }
                    Err(e) => match self.absorb(e) {
                        Absorbed::Crashed => {
                            if let Err(f) = self.reconcile(&mut inflight) {
                                return Some(f);
                            }
                        }
                        Absorbed::Fatal(o, d) => return Some((o, d)),
                    },
                }
            }
            // Drain policy: the historical rule (every `drain_every`
            // commits, or a stalled window), plus a schedulable early
            // drain (choice 0 = don't, the historical behavior).
            let mut want_drain = (self.cfg.drain_every > 0
                && commits_since_drain >= self.cfg.drain_every)
                || (!progressed && self.db.pending_commit_count() > 0);
            if !want_drain
                && self.db.pending_commit_count() > 0
                && self.sched.choose("vopr.drain", 2) == 1
            {
                want_drain = true;
            }
            if want_drain {
                match self.db.drain_commit_pipeline() {
                    Ok(n) => {
                        self.events.push(format!("d {n}"));
                        if n > 0 {
                            progressed = true;
                        }
                        commits_since_drain = 0;
                    }
                    Err(e) => match self.absorb(e) {
                        Absorbed::Crashed => {
                            if let Err(f) = self.reconcile(&mut inflight) {
                                return Some(f);
                            }
                        }
                        Absorbed::Fatal(o, d) => return Some((o, d)),
                    },
                }
            }
            if progressed {
                fruitless_rounds = 0;
            } else {
                fruitless_rounds += 1;
                if fruitless_rounds >= 2 && !inflight.is_empty() {
                    // Deadlock breaker (same rule as the workload driver):
                    // abort the oldest stalled entry and retry it.
                    let f = &mut inflight[0];
                    f.attempts += 1;
                    let txn = f.txn;
                    if let Err(e2) = self.db.abort(txn) {
                        match self.absorb(e2) {
                            Absorbed::Crashed => {
                                if let Err(fl) = self.reconcile(&mut inflight) {
                                    return Some(fl);
                                }
                                fruitless_rounds = 0;
                                continue;
                            }
                            Absorbed::Fatal(o, d) => return Some((o, d)),
                        }
                    }
                    let f = &mut inflight[0];
                    if f.attempts > 8 {
                        self.events.push(format!("g {}", f.idx));
                        inflight.swap_remove(0);
                    } else {
                        f.next = 0;
                        if self.db.machine().is_crashed(f.node) {
                            f.node = self.db.machine().surviving_nodes()[0];
                            let (idx, node) = (f.idx, f.node);
                            let ops = gen_ops(self.cfg, self.seed, idx, node, self.records);
                            let f = &mut inflight[0];
                            f.ops = ops;
                            if window > 1 {
                                sort_for_pipeline(&mut f.ops);
                            }
                        }
                        let node = inflight[0].node;
                        match self.db.begin(node) {
                            Ok(txn) => inflight[0].txn = txn,
                            Err(e) => match self.absorb(e) {
                                Absorbed::Crashed => {
                                    if let Err(fl) = self.reconcile(&mut inflight) {
                                        return Some(fl);
                                    }
                                }
                                Absorbed::Fatal(o, d) => return Some((o, d)),
                            },
                        }
                    }
                    fruitless_rounds = 0;
                }
            }
            // Instant-restart drain window: retire a scheduler-chosen
            // batch of deferred redo each round, on a scheduler-chosen
            // survivor (choice 0 = one entry on the rotation host). The
            // drain itself can crash — the background fault site — which
            // replans the deferred work under a second recovery.
            if self.db.redo_pending() > 0 {
                let host = self.pick_home("vopr.redo.host", rounds as usize);
                let batch = 1 + self.sched.choose("vopr.redo.batch", 4);
                match self.db.drain_redo(host, batch) {
                    Ok(n) => self.events.push(format!("dr {n}")),
                    Err(e) => match self.absorb(e) {
                        Absorbed::Crashed => {
                            if let Err(f) = self.reconcile(&mut inflight) {
                                return Some(f);
                            }
                        }
                        Absorbed::Fatal(o, d) => return Some((o, d)),
                    },
                }
            }
            // The standing oracles, every round.
            if let Err(f) = self.oracles(false) {
                return Some(f);
            }
        }
        // Final drain: settle everything still pending.
        while self.db.pending_commit_count() > 0 {
            match self.db.drain_commit_pipeline() {
                Ok(0) => break,
                Ok(n) => self.events.push(format!("d {n}")),
                Err(e) => match self.absorb(e) {
                    Absorbed::Crashed => continue,
                    Absorbed::Fatal(o, d) => return Some((o, d)),
                },
            }
        }
        // Close the instant-restart drain window: the final oracle pass
        // compares full states, which requires every deferred redo entry
        // retired. A crash mid-drain replans; the loop converges because
        // the fault plan is finite.
        while self.db.redo_pending() > 0 {
            let Some(&host) = self.db.machine().surviving_nodes().first() else {
                return Some(("driver".into(), "no surviving nodes".into()));
            };
            match self.db.drain_redo(host, 8) {
                Ok(n) => self.events.push(format!("dr {n}")),
                Err(e) => match self.absorb(e) {
                    Absorbed::Crashed => continue,
                    Absorbed::Fatal(o, d) => return Some((o, d)),
                },
            }
        }
        self.oracles(true).err()
    }
}

/// Run one schedule: scenario `cfg`, per-transaction op streams from
/// `seed`, transactions in `skip` dropped, fault `plan` armed, scheduler
/// driven per `input`.
pub fn run_schedule(
    cfg: &VoprConfig,
    seed: u64,
    skip: &BTreeSet<usize>,
    plan: &FaultPlan,
    input: SchedInput,
) -> RunOutcome {
    run_schedule_with(cfg, seed, skip, plan, input, None)
}

/// [`run_schedule`] with an extra per-round oracle (test hook).
pub fn run_schedule_with(
    cfg: &VoprConfig,
    seed: u64,
    skip: &BTreeSet<usize>,
    plan: &FaultPlan,
    input: SchedInput,
    extra: Option<ExtraOracle<'_>>,
) -> RunOutcome {
    let mut db = SmDb::new(cfg.db_config());
    let fault = FaultInjector::new();
    let sched = Scheduler::new();
    db.set_fault_injector(fault.clone());
    db.set_scheduler(sched.clone());
    match input {
        SchedInput::Record(s) => sched.start_recording(s),
        SchedInput::Replay(tape) => sched.start_replay(tape),
    }
    if !plan.points.is_empty() {
        fault.arm(plan.clone());
    }
    let records = db.record_count() as u64;
    let mut d = Driver {
        cfg,
        seed,
        db,
        sched: sched.clone(),
        fault,
        events: Vec::new(),
        fired: Vec::new(),
        committed: 0,
        stalls: 0,
        records,
        extra,
    };
    let failure = d.run(skip);
    let tape = sched.take_tape();
    RunOutcome {
        failure,
        events: d.events,
        tape,
        committed: d.committed,
        stalls: d.stalls,
        fired: d.fired,
    }
}
