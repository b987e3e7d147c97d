//! The scheduler-driven run: execute one scenario under one schedule tape
//! and one fault plan, checking the standing oracles after every round.
//!
//! The interactive rounds are the workload crate's transaction driver
//! (`smdb_workload::driver`: window semantics, step rule, drain policy,
//! deadlock breaker) — the same loop `run_mix` runs, here with every
//! ordering decision drawn from the shared [`Scheduler`]: which node hosts
//! each admitted transaction, which in-flight transaction steps next
//! within a round, whether the commit pipeline drains early, and — inside
//! the engine — the per-node force order of a drain, which ready commit is
//! acknowledged next, and which survivor hosts recovery. With an all-zero
//! tape every choice is the historical order, so the canonical schedule is
//! exactly the deterministic round-robin the workload runs. This module
//! supplies what only the fuzzer needs, as the driver's hooks: seed-derived
//! per-transaction op streams, fault absorption, per-round redo drains and
//! standing oracles, and the event log.
//!
//! Fault handling: an armed [`FaultPlan`] fires at a crash-point visit;
//! the injected error propagates to the driver, whose `absorb` hook crashes
//! the victim and drives recovery to convergence (a nested plan point may
//! crash a second node mid-recovery); the driver then restarts the doomed
//! in-flight transactions on surviving nodes — the same discipline as the
//! crash sweep.

use crate::config::VoprConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smdb_core::{DbError, MtTxn, Op, OracleViolation, SmDb};
use smdb_fault::{FaultCrash, FaultInjector, FaultPlan, Scheduler};
use smdb_sim::NodeId;
use smdb_workload::driver::{self, Hooks, Window};
use smdb_workload::{MixReport, Zipf};
use std::collections::BTreeSet;
use std::fmt;

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
    /// `Some((oracle, detail))` if an oracle failed — `"panic"` if anything
    /// in the run panicked; `None` = run passed.
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

/// A failed run's verdict: `(oracle, detail)`. Any engine error the
/// driver cannot absorb is the `engine-error` oracle.
struct Fatal(String, String);

impl From<DbError> for Fatal {
    fn from(e: DbError) -> Self {
        fatal("engine-error", e.to_string())
    }
}

impl From<OracleViolation> for Fatal {
    fn from(v: OracleViolation) -> Self {
        Fatal(v.oracle.into(), v.detail)
    }
}

fn fatal(oracle: &str, detail: impl Into<String>) -> Fatal {
    Fatal(oracle.into(), detail.into())
}

/// What a caught panic said.
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Conflict aborts a transaction may suffer before it is given up.
const RETRIES: usize = 8;

/// The fuzzer's side of one run: the transaction source, the fault and
/// oracle machinery, and the event log the driver's hooks write.
struct Harness<'a> {
    cfg: &'a VoprConfig,
    seed: u64,
    skip: &'a BTreeSet<usize>,
    sched: Scheduler,
    fault: FaultInjector,
    events: Vec<String>,
    fired: Vec<String>,
    committed: u64,
    records: u64,
    extra: Option<ExtraOracle<'a>>,
    /// Next transaction index to consider for admission.
    next_idx: usize,
    /// Transactions admitted so far (the checkpoint cadence counts these).
    admitted: usize,
}

impl Harness<'_> {
    fn crash(&mut self, db: &mut SmDb, c: &FaultCrash) {
        self.events.push(format!("X n{} {}#{}", c.node, c.site, c.hit));
        self.fired.push(c.to_string());
        db.crash(&[NodeId(c.node)]);
    }

    /// The next transaction index to admit, past any the shrinker dropped.
    fn next_index(&mut self) -> Option<usize> {
        while self.skip.contains(&self.next_idx) {
            self.next_idx += 1;
        }
        (self.next_idx < self.cfg.txns).then_some(self.next_idx)
    }

    /// Pick a home node: the candidate list is the survivors rotated so
    /// index 0 is the historical round-robin pick for `ordinal`.
    fn pick_home(&mut self, db: &SmDb, site: &'static str, ordinal: usize) -> NodeId {
        let surv = db.machine().surviving_nodes();
        let rot = ordinal % surv.len();
        let pick = self.sched.choose(site, surv.len());
        surv[(rot + pick) % surv.len()]
    }

    /// The standing oracles ([`SmDb::check_after_recover`]), then the
    /// test hook's.
    fn oracles(&mut self, db: &mut SmDb) -> Result<(), Fatal> {
        db.check_after_recover()?;
        if let Some(extra) = self.extra {
            extra(db, self.committed).map_err(|d| fatal("canary", d))?;
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
    fn mt_preamble(&mut self, db: &mut SmDb) -> Result<(), Fatal> {
        let mut batch: Vec<MtTxn> = Vec::new();
        for idx in 0..self.cfg.txns {
            let node = NodeId((idx % self.cfg.nodes as usize) as u16);
            // A distinct op stream (seed perturbed) so the preamble does
            // not mirror the interactive transactions slot-for-slot. Index
            // footprints are data-dependent; the epoch scheduler excludes
            // them by construction.
            let mut ops = gen_ops(self.cfg, self.seed ^ 0x00E1_0C4E, idx, node, self.records);
            ops.retain(|op| matches!(op, Op::Read(_) | Op::Update(..)));
            if !ops.is_empty() {
                batch.push(MtTxn { node, ops });
            }
        }
        self.fault.pause();
        let out = db.run_epochs(batch, 1);
        self.fault.resume();
        let out = out.map_err(|e| fatal("mt-preamble", e.to_string()))?;
        self.committed += out.committed;
        self.events.push(format!("mt e{} c{} d{}", out.epochs, out.committed, out.deferred));
        Ok(())
    }

    fn run(&mut self, db: &mut SmDb, report: &mut MixReport) -> Result<(), Fatal> {
        if self.cfg.mt {
            self.mt_preamble(db)?;
            // The standing oracles vet the merged post-epoch state before
            // any interactive transaction builds on it.
            self.oracles(db)?;
        }
        let shape = Window {
            window: self.cfg.window.max(1),
            drain_every: self.cfg.drain_every,
            retries: RETRIES,
        };
        driver::run(db, shape, self, report)?;
        // Close the instant-restart drain window: the final oracle pass
        // compares full states, which requires every deferred redo entry
        // retired. A crash mid-drain replans; the loop converges because
        // the fault plan is finite.
        while db.redo_pending() > 0 {
            let Some(&host) = db.machine().surviving_nodes().first() else {
                return Err(fatal("driver", "no surviving nodes"));
            };
            match db.drain_redo(host, 8) {
                Ok(n) => self.events.push(format!("dr {n}")),
                Err(e) => self.absorb(db, e)?,
            }
        }
        self.oracles(db)
    }
}

impl Hooks for Harness<'_> {
    type Fatal = Fatal;

    fn checkpoint_host(&mut self, db: &SmDb) -> Option<NodeId> {
        let (n, ck) = (self.admitted, self.cfg.checkpoint_every);
        (self.next_index().is_some() && ck > 0 && n > 0 && n.is_multiple_of(ck))
            .then(|| self.pick_home(db, "vopr.ck.host", n))
    }

    fn next_txn(&mut self, db: &SmDb) -> Option<(usize, NodeId, Vec<Op>)> {
        let idx = self.next_index()?;
        let node = self.pick_home(db, "vopr.home", idx);
        (self.next_idx, self.admitted) = (idx + 1, self.admitted + 1);
        Some((idx, node, gen_ops(self.cfg, self.seed, idx, node, self.records)))
    }

    /// Ops are regenerated for the new home (slot choice is node-relative).
    fn rehome(&mut self, db: &SmDb, _: usize, idx: usize, node: &mut NodeId, ops: &mut Vec<Op>) {
        *node = self.pick_home(db, "vopr.rehome", idx);
        *ops = gen_ops(self.cfg, self.seed, idx, *node, self.records);
    }

    /// Crash the fired victim and drive recovery to convergence (nested
    /// plan points may crash further nodes mid-recovery).
    fn absorb(&mut self, db: &mut SmDb, e: DbError) -> Result<(), Fatal> {
        let Some(c) = e.fault_crash() else {
            return Err(e.into());
        };
        self.crash(db, c);
        for _ in 0..8 {
            match db.recover_checked()? {
                Ok(o) => {
                    self.events.push(format!("R n{} a{}", o.recovery_node.0, o.aborted.len()));
                    return Ok(());
                }
                Err(e2) => match e2.fault_crash() {
                    Some(c2) => self.crash(db, c2),
                    None => return Err(fatal("recovery-error", e2.to_string())),
                },
            }
        }
        Err(fatal("recovery-livelock", "recovery did not converge in 8 attempts"))
    }

    /// After every round: retire a scheduler-chosen batch of deferred
    /// instant-restart redo on a scheduler-chosen survivor (choice 0 = one
    /// entry on the rotation host) — the drain itself can crash, the
    /// background fault site, which replans the deferred work under a
    /// second recovery — then run the standing oracles.
    fn between_rounds(&mut self, db: &mut SmDb, round: u64, _: usize) -> Result<bool, Fatal> {
        let finished = round - 1;
        if finished == 0 {
            return Ok(false);
        }
        if finished > 10_000 {
            return Err(fatal(
                "driver-livelock",
                format!("no termination after {finished} rounds"),
            ));
        }
        let mut crashed = false;
        if db.redo_pending() > 0 {
            let host = self.pick_home(db, "vopr.redo.host", finished as usize);
            let batch = 1 + self.sched.choose("vopr.redo.batch", 4);
            match db.drain_redo(host, batch) {
                Ok(n) => self.events.push(format!("dr {n}")),
                Err(e) => {
                    self.absorb(db, e)?;
                    crashed = true;
                }
            }
        }
        self.oracles(db)?;
        Ok(crashed)
    }

    fn committed(&mut self, _: &[Op]) {
        self.committed += 1;
    }

    fn log(&mut self, event: fmt::Arguments<'_>) {
        self.events.push(event.to_string());
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
    let mut h = Harness {
        cfg,
        seed,
        skip,
        sched: sched.clone(),
        fault,
        events: Vec::new(),
        fired: Vec::new(),
        committed: 0,
        records: db.record_count() as u64,
        extra,
        next_idx: 0,
        admitted: 0,
    };
    let mut report = MixReport::default();
    // A panic anywhere in the round — engine, driver or oracle — is a
    // finding with a repro line, not a dead harness.
    let run =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.run(&mut db, &mut report)));
    let run = run.unwrap_or_else(|p| Err(fatal("panic", panic_message(p))));
    let failure = run.err().map(|Fatal(oracle, detail)| (oracle, detail));
    RunOutcome {
        failure,
        events: h.events,
        tape: sched.take_tape(),
        committed: h.committed,
        stalls: report.lock_stalls + report.conflict_aborts,
        fired: h.fired,
    }
}
