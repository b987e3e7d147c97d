//! The six workloads and the repetition every one of them runs.
//!
//! A *repetition* builds a fresh engine, warms it with a quarter-length
//! forward run (together: the set-up sample), then runs `rounds` rounds of
//! *forward phase → crash episode*. The forward workloads have one long
//! round, the crash workloads sixteen short ones on the same engine. All
//! inputs derive from the seed; the same seed gives the same simulated
//! cycles, counts, log bytes and committed state on every repetition.

use crate::trace::Tracer;
use smdb_core::{DbConfig, MtOutcome, ProtocolKind, RecoveryOutcome, SmDb};
use smdb_sim::NodeId;
use smdb_workload::{run_mix, run_mix_mt, run_tp1, spawn_active, MixParams, Tp1Params};
use std::time::Instant;

pub const NODES: u16 = 8;

/// What one driver call is asked to run.
pub struct Fwd {
    pub seed: u64,
    pub txns: usize,
    /// Index of the call within the repetition (offsets the seed, picks
    /// the checkpoint host); warm-up calls start at [`WARMUP_CALL`].
    pub call: usize,
    pub threads: usize,
}

/// What one driver call did.
#[derive(Default)]
pub struct Forward {
    pub committed: u64,
    pub gave_up: u64,
    pub lock_stalls: u64,
    pub sim_cycles: u64,
    pub mt: Option<MtOutcome>,
    /// Host ms of the `checkpoint` call, where the harness itself made one.
    pub checkpoint_ms: Option<f64>,
}

pub struct Workload {
    pub name: &'static str,
    /// One line: which layers do the work, which are bypassed.
    pub why: &'static str,
    pub cfg: fn() -> DbConfig,
    /// Forward → crash rounds per repetition.
    pub rounds: usize,
    /// Transactions one forward phase commits.
    pub txns: usize,
    /// Transactions per driver call: a forward phase is `txns / chunk`
    /// calls, each one throughput sample.
    pub chunk: usize,
    /// OS threads the forward phase uses (1 except `epoch_mt2`).
    pub threads: usize,
    /// One driver call.
    forward: fn(&mut SmDb, &Fwd, &mut Tracer) -> Forward,
    /// A record slot in `victim`'s own partition that no surviving
    /// transaction of the crash episode has locked.
    victim_slot: fn(u16) -> u64,
}

const WARMUP_CALL: usize = 1 << 16;
const TP1_BATCH: usize = 1024;
const TP1_BRANCHES: u64 = 8;

fn tp1_cfg() -> DbConfig {
    let mut c = DbConfig::bench(NODES, ProtocolKind::VolatileSelectiveRedo);
    c.records = 65536;
    c.index_pages = 16384;
    c
}

/// One batch of `run_tp1` followed by a checkpoint hosted round-robin.
fn tp1_forward(db: &mut SmDb, f: &Fwd, tr: &mut Tracer) -> Forward {
    let s = tr.begin("workload.run_tp1");
    let r = run_tp1(
        db,
        Tp1Params {
            txns: f.txns,
            branches: TP1_BRANCHES,
            // History keys are spaced 2^20 apart per seed, so distinct call
            // seeds never collide on one engine.
            seed: f.seed + f.call as u64,
            ..Default::default()
        },
    );
    tr.end(s);
    let t = Instant::now();
    let s = tr.begin("core.engine.checkpoint");
    db.checkpoint(NodeId((f.call % NODES as usize) as u16)).expect("checkpoint");
    tr.end(s);
    Forward {
        committed: r.committed,
        gave_up: r.gave_up,
        sim_cycles: r.sim_cycles,
        checkpoint_ms: Some(ms_since(t)),
        ..Default::default()
    }
}

/// Account slot in the middle of `victim`'s branch shard (TP1 layout:
/// 8 branches, 32 tellers, then accounts sharded by home branch).
fn tp1_victim_slot(victim: u16) -> u64 {
    let accounts = 65536 - TP1_BRANCHES - TP1_BRANCHES * 4;
    let shard = accounts / TP1_BRANCHES;
    TP1_BRANCHES * 5 + victim as u64 * shard + shard / 2
}

fn mix_forward(db: &mut SmDb, params: MixParams, tr: &mut Tracer) -> Forward {
    let s = tr.begin("workload.run_mix");
    let r = run_mix(db, params);
    tr.end(s);
    Forward {
        committed: r.committed,
        gave_up: r.gave_up,
        lock_stalls: r.lock_stalls,
        sim_cycles: r.sim_cycles,
        ..Default::default()
    }
}

/// Slot `offset` into `victim`'s private partition of the mix layout
/// (`shared` shared slots first, then equal per-node partitions).
fn mix_victim_slot(records: u64, shared: u64, victim: u16, offset: u64) -> u64 {
    let private = (records - shared) / NODES as u64;
    shared + victim as u64 * private + offset
}

fn hot_cfg() -> DbConfig {
    DbConfig::bench(NODES, ProtocolKind::StableEager)
        .without_index()
        .with_early_lock_release()
        .with_lock_polling()
        .with_coalesced_forces()
}

fn hot_forward(db: &mut SmDb, f: &Fwd, tr: &mut Tracer) -> Forward {
    let p = MixParams { seed: f.seed + f.call as u64, ..MixParams::contended_tp1(f.txns) };
    mix_forward(db, p, tr)
}

fn read_cfg() -> DbConfig {
    let mut c = DbConfig::bench(NODES, ProtocolKind::VolatileSelectiveRedo).without_index();
    c.records = 65536;
    c
}

fn read_forward(db: &mut SmDb, f: &Fwd, tr: &mut Tracer) -> Forward {
    let p = MixParams {
        txns: f.txns,
        ops_per_txn: 4,
        read_fraction: 0.9,
        sharing: 0.5,
        shared_slots: 64,
        zipf_theta: 0.95,
        seed: f.seed + f.call as u64,
        ..Default::default()
    };
    mix_forward(db, p, tr)
}

fn crash_cfg() -> DbConfig {
    // E11's heap: one 96-byte record per line, so every lost line is an
    // independent page fault for the eager reinstall.
    let mut c = DbConfig::bench(NODES, ProtocolKind::VolatileSelectiveRedo).without_index();
    c.records = 65536;
    c.rec_data_size = 96;
    c
}

fn crash_instant_cfg() -> DbConfig {
    crash_cfg().with_instant_restart()
}

fn crash_forward(db: &mut SmDb, f: &Fwd, tr: &mut Tracer) -> Forward {
    let p = MixParams {
        txns: f.txns,
        ops_per_txn: 8,
        sharing: 0.3,
        shared_slots: 256,
        read_fraction: 0.2,
        checkpoint_every: 250,
        seed: f.seed + f.call as u64,
        ..Default::default()
    };
    mix_forward(db, p, tr)
}

fn mt_cfg() -> DbConfig {
    let mut c = DbConfig::bench(NODES, ProtocolKind::VolatileSelectiveRedo).with_sim_shards(64);
    c.records = 4096;
    c
}

fn mt_forward(db: &mut SmDb, f: &Fwd, tr: &mut Tracer) -> Forward {
    let p = MixParams {
        txns: f.txns,
        ops_per_txn: 4,
        read_fraction: 0.0,
        sharing: 0.0,
        shared_slots: 0,
        seed: f.seed + f.call as u64,
        ..Default::default()
    };
    let s = tr.begin("core.mt.run_epochs");
    let (r, mt) = run_mix_mt(db, p, f.threads).expect("run_mix_mt");
    tr.end(s);
    Forward {
        committed: r.committed,
        gave_up: r.gave_up,
        sim_cycles: r.sim_cycles,
        mt: Some(mt),
        ..Default::default()
    }
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "tp1_serial",
        why: "The paper's TP1: core.engine, btree history inserts, wal append/commit force and the checkpoint path work; no lock conflicts, coherence traffic only on 8 branch records.",
        cfg: tp1_cfg,
        rounds: 1,
        txns: 32 * TP1_BATCH,
        chunk: TP1_BATCH,
        threads: 1,
        forward: tp1_forward,
        victim_slot: tp1_victim_slot,
    },
    Workload {
        name: "hot_pipelined",
        why: "4 hot slots, Zipf 0.95, pure write, window 8 on StableEager+ELR: lock polling, line migration and Stable-LBM forces dominate; btree and checkpoints idle. Mirror image of tp1_serial.",
        cfg: hot_cfg,
        rounds: 1,
        txns: 50_000,
        chunk: 5_000,
        threads: 1,
        forward: hot_forward,
        victim_slot: |v| mix_victim_slot(4096, 4, v, 44),
    },
    Workload {
        name: "read_mostly",
        why: "90% reads over 64 shared slots: the lock and sim layers used the other way (S grants, replication, read-lock log records). A write-path gain that taxes reads shows here.",
        cfg: read_cfg,
        rounds: 1,
        txns: 100_000,
        chunk: 10_000,
        threads: 1,
        forward: read_forward,
        victim_slot: |v| mix_victim_slot(65536, 64, v, 44),
    },
    Workload {
        name: "crash_eager",
        why: "16 rounds of 1000-txn checkpointed mix then crash and eager recover on one engine: core.restart, wal scan, page reinstall and lock-space recovery work; forward layers are a minority.",
        cfg: crash_cfg,
        rounds: 16,
        txns: 1000,
        chunk: 1000,
        threads: 1,
        forward: crash_forward,
        victim_slot: |v| mix_victim_slot(65536, 256, v, 44),
    },
    Workload {
        name: "crash_instant",
        why: "crash_eager with instant restart and a background drain: the same recovery work split across open, on-demand and background. The pair must move together.",
        cfg: crash_instant_cfg,
        rounds: 16,
        txns: 1000,
        chunk: 1000,
        threads: 1,
        forward: crash_forward,
        victim_slot: |v| mix_victim_slot(65536, 256, v, 44),
    },
    Workload {
        name: "epoch_mt2",
        why: "Private pure-write mix through run_epochs on 2 OS threads: core.mt admission, lanes and barriers dominate; serial drivers bypassed. Fixed at 2 threads so hosts compare.",
        cfg: mt_cfg,
        rounds: 1,
        txns: 100_000,
        chunk: 10_000,
        threads: 2,
        forward: mt_forward,
        victim_slot: |v| mix_victim_slot(4096, 0, v, 256),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ----------------------------------------------------------------------
// Counters read from the layers' public stats
// ----------------------------------------------------------------------

/// Index into [`Counts`].
#[derive(Clone, Copy)]
#[repr(usize)]
pub enum C {
    SimReads,
    SimWrites,
    SimLocalHits,
    SimMigrations,
    SimReplications,
    SimInvalidations,
    SimLineLockAcquires,
    SimLineLockConflicts,
    LockAcquires,
    LockShared,
    LockWaits,
    LockFastHits,
    LockEarlyReleased,
    WalAppends,
    WalBytes,
    WalForces,
    WalForcesRequested,
    WalForcesCoalesced,
    WalRecordsForced,
    WalReadLockRecords,
    EngReads,
    EngUpdates,
    EngIndexOps,
    EngWouldBlocks,
    EngCommitDeps,
    EngUndoTagWrites,
    EngCheckpoints,
    EngPageFlushes,
    EngLbmForces,
    BtInserts,
    BtSearches,
    BtSplits,
    N,
}

/// Cumulative counters of one engine, in [`C`] order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Counts(pub [u64; C::N as usize]);

impl Counts {
    pub fn zero() -> Self {
        Counts([0; C::N as usize])
    }

    pub fn snapshot(db: &SmDb) -> Self {
        let mut c = Counts::zero();
        let mut set = |i: C, v: u64| c.0[i as usize] = v;
        let sim = db.machine().stats();
        set(C::SimReads, sim.reads);
        set(C::SimWrites, sim.writes);
        set(C::SimLocalHits, sim.local_hits);
        set(C::SimMigrations, sim.migrations);
        set(C::SimReplications, sim.replications);
        set(C::SimInvalidations, sim.invalidations);
        set(C::SimLineLockAcquires, sim.line_lock_acquires);
        set(C::SimLineLockConflicts, sim.line_lock_conflicts);
        let lock = db.lock_stats();
        set(C::LockAcquires, lock.acquires);
        set(C::LockShared, lock.shared_acquires);
        set(C::LockWaits, lock.waits);
        set(C::LockFastHits, lock.fast_hits);
        set(C::LockEarlyReleased, lock.early_released);
        let wal =
            |f: fn(&smdb_wal::NodeLogStats) -> u64| db.logs().iter().map(|l| f(l.stats())).sum();
        set(C::WalAppends, wal(|s| s.appends));
        set(C::WalBytes, wal(|s| s.bytes_appended));
        set(C::WalForces, wal(|s| s.forces));
        set(C::WalForcesRequested, wal(|s| s.forces_requested));
        set(C::WalForcesCoalesced, wal(|s| s.forces_coalesced));
        set(C::WalRecordsForced, wal(|s| s.records_forced));
        set(C::WalReadLockRecords, wal(|s| s.read_lock_records));
        let eng = db.stats();
        set(C::EngReads, eng.reads);
        set(C::EngUpdates, eng.updates);
        set(C::EngIndexOps, eng.index_inserts + eng.index_deletes);
        set(C::EngWouldBlocks, eng.would_blocks);
        set(C::EngCommitDeps, eng.commit_deps);
        set(C::EngUndoTagWrites, eng.undo_tag_writes);
        set(C::EngCheckpoints, eng.checkpoints);
        set(C::EngPageFlushes, eng.page_flushes);
        set(C::EngLbmForces, eng.lbm_forces);
        let bt = db.tree_stats();
        set(C::BtInserts, bt.inserts);
        set(C::BtSearches, bt.searches);
        set(C::BtSplits, bt.splits);
        c
    }

    /// Add `after - before` to `self`.
    pub fn add_delta(&mut self, before: &Counts, after: &Counts) {
        for i in 0..self.0.len() {
            self.0[i] += after.0[i] - before.0[i];
        }
    }

    pub fn get(&self, i: C) -> f64 {
        self.0[i as usize] as f64
    }
}

// ----------------------------------------------------------------------
// The crash episode
// ----------------------------------------------------------------------

/// One crash → recover → first transaction → drain, timed on both clocks.
pub struct Episode {
    pub crash_ms: f64,
    /// Crash injection → `recover()` returns.
    pub recover_ms: f64,
    /// Crash injection → first post-crash commit acknowledged.
    pub ttft_ms: f64,
    /// Crash injection → `redo_pending() == 0`.
    pub drained_ms: f64,
    pub first_txn_us: f64,
    pub drain_batch_us: Vec<f64>,
    pub ttft_sim_cycles: u64,
    /// Transactions active at the crash, and how many recovery aborted.
    pub active: usize,
    pub on_demand_redo: u64,
    pub background_redo: u64,
    pub outcome: RecoveryOutcome,
}

/// Per-repetition tally of operations attempted and failed, and of output
/// checks that did not hold.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

fn episode(
    db: &mut SmDb,
    w: &Workload,
    round: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Episode {
    let victim = NodeId((round % NODES as usize) as u16);
    let reader = NodeId(((round + 1) % NODES as usize) as u16);
    // Two in-flight transactions per node: the crash puts 2 of 16 at risk.
    let s = tr.begin("workload.spawn_active");
    let active = spawn_active(db, 2, 2, true, 5);
    tr.end(s);
    // Common clock origin, so simulated TTFT is recovery plus the first
    // transaction and not the skew the forward phase left behind.
    db.sync_clocks();
    let redo0 = db.instant_redo_counters();
    let clock0 = db.max_clock();

    let t = Instant::now();
    let s_crash = tr.begin("core.restart.crash");
    db.crash(&[victim]);
    tr.end(s_crash);
    let crash_ms = ms_since(t);
    let s_rec = tr.begin("core.restart.recover");
    let outcome = db.recover().expect("recover");
    tr.end(s_rec);
    let recover_ms = ms_since(t);
    let phases: Vec<(&'static str, u64)> =
        outcome.phases.iter().map(|p| (p.phase, p.wall_ns)).collect();
    tr.add_children(s_rec, &phases);

    // First post-crash transaction: a locked read in the victim's own
    // partition (free of survivor locks, where pending redo concentrates).
    let t_first = Instant::now();
    let s_first = tr.begin("core.restart.first_txn");
    let s = tr.begin("first_txn.begin");
    let txn = tally.op("post-crash begin", db.begin(reader));
    tr.end(s);
    if let Some(txn) = txn {
        let s = tr.begin("first_txn.read");
        tally.op("post-crash read", db.read(txn, (w.victim_slot)(victim.0)));
        tr.end(s);
        let s = tr.begin("first_txn.commit");
        tally.op("post-crash commit", db.commit(txn));
        tr.end(s);
    }
    tr.end(s_first);
    let ttft_ms = ms_since(t);
    let first_txn_us = t_first.elapsed().as_secs_f64() * 1e6;
    let ttft_sim_cycles = db.max_clock() - clock0;

    let mut drain_batch_us = Vec::new();
    while db.redo_pending() > 0 {
        let tb = Instant::now();
        let s = tr.begin("core.restart.drain_redo");
        let drained = tally.op("drain_redo", db.drain_redo(reader, 64));
        tr.end(s);
        drain_batch_us.push(tb.elapsed().as_secs_f64() * 1e6);
        if drained.is_none() {
            break;
        }
    }
    let drained_ms = ms_since(t);

    // Roll back what the episode left in flight (the victim's are already
    // gone) so the repetition ends in a fully committed state.
    for a in &active {
        let _ = db.abort(*a);
    }
    let s = tr.begin("check.ifa");
    let ifa = db.check_ifa(reader);
    tr.end(s);
    for v in ifa.violations.iter().take(3) {
        tally.errors.push(format!("{} round {round}: IFA violation: {v}", w.name));
    }
    db.reboot(victim);

    let redo1 = db.instant_redo_counters();
    Episode {
        crash_ms,
        recover_ms,
        ttft_ms,
        drained_ms,
        first_txn_us,
        drain_batch_us,
        ttft_sim_cycles,
        active: active.len(),
        on_demand_redo: redo1.on_demand - redo0.on_demand,
        background_redo: redo1.background - redo0.background,
        outcome,
    }
}

// ----------------------------------------------------------------------
// One repetition
// ----------------------------------------------------------------------

pub struct Rep {
    /// Engine build plus the quarter-length warm-up, host seconds.
    pub setup_s: f64,
    /// Per driver call of the forward phases: host seconds and
    /// transactions committed.
    pub forward_s: Vec<f64>,
    pub committed: Vec<u64>,
    pub gave_up: u64,
    pub lock_stalls: u64,
    pub sim_cycles: u64,
    /// Forward-phase deltas of the layers' counters.
    pub counts: Counts,
    /// Sum over the forward phases' `run_epochs` calls.
    pub mt: Option<MtOutcome>,
    pub checkpoint_ms: Vec<f64>,
    pub episodes: Vec<Episode>,
    /// FNV-1a over every record's committed value at the end.
    pub digest: u64,
    pub tally: Tally,
}

/// What every driver call of a repetition shares.
struct Run<'a> {
    w: &'a Workload,
    seed: u64,
    threads: usize,
}

impl Rep {
    fn new() -> Self {
        Rep {
            setup_s: 0.0,
            forward_s: Vec::new(),
            committed: Vec::new(),
            gave_up: 0,
            lock_stalls: 0,
            sim_cycles: 0,
            counts: Counts::zero(),
            mt: None,
            checkpoint_ms: Vec::new(),
            episodes: Vec::new(),
            digest: 0,
            tally: Tally::default(),
        }
    }

    pub fn committed_total(&self) -> u64 {
        self.committed.iter().sum()
    }

    /// Everything that must repeat exactly for a fixed seed — on every
    /// repetition, traced or not, at 1 or 2 threads.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut f = vec![self.digest, self.sim_cycles, self.gave_up, self.lock_stalls];
        f.extend_from_slice(&self.committed);
        f.extend_from_slice(&self.counts.0);
        for e in &self.episodes {
            let o = &e.outcome;
            f.extend([
                o.recovery_cycles,
                e.ttft_sim_cycles,
                o.aborted.len() as u64,
                o.scan_records,
                o.redo_applied,
                o.lost_lines,
                e.on_demand_redo + e.background_redo,
            ]);
        }
        f
    }

    /// Run `txns` transactions as driver calls of about `w.chunk` each,
    /// numbered from `first_call`, and book them.
    fn forward(
        &mut self,
        db: &mut SmDb,
        run: &Run,
        txns: usize,
        first_call: usize,
        tr: &mut Tracer,
    ) {
        let w = run.w;
        let calls = txns.div_ceil(w.chunk);
        for i in 0..calls {
            let f = Fwd {
                seed: run.seed,
                txns: txns / calls,
                call: first_call + i,
                threads: run.threads,
            };
            let before = Counts::snapshot(db);
            let t = Instant::now();
            let out = (w.forward)(db, &f, tr);
            self.forward_s.push(t.elapsed().as_secs_f64());
            self.counts.add_delta(&before, &Counts::snapshot(db));
            self.committed.push(out.committed);
            self.gave_up += out.gave_up;
            self.lock_stalls += out.lock_stalls;
            self.sim_cycles += out.sim_cycles;
            self.tally.attempted += out.committed + out.gave_up;
            self.tally.failed += out.gave_up;
            self.checkpoint_ms.extend(out.checkpoint_ms);
            if let Some(o) = out.mt {
                let m = self.mt.get_or_insert_with(MtOutcome::default);
                m.committed += o.committed;
                m.epochs += o.epochs;
                m.epoch_waits += o.epoch_waits;
                m.data_conflicts += o.data_conflicts;
                m.lock_conflicts += o.lock_conflicts;
                m.appender_stalls += o.appender_stalls;
                m.serial_retries += o.serial_retries;
            }
        }
    }
}

/// Scale a workload down by `div`: crash workloads drop rounds first (never
/// below two, so the reboot → next-round path still runs), then
/// transactions.
fn scaled(w: &Workload, div: usize) -> (usize, usize) {
    let rounds = (w.rounds / div).max(w.rounds.min(2));
    let txns = (w.txns * w.rounds / div / rounds).max(64);
    (rounds, txns)
}

pub fn run_rep(w: &Workload, seed: u64, div: usize, threads: usize, tr: &mut Tracer) -> Rep {
    let (rounds, txns) = scaled(w, div);
    // `run_tp1` multiplies its seed by 2^20; keep that far from overflow.
    let run = Run { w, seed: seed & 0xffff_ffff, threads };
    let mut rep = Rep::new();

    // Set-up: build the engine and warm it with a quarter of the
    // repetition's forward work (booked into a `Rep` that is dropped).
    let t = Instant::now();
    let s = tr.begin("setup");
    let mut db = SmDb::new((w.cfg)());
    Rep::new().forward(&mut db, &run, (rounds * txns / 4).max(64), WARMUP_CALL, tr);
    tr.end(s);
    rep.setup_s = t.elapsed().as_secs_f64();

    let calls_per_round = txns.div_ceil(w.chunk);
    for round in 0..rounds {
        tr.round = round as u32;
        let s = tr.begin("forward");
        rep.forward(&mut db, &run, txns, round * calls_per_round, tr);
        tr.end(s);
        let s = tr.begin("episode");
        let e = episode(&mut db, w, round, tr, &mut rep.tally);
        tr.end(s);
        rep.episodes.push(e);
    }

    // Nothing is in flight now: every record must read as its committed
    // value, and the committed state is digested for the determinism check.
    let s = tr.begin("check.digest");
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mismatched = 0u64;
    for slot in 0..db.record_count() as u64 {
        let v = db.current_value(slot).expect("record readable");
        if v != db.read_committed(slot).expect("shadow value") {
            mismatched += 1;
        }
        for b in &v {
            digest = (digest ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    tr.end(s);
    if mismatched > 0 {
        rep.tally.errors.push(format!(
            "{}: {mismatched} records differ from their committed value after the drain",
            w.name
        ));
    }
    rep.digest = digest;
    rep
}
