//! Golden-stats equivalence test for the flat-structure refactor.
//!
//! Runs the E3 (recovery cost) and E4 (log forces) scenarios on fixed
//! seeds and serialises every observable statistic — `SimStats`,
//! `EngineStats`, and the recovery outcome — into a canonical text form,
//! compared byte-for-byte against a committed fixture. The fixture was
//! generated from the `BTreeMap`-based simulator, so a passing run proves
//! the dense slot-array/open-addressed-index hot path is
//! behaviour-preserving: same coherence traffic, same clock charges, same
//! recovery work, for the exact workloads the paper reproduction reports.
//!
//! Regenerate (only when an *intentional* behaviour change occurs) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p smdb-bench --test golden_stats
//! ```

use smdb_core::{DbConfig, MtOutcome, ProtocolKind, RecoveryOutcome, SmDb};
use smdb_sim::NodeId;
use smdb_workload::{
    run_mix, run_mix_mt, run_mix_with_crash, spawn_active, CrashPlan, MixParams, MixReport,
};
use std::fmt::Write as _;

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn render_outcome(out: &mut String, o: &RecoveryOutcome) {
    let _ = writeln!(out, "outcome.crashed: {:?}", o.crashed);
    let _ = writeln!(out, "outcome.aborted: {:?}", o.aborted);
    let _ = writeln!(out, "outcome.preserved_active: {:?}", o.preserved_active);
    let _ = writeln!(out, "outcome.lost_lines: {}", o.lost_lines);
    let _ = writeln!(out, "outcome.redo_applied: {}", o.redo_applied);
    let _ = writeln!(out, "outcome.redo_skipped_cached: {}", o.redo_skipped_cached);
    let _ = writeln!(out, "outcome.redo_skipped_stable: {}", o.redo_skipped_stable);
    let _ = writeln!(out, "outcome.redo_superseded: {}", o.redo_superseded);
    let _ = writeln!(out, "outcome.scan_records: {}", o.scan_records);
    let _ = writeln!(out, "outcome.scan_records_max: {}", o.scan_records_max);
    let _ = writeln!(out, "outcome.pages_read: {}", o.pages_read);
    let _ = writeln!(out, "outcome.pages_read_max: {}", o.pages_read_max);
    let _ = writeln!(out, "outcome.ckpt_bound_lsn: {}", o.ckpt_bound_lsn);
    let _ = writeln!(out, "outcome.index_redo_applied: {}", o.index_redo_applied);
    let _ = writeln!(out, "outcome.undo_records_applied: {}", o.undo_records_applied);
    let _ = writeln!(out, "outcome.tags_cleared: {}", o.tags_cleared);
    let _ = writeln!(out, "outcome.lock_recovery: {:?}", o.lock_recovery);
    let _ = writeln!(out, "outcome.btree_recovery: {:?}", o.btree_recovery);
    let _ = writeln!(out, "outcome.recovery_cycles: {}", o.recovery_cycles);
    for p in &o.phases {
        // wall_ns deliberately excluded: host time is not deterministic.
        let _ = writeln!(out, "outcome.phase.{}: {} cycles", p.phase, p.sim_cycles);
    }
}

fn render_db(out: &mut String, db: &SmDb) {
    let _ = writeln!(out, "sim: {:?}", db.machine().stats());
    let _ = writeln!(out, "engine: {:?}", db.stats());
    let _ = writeln!(out, "max_clock: {}", db.machine().max_clock());
    let _ = writeln!(out, "log_forces: {}", db.total_log_forces());
}

/// The E3 scenario, verbatim from `smdb_bench::e3_recovery_cost` but with
/// full stats capture.
fn golden_e3(out: &mut String) {
    for sharing in [0.1, 0.9] {
        for p in [ProtocolKind::VolatileRedoAll, ProtocolKind::VolatileSelectiveRedo] {
            let _ = writeln!(out, "[e3 protocol={p:?} sharing={sharing}]");
            let mut db = SmDb::new(DbConfig::bench(8, p));
            run_mix(
                &mut db,
                MixParams { txns: 60, sharing, read_fraction: 0.2, ..Default::default() },
            );
            let _ = spawn_active(&mut db, 2, 2, true, 5);
            db.sync_clocks();
            let outcome = db.crash_and_recover(&[NodeId(0)]).expect("recovery");
            db.check_ifa(NodeId(1)).assert_ok();
            render_outcome(out, &outcome);
            render_db(out, &db);
            let _ = writeln!(out);
        }
    }
}

/// The E4 scenario, verbatim from `smdb_bench::e4_log_forces` with full
/// stats capture (no crash: this pins the normal-operation hot path).
fn golden_e4(out: &mut String) {
    for sharing in [0.0, 1.0] {
        for p in ProtocolKind::ifa_protocols() {
            let _ = writeln!(out, "[e4 protocol={p:?} sharing={sharing}]");
            let mut db = SmDb::new(DbConfig::bench(8, p).without_index());
            let report = run_mix(
                &mut db,
                MixParams { txns: 60, sharing, read_fraction: 0.3, ..Default::default() },
            );
            let _ = writeln!(out, "committed: {}", report.committed);
            let _ = writeln!(out, "report_cycles: {}", report.sim_cycles);
            render_db(out, &db);
            let _ = writeln!(out);
        }
    }
}

/// The restart scenario: an un-checkpointed 5 000-transaction contended
/// pipelined run with early lock release (every retained log is long and
/// dominated by four hot records), two in-flight transactions per node —
/// the first of nodes 0 and 1 pipelined-committed but not yet forced —
/// then a crash of node 0. Pins every deterministic product of restart
/// recovery: scan / redo / superseded / skipped / undo counters, the
/// lock-recovery stats, recovery cycles and the phase order with its
/// per-phase cycles.
fn golden_restart(out: &mut String) {
    for (p, instant, crashed) in restart_cells() {
        let all = if crashed.len() > 1 { " crashed=all" } else { "" };
        let _ = writeln!(out, "[restart protocol={p:?} instant={instant}{all}]");
        let (mut db, committed) = restart_scenario(p, instant);
        let _ = writeln!(out, "committed: {committed}");
        let outcome = db.crash_and_recover(&crashed).expect("recovery");
        let _ = writeln!(out, "redo_pending_at_open: {}", db.redo_pending());
        let scan = db.machine().surviving_nodes()[0];
        while db.redo_pending() > 0 {
            db.drain_redo(scan, 64).expect("drain");
        }
        db.drain_commit_pipeline().expect("pipeline drain");
        db.check_ifa(scan).assert_ok();
        render_outcome(out, &outcome);
        let _ = writeln!(out, "instant_redo: {:?}", db.instant_redo_counters());
        render_db(out, &db);
        let _ = writeln!(out);
    }
}

/// The ten cells of the restart scenario: four IFA protocols × eager /
/// instant restart and the FA-only baseline, each with node 0 crashed, plus
/// a total failure — every node crashed — under Volatile LBM with Selective
/// Redo. The last two run the full restart.
fn restart_cells() -> Vec<(ProtocolKind, bool, Vec<NodeId>)> {
    let mut cells = Vec::new();
    for p in ProtocolKind::ifa_protocols() {
        cells.push((p, false, vec![NodeId(0)]));
        cells.push((p, true, vec![NodeId(0)]));
    }
    cells.push((ProtocolKind::FaOnly, false, vec![NodeId(0)]));
    cells.push((ProtocolKind::VolatileSelectiveRedo, false, (0..8).map(NodeId).collect()));
    cells
}

/// One cell of the restart scenario up to the moment before the crash:
/// the engine and the number of transactions the forward run committed.
fn restart_scenario(p: ProtocolKind, instant: bool) -> (SmDb, u64) {
    let mut cfg =
        DbConfig::bench(8, p).without_index().with_early_lock_release().with_lock_polling();
    if instant {
        cfg = cfg.with_instant_restart();
    }
    let mut db = SmDb::new(cfg);
    let report = run_mix(&mut db, MixParams::contended_tp1(5000));
    let active = spawn_active(&mut db, 2, 2, true, 5);
    for txn in [active[0], active[2]] {
        db.commit_pipelined(txn).expect("pipelined commit");
    }
    (db, report.committed)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a step over `bytes`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a over every committed record image, in slot order.
fn committed_digest(db: &SmDb) -> u64 {
    let mut digest = FNV_OFFSET;
    for slot in 0..db.record_count() as u64 {
        fnv(&mut digest, &db.read_committed(slot).expect("slot readable"));
    }
    digest
}

/// Everything a driver run leaves behind that a rewrite of the loop could
/// perturb: the report, the log volume, the makespan and a digest of the
/// committed record images.
fn render_run(out: &mut String, report: &MixReport, db: &SmDb) {
    let _ = writeln!(out, "report: {report:?}");
    let log_bytes: u64 =
        (0..db.config().nodes).map(|n| db.logs().log(NodeId(n)).stats().bytes_appended).sum();
    let _ = writeln!(out, "log_bytes: {log_bytes}");
    let _ = writeln!(out, "max_clock: {}", db.max_clock());
    let _ = writeln!(out, "committed_digest: {:#018x}", committed_digest(db));
    let _ = writeln!(out);
}

fn pipelined_cfg(p: ProtocolKind) -> DbConfig {
    DbConfig::small(4, p).with_lock_polling()
}

/// The transaction drivers' corners no other fixture reaches, for all
/// five protocols: a serial index mix that exhausts its retry budget
/// against parked lock holders, a pipelined mix whose crash plan fires
/// mid-window, a pipelined read+update mix that needs the deadlock
/// breaker, periodic checkpoints in both modes, and an epoch-scheduled
/// mix that splits into epochs. (No `run_mix_mt` configuration reaches
/// the scheduler's serial-retry path: lanes never leave the footprint
/// admission computed for a record-only mix.)
fn golden_driver(out: &mut String) {
    let mut protocols = ProtocolKind::ifa_protocols().to_vec();
    protocols.push(ProtocolKind::FaOnly);
    for p in protocols {
        let _ = writeln!(out, "[driver serial-gave-up protocol={p:?}]");
        let mut db = SmDb::new(DbConfig::small(4, p));
        let _ = spawn_active(&mut db, 2, 2, true, 5);
        let report = run_mix(
            &mut db,
            MixParams {
                txns: 80,
                sharing: 0.9,
                shared_slots: 16,
                index_fraction: 0.3,
                retries: 1,
                ..Default::default()
            },
        );
        assert!(report.gave_up > 0, "{p:?}: some transaction must exhaust its retries");
        render_run(out, &report, &db);

        let _ = writeln!(out, "[driver pipelined-crash protocol={p:?}]");
        let mut db = SmDb::new(pipelined_cfg(p).with_early_lock_release());
        let plan = CrashPlan { after_txns: 37, nodes: vec![NodeId(2)] };
        let (report, recovery) =
            run_mix_with_crash(&mut db, MixParams::contended_tp1(120), Some(plan))
                .expect("pipelined mix with crash");
        assert!(report.crash_fired, "{p:?}: the plan fires mid-window");
        let outcome = recovery.expect("crash fired");
        let _ = writeln!(out, "outcome.aborted: {:?}", outcome.aborted);
        render_run(out, &report, &db);

        let _ = writeln!(out, "[driver pipelined-deadlock protocol={p:?}]");
        let mut db = SmDb::new(pipelined_cfg(p));
        let report = run_mix(
            &mut db,
            MixParams { read_fraction: 0.5, seed: 0xDEAD, ..MixParams::contended_tp1(120) },
        );
        assert!(report.conflict_aborts > 0, "{p:?}: S->X upgrades must reach the breaker");
        render_run(out, &report, &db);

        for window in [0, 4] {
            let _ = writeln!(out, "[driver checkpoint window={window} protocol={p:?}]");
            let mut db = SmDb::new(pipelined_cfg(p));
            let report = run_mix(
                &mut db,
                MixParams {
                    txns: 90,
                    sharing: 0.6,
                    checkpoint_every: 7,
                    commit_window: window,
                    drain_every: 3,
                    ..Default::default()
                },
            );
            let _ = writeln!(out, "checkpoints: {}", db.checkpoint_store().checkpoints_taken);
            render_run(out, &report, &db);
        }

        let _ = writeln!(out, "[driver epoch-mt protocol={p:?}]");
        let params = MixParams {
            txns: 200,
            sharing: 0.6,
            shared_slots: 16,
            zipf_theta: 0.5,
            seed: 0xD5,
            ..Default::default()
        };
        // The same cell at 1, 2, 3 and 4 OS threads, rendered once.
        let mut cell = None;
        for threads in 1..=4 {
            let mut db = SmDb::new(DbConfig::small(4, p).with_sim_shards(32));
            let (report, mt) = run_mix_mt(&mut db, params.clone(), threads).expect("mt run");
            assert!(mt.epoch_waits > 0, "{p:?}: sharing must split the run into epochs");
            let mut got = format!("mt: {mt:?}\n");
            render_run(&mut got, &report, &db);
            let want = cell.get_or_insert_with(|| got.clone());
            assert_eq!(*want, got, "{p:?}: {threads} threads diverged from 1 thread");
        }
        out.push_str(&cell.expect("four repetitions ran"));
    }
}

/// Compare `got` byte-for-byte against the committed fixture `name`
/// (rewriting it instead under `UPDATE_GOLDEN`).
fn check_golden(name: &str, got: &str) {
    let path = fixture_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir fixtures");
        std::fs::write(&path, got).expect("write fixture");
        eprintln!("rewrote {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); run with UPDATE_GOLDEN=1", path.display())
    });
    if got != want {
        // Find the first diverging line for a readable failure.
        let (mut line_no, mut context) = (0usize, String::new());
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                line_no = i + 1;
                context = format!("got:  {g}\nwant: {w}");
                break;
            }
        }
        if context.is_empty() {
            context = format!(
                "line-count mismatch: got {} lines, fixture {} lines",
                got.lines().count(),
                want.lines().count()
            );
        }
        panic!(
            "golden stats diverged from fixture {name} at line {line_no}:\n{context}\n\
             (the change must be behaviour-preserving; regenerate with \
             UPDATE_GOLDEN=1 only for intentional changes)"
        );
    }
}

#[test]
fn golden_e3_e4_stats_equivalence() {
    let mut got = String::new();
    golden_e3(&mut got);
    golden_e4(&mut got);
    check_golden("e3_e4_stats.golden", &got);
}

/// `report --fast`: its stdout, then every CSV `--csv` writes, through the
/// entry point the binary calls. These are the paper-mapped tables
/// EXPERIMENTS.md quotes, all in simulated cycles and counts: a change
/// that moves a row says so and explains it.
#[test]
fn golden_report_fast() {
    let report = smdb_bench::report::render(true, &[]).expect("every cell renders");
    let mut got = report.text;
    for (name, contents) in &report.csvs {
        let _ = writeln!(got, "--- results/{name}.csv ---");
        got += contents;
    }
    check_golden("report_fast.golden", &got);
}

#[test]
fn golden_restart_outcome() {
    let mut got = String::new();
    golden_restart(&mut got);
    check_golden("restart_outcome.golden", &got);
}

/// Finish whatever the engine still owes after a recovery and check IFA.
fn settle_and_check_ifa(db: &mut SmDb, scan_node: NodeId) {
    while db.redo_pending() > 0 {
        db.drain_redo(scan_node, 64).expect("drain");
    }
    db.drain_commit_pipeline().expect("pipeline drain");
    db.check_ifa(scan_node).assert_ok();
}

/// The Selective-Redo probe asks about the redo plan's lines only; on
/// every cell of the restart scenario it must answer what the whole-cache
/// snapshot it replaced answers — also when a first recovery attempt died
/// after its reinstall phase and left stale stable images in a cache,
/// whether the node that holds them dies next (the usual continuation) or
/// survives into the second attempt (where trusting them would skip redo
/// the records still need) — the full-scope cells included, whose restart
/// has the same phase boundaries. The plan itself, and the committed values
/// beside it, must be what a fold over every retained log record says
/// (`check_redo_plan`) at the same points.
#[test]
fn plan_sized_probe_equals_whole_cache_snapshot() {
    use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
    let assert_exact = |db: &SmDb, at: &str| {
        let diffs = db.check_cached_probe();
        assert!(diffs.is_empty(), "cached probe diverged {at}:\n  {}", diffs.join("\n  "));
        let diffs = db.check_redo_plan();
        assert!(diffs.is_empty(), "redo plan diverged {at}:\n  {}", diffs.join("\n  "));
    };
    for (p, instant, crashed) in restart_cells() {
        let at = format!("{p:?} instant={instant} crashed={}", crashed.len());
        let (mut db, _) = restart_scenario(p, instant);
        db.crash(&crashed);
        assert_exact(&db, &at);
        db.recover().expect("recovery");
        let scan = db.machine().surviving_nodes()[0];
        settle_and_check_ifa(&mut db, scan);

        for second_victim_is_host in [true, false] {
            let at = format!("{at}, interrupted, host dies next: {second_victim_is_host}");
            let (mut db, _) = restart_scenario(p, instant);
            let fault = FaultInjector::new();
            db.set_fault_injector(fault.clone());
            db.crash(&[NodeId(0)]);
            // The second phase boundary: reinstall is done.
            fault.arm(FaultPlan::single(CrashPoint::new(smdb_core::FAULT_RECOVERY_PHASE, 1)));
            let err = db.recover().expect_err("armed phase point must fire");
            let host = NodeId(err.fault_crash().expect("a crash point").node);
            let bystander = NodeId(if host == NodeId(7) { 6 } else { 7 });
            assert_exact(&db, &format!("{at}, before the second crash"));
            db.crash(&[if second_victim_is_host { host } else { bystander }]);
            assert_exact(&db, &at);
            let outcome = db.recover().unwrap_or_else(|e| panic!("{at}: {e}"));
            let scan = db.machine().surviving_nodes()[0];
            let planned = outcome.redo_applied
                + outcome.redo_skipped_cached
                + outcome.redo_skipped_stable
                + db.redo_pending() as u64;
            assert_ne!(planned, 0, "{at}: the probe was asked about an empty plan");
            settle_and_check_ifa(&mut db, scan);
        }
    }
}

#[test]
fn golden_driver_corners() {
    let mut got = String::new();
    golden_driver(&mut got);
    check_golden("driver_corners.golden", &got);
}

/// Everything one `run_mix_mt` call leaves behind that a rewrite of the
/// epoch scheduler could perturb: both reports, the lock manager's and
/// the simulator's counters, every node's log (counters, length, a digest
/// of every record), the committed images and the makespan.
fn render_mt(report: &MixReport, mt: &MtOutcome, db: &SmDb) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "mt: {mt:?}");
    let _ = writeln!(out, "report: {report:?}");
    let _ = writeln!(out, "lock: {:?}", db.lock_stats());
    let _ = writeln!(out, "sim: {:?}", db.machine().stats());
    for n in 0..db.config().nodes {
        let log = db.logs().log(NodeId(n));
        let mut digest = FNV_OFFSET;
        for r in log.records() {
            fnv(&mut digest, format!("{r:?}").as_bytes());
        }
        let _ = writeln!(
            out,
            "log[{n}]: {:?} records={} digest={digest:#018x}",
            log.stats(),
            log.records().len()
        );
    }
    let _ = writeln!(out, "committed_digest: {:#018x}", committed_digest(db));
    let _ = writeln!(out, "max_clock: {}", db.max_clock());
    out
}

/// One cell of the epoch-scheduler fixture: the same run at 1, 2, 3 and 4
/// OS threads (3 divides none of the lane counts these cells produce),
/// rendered identically at each, appended to `out` once. `record` runs
/// every repetition under a schedule tape recorded from that seed.
fn mt_cell(
    out: &mut String,
    label: &str,
    cfg: &DbConfig,
    params: &MixParams,
    record: Option<u64>,
) -> (MtOutcome, SmDb) {
    let mut base: Option<(String, MtOutcome, SmDb)> = None;
    for threads in 1..=4 {
        let mut db = SmDb::new(cfg.clone());
        if let Some(seed) = record {
            db.sched_handle().start_recording(seed);
        }
        let (report, mt) = run_mix_mt(&mut db, params.clone(), threads).expect("mt run");
        assert_eq!(report.committed, params.txns as u64, "{label}: everything commits");
        let got = render_mt(&report, &mt, &db);
        match &base {
            None => base = Some((got, mt, db)),
            Some((want, ..)) => {
                assert_eq!(*want, got, "{label}: {threads} threads diverged from 1 thread")
            }
        }
    }
    let (rendered, mt, db) = base.expect("four repetitions ran");
    let _ = writeln!(out, "[mt {label}]");
    out.push_str(&rendered);
    let _ = writeln!(out);
    (mt, db)
}

/// `(txn, name)` pairs some log holds both a granted Shared and a granted
/// Exclusive acquisition record for. A transaction's own plan asks for each
/// name once, in its strongest mode, and lanes append no lock records, so
/// such a pair is a sibling upgrade: admission promoted the grant of an
/// earlier transaction of the node for a later one that piggybacks on it.
fn sibling_upgrades(db: &SmDb) -> usize {
    use smdb_wal::{LockModeRepr, LogPayload};
    use std::collections::BTreeSet;
    let mut shared = BTreeSet::new();
    let mut upgraded = BTreeSet::new();
    for n in 0..db.config().nodes {
        for r in db.logs().log(NodeId(n)).records() {
            if let LogPayload::LockAcquire { txn, name, mode, queued: false } = r.payload {
                match mode {
                    LockModeRepr::Shared => {
                        shared.insert((txn, name));
                    }
                    LockModeRepr::Exclusive if shared.contains(&(txn, name)) => {
                        upgraded.insert((txn, name));
                    }
                    LockModeRepr::Exclusive => {}
                }
            }
        }
    }
    upgraded.len()
}

/// The epoch scheduler's corners `driver_corners.golden`'s five
/// `run_mix_mt` cells (4 nodes, one mix) do not reach, each byte-identical
/// at 1–4 threads: lopsided lanes from stripe false sharing alone, a
/// sibling's Shared grant upgraded for a later sibling, a candidate
/// blocked in the lock space, and a tape that defers admissions.
#[test]
fn golden_mt_schedule() {
    let mut got = String::new();
    let small = |p| DbConfig::small(4, p).with_sim_shards(32);

    // `perf`'s `epoch_mt2` at a tenth of one driver call: private
    // partitions, pure write. Neighbouring partitions meet in a boundary
    // page, so a node stalls on a stripe and sits the epoch out while the
    // others keep admitting.
    let mut cfg = DbConfig::bench(8, ProtocolKind::VolatileSelectiveRedo).with_sim_shards(64);
    cfg.records = 4096;
    let params = MixParams {
        txns: 1000,
        ops_per_txn: 4,
        read_fraction: 0.0,
        sharing: 0.0,
        shared_slots: 0,
        seed: 0xE12,
        ..Default::default()
    };
    let (mt, _) = mt_cell(&mut got, "private-write 8 nodes 64 stripes", &cfg, &params, None);
    assert!(mt.data_conflicts > 0, "partition boundaries must collide on stripes");
    assert_eq!(mt.lock_conflicts, 0, "private partitions share no record name");

    let params = MixParams {
        txns: 300,
        ops_per_txn: 4,
        read_fraction: 0.5,
        sharing: 0.5,
        shared_slots: 8,
        seed: 0x5B,
        ..Default::default()
    };
    let cfg = small(ProtocolKind::VolatileSelectiveRedo);
    let (_, db) = mt_cell(&mut got, "read-write sibling upgrade", &cfg, &params, None);
    assert!(sibling_upgrades(&db) > 0, "a Shared sibling grant must be upgraded");

    let params = MixParams {
        txns: 120,
        ops_per_txn: 4,
        read_fraction: 0.0,
        sharing: 1.0,
        shared_slots: 4,
        zipf_theta: 0.95,
        seed: 0xC0,
        ..Default::default()
    };
    let cfg = small(ProtocolKind::StableEager);
    let (mt, _) = mt_cell(&mut got, "full-sharing zipf stable-eager", &cfg, &params, None);
    assert!(mt.lock_conflicts > 0, "four hot names must collide in the lock space");

    let params = MixParams {
        txns: 200,
        ops_per_txn: 4,
        read_fraction: 0.25,
        sharing: 0.2,
        shared_slots: 16,
        zipf_theta: 0.5,
        seed: 0xD5,
        ..Default::default()
    };
    let cfg = small(ProtocolKind::VolatileSelectiveRedo);
    let (mt, _) = mt_cell(&mut got, "recorded tape", &cfg, &params, Some(0xBEEF));
    assert!(mt.deferred > 0, "the recorded schedule must defer an admission");

    check_golden("mt_schedule.golden", &got);
}
