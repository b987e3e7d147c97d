//! End-to-end crash-point sweep: the fault-injection subsystem's main
//! integration harness.
//!
//! For each Table-1 protocol, a seeded workload is dry-run once with a
//! counting injector to enumerate every crash point it visits (WAL record
//! forces, line migrations and invalidations, stable-page line flushes,
//! commit-path points, recovery-phase boundaries, the analysis scan's log
//! readers, the eager plan's page readers). The sweep driver then
//! replays the scenario once per sampled point — the victim node dies
//! mid-operation with whatever partial state the layer left behind — and
//! once per sampled (primary, secondary) pair, where a second node dies
//! while recovery from the first crash is still in flight. The standing
//! oracles are the engine's battery: its first call
//! (`SmDb::check_before_recover`) after every crash, its second
//! (`SmDb::check_after_recover`) after every recovery and at the end of
//! every schedule, and the commit predicate alone
//! (`SmDb::check_predicate_alone`) after every recovery a nested crash
//! interrupts (`SmDb::recover_checked` runs all three around a
//! `recover`). Every failure is a one-line repro: scenario label, seed,
//! and the `site#hit` plan.
//!
//! Bounded by default so tier-1 stays fast; `SMDB_FULL_SWEEP=1` (see
//! `scripts/crash_sweep.sh`) sweeps every enumerated point.

use smdb::core::fault::sweep::{sweep, RunMode, RunOutput, SweepConfig, SweepReport};
use smdb::core::fault::{CrashPoint, FaultInjector, FaultPlan, Mode, SiteVisits};
use smdb::core::{
    DbConfig, DbError, ProtocolKind, SmDb, FAULT_COMMIT_DEP, FAULT_RECOVERY_PHASE,
    FAULT_REDO_BACKGROUND, FAULT_REDO_ON_DEMAND, FAULT_RESTART_INSTALL, FAULT_RESTART_SCAN,
};
use smdb::sim::NodeId;
use smdb::wal::{FAULT_CHECKPOINT_RECORD, FAULT_TRUNCATE};
use smdb::workload::{run_mix_with_crash, spawn_active, MixParams};

const SEED: u64 = 0x5EED_CAFE;

fn params(seed: u64) -> MixParams {
    MixParams {
        txns: 16,
        ops_per_txn: 4,
        sharing: 0.6,
        read_fraction: 0.2,
        index_fraction: 0.25,
        seed,
        // Exercise the checkpoint + truncation paths (and their crash
        // points) in every sweep scenario.
        checkpoint_every: 5,
        ..Default::default()
    }
}

/// The early-lock-release variant of the sweep workload: the pipelined
/// group-commit driver over polling locks, so commit records sit
/// unforced while successors already run on violated locks — the window
/// the `core.commit.dep` crash point (and the cascade-abort machinery
/// behind it) exists for. Index ops stay off: the pipelined driver's
/// deadlock freedom relies on sorted record-lock acquisition.
fn elr_params(seed: u64) -> MixParams {
    MixParams {
        index_fraction: 0.0,
        read_fraction: 0.0,
        commit_window: 4,
        drain_every: 3,
        ..params(seed)
    }
}

/// Encode the sweep scenario in the fuzzer's `cfg=` syntax so a printed
/// `FAIL` line carries enough context to replay it directly (protocol,
/// node count, workload shape, pipelining knobs). The fraction knobs are
/// percentages of the `params`/`elr_params` values above.
fn scenario_context(protocol: ProtocolKind, elr: bool) -> String {
    let tag = match protocol {
        ProtocolKind::FaOnly => "FA",
        ProtocolKind::VolatileRedoAll => "VRA",
        ProtocolKind::VolatileSelectiveRedo => "VSR",
        ProtocolKind::StableEager => "SE",
        ProtocolKind::StableTriggered => "ST",
    };
    if elr {
        format!("p:{tag},n:4,t:16,o:4,rf:0,sh:60,ix:0,ck:5,w:4,d:3,elr:1")
    } else {
        format!("p:{tag},n:4,t:16,o:4,rf:20,sh:60,ix:25,ck:5,w:1,d:0,elr:0")
    }
}

/// Drive crash + recovery after an injected fire. Nested fires — the
/// recovery node itself dying mid-restart — surface as further
/// `FaultCrash` errors out of `recover`: crash the new victim and recover
/// again from a fresh survivor until the restart converges.
fn drive_recovery(db: &mut SmDb, first: DbError) -> Result<(), String> {
    let mut err = first;
    for _ in 0..8 {
        let Some(c) = err.fault_crash().copied() else {
            return Err(format!("non-crash error out of scenario: {err}"));
        };
        db.crash(&[NodeId(c.node)]);
        match db.recover_checked()? {
            Ok(_) => return Ok(()),
            Err(e) => err = e,
        }
    }
    Err("recovery did not converge after 8 nested crashes".into())
}

/// One scenario execution in the given sweep mode: fresh database, seeded
/// workload — with early lock release and the pipelined driver when
/// `elr` — crash driving on fire, oracles, injector snapshot.
fn run_scenario(protocol: ProtocolKind, mode: &RunMode, elr: bool) -> Result<RunOutput, String> {
    let mut cfg = DbConfig::small(4, protocol);
    if elr {
        cfg = cfg.with_early_lock_release().with_lock_polling();
    }
    let mut db = SmDb::new(cfg);
    let f = FaultInjector::new();
    db.set_fault_injector(f.clone());
    match mode {
        RunMode::Count => f.start_counting(),
        RunMode::Replay(plan) => f.arm(plan.clone()),
        RunMode::CountDuringRecovery(plan) => f.arm_then_count(plan.clone()),
    }
    let p = if elr { elr_params(SEED) } else { params(SEED) };
    match run_mix_with_crash(&mut db, p, None) {
        Ok(_) => {}
        Err(e) => drive_recovery(&mut db, e)?,
    }
    // A crash that cut the pipelined run short also skipped the driver's
    // final drain, stranding surviving commit records unacknowledged
    // (appended, locks violated away, no covering force). Drain them now
    // — the group-commit daemon catching up after restart. The drain can
    // itself land on a still-armed crash point; drive recovery and retry.
    while db.pending_commit_count() > 0 {
        match db.drain_commit_pipeline() {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => drive_recovery(&mut db, e)?,
        }
    }
    // Snapshot the injector before the last oracle pass: the battery
    // pauses it, but an armed point the perturbed path never reached is
    // done with here.
    let expected = match mode {
        RunMode::Count => 0,
        RunMode::Replay(p) | RunMode::CountDuringRecovery(p) => p.points.len(),
    };
    let all_fired = f.fired().len() == expected;
    let visits = if f.mode() == Mode::Counting {
        f.take_visits()
    } else {
        f.off();
        Vec::new()
    };
    db.check_after_recover()?;
    Ok(RunOutput { visits, all_fired })
}

fn sweep_protocol(protocol: ProtocolKind, label: &str) -> SweepReport {
    let full = std::env::var("SMDB_FULL_SWEEP").map(|v| v == "1").unwrap_or(false);
    let cfg = SweepConfig {
        label: label.to_string(),
        seed: SEED,
        max_single: if full { usize::MAX } else { 60 },
        max_nested: if full { 200 } else { 15 },
        nested_primaries: if full { 12 } else { 5 },
        context: scenario_context(protocol, false),
    };
    let report = sweep(&cfg, |mode| run_scenario(protocol, mode, false));
    println!(
        "{label}: {} points, {} single + {} nested replays, {} unfired",
        report.points_enumerated, report.single_runs, report.nested_runs, report.unfired
    );
    assert!(report.passed(), "{}", report.failures.join("\n"));
    report
}

/// Per-protocol floors: 4 × 50 single replays and 4 × 13 nested replays
/// keep the suite above 200 distinct single crash points and 50 nested
/// schedules across the four Table-1 protocols.
fn assert_coverage(r: &SweepReport) {
    assert!(r.single_runs >= 50, "{}: only {} single replays", r.label, r.single_runs);
    assert!(r.nested_runs >= 13, "{}: only {} nested replays", r.label, r.nested_runs);
}

#[test]
fn sweep_volatile_selective_redo() {
    assert_coverage(&sweep_protocol(ProtocolKind::VolatileSelectiveRedo, "volatile_selective"));
}

#[test]
fn sweep_volatile_redo_all() {
    assert_coverage(&sweep_protocol(ProtocolKind::VolatileRedoAll, "volatile_redo_all"));
}

#[test]
fn sweep_stable_eager() {
    assert_coverage(&sweep_protocol(ProtocolKind::StableEager, "stable_eager"));
}

#[test]
fn sweep_stable_triggered() {
    assert_coverage(&sweep_protocol(ProtocolKind::StableTriggered, "stable_triggered"));
}

/// The same four-protocol sweep with **early lock release** and the
/// pipelined group-commit driver: commit records pile up unforced while
/// successors already run on violated locks, so every crash point now
/// lands on top of live violation edges and pending acknowledgements.
/// The oracles prove the cascade-abort + dependency-filtered recovery
/// machinery restores exactly the durably-committed state anyway.
fn sweep_protocol_elr(protocol: ProtocolKind, label: &str) -> SweepReport {
    let full = std::env::var("SMDB_FULL_SWEEP").map(|v| v == "1").unwrap_or(false);
    let cfg = SweepConfig {
        label: label.to_string(),
        seed: SEED,
        max_single: if full { usize::MAX } else { 40 },
        max_nested: if full { 200 } else { 10 },
        nested_primaries: if full { 12 } else { 4 },
        context: scenario_context(protocol, true),
    };
    let report = sweep(&cfg, |mode| run_scenario(protocol, mode, true));
    println!(
        "{label}: {} points, {} single + {} nested replays, {} unfired",
        report.points_enumerated, report.single_runs, report.nested_runs, report.unfired
    );
    assert!(report.passed(), "{}", report.failures.join("\n"));
    assert!(report.single_runs >= 30, "{label}: only {} single replays", report.single_runs);
    assert!(report.nested_runs >= 8, "{label}: only {} nested replays", report.nested_runs);
    report
}

#[test]
fn sweep_elr_volatile_selective_redo() {
    sweep_protocol_elr(ProtocolKind::VolatileSelectiveRedo, "elr_volatile_selective");
}

#[test]
fn sweep_elr_volatile_redo_all() {
    sweep_protocol_elr(ProtocolKind::VolatileRedoAll, "elr_volatile_redo_all");
}

#[test]
fn sweep_elr_stable_eager() {
    sweep_protocol_elr(ProtocolKind::StableEager, "elr_stable_eager");
}

#[test]
fn sweep_elr_stable_triggered() {
    sweep_protocol_elr(ProtocolKind::StableTriggered, "elr_stable_triggered");
}

/// The controlled-lock-violation crash point, swept **exhaustively**: a
/// node dies right after `commit_pipelined` appended the commit record
/// and released the write locks, before any covering force. Every
/// enumerated visit of `core.commit.dep` is replayed as a single failure
/// for each Table-1 protocol — the window where successors may already
/// hold violated locks and must be cascade-aborted by recovery.
#[test]
fn commit_dep_crash_point_swept_exhaustively() {
    for protocol in ProtocolKind::ifa_protocols() {
        let out = run_scenario(protocol, &RunMode::Count, true).expect("count run is crash-free");
        let mut points: Vec<CrashPoint> = Vec::new();
        for sv in &out.visits {
            if sv.site == FAULT_COMMIT_DEP {
                for k in 0..sv.nodes.len() as u64 {
                    points.push(CrashPoint::new(sv.site, k));
                }
            }
        }
        assert!(
            !points.is_empty(),
            "{protocol:?}: pipelined workload never visited {FAULT_COMMIT_DEP}"
        );
        for point in points {
            run_scenario(protocol, &RunMode::Replay(FaultPlan::single(point)), true)
                .unwrap_or_else(|e| panic!("{protocol:?} plan={point} :: {e}"));
        }
    }
}

/// The checkpoint-machinery crash points, swept **exhaustively** (the
/// bounded stride-sample above may skip them): every enumerated visit of
/// `wal.checkpoint.record` (node dies before writing its checkpoint
/// marker — torn checkpoint, metadata never installed) and `wal.truncate`
/// (node dies after metadata install with truncation incomplete) is
/// replayed as a single failure for each Table-1 protocol.
#[test]
fn checkpoint_and_truncate_crash_points_swept_exhaustively() {
    for protocol in ProtocolKind::ifa_protocols() {
        let out = run_scenario(protocol, &RunMode::Count, false).expect("count run is crash-free");
        let mut points: Vec<CrashPoint> = Vec::new();
        for sv in &out.visits {
            if sv.site == FAULT_CHECKPOINT_RECORD || sv.site == FAULT_TRUNCATE {
                for k in 0..sv.nodes.len() as u64 {
                    points.push(CrashPoint::new(sv.site, k));
                }
            }
        }
        assert!(
            points.iter().any(|p| p.site == FAULT_CHECKPOINT_RECORD)
                && points.iter().any(|p| p.site == FAULT_TRUNCATE),
            "{protocol:?}: workload never visited the checkpoint crash points"
        );
        for point in points {
            run_scenario(protocol, &RunMode::Replay(FaultPlan::single(point)), false)
                .unwrap_or_else(|e| panic!("{protocol:?} plan={point} :: {e}"));
        }
    }
}

/// Commit six single-update transactions round the first `nodes` nodes.
fn commit_tail(db: &mut SmDb, nodes: u16) -> Result<(), String> {
    for (i, slot) in [1u64, 5, 9, 13, 17, 21].into_iter().enumerate() {
        let t = db.begin(NodeId(i as u16 % nodes)).map_err(|e| format!("tail begin: {e}"))?;
        db.update(t, slot, format!("tail-{i}").as_bytes())
            .map_err(|e| format!("tail update: {e}"))?;
        db.commit(t).map_err(|e| format!("tail commit: {e}"))?;
    }
    Ok(())
}

/// One instant-restart scenario: seeded mix, node 0 dies with the mix's
/// committed effects in its cache, recovery opens early with deferred
/// redo pending, then the forward path (a locked scan of every record,
/// driving the on-demand hook) and a background drain retire the plan.
/// An armed `restart.redo.*` point kills the acting node mid-retire; the
/// loops recover (the re-derived plan re-opens the window) and resume
/// until the window closes, then the standing oracles run.
fn run_instant_scenario(
    protocol: ProtocolKind,
    plan: Option<&FaultPlan>,
) -> Result<Vec<SiteVisits>, String> {
    let cfg = DbConfig::small(4, protocol).with_instant_restart();
    let mut db = SmDb::new(cfg);
    let f = FaultInjector::new();
    db.set_fault_injector(f.clone());
    run_mix_with_crash(&mut db, params(SEED), None).map_err(|e| format!("mix: {e}"))?;
    // The mix's trailing checkpoint leaves almost no redo candidates, so
    // commit a post-checkpoint tail on the doomed node: these updates sit
    // only in node 0's cache when it dies, guaranteeing the instant
    // recovery actually defers a plan for the window loops to exercise.
    commit_tail(&mut db, 1)?;
    match plan {
        Some(p) => f.arm(p.clone()),
        None => f.start_counting(),
    }
    db.crash(&[NodeId(0)]);
    if let Err(e) = db.recover_checked()? {
        drive_recovery(&mut db, e)?;
    }
    // One single-entry background batch up front: the full forward scan
    // below retires every remaining entry on-demand, so without this the
    // background site would go unvisited on plans the scan fully covers.
    if db.redo_pending() > 0 {
        let node = *db.machine().surviving_nodes().first().ok_or("no survivors")?;
        if let Err(e) = db.drain_redo(node, 1) {
            drive_recovery(&mut db, e)?;
        }
    }
    // Forward path during the drain window: every record read under locks,
    // so each line with pending redo walks the on-demand hook.
    let total = db.record_count() as u64;
    let mut slot = 0u64;
    while slot < total {
        let node = *db.machine().surviving_nodes().first().ok_or("no survivors")?;
        let t = match db.begin(node) {
            Ok(t) => t,
            Err(e) => {
                drive_recovery(&mut db, e)?;
                continue;
            }
        };
        match db.read(t, slot) {
            Ok(_) => {
                db.commit(t).map_err(|e| format!("slot {slot} commit: {e}"))?;
                slot += 1;
            }
            // The reader died mid-access (on-demand crash point): recover
            // and retry the same slot on a fresh transaction.
            Err(e) => drive_recovery(&mut db, e)?,
        }
    }
    // Background drain to completion; a mid-drain crash replans.
    while db.redo_pending() > 0 {
        let node = *db.machine().surviving_nodes().first().ok_or("no survivors")?;
        if let Err(e) = db.drain_redo(node, 4) {
            drive_recovery(&mut db, e)?;
        }
    }
    let visits = if f.mode() == Mode::Counting {
        f.take_visits()
    } else {
        f.off();
        Vec::new()
    };
    db.check_after_recover()?;
    Ok(visits)
}

/// The instant-restart drain-window crash points, swept **exhaustively**:
/// every enumerated visit of `restart.redo.on_demand` (the accessing node
/// dies before the inline redo of a first-touch line) and
/// `restart.redo.background` (the draining node dies mid-batch) is
/// replayed as a single failure for each Table-1 protocol — the second
/// recovery must re-derive the deferred plan from the same stable log and
/// still converge to the committed state.
#[test]
fn instant_drain_crash_points_swept_exhaustively() {
    for protocol in ProtocolKind::ifa_protocols() {
        let visits = run_instant_scenario(protocol, None).expect("count run is crash-free");
        let mut points: Vec<CrashPoint> = Vec::new();
        for sv in &visits {
            if sv.site == FAULT_REDO_ON_DEMAND || sv.site == FAULT_REDO_BACKGROUND {
                for k in 0..sv.nodes.len() as u64 {
                    points.push(CrashPoint::new(sv.site, k));
                }
            }
        }
        assert!(
            points.iter().any(|p| p.site == FAULT_REDO_ON_DEMAND),
            "{protocol:?}: forward scan never hit the on-demand redo point"
        );
        assert!(
            points.iter().any(|p| p.site == FAULT_REDO_BACKGROUND),
            "{protocol:?}: background drain never hit its crash point"
        );
        for point in points {
            run_instant_scenario(protocol, Some(&FaultPlan::single(point)))
                .unwrap_or_else(|e| panic!("{protocol:?} plan={point} :: {e}"));
        }
    }
}

/// The FA-only baseline recovers with a full restart; sweep it lightly to
/// keep the crash points on that path honest too.
#[test]
fn sweep_fa_only_baseline() {
    let cfg = SweepConfig {
        label: "fa_only".to_string(),
        seed: SEED,
        max_single: 20,
        max_nested: 4,
        nested_primaries: 2,
        context: scenario_context(ProtocolKind::FaOnly, false),
    };
    let report = sweep(&cfg, |mode| run_scenario(ProtocolKind::FaOnly, mode, false));
    assert!(report.passed(), "{}", report.failures.join("\n"));
    assert!(report.single_runs >= 15, "fa_only: only {} single replays", report.single_runs);
}

/// One full restart — the seeded mix, a post-checkpoint committed tail and
/// in-flight transactions on every node, then `victims` die — with the
/// recovery host killed at its `boundary`-th `recovery.phase` visit (never,
/// for `None`). Returns every record's value once the restart converged
/// and the oracles passed.
fn run_full_restart(
    protocol: ProtocolKind,
    victims: &[NodeId],
    boundary: Option<u64>,
) -> Result<Vec<Vec<u8>>, String> {
    let cfg = DbConfig::small(4, protocol);
    let mut db = SmDb::new(cfg);
    let f = FaultInjector::new();
    db.set_fault_injector(f.clone());
    run_mix_with_crash(&mut db, params(SEED), None).map_err(|e| format!("mix: {e}"))?;
    commit_tail(&mut db, 4)?;
    let active = spawn_active(&mut db, 1, 2, false, 7);
    db.crash(victims);
    if let Some(k) = boundary {
        f.arm(FaultPlan::single(CrashPoint::new(FAULT_RECOVERY_PHASE, k)));
    }
    match (db.recover_checked()?, boundary) {
        (Ok(outcome), None) => {
            if outcome.phases.len() != 7 || outcome.aborted != active {
                return Err(format!(
                    "{} phases, aborted {:?}",
                    outcome.phases.len(),
                    outcome.aborted
                ));
            }
        }
        (Ok(_), Some(k)) => return Err(format!("boundary {k} was never visited")),
        (Err(e), None) => return Err(format!("uninterrupted restart failed: {e}")),
        (Err(e), Some(_)) => drive_recovery(&mut db, e)?,
    }
    f.off();
    (0..db.record_count() as u64)
        .map(|slot| db.current_value(slot).map_err(|e| format!("slot {slot}: {e}")))
        .collect()
}

/// Every restart runs the same seven phases, so the full restart — FA-only
/// with survivors, and a total failure — has a `recovery.phase` boundary
/// after each of phases 1–6. The host dies at each in turn; the re-entered
/// restart must converge to the state the uninterrupted one reaches.
#[test]
fn full_restart_phase_boundaries_swept_exhaustively() {
    let all: Vec<NodeId> = (0..4).map(NodeId).collect();
    let cells = [
        (ProtocolKind::FaOnly, vec![NodeId(1)]),
        (ProtocolKind::FaOnly, all.clone()),
        (ProtocolKind::VolatileSelectiveRedo, all.clone()),
        (ProtocolKind::StableTriggered, all),
    ];
    for (protocol, victims) in cells {
        let at = format!("{protocol:?}, {} victims", victims.len());
        let want =
            run_full_restart(protocol, &victims, None).unwrap_or_else(|e| panic!("{at}: {e}"));
        for k in 0..6 {
            let got = run_full_restart(protocol, &victims, Some(k))
                .unwrap_or_else(|e| panic!("{at} plan={FAULT_RECOVERY_PHASE}#{k} :: {e}"));
            assert!(got == want, "{at}: dying at boundary {k} converged to another state");
        }
        let past = run_full_restart(protocol, &victims, Some(6));
        assert!(past.is_err(), "{at}: a seventh boundary exists");
    }
}

/// One cell of a reader-site sweep: the scenario of [`run_reader_restart`]
/// and how often the uninterrupted restart visits the site.
struct ReaderCell {
    protocol: ProtocolKind,
    instant: bool,
    victims: Vec<NodeId>,
    /// Node 0 grows the index past the mix's keys before the crash, so it
    /// alone holds most tree pages and the skeleton has a reader for every
    /// live node.
    skeleton: bool,
    visits: usize,
}

impl ReaderCell {
    fn new(protocol: ProtocolKind, instant: bool, victims: Vec<NodeId>, visits: usize) -> Self {
        ReaderCell { protocol, instant, victims, skeleton: false, visits }
    }

    fn with_skeleton(self) -> Self {
        ReaderCell { skeleton: true, ..self }
    }
}

/// What a converged restart left: every record's value and the live index.
type EndState = (Vec<Vec<u8>>, Vec<(u64, [u8; 8])>);

/// One restart of the cell's crash — the seeded mix, a post-checkpoint
/// committed tail, node 0 the last writer of a record on every heap page
/// (and, for a skeleton cell, of most tree pages), and in-flight
/// transactions on every node — with the `visit`-th visit of the reader
/// crash point `site` fired: a node reading for the restart beside the
/// recovery node dies (nobody, for `None`). Returns how often `site` was
/// visited and the end state once the restart converged, an instant
/// restart's window was drained, the transactions still in flight were
/// rolled back and the oracles passed.
fn run_reader_restart(
    cell: &ReaderCell,
    site: &'static str,
    visit: Option<u64>,
) -> Result<(usize, EndState), String> {
    let mut cfg = DbConfig::small(4, cell.protocol);
    if cell.instant {
        cfg = cfg.with_instant_restart();
    }
    let mut db = SmDb::new(cfg);
    let f = FaultInjector::new();
    db.set_fault_injector(f.clone());
    run_mix_with_crash(&mut db, params(SEED), None).map_err(|e| format!("mix: {e}"))?;
    commit_tail(&mut db, 4)?;
    // Node 0's crash loses a line of every heap page: the eager plan reads
    // enough pages for every reader to have a share.
    let per_page = db.record_layout().records_per_page() as u64;
    let t = db.begin(NodeId(0)).map_err(|e| format!("spread begin: {e}"))?;
    for page in 0..db.heap_pages() as u64 {
        db.update(t, page * per_page + 2, b"spread").map_err(|e| format!("spread: {e}"))?;
    }
    db.commit(t).map_err(|e| format!("spread commit: {e}"))?;
    if cell.skeleton {
        for key in 1_000_000..1_000_160u64 {
            let t = db.begin(NodeId(0)).map_err(|e| format!("grow begin: {e}"))?;
            db.insert(t, key, key.to_le_bytes()).map_err(|e| format!("grow: {e}"))?;
            db.commit(t).map_err(|e| format!("grow commit: {e}"))?;
        }
    }
    spawn_active(&mut db, 1, 2, false, 7);
    db.crash(&cell.victims);
    match visit {
        Some(k) => f.arm(FaultPlan::single(CrashPoint::new(site, k))),
        None => f.start_counting(),
    }
    match (db.recover_checked()?, visit) {
        (Ok(_), None) => {}
        (Ok(_), Some(k)) => return Err(format!("visit {k} never came")),
        (Err(e), None) => return Err(format!("uninterrupted restart failed: {e}")),
        (Err(e), Some(_)) => {
            let fired = e.fault_crash().map(|c| (c.site, db.machine().is_crashed(NodeId(c.node))));
            if fired != Some((site, false)) {
                return Err(format!("expected a live reader to die at {site}, got {e}"));
            }
            drive_recovery(&mut db, e)?;
        }
    }
    let visits = if visit.is_none() { f.take_visits() } else { Vec::new() };
    f.off();
    let scan = *db.machine().surviving_nodes().first().ok_or("no survivors")?;
    while db.redo_pending() > 0 {
        db.drain_redo(scan, 4).map_err(|e| format!("drain: {e}"))?;
    }
    for t in db.active_txns(None) {
        db.abort(t).map_err(|e| format!("abort {t}: {e}"))?;
    }
    db.check_after_recover()?;
    let visited = visits.iter().find(|sv| sv.site == site).map_or(0, |sv| sv.nodes.len());
    let values = (0..db.record_count() as u64)
        .map(|slot| db.current_value(slot).map_err(|e| format!("slot {slot}: {e}")))
        .collect::<Result<_, _>>()?;
    let index = db.index_scan(scan).map_err(|e| format!("index scan: {e}"))?;
    Ok((visited, (values, index)))
}

/// Replay every enumerated visit of `site` as a single failure of each
/// cell; each re-entered restart must converge to the state the
/// uninterrupted restart reaches.
fn sweep_reader_site(site: &'static str, cells: &[ReaderCell]) {
    for cell in cells {
        let at = format!(
            "{:?} instant={} victims={:?} skeleton={}",
            cell.protocol, cell.instant, cell.victims, cell.skeleton
        );
        let (visited, want) =
            run_reader_restart(cell, site, None).unwrap_or_else(|e| panic!("{at}: {e}"));
        println!("{at}: {site} visited {visited} times");
        assert_eq!(visited, cell.visits, "{at}: {site} visits");
        for k in 0..visited as u64 {
            let (_, got) = run_reader_restart(cell, site, Some(k))
                .unwrap_or_else(|e| panic!("{at} plan={site}#{k} :: {e}"));
            assert!(got == want, "{at}: reader {k} dying at {site} converged to another state");
        }
    }
}

/// The analysis scan is read by every live node, and a reader can die
/// mid-scan: every enumerated visit of `restart.scan` (one per reader
/// beside the recovery node, on that reader's behalf) is replayed as a
/// single failure for each protocol, eager and instant; the restart
/// re-entered over the larger crashed set hands the dead reader's logs to
/// the ones left and must converge to the state the uninterrupted restart
/// reaches.
#[test]
fn scan_reader_crash_point_swept_exhaustively() {
    let mut protocols = ProtocolKind::ifa_protocols().to_vec();
    protocols.push(ProtocolKind::FaOnly);
    // Four nodes, one down, one hosting: two readers beside it.
    let cells: Vec<_> = protocols
        .into_iter()
        .flat_map(|p| [false, true].map(|instant| ReaderCell::new(p, instant, vec![NodeId(0)], 2)))
        .collect();
    sweep_reader_site(FAULT_RESTART_SCAN, &cells);
}

/// The restart's page reads are made by every live node — the index
/// skeleton's, before the open of every restart, and the eager plan's —
/// and a reader can die before its share: every enumerated visit of
/// `restart.install` is replayed as a single failure for each protocol,
/// and for the full scope — FA-only with survivors, and a total failure,
/// where node 0 reads alone and the site is never visited. The pages the
/// readers before the dead one installed stay behind as stale reinstalls;
/// the restart re-entered over the larger crashed set must not take them
/// for surviving copies and must converge to the state the uninterrupted
/// restart reaches. An instant restart reads no heap page before its open.
/// The mix's own index is one page, read by the recovery node alone; the
/// skeleton cells grow it on node 0, so two readers beside the host read
/// tree pages too, eager and instant.
#[test]
fn install_reader_crash_point_swept_exhaustively() {
    let all: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut cells = Vec::new();
    for protocol in ProtocolKind::ifa_protocols() {
        let cell = |instant, visits| ReaderCell::new(protocol, instant, vec![NodeId(0)], visits);
        cells.push(cell(false, 2));
        cells.push(cell(true, 0));
        cells.push(cell(false, 4).with_skeleton());
        cells.push(cell(true, 2).with_skeleton());
    }
    cells.push(ReaderCell::new(ProtocolKind::FaOnly, false, vec![NodeId(0)], 2));
    cells.push(ReaderCell::new(ProtocolKind::VolatileSelectiveRedo, false, all.clone(), 0));
    cells.push(ReaderCell::new(ProtocolKind::StableTriggered, false, all, 0));
    sweep_reader_site(FAULT_RESTART_INSTALL, &cells);
}
