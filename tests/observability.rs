//! Cross-layer observability: one global sequence numbering means events
//! from the coherence, lock, WAL, and recovery layers can be causally
//! ordered against each other on a single timeline.

use smdb::core::{DbConfig, ProtocolKind, SmDb};
use smdb::obs::{Event, ForceReason, Record};
use smdb::sim::NodeId;
use smdb::workload::{run_tp1, Tp1Params};

/// Two uncommitted updates to records co-located in cache line 0, from
/// different nodes, under Stable-Triggered LBM — the second update
/// migrates the first updater's active line, forcing its log.
fn contended_line_scenario(enable_obs: bool) -> (SmDb, Vec<Record>) {
    let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::StableTriggered));
    if enable_obs {
        db.observability().enable(8192);
    }
    let t0 = db.begin(NodeId(0)).unwrap();
    db.update(t0, 0, b"alice=100").unwrap();
    let t1 = db.begin(NodeId(1)).unwrap();
    db.update(t1, 1, b"bob=50").unwrap();
    db.commit(t0).unwrap();
    let records = db.observability().bus.snapshot();
    (db, records)
}

fn seq_of(records: &[Record], what: &str, pred: impl Fn(&Event) -> bool) -> u64 {
    records
        .iter()
        .find(|r| pred(&r.event))
        .unwrap_or_else(|| panic!("no {what} event on the bus"))
        .seq
}

#[test]
fn crash_timeline_is_causally_ordered_across_layers() {
    let (mut db, records) = contended_line_scenario(true);

    // The §5.2 causal chain, under one sequence numbering: node 0 line-
    // locks line 0 for its update; node 1's later acquisition of the same
    // line would migrate the active line, so the trigger forces node 0's
    // log (LbmTriggeredForce + WalForce) *before* node 1's LineLock.
    let lock0 =
        seq_of(&records, "LineLock(n0,l0)", |e| matches!(e, Event::LineLock { node: 0, line: 0 }));
    let trigger = seq_of(&records, "LbmTriggeredForce(owner 0,l0)", |e| {
        matches!(e, Event::LbmTriggeredForce { owner: 0, line: 0 })
    });
    let force = seq_of(&records, "WalForce(n0,Lbm)", |e| {
        matches!(e, Event::WalForce { node: 0, reason: ForceReason::Lbm, .. })
    });
    let lock1 =
        seq_of(&records, "LineLock(n1,l0)", |e| matches!(e, Event::LineLock { node: 1, line: 0 }));
    assert!(lock0 < trigger, "owner's lock ({lock0}) precedes the trigger ({trigger})");
    assert!(trigger < force, "trigger ({trigger}) precedes the log force ({force})");
    assert!(force < lock1, "log forced ({force}) before the taker's lock ({lock1})");

    // Forced records are counted: the update wrote >= 1 log record.
    let forced = records
        .iter()
        .find_map(|r| match r.event {
            Event::WalForce { node: 0, records, reason: ForceReason::Lbm } => Some(records),
            _ => None,
        })
        .unwrap();
    assert!(forced >= 1, "the triggered force made {forced} records durable");

    // Crash node 1 and recover: the tail of the same timeline carries the
    // crash and the recovery phases, still in order.
    let outcome = db.crash_and_recover(&[NodeId(1)]).unwrap();
    db.check_ifa(NodeId(0)).assert_ok();
    let records = db.observability().bus.snapshot();

    let crash = seq_of(&records, "CrashInjected", |e| matches!(e, Event::CrashInjected { .. }));
    let begin = seq_of(&records, "RecoveryBegin", |e| matches!(e, Event::RecoveryBegin { .. }));
    let end = seq_of(&records, "RecoveryEnd", |e| matches!(e, Event::RecoveryEnd { .. }));
    assert!(lock1 < crash && crash < begin && begin < end);

    // Phase begin/end events nest between RecoveryBegin and RecoveryEnd,
    // in the canonical phase order.
    let phase_names: Vec<&str> = records
        .iter()
        .filter(|r| r.seq > begin && r.seq < end)
        .filter_map(|r| match r.event {
            Event::RecoveryPhaseBegin { phase } => Some(phase),
            _ => None,
        })
        .collect();
    assert_eq!(
        phase_names,
        ["stable_undo", "reinstall", "cache_discard", "redo", "undo", "lock_recovery", "txn_table"]
    );

    // The outcome's phase timings mirror the bus events.
    let timed: Vec<&str> = outcome.phases.iter().map(|p| p.phase).collect();
    assert_eq!(timed, phase_names);
    let phase_sum: u64 = outcome.phases.iter().map(|p| p.sim_cycles).sum();
    assert!(
        phase_sum <= outcome.recovery_cycles,
        "phases ({phase_sum}) are sub-spans of the whole recovery ({})",
        outcome.recovery_cycles
    );
}

#[test]
fn metrics_cover_every_layer() {
    let (mut db, _) = contended_line_scenario(true);
    db.crash_and_recover(&[NodeId(1)]).unwrap();
    let obs = db.observability();

    for h in
        ["lock.hold_cycles", "wal.force_records", "engine.update_cycles", "recovery.total_cycles"]
    {
        let snap = obs.metrics.histogram(h).unwrap_or_else(|| panic!("histogram {h} missing"));
        assert!(snap.count >= 1, "{h} has samples");
    }
    // Per-phase histograms exist for all seven phases.
    for p in
        ["stable_undo", "reinstall", "cache_discard", "redo", "undo", "lock_recovery", "txn_table"]
    {
        let name = format!("recovery.phase.{p}");
        assert!(obs.metrics.histogram(&name).is_some(), "{name} missing");
    }
    let csv = obs.metrics.snapshot().to_csv();
    assert!(csv.contains("histogram,recovery.total_cycles,"));
}

/// The perf contract of the single-pass restart: each recovery performs
/// **exactly one** analysis scan over the stable logs (counted at the
/// scan itself, not inferred), and the restart counters mirror the
/// recovery outcome.
#[test]
fn recovery_performs_exactly_one_analysis_scan() {
    let (mut db, _) = contended_line_scenario(true);
    assert_eq!(db.observability().metrics.counter("restart.analysis_scans"), 0);

    let outcome = db.crash_and_recover(&[NodeId(1)]).unwrap();
    let obs = db.observability();
    assert_eq!(obs.metrics.counter("restart.analysis_scans"), 1, "one scan per recovery");
    assert!(outcome.scan_records > 0, "the scan visited the retained records");
    assert_eq!(obs.metrics.counter("restart.scan_records"), outcome.scan_records);
    assert_eq!(obs.metrics.counter("restart.redo_applied"), outcome.redo_applied);
    assert_eq!(
        obs.metrics.counter("restart.redo_skipped"),
        outcome.redo_skipped_cached + outcome.redo_skipped_stable + outcome.redo_superseded
    );
    assert_eq!(obs.metrics.gauge("restart.ckpt_bound_lsn"), Some(outcome.ckpt_bound_lsn as i64));

    // A second, independent recovery adds exactly one more scan.
    let o2 = db.crash_and_recover(&[NodeId(2)]).unwrap();
    let obs = db.observability();
    assert_eq!(obs.metrics.counter("restart.analysis_scans"), 2);
    assert_eq!(obs.metrics.counter("restart.scan_records"), outcome.scan_records + o2.scan_records);
    db.check_ifa(NodeId(0)).assert_ok();
}

#[test]
fn disabled_observability_records_nothing_but_phases_still_time() {
    let (mut db, records) = contended_line_scenario(false);
    assert!(records.is_empty(), "disabled bus buffers no events");
    let outcome = db.crash_and_recover(&[NodeId(1)]).unwrap();
    assert_eq!(db.observability().bus.len(), 0);
    assert!(db.observability().metrics.histogram("lock.hold_cycles").is_none());
    // Phase timings feed the E3 bench report, so they are captured even
    // with observability off.
    assert_eq!(outcome.phases.len(), 7);
}

/// Bus, metrics, spans and timeline share one switch: an engine never
/// enabled records nothing in any of them across TP1, a crash and a
/// recovery, and `Obs::enable` turns all four on.
#[test]
fn one_switch_turns_every_recorder_on_or_none() {
    let run = |enable: bool| {
        let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo));
        if enable {
            db.observability().enable(0);
        }
        run_tp1(&mut db, Tp1Params { txns: 20, ..Default::default() });
        db.crash_and_recover(&[NodeId(1)]).unwrap();
        run_tp1(&mut db, Tp1Params { txns: 4, seed: 8, ..Default::default() });
        let obs = db.observability();
        assert_eq!(obs.is_enabled(), enable);
        let m = obs.metrics.snapshot();
        [
            obs.bus.emitted() as usize,
            m.counters.len() + m.gauges.len() + m.histograms.len(),
            obs.spans.aggregate().started as usize,
            obs.timeline.snapshot().len() + obs.timeline.time_to_first_txn().is_some() as usize,
        ]
    };
    assert_eq!(run(false), [0; 4], "an engine never enabled records nothing");
    let on = run(true);
    assert!(on.iter().all(|&n| n > 0), "enable turns all four on: {on:?}");
}
