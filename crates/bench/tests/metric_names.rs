//! Catalogue-membership gate for metric names.
//!
//! Every metric the engine emits must be declared in `obs::names` — one
//! compile-time catalog with kind, layer, and meaning. This test runs a
//! workload chosen to light up every emission site (TP1 with index
//! history, a sharing-heavy mix with checkpoints, a crash, and a full
//! recovery) and then checks that every name appearing in the registry
//! snapshot is catalogued with the right kind. A second test keeps the
//! DESIGN.md metric table literally in sync with the catalog.

use smdb_core::{DbConfig, ProtocolKind, SmDb};
use smdb_obs::names;
use smdb_sim::NodeId;
use smdb_workload::{run_mix, run_mix_mt, run_tp1, spawn_active, MixParams, Tp1Params};

/// Drive every layer that emits metrics: TP1 (engine, lock, WAL, sim),
/// a checkpointed sharing-heavy mix (LBM forces, buffer
/// traffic), live transactions at a crash, and restart recovery.
fn representative_run() -> SmDb {
    let mut db = SmDb::new(DbConfig::bench(8, ProtocolKind::StableEager));
    db.enable_observability(0);
    run_tp1(&mut db, Tp1Params { txns: 40, ..Default::default() });
    run_mix(
        &mut db,
        MixParams { txns: 40, sharing: 0.8, checkpoint_every: 16, ..Default::default() },
    );
    let _ = spawn_active(&mut db, 2, 2, true, 5);
    db.crash_and_recover(&[NodeId(0)]).expect("recovery");
    db
}

#[test]
fn every_emitted_metric_is_catalogued() {
    let db = representative_run();
    let snap = db.observability().metrics.snapshot();
    let total = snap.counters.len() + snap.gauges.len() + snap.histograms.len();
    assert!(total > 0, "the representative run emitted no metrics");
    for (name, _) in &snap.counters {
        let def = names::lookup(name)
            .unwrap_or_else(|| panic!("counter `{name}` missing from obs::names::CATALOG"));
        assert_eq!(def.kind, names::MetricKind::Counter, "`{name}` kind mismatch");
    }
    for (name, _) in &snap.gauges {
        let def = names::lookup(name)
            .unwrap_or_else(|| panic!("gauge `{name}` missing from obs::names::CATALOG"));
        assert_eq!(def.kind, names::MetricKind::Gauge, "`{name}` kind mismatch");
    }
    for (name, _) in &snap.histograms {
        let def = names::lookup(name)
            .unwrap_or_else(|| panic!("histogram `{name}` missing from obs::names::CATALOG"));
        assert_eq!(def.kind, names::MetricKind::Histogram, "`{name}` kind mismatch");
    }
    // The analysis reads the logs' data-record indexes; the recovery above
    // still opens log records (index operations, the writes it applies).
    assert!(
        snap.counters.iter().any(|(n, v)| n == names::RESTART_LOG_RECORDS_READ && *v > 0),
        "the representative recovery opened no log record"
    );
}

#[test]
fn representative_run_covers_most_of_the_catalog() {
    // The catalog must not accumulate dead names: the representative run
    // is expected to touch nearly all of it. (Not 100% — a few phase
    // histograms are protocol-specific.)
    let db = representative_run();
    let snap = db.observability().metrics.snapshot();
    let emitted: std::collections::BTreeSet<&str> = snap
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(snap.gauges.iter().map(|(n, _)| n.as_str()))
        .chain(snap.histograms.iter().map(|(n, _)| n.as_str()))
        .collect();
    let missing: Vec<&str> =
        names::CATALOG.iter().map(|d| d.name).filter(|n| !emitted.contains(n)).collect();
    assert!(
        missing.len() * 2 <= names::CATALOG.len(),
        "over half the catalog never fired in the representative run: {missing:?}"
    );
}

#[test]
fn instant_restart_counters_fire_and_are_catalogued() {
    // The instant-restart triple never fires in the eager representative
    // run: light it up explicitly — open early, take one on-demand hit,
    // drain the rest in the background.
    let mut db =
        SmDb::new(DbConfig::bench(8, ProtocolKind::VolatileRedoAll).with_instant_restart());
    db.enable_observability(0);
    run_tp1(&mut db, Tp1Params { txns: 40, ..Default::default() });
    db.crash_and_recover(&[NodeId(0)]).expect("recovery");
    assert!(db.redo_pending() > 0, "the TP1 history must leave deferred redo");
    let t = db.begin(NodeId(1)).unwrap();
    db.read(t, 0).unwrap();
    db.commit(t).unwrap();
    while db.redo_pending() > 0 {
        db.drain_redo(NodeId(1), 64).unwrap();
    }
    let snap = db.observability().metrics.snapshot();
    for name in [
        names::RESTART_OPEN_EARLY_CYCLES,
        names::RESTART_REDO_ON_DEMAND,
        names::RESTART_REDO_BACKGROUND,
    ] {
        assert!(
            snap.counters.iter().any(|(n, v)| n == name && *v > 0),
            "expected counter `{name}` to fire"
        );
        assert!(names::lookup(name).is_some(), "`{name}` missing from CATALOG");
    }
}

#[test]
fn multicore_counters_fire_and_are_catalogued() {
    // The epoch-scheduler quadruple never fires in the serial
    // representative run: light it up with a half-shared Zipf mix under
    // Stable LBM on four threads. Hot shared slots collide on record
    // names (`lock.shard_conflicts`), private traffic over eight stripes
    // collides by page hash (`sim.shard_conflicts`), and both stall nodes
    // across epochs (`engine.epoch_waits`). A second, read-only mix feeds
    // `wal.appender_stalls`: admission logs each lane's lock grants, a
    // read-only commit forces nothing, so the epoch barrier must force
    // them.
    let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::StableEager).with_sim_shards(8));
    db.enable_observability(0);
    let p = MixParams {
        txns: 120,
        ops_per_txn: 4,
        read_fraction: 0.0,
        sharing: 0.5,
        shared_slots: 4,
        zipf_theta: 0.95,
        seed: 0xC0,
        ..Default::default()
    };
    run_mix_mt(&mut db, p.clone(), 4).expect("mt run");
    let (_, reads) =
        run_mix_mt(&mut db, MixParams { read_fraction: 1.0, ..p }, 4).expect("read-only mt run");
    assert!(reads.appender_stalls > 0, "read-only lanes leave their grants unforced");
    let snap = db.observability().metrics.snapshot();
    for name in [
        names::SIM_SHARD_CONFLICTS,
        names::LOCK_SHARD_CONFLICTS,
        names::ENGINE_EPOCH_WAITS,
        names::WAL_APPENDER_STALLS,
    ] {
        assert!(
            snap.counters.iter().any(|(n, v)| n == name && *v > 0),
            "expected counter `{name}` to fire"
        );
        assert!(names::lookup(name).is_some(), "`{name}` missing from CATALOG");
    }
}

#[test]
fn design_doc_metric_table_is_generated() {
    let design = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md"),
    )
    .expect("read DESIGN.md");
    let table = names::markdown_table();
    assert!(
        design.contains(&table),
        "DESIGN.md metric table is out of sync with obs::names::markdown_table(); \
         paste the generated table into the metric-catalog section"
    );
}
