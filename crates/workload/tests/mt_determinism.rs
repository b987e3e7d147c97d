//! Determinism regression tests for the multicore epoch scheduler: the
//! same seed must produce byte-identical results at every thread count,
//! with and without a recorded schedule tape, and the engine must come
//! out of a multicore run fully recoverable.

use smdb_core::{DbConfig, ProtocolKind, SmDb};
use smdb_sim::NodeId;
use smdb_workload::{run_mix_mt, threads_from_env, MixParams};

fn engine(protocol: ProtocolKind) -> SmDb {
    SmDb::new(DbConfig::small(4, protocol).with_sim_shards(32))
}

fn params() -> MixParams {
    MixParams {
        txns: 200,
        ops_per_txn: 4,
        read_fraction: 0.25,
        sharing: 0.2,
        shared_slots: 16,
        zipf_theta: 0.5,
        seed: 0xD5,
        ..Default::default()
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// FNV-1a over every committed record image, in slot order.
fn data_digest(db: &SmDb) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for slot in 0..db.record_count() as u64 {
        fnv(&mut h, &db.read_committed(slot).expect("slot readable"));
    }
    h
}

/// Per-node (record count, FNV of the debug rendering of every record).
/// Catches any divergence in log contents, order, or LSNs.
fn log_digests(db: &SmDb) -> Vec<(usize, u64)> {
    (0..db.config().nodes)
        .map(|n| {
            let records = db.logs().log(NodeId(n)).records();
            let mut h = 0xcbf29ce484222325u64;
            for r in records.clone() {
                fnv(&mut h, format!("{r:?}").as_bytes());
            }
            (records.len(), h)
        })
        .collect()
}

#[test]
fn same_seed_same_bytes_at_every_thread_count() {
    // `SMDB_THREADS` joins the sweep so the CI matrix (1 and 4) drives
    // this gate at the matrix value even if the literal list changes.
    let mut base = None;
    for threads in [1usize, 2, 4, threads_from_env()] {
        let mut db = engine(ProtocolKind::VolatileSelectiveRedo);
        let (report, out) = run_mix_mt(&mut db, params(), threads).expect("mt run");
        assert_eq!(report.committed, 200, "every transaction commits eventually");
        let snapshot = (report, out, data_digest(&db), log_digests(&db), db.max_clock());
        match &base {
            None => base = Some(snapshot),
            Some(b) => assert_eq!(
                *b, snapshot,
                "thread count {threads} diverged from the single-threaded run"
            ),
        }
    }
}

#[test]
fn recorded_tape_replays_identically_across_threads() {
    // Record a fuzzed admission schedule single-threaded…
    let mut db1 = engine(ProtocolKind::VolatileSelectiveRedo);
    let sched1 = db1.sched_handle();
    sched1.start_recording(0xBEEF);
    let (rep1, out1) = run_mix_mt(&mut db1, params(), 1).expect("recording run");
    assert!(
        sched1.recorded_sites().contains(&smdb_core::SITE_ADMIT),
        "recording run drew at the admission site"
    );
    let tape = sched1.take_tape();
    assert!(out1.deferred > 0, "fuzzed schedule deferred at least one admission");

    // …and replay the identical tape on four threads.
    let mut db2 = engine(ProtocolKind::VolatileSelectiveRedo);
    let sched2 = db2.sched_handle();
    sched2.start_replay(tape);
    let (rep2, out2) = run_mix_mt(&mut db2, params(), 4).expect("replay run");
    assert_eq!(sched2.overrun(), 0, "replay consumed exactly the recorded draws");
    assert_eq!(rep1, rep2);
    assert_eq!(out1, out2);
    assert_eq!(data_digest(&db1), data_digest(&db2));
    assert_eq!(log_digests(&db1), log_digests(&db2));
    assert_eq!(db1.max_clock(), db2.max_clock());
}

#[test]
fn engine_recovers_after_multicore_run() {
    let mut db = engine(ProtocolKind::VolatileSelectiveRedo);
    let (report, _) = run_mix_mt(&mut db, params(), 2).expect("mt run");
    assert_eq!(report.committed, 200);
    let before = data_digest(&db);
    let outcome = db.crash_and_recover(&[NodeId(1)]).expect("recovery");
    assert!(outcome.aborted.is_empty(), "no active transactions to abort");
    assert_eq!(data_digest(&db), before, "committed data survived the crash");
    db.check_ifa(NodeId(0)).assert_ok();
}

#[test]
fn contended_stable_run_reports_scheduler_pressure() {
    // Full-sharing Zipf mix on Stable-LBM-with-coalescing: epochs must
    // split (stripe and lock collisions), and lane commits must drain
    // pending coalesced-force windows (appender stalls).
    let mut db = SmDb::new(
        DbConfig::small(4, ProtocolKind::StableEager).with_sim_shards(32).with_coalesced_forces(),
    );
    db.enable_observability(1024);
    let p = MixParams {
        txns: 120,
        ops_per_txn: 4,
        read_fraction: 0.0,
        sharing: 1.0,
        shared_slots: 4,
        zipf_theta: 0.95,
        seed: 0xC0,
        ..Default::default()
    };
    let (report, out) = run_mix_mt(&mut db, p, 4).expect("contended run");
    assert_eq!(report.committed, 120);
    assert!(out.epochs > 1, "contention must split the run into epochs");
    assert!(
        out.data_conflicts + out.lock_conflicts > 0,
        "full sharing must collide on stripes or lock names"
    );
    assert!(out.epoch_waits > 0, "collisions must stall nodes across epochs");
    // Lane commits drain the pending coalesced-force window in-commit;
    // barrier drains cover whatever a lane left volatile. Either way the
    // appender-stall metric must have fired on this protocol.
    let metrics = db.observability().metrics;
    assert!(
        metrics.counter("wal.appender_stalls") + out.appender_stalls > 0,
        "coalesced windows must drain at lane commits or barriers"
    );
}
