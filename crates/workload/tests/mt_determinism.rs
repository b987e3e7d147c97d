//! Determinism regression tests for the multicore epoch scheduler: the
//! same seed must produce byte-identical results at every thread count,
//! with and without a recorded schedule tape, and the engine must come
//! out of a multicore run fully recoverable.

use smdb_core::{DbConfig, MtTxn, Op, ProtocolKind, SmDb};
use smdb_sim::NodeId;
use smdb_workload::{run_mix_mt, MixParams};

fn engine(protocol: ProtocolKind) -> SmDb {
    SmDb::new(DbConfig::small(4, protocol))
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

/// The even mix: every node is dealt the same number of transactions.
fn even_mix(db: &mut SmDb, threads: usize) -> String {
    let (report, out) = run_mix_mt(db, params(), threads).expect("mt run");
    assert_eq!(report.committed, 200, "every transaction commits eventually");
    format!("{report:?} {out:?}")
}

/// One epoch in which node 2 owns five sixths of the work, every node on
/// pages of its own: lanes of 20, 20, 300 and 20 operations. Longest-first
/// assignment puts lane 2 on thread 0 at every thread count above 1, where
/// dealing lanes in order put lane 0 there — so the byte-identity below is
/// asserted across lane-to-thread maps that actually differ.
fn one_node_owns_most_of_the_work(db: &mut SmDb, threads: usize) -> String {
    let mut batch: Vec<MtTxn> = Vec::new();
    for i in 0..150u64 {
        for n in 0..4u64 {
            if n == 2 || i < 10 {
                let slot = 64 * n + 8 + i % 32;
                batch.push(MtTxn {
                    node: NodeId(n as u16),
                    ops: vec![Op::Update(slot, i.to_le_bytes()), Op::Read(64 * n + 8)],
                });
            }
        }
    }
    let out = db.run_epochs(batch, threads).expect("mt run");
    assert_eq!((out.committed, out.epochs), (180, 1), "nothing collides: one epoch");
    format!("{out:?}")
}

#[test]
fn same_seed_same_bytes_at_every_thread_count() {
    // 3 divides neither workload's lane count (4).
    type Run = fn(&mut SmDb, usize) -> String;
    for run in [even_mix as Run, one_node_owns_most_of_the_work] {
        let mut base = None;
        for threads in [1usize, 2, 3, 4] {
            let mut db = engine(ProtocolKind::VolatileSelectiveRedo);
            let reports = run(&mut db, threads);
            let snapshot = (reports, data_digest(&db), log_digests(&db), db.max_clock());
            match &base {
                None => base = Some(snapshot),
                Some(b) => assert_eq!(
                    *b, snapshot,
                    "thread count {threads} diverged from the single-threaded run"
                ),
            }
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
    // Full-sharing Zipf mix on Stable LBM: epochs must split (stripe and
    // lock collisions).
    let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::StableEager));
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
    // Admission logs every grant before its lane runs, so a lane's
    // commit force covers them; in a pure-write mix every lane commits,
    // and the epoch barrier finds no unforced tail to force.
    let metrics = db.observability().metrics;
    assert_eq!(out.appender_stalls, 0, "a writing lane leaves no tail");
    assert_eq!(metrics.counter("wal.appender_stalls"), 0);
}
