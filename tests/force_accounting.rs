//! Every physical log force goes through `LogSet::force`, which charges
//! it, counts it and observes it once. These tests hold the three records
//! of a force — the logs' own count, the `wal.physical_forces` counter and
//! the `WalForce` events on the bus — to each other after runs that reach
//! every kind of force, and hold `EngineStats::lbm_forces` to the bus's
//! LBM forces. The last test crashes a node inside the early commit of a
//! lock-space overflow line.

use smdb::core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb::core::{DbConfig, ProtocolKind, SmDb};
use smdb::obs::{names, Event, ForceReason};
use smdb::sim::NodeId;
use smdb::wal::FAULT_FORCE_RECORD;
use smdb::workload::{run_mix, run_mix_mt, MixParams};

/// Bus capacity for every observed engine: far more than any run here
/// emits, so no `WalForce` event is evicted (checked).
const BUS: usize = 1 << 17;

fn observed(cfg: DbConfig) -> SmDb {
    let db = SmDb::new(cfg);
    db.enable_observability(BUS);
    db
}

/// The `WalForce` events on the bus for which `pick` holds.
fn wal_forces(db: &SmDb, pick: impl Fn(ForceReason) -> bool) -> u64 {
    let bus = &db.observability().bus;
    assert_eq!(bus.emitted(), bus.len() as u64, "the bus evicted events");
    let forces = bus.snapshot();
    forces
        .iter()
        .filter(|r| matches!(r.event, Event::WalForce { reason, .. } if pick(reason)))
        .count() as u64
}

/// The logs' count of physical forces, the metrics' and the bus's agree.
fn assert_recorded_once(db: &SmDb, what: &str) {
    let obs = db.observability();
    let logs = db.logs().total_forces();
    let counted = obs.metrics.counter(names::WAL_PHYSICAL_FORCES);
    let observed = obs.metrics.histogram(names::WAL_FORCE_RECORDS).map_or(0, |h| h.count);
    let events = wal_forces(db, |_| true);
    assert!(logs > 0, "{what}: no force ran");
    assert_eq!(
        (counted, observed, events),
        (logs, logs, logs),
        "{what}: (counter, histogram, bus)"
    );
}

#[test]
fn lbm_forces_counts_every_lbm_force() {
    for protocol in [ProtocolKind::StableEager, ProtocolKind::StableTriggered] {
        let mut db = observed(DbConfig::small(2, protocol));
        // Pairs of transactions on two nodes update records that share a
        // cache line, so the second update meets the first's active line.
        for i in 0..10u64 {
            let (a, b) = (db.begin(NodeId(0)).unwrap(), db.begin(NodeId(1)).unwrap());
            db.update(a, 3 * i, b"a").unwrap();
            db.insert(a, 2 * i, [1; 8]).unwrap();
            db.update(b, 3 * i + 1, b"b").unwrap();
            db.insert(b, 2 * i + 1, [2; 8]).unwrap();
            db.commit(a).unwrap();
            db.commit(b).unwrap();
        }
        let s = db.stats();
        assert_eq!((s.index_inserts, s.voluntary_aborts), (20, 0), "{protocol:?}");
        let lbm = wal_forces(&db, |r| r == ForceReason::Lbm);
        assert!(lbm > 0, "{protocol:?}: no LBM force ran");
        assert_eq!(s.lbm_forces, lbm, "{protocol:?}: EngineStats vs the bus's LBM forces");
    }
}

#[test]
fn epoch_batch_forces_are_recorded_once() {
    let mut db = observed(DbConfig::small(4, ProtocolKind::StableEager).with_sim_shards(32));
    // A serial transaction leaves its lock releases unforced: the epoch
    // barrier forces them before the lanes split.
    let t = db.begin(NodeId(1)).unwrap();
    db.update(t, 0, b"serial").unwrap();
    db.commit(t).unwrap();
    let p = MixParams {
        txns: 60,
        ops_per_txn: 4,
        read_fraction: 0.25,
        sharing: 0.2,
        shared_slots: 16,
        seed: 7,
        ..Default::default()
    };
    let (report, _) = run_mix_mt(&mut db, p, 2).unwrap();
    assert_eq!(report.committed, 60);
    let s = db.stats();
    let counted = s.commit_forces + s.lbm_forces + s.wal_flush_forces;
    assert!(db.logs().total_forces() > counted, "the epoch barrier forced no log");
    assert_recorded_once(&db, "run_epochs");
}

/// A one-bucket lock table: every lock name shares one chain, which grows
/// by overflow lines, each early-committed by a forced log record.
fn one_bucket(nodes: u16) -> DbConfig {
    DbConfig { lock_buckets: 1, ..DbConfig::small(nodes, ProtocolKind::VolatileSelectiveRedo) }
}

#[test]
fn overflow_forces_are_recorded_once() {
    let mut db = observed(one_bucket(2));
    let p =
        MixParams { txns: 30, ops_per_txn: 6, index_fraction: 0.0, seed: 11, ..Default::default() };
    assert_eq!(run_mix(&mut db, p).committed, 30);
    assert!(db.lock_stats().overflow_allocs > 0, "the lock table never grew");
    assert_recorded_once(&db, "lock-space overflow");
}

#[test]
fn crash_and_recover_forces_are_recorded_once() {
    let mut db = observed(one_bucket(3));
    // Node 2 grows the chain by overflow lines (they live in its cache),
    // then every node leaves locks behind in flight: lock-space recovery
    // reinstalls the lost lines and rebuilds the survivors' entries.
    let t = db.begin(NodeId(2)).unwrap();
    for slot in 0..24 {
        db.update(t, slot, b"x").unwrap();
    }
    db.commit(t).unwrap();
    for n in 0..3u16 {
        let t = db.begin(NodeId(n)).unwrap();
        for slot in 0..8 {
            db.update(t, 40 + 10 * n as u64 + slot, b"y").unwrap();
        }
    }
    assert!(db.lock_stats().overflow_allocs > 0, "the lock table never grew");
    db.crash(&[NodeId(2)]);
    db.recover().unwrap();
    assert_recorded_once(&db, "crash and recover");
}

#[test]
fn pipelined_elr_forces_are_recorded_once() {
    let cfg = DbConfig::small(4, ProtocolKind::StableTriggered)
        .with_early_lock_release()
        .with_lock_polling();
    let mut db = observed(cfg);
    let p = MixParams {
        txns: 40,
        ops_per_txn: 4,
        sharing: 0.6,
        read_fraction: 0.0,
        index_fraction: 0.0,
        checkpoint_every: 5,
        commit_window: 4,
        drain_every: 3,
        seed: 5,
        ..Default::default()
    };
    assert!(run_mix(&mut db, p).committed > 0);
    assert!(db.stats().checkpoints > 0 && db.stats().early_lock_releases > 0);
    assert_recorded_once(&db, "pipelined ELR with checkpoints");
}

/// The early commit of an overflow line on the normal path is a checked
/// force: a crash at any record of it loses the node, and restart brings
/// records, index and lock space back to the committed state.
#[test]
fn crash_inside_the_overflow_force_recovers() {
    for k in [0, 1, 3] {
        let mut db = SmDb::new(one_bucket(2));
        let f = FaultInjector::new();
        db.set_fault_injector(f.clone());
        let t = db.begin(NodeId(0)).unwrap();
        for slot in 0..6 {
            db.update(t, slot, b"committed").unwrap();
        }
        db.commit(t).unwrap();
        // Under volatile LBM an update forces no log: the only forces of
        // this transaction are the early commits of the lines its locks
        // grow the chain by.
        let allocs = db.lock_stats().overflow_allocs;
        f.arm(FaultPlan::single(CrashPoint::new(FAULT_FORCE_RECORD, k)));
        let victim = db.begin(NodeId(1)).unwrap();
        let err = (10..200)
            .find_map(|slot| db.update(victim, slot, b"doomed").err())
            .expect("the chain grew and the armed force fired");
        let crash = *err.fault_crash().expect("an injected crash");
        assert_eq!((crash.site, crash.node), (FAULT_FORCE_RECORD, 1), "#{k}");
        assert_eq!(db.lock_stats().overflow_allocs, allocs, "#{k}: crashed before the link");
        db.crash(&[NodeId(1)]);
        db.recover().unwrap();
        let ifa = db.check_ifa(NodeId(0));
        assert!(ifa.ok(), "#{k}: {:?}", ifa.violations);
        assert_eq!(db.check_lock_chains(NodeId(0)).unwrap(), Vec::<String>::new(), "#{k}");
        assert_eq!(db.current_value(0).unwrap()[..9], *b"committed", "#{k}");
    }
}
