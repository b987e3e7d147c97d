//! E12 acceptance gates for the multicore execution engine.
//!
//! Two kinds of gate:
//!
//! * **Structure gates** (always run): the epoch scheduler must pack the
//!   low-contention cell into a few large epochs (that is what creates
//!   parallel work), keep every deterministic column thread-count
//!   invariant, commit every transaction, and pay at most one commit
//!   force per lane per epoch (epoch group commit).
//! * **The wall-clock gate** (runs only on hosts with ≥ 4 cores): the
//!   low-contention cell at 4 threads must beat 1 thread by ≥ 1.6×.
//!   Wall-clock is inherently host-dependent, so on smaller machines the
//!   gate prints a skip message instead of lying with noise.

use smdb_bench::e12_multicore;
use smdb_core::{DbConfig, ProtocolKind, SmDb};
use smdb_workload::{run_mix_mt, MixParams};

fn low_contention(txns: usize) -> MixParams {
    MixParams {
        txns,
        ops_per_txn: 4,
        read_fraction: 0.0,
        sharing: 0.0,
        shared_slots: 0,
        zipf_theta: 0.0,
        seed: 0xE12,
        ..Default::default()
    }
}

fn engine() -> SmDb {
    SmDb::new(DbConfig::bench(8, ProtocolKind::VolatileSelectiveRedo).with_sim_shards(64))
}

/// Wall-clock for one run at `threads`, best of `reps` (spawn jitter and
/// scheduler noise only ever slow a run down, so min is the right
/// estimator).
fn best_wall(txns: usize, threads: usize, reps: usize) -> std::time::Duration {
    (0..reps)
        .map(|_| {
            let mut db = engine();
            let t0 = std::time::Instant::now();
            let (report, _) = run_mix_mt(&mut db, low_contention(txns), threads).expect("mt run");
            let wall = t0.elapsed();
            assert_eq!(report.committed, txns as u64);
            wall
        })
        .min()
        .expect("reps >= 1")
}

#[test]
fn scheduler_packs_low_contention_work_into_large_epochs() {
    let mut db = engine();
    let (report, out) = run_mix_mt(&mut db, low_contention(400), 2).expect("mt run");
    assert_eq!(report.committed, 400);
    // Parallel speedup requires big epochs: private partitions must not
    // fragment into per-transaction epochs.
    assert!(
        out.epochs <= 10,
        "low-contention run fragmented into {} epochs (max admission {})",
        out.epochs,
        out.max_epoch_txns
    );
    assert!(
        out.max_epoch_txns >= 100,
        "largest epoch admitted only {} of 400 transactions",
        out.max_epoch_txns
    );
    assert_eq!(out.lock_conflicts, 0, "private partitions cannot collide on lock names");
}

#[test]
fn deterministic_columns_are_thread_count_invariant() {
    let runs: Vec<_> = [1usize, 4]
        .iter()
        .map(|&t| {
            let mut db = engine();
            run_mix_mt(&mut db, low_contention(300), t).expect("mt run")
        })
        .collect();
    assert_eq!(runs[0], runs[1], "4-thread run diverged from the 1-thread run");
}

#[test]
fn each_lane_forces_its_commits_once_per_epoch() {
    // Both cells at 1/2/4/8 threads: a lane's commits share one force, so
    // an epoch pays at most one per node (8), and no retry escaped the
    // lanes to pay its own.
    for p in e12_multicore(400) {
        assert_eq!(p.serial_retries, 0, "{p:?}");
        assert!(p.commit_forces <= p.epochs * 8, "more commit forces than lanes: {p:?}");
        assert!(p.commit_forces < p.committed / 4, "still a force per transaction: {p:?}");
    }
}

#[test]
fn four_threads_beat_one_by_1_6x_on_low_contention() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 4 {
        eprintln!(
            "SKIP: e12 wall-clock gate needs >= 4 cores, host has {cores}; \
             structure gates still ran"
        );
        return;
    }
    // Warm up the allocator and page cache, then measure.
    let _ = best_wall(400, 1, 1);
    let serial = best_wall(2000, 1, 2);
    let parallel = best_wall(2000, 4, 2);
    let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 1.6,
        "4 threads over 1: {speedup:.2}x, expected >= 1.6x (serial {serial:?}, \
         parallel {parallel:?})"
    );
}
