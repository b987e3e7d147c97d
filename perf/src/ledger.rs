//! Turn a run's repetitions into the two metric sets: the end-to-end
//! metrics (untraced pass) and the per-layer ledger (traced pass).

use crate::report::{Values, END_TO_END, PER_LAYER};
use crate::stats::{drift, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{Episode, Rep, Workload, C};

pub const PHASES: [&str; 7] =
    ["stable_undo", "reinstall", "cache_discard", "redo", "undo", "lock_recovery", "txn_table"];

fn episodes(reps: &[Rep]) -> impl Iterator<Item = &Episode> {
    reps.iter().flat_map(|r| r.episodes.iter())
}

fn over_episodes(reps: &[Rep], f: impl Fn(&Episode) -> f64) -> Vec<f64> {
    episodes(reps).map(f).collect()
}

/// Per position (the k-th driver call, the k-th crash round), the fastest
/// time any repetition took. Every repetition does identical work, and
/// interference from the host only ever adds time, so the fastest of
/// several trials is the steadiest estimate of what the code itself costs
/// — while keeping every position, so slow late calls (drift) still count.
pub fn best_per_position<'a>(series: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for s in series {
        if best.is_empty() {
            best = s.to_vec();
        }
        assert_eq!(best.len(), s.len(), "repetitions do identical work");
        for (b, &x) in best.iter_mut().zip(s) {
            *b = b.min(x);
        }
    }
    best
}

fn best_over_episodes(reps: &[Rep], f: fn(&Episode) -> f64) -> Vec<f64> {
    let series: Vec<Vec<f64>> = reps.iter().map(|r| r.episodes.iter().map(f).collect()).collect();
    best_per_position(series.iter().map(Vec::as_slice))
}

/// Host-time metrics are assembled from the fastest trial of each position
/// over the repetitions; deterministic ones are read from the first
/// repetition (the others are checked to be identical). `peak_rss_mb` is
/// passed in: it is read after the first repetition, so it does not depend
/// on how many repetitions fit in the run.
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Values {
    let mut v = Values::new(END_TO_END);
    let first = &reps[..1];
    let n = reps[0].committed_total() as f64;
    v.set("setup_s", reps.iter().map(|r| r.setup_s).fold(f64::INFINITY, f64::min));
    let forward = best_per_position(reps.iter().map(|r| r.forward_s.as_slice()));
    v.set("host_txn_per_s", n / forward.iter().sum::<f64>());
    v.set("sim_cycles_per_txn", reps[0].sim_cycles as f64 / n);
    v.set("log_bytes_per_txn", reps[0].counts.get(C::WalBytes) / n);
    v.set("recover_host_ms_p50", median(&best_over_episodes(reps, |e| e.recover_ms)));
    v.set("ttft_host_ms_p50", median(&best_over_episodes(reps, |e| e.ttft_ms)));
    v.set("drained_host_ms_p50", median(&best_over_episodes(reps, |e| e.drained_ms)));
    // Simulated cycles are exact, so their mean over the rounds is steady
    // where a median of sixteen would sit between the two modes the
    // odd/even victims produce.
    let mean = |x: Vec<f64>| x.iter().sum::<f64>() / x.len() as f64;
    v.set("recover_sim_cycles", mean(over_episodes(first, |e| e.outcome.recovery_cycles as f64)));
    v.set("ttft_sim_cycles", mean(over_episodes(first, |e| e.ttft_sim_cycles as f64)));
    let aborted: usize = reps[0].episodes.iter().map(|e| e.outcome.aborted.len()).sum();
    let active: usize = reps[0].episodes.iter().map(|e| e.active).sum();
    v.set("crash_abort_share", aborted as f64 / active as f64);
    v.set("peak_rss_mb", peak_rss_mb);
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The workload-dependent part of the ledger: counts per transaction from
/// the layers' stats, and host times of the calls the harness made.
/// (`probes::run_all` adds the workload-independent probes.)
pub fn per_layer(reps: &[Rep], tr: &Tracer) -> Values {
    let mut v = Values::new(PER_LAYER);
    let r0 = &reps[0];
    let first = &reps[..1];
    let c = |i: C| r0.counts.get(i);
    let n = r0.committed_total() as f64;
    let sim_ops = c(C::SimReads) + c(C::SimWrites);

    v.set("sim.ops_per_txn", sim_ops / n);
    v.set("sim.local_hit_ratio", ratio(c(C::SimLocalHits), sim_ops));
    v.set("sim.migrations_per_txn", c(C::SimMigrations) / n);
    v.set("sim.replications_per_txn", c(C::SimReplications) / n);
    v.set("sim.invalidations_per_txn", c(C::SimInvalidations) / n);
    v.set(
        "sim.line_lock_conflict_ratio",
        ratio(c(C::SimLineLockConflicts), c(C::SimLineLockAcquires) + c(C::SimLineLockConflicts)),
    );
    v.set(
        "sim.lines_lost_per_crash",
        median(&over_episodes(first, |e| e.outcome.lost_lines as f64)),
    );

    v.set("lock.acquires_per_txn", c(C::LockAcquires) / n);
    v.set(
        "lock.fast_hit_ratio",
        ratio(c(C::LockFastHits), c(C::LockAcquires) + c(C::LockFastHits)),
    );
    v.set("lock.waits_per_txn", c(C::LockWaits) / n);
    v.set("lock.stalls_per_txn", r0.lock_stalls as f64 / n);
    v.set("lock.early_released_per_txn", c(C::LockEarlyReleased) / n);
    v.set("lock.shared_share", ratio(c(C::LockShared), c(C::LockAcquires)));

    v.set("wal.appends_per_txn", c(C::WalAppends) / n);
    v.set("wal.forces_per_txn", c(C::WalForces) / n);
    v.set("wal.lbm_forces_per_txn", c(C::EngLbmForces) / n);
    v.set("wal.coalesced_ratio", ratio(c(C::WalForcesCoalesced), c(C::WalForcesRequested)));
    v.set("wal.records_per_force", ratio(c(C::WalRecordsForced), c(C::WalForces)));
    v.set("wal.read_lock_records_per_txn", c(C::WalReadLockRecords) / n);

    v.set("storage.page_flushes_per_txn", c(C::EngPageFlushes) / n);

    v.set("btree.inserts_per_txn", c(C::BtInserts) / n);
    v.set("btree.searches_per_txn", c(C::BtSearches) / n);
    v.set("btree.splits_per_kinsert", ratio(c(C::BtSplits) * 1000.0, c(C::BtInserts)));

    v.set("core.engine.ops_per_txn", (c(C::EngReads) + c(C::EngUpdates) + c(C::EngIndexOps)) / n);
    v.set("core.engine.would_blocks_per_txn", c(C::EngWouldBlocks) / n);
    v.set("core.engine.commit_deps_per_txn", c(C::EngCommitDeps) / n);
    v.set("core.engine.undo_tag_writes_per_txn", c(C::EngUndoTagWrites) / n);
    v.set("core.engine.checkpoints", c(C::EngCheckpoints));
    v.set("core.engine.page_flushes_per_ckpt", ratio(c(C::EngPageFlushes), c(C::EngCheckpoints)));
    let forward_ms: Vec<f64> =
        reps.iter().flat_map(|r| r.forward_s.iter().map(|s| s * 1e3)).collect();
    v.set("core.engine.forward_call_ms", median(&forward_ms));
    let ckpt: Vec<f64> = reps.iter().flat_map(|r| r.checkpoint_ms.iter().copied()).collect();
    if !ckpt.is_empty() {
        v.set("core.engine.checkpoint_ms_p50", median(&ckpt));
        let drifts: Vec<f64> = reps.iter().map(|r| drift(&r.checkpoint_ms, 8)).collect();
        v.set("core.engine.checkpoint_ms_drift", median(&drifts));
    }

    let count = |f: fn(&Episode) -> u64| median(&over_episodes(first, |e| f(e) as f64));
    v.set("core.restart.scan_records", count(|e| e.outcome.scan_records));
    v.set("core.restart.redo_applied", count(|e| e.outcome.redo_applied));
    v.set("core.restart.redo_skipped_cached", count(|e| e.outcome.redo_skipped_cached));
    v.set("core.restart.redo_skipped_stable", count(|e| e.outcome.redo_skipped_stable));
    v.set("core.restart.undo_applied", count(|e| e.outcome.undo_records_applied));
    v.set("core.restart.lost_lines", count(|e| e.outcome.lost_lines));
    v.set("core.restart.on_demand_redo", count(|e| e.on_demand_redo));
    v.set("core.restart.background_redo", count(|e| e.background_redo));
    for phase in PHASES {
        let of = |e: &Episode| e.outcome.phases.iter().find(|p| p.phase == phase).cloned();
        let sim = over_episodes(first, |e| of(e).map_or(0.0, |p| p.sim_cycles as f64));
        let host = over_episodes(reps, |e| of(e).map_or(0.0, |p| p.wall_ns as f64 / 1e6));
        v.set(&format!("core.restart.phase_sim_cycles.{phase}"), median(&sim));
        v.set(&format!("core.restart.phase_host_ms.{phase}"), median(&host));
    }
    v.set("core.restart.crash_ms", median(&over_episodes(reps, |e| e.crash_ms)));
    v.set("core.restart.recover_ms", median(&over_episodes(reps, |e| e.recover_ms - e.crash_ms)));
    // Self time of the `recover` span: what its phases do not cover — the
    // analysis scan and planning.
    let self_ms: Vec<f64> =
        tr.self_times("core.restart.recover").iter().map(|ns| ns / 1e6).collect();
    if !self_ms.is_empty() {
        v.set("core.restart.unattributed_ms", median(&self_ms));
    }
    v.set("core.restart.first_txn_us", median(&over_episodes(reps, |e| e.first_txn_us)));
    let batches: Vec<f64> = episodes(reps).flat_map(|e| e.drain_batch_us.iter().copied()).collect();
    if !batches.is_empty() {
        v.set("core.restart.drain_batch_us", median(&batches));
    }
    let drifts: Vec<f64> = reps
        .iter()
        .map(|r| {
            let series: Vec<f64> = r.episodes.iter().map(|e| e.recover_ms).collect();
            drift(&series, series.len() / 4)
        })
        .collect();
    v.set("core.restart.recover_ms_drift", median(&drifts));
    v.set(
        "core.restart.recover_host_ms_p90",
        percentile(&over_episodes(reps, |e| e.recover_ms), 0.9),
    );
    v.set("core.restart.ttft_host_ms_p90", percentile(&over_episodes(reps, |e| e.ttft_ms), 0.9));

    if let Some(mt) = &r0.mt {
        v.set("core.mt.epochs", mt.epochs as f64);
        v.set("core.mt.txns_per_epoch", ratio(mt.committed as f64, mt.epochs as f64));
        v.set("core.mt.data_conflicts", mt.data_conflicts as f64);
        v.set("core.mt.lock_conflicts", mt.lock_conflicts as f64);
        v.set("core.mt.epoch_waits", mt.epoch_waits as f64);
        v.set("core.mt.serial_retries", mt.serial_retries as f64);
        v.set("core.mt.appender_stalls", mt.appender_stalls as f64);
        v.set("core.mt.run_epochs_ms", median(&forward_ms));
    }
    v
}

/// Each layer's share of a transaction's host time, and of a recovery's:
/// count × probe ns against the measured whole, the remainder reported as
/// unattributed whatever its size. Shares are inclusive (a lock acquire
/// contains the machine operations and the log append it causes).
pub fn print_shares(w: &Workload, e2e: &Values, v: &Values) {
    let g = |name: &str| v.get(name).unwrap_or(0.0);
    let txn_ns = 1e9 / e2e.get("host_txn_per_s").expect("always set");
    eprintln!("\n{}: layer shares of one transaction's host time ({:.2} us)", w.name, txn_ns / 1e3);
    let lock = g("lock.acquires_per_txn") * g("lock.acquire_release_ns")
        + g("lock.stalls_per_txn") * g("lock.poll_conflict_ns");
    let wal =
        g("wal.appends_per_txn") * g("wal.append_ns") + g("wal.forces_per_txn") * g("wal.force_ns");
    let btree = g("btree.inserts_per_txn") * g("btree.insert_ns");
    let flushes = g("storage.page_flushes_per_txn") * g("storage.write_page_ns");
    // Only `tp1_serial` checkpoints from the harness; `run_mix` hides its own.
    let checkpoints = g("core.engine.checkpoint_ms_p50") * 1e6 * g("core.engine.checkpoints")
        / (w.txns * w.rounds) as f64;
    let sim = g("sim.ops_per_txn")
        * g("sim.local_hit_ratio")
        * (g("sim.read_hit_ns") + g("sim.write_hit_ns"))
        / 2.0
        + g("sim.migrations_per_txn") * g("sim.write_migrate_ns")
        + g("sim.replications_per_txn") * g("sim.read_replicate_ns");
    // lock, wal, btree and the checkpoints do not overlap each other; a
    // checkpoint contains its page flushes, and sim is contained in all of
    // them and in the engine's own record accesses.
    let unattributed = txn_ns - (lock + wal + btree + checkpoints.max(flushes));
    for (name, ns) in [
        ("lock (incl. its sim+wal calls)", lock),
        ("wal (appends+forces)", wal),
        ("btree (incl. its sim+wal calls)", btree),
        ("storage (page flushes)", flushes),
        ("core.engine checkpoint calls", checkpoints),
        ("sim (machine ops of any caller)", sim),
        ("unattributed (core.engine self, driver)", unattributed),
    ] {
        eprintln!("  {name:<40} {ns:>9.0} ns  {:>5.1} %", 100.0 * ns / txn_ns);
    }

    let recover = g("core.restart.recover_ms");
    eprintln!("{}: phase shares of recover() host time ({recover:.2} ms)", w.name);
    for phase in PHASES {
        let ms = g(&format!("core.restart.phase_host_ms.{phase}"));
        eprintln!("  {phase:<40} {ms:>9.3} ms  {:>5.1} %", 100.0 * ms / recover);
    }
    let un = g("core.restart.unattributed_ms");
    eprintln!(
        "  {:<40} {un:>9.3} ms  {:>5.1} %",
        "unattributed (analysis scan, planning)",
        100.0 * un / recover
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_per_position_keeps_every_position() {
        let reps = [vec![3.0, 9.0, 5.0], vec![4.0, 6.0, 5.5], vec![2.5, 7.0, 8.0]];
        let best = best_per_position(reps.iter().map(Vec::as_slice));
        assert_eq!(best, vec![2.5, 6.0, 5.0]);
        // A slow late position stays slow: it is not dropped, only de-noised.
        assert!(best[1] > best[0]);
        assert!(best_per_position(std::iter::empty()).is_empty());
    }
}
