//! The metric tables (name, unit, direction, regression bound) and the
//! one-line JSON result every run ends with.
//!
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`perf --benchmark-json`); a test in `main.rs` keeps the two in step.

use crate::stats::Better::{self, Higher, Lower};
use smdb_bench::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: name, unit, which direction is better, and — end-to-end
/// metrics only — the share of the parent's median by which it may worsen
/// before a change counts as a regression.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Repeats exactly for a fixed seed (not host time, not memory): an
    /// A/A comparison demands a difference of 0 whatever the bound.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound, exact: true }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better, bound: 0.0, exact: false }
}

/// What a user of the system sees. Two clocks, always named: `host` is
/// wall time of the Rust code, `sim` is the modelled machine (deterministic
/// for a fixed seed; its bounds only absorb seed-to-seed variation).
pub const END_TO_END: &[Def] = &[
    host("setup_s", "s", Lower, 0.25),
    host("host_txn_per_s", "txn/s", Higher, 0.25),
    exact("sim_cycles_per_txn", "cycles", Lower, 0.03),
    exact("log_bytes_per_txn", "bytes", Lower, 0.01),
    host("recover_host_ms_p50", "ms", Lower, 0.25),
    host("ttft_host_ms_p50", "ms", Lower, 0.25),
    host("drained_host_ms_p50", "ms", Lower, 0.25),
    exact("recover_sim_cycles", "cycles", Lower, 0.06),
    exact("ttft_sim_cycles", "cycles", Lower, 0.06),
    exact("crash_abort_share", "ratio", Lower, 0.01),
    host("peak_rss_mb", "MB", Lower, 0.2),
];

/// The per-layer ledger, grouped by the repo's modules. Counts come from
/// the layers' public stats structs and repeat exactly; `*_ns`, `*_us` and
/// `*_ms` are host time from harness spans or standalone probes.
pub const PER_LAYER: &[Def] = &[
    // sim — Machine
    layer("sim.ops_per_txn", "count", Lower),
    layer("sim.local_hit_ratio", "ratio", Higher),
    layer("sim.migrations_per_txn", "count", Lower),
    layer("sim.replications_per_txn", "count", Lower),
    layer("sim.invalidations_per_txn", "count", Lower),
    layer("sim.line_lock_conflict_ratio", "ratio", Lower),
    layer("sim.lines_lost_per_crash", "count", Lower),
    layer("sim.read_hit_ns", "ns", Lower),
    layer("sim.write_hit_ns", "ns", Lower),
    layer("sim.write_migrate_ns", "ns", Lower),
    layer("sim.read_replicate_ns", "ns", Lower),
    layer("sim.getline_release_ns", "ns", Lower),
    layer("sim.crash_ms", "ms", Lower),
    // lock — LockManager
    layer("lock.acquires_per_txn", "count", Lower),
    layer("lock.fast_hit_ratio", "ratio", Higher),
    layer("lock.waits_per_txn", "count", Lower),
    layer("lock.stalls_per_txn", "count", Lower),
    layer("lock.early_released_per_txn", "count", Higher),
    layer("lock.shared_share", "ratio", Higher),
    layer("lock.acquire_release_ns", "ns", Lower),
    layer("lock.reacquire_fast_ns", "ns", Lower),
    layer("lock.poll_conflict_ns", "ns", Lower),
    layer("lock.release_all_ns", "ns", Lower),
    // wal — LogSet / NodeLog
    layer("wal.appends_per_txn", "count", Lower),
    layer("wal.forces_per_txn", "count", Lower),
    layer("wal.lbm_forces_per_txn", "count", Lower),
    layer("wal.coalesced_ratio", "ratio", Higher),
    layer("wal.records_per_force", "count", Higher),
    layer("wal.read_lock_records_per_txn", "count", Lower),
    layer("wal.append_ns", "ns", Lower),
    layer("wal.force_ns", "ns", Lower),
    layer("wal.request_force_coalesced_ns", "ns", Lower),
    // storage — StableDb
    layer("storage.page_flushes_per_txn", "count", Lower),
    layer("storage.read_page_ns", "ns", Lower),
    layer("storage.write_page_ns", "ns", Lower),
    // btree — BTree
    layer("btree.inserts_per_txn", "count", Lower),
    layer("btree.searches_per_txn", "count", Lower),
    layer("btree.splits_per_kinsert", "count", Lower),
    layer("btree.search_ns", "ns", Lower),
    layer("btree.insert_ns", "ns", Lower),
    layer("btree.delete_ns", "ns", Lower),
    // core.engine — SmDb forward path
    layer("core.engine.ops_per_txn", "count", Lower),
    layer("core.engine.would_blocks_per_txn", "count", Lower),
    layer("core.engine.commit_deps_per_txn", "count", Lower),
    layer("core.engine.undo_tag_writes_per_txn", "count", Lower),
    layer("core.engine.checkpoints", "count", Lower),
    layer("core.engine.page_flushes_per_ckpt", "count", Lower),
    layer("core.engine.begin_ns", "ns", Lower),
    layer("core.engine.read_ns", "ns", Lower),
    layer("core.engine.update_ns", "ns", Lower),
    layer("core.engine.insert_ns", "ns", Lower),
    layer("core.engine.commit_ns", "ns", Lower),
    layer("core.engine.txn_host_us_p50", "us", Lower),
    layer("core.engine.txn_host_us_p99", "us", Lower),
    layer("core.engine.forward_call_ms", "ms", Lower),
    layer("core.engine.checkpoint_ms_p50", "ms", Lower),
    layer("core.engine.checkpoint_ms_drift", "ratio", Lower),
    // core.restart — crash / recover / drain_redo
    layer("core.restart.scan_records", "count", Lower),
    layer("core.restart.redo_applied", "count", Lower),
    layer("core.restart.redo_skipped_cached", "count", Higher),
    layer("core.restart.redo_skipped_stable", "count", Higher),
    layer("core.restart.undo_applied", "count", Lower),
    layer("core.restart.lost_lines", "count", Lower),
    layer("core.restart.on_demand_redo", "count", Lower),
    layer("core.restart.background_redo", "count", Lower),
    layer("core.restart.phase_sim_cycles.stable_undo", "cycles", Lower),
    layer("core.restart.phase_sim_cycles.reinstall", "cycles", Lower),
    layer("core.restart.phase_sim_cycles.cache_discard", "cycles", Lower),
    layer("core.restart.phase_sim_cycles.redo", "cycles", Lower),
    layer("core.restart.phase_sim_cycles.undo", "cycles", Lower),
    layer("core.restart.phase_sim_cycles.lock_recovery", "cycles", Lower),
    layer("core.restart.phase_sim_cycles.txn_table", "cycles", Lower),
    layer("core.restart.phase_host_ms.stable_undo", "ms", Lower),
    layer("core.restart.phase_host_ms.reinstall", "ms", Lower),
    layer("core.restart.phase_host_ms.cache_discard", "ms", Lower),
    layer("core.restart.phase_host_ms.redo", "ms", Lower),
    layer("core.restart.phase_host_ms.undo", "ms", Lower),
    layer("core.restart.phase_host_ms.lock_recovery", "ms", Lower),
    layer("core.restart.phase_host_ms.txn_table", "ms", Lower),
    layer("core.restart.crash_ms", "ms", Lower),
    layer("core.restart.recover_ms", "ms", Lower),
    layer("core.restart.unattributed_ms", "ms", Lower),
    layer("core.restart.first_txn_us", "us", Lower),
    layer("core.restart.drain_batch_us", "us", Lower),
    layer("core.restart.recover_ms_drift", "ratio", Lower),
    layer("core.restart.recover_host_ms_p90", "ms", Lower),
    layer("core.restart.ttft_host_ms_p90", "ms", Lower),
    // core.mt — run_epochs
    layer("core.mt.epochs", "count", Lower),
    layer("core.mt.txns_per_epoch", "count", Higher),
    layer("core.mt.data_conflicts", "count", Lower),
    layer("core.mt.lock_conflicts", "count", Lower),
    layer("core.mt.epoch_waits", "count", Lower),
    layer("core.mt.serial_retries", "count", Lower),
    layer("core.mt.appender_stalls", "count", Lower),
    layer("core.mt.run_epochs_ms", "ms", Lower),
    layer("core.mt.speedup_2t", "ratio", Higher),
    // workload — generators
    layer("workload.zipf_sample_ns", "ns", Lower),
    // obs — how far the traced numbers can be trusted
    layer("obs.harness_span_overhead_ratio", "ratio", Lower),
    layer("obs.engine_obs_overhead_ratio", "ratio", Lower),
];

/// Metric values by name. Setting a name the table does not have is a bug
/// in the benchmark and panics at once rather than dropping the number.
pub struct Values {
    defs: &'static [Def],
    map: BTreeMap<&'static str, f64>,
}

impl Values {
    pub fn new(defs: &'static [Def]) -> Self {
        Values { defs, map: BTreeMap::new() }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.map.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.map.get(name).copied()
    }

    /// `(def, value)` in table order; a metric nothing measured reads 0
    /// (a layer the workload bypasses).
    pub fn rows(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        self.defs.iter().map(|d| (d, self.map.get(d.name).copied().unwrap_or(0.0)))
    }
}

/// A run's result as the last line of stdout.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn from_values(correct: bool, attempted: u64, failed: u64, values: &Values) -> Self {
        let metrics =
            values.rows().map(|(d, v)| (d.name.to_string(), v, d.unit.to_string())).collect();
        RunResult { correct, attempted, failed, metrics }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// One JSON object on one line. Values keep all their digits: Rust
    /// prints the shortest decimal that reads back to the same `f64`, and
    /// never in exponent form.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(name),
                value,
                json_escape(unit)
            )
            .expect("write to string");
        }
        out.push_str("}}");
        out
    }

    /// Read back a line [`RunResult::to_json`] wrote (the parent process
    /// reads its children's results). Not a general JSON parser.
    pub fn parse(line: &str) -> Option<RunResult> {
        let rest = line.trim().strip_prefix("{\"correct\": ")?;
        let (correct, rest) = rest.split_once(", \"attempted\": ")?;
        let (attempted, rest) = rest.split_once(", \"failed\": ")?;
        let (failed, rest) = rest.split_once(", \"metrics\": {")?;
        let mut body = rest.strip_suffix("}}")?;
        let mut metrics = Vec::new();
        while !body.is_empty() {
            let b = body.strip_prefix('"')?;
            let (name, b) = b.split_once("\": {\"value\": ")?;
            let (value, b) = b.split_once(", \"unit\": \"")?;
            let (unit, b) = b.split_once("\"}")?;
            metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
            body = b.strip_prefix(", ").unwrap_or(b);
        }
        Some(RunResult {
            correct: correct.parse().ok()?,
            attempted: attempted.parse().ok()?,
            failed: failed.parse().ok()?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let mut v = Values::new(END_TO_END);
        v.set("setup_s", 0.123456789012345);
        v.set("host_txn_per_s", 31412.75);
        let r = RunResult::from_values(true, 1000, 0, &v);
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}"));
        let back = RunResult::parse(&line).expect("own format parses");
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (1000, 0));
        assert_eq!(back.metrics.len(), END_TO_END.len(), "every metric of the table is emitted");
        assert_eq!(back.get("host_txn_per_s"), Some(31412.75));
        assert_eq!(back.get("peak_rss_mb"), Some(0.0), "unmeasured reads 0");
        assert_eq!(back.metrics[0].2, "s");
    }

    #[test]
    fn parse_rejects_other_shapes() {
        assert!(RunResult::parse("").is_none());
        assert!(RunResult::parse("{\"correct\": true}").is_none());
        assert!(RunResult::parse("not json").is_none());
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_name_panics() {
        Values::new(END_TO_END).set("no_such_metric", 1.0);
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "name {}", d.name);
            assert!(ok_unit(d.unit), "unit {}", d.unit);
            assert!(seen.insert(d.name), "{} used twice", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
    }
}
