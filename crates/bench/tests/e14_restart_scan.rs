//! E14 acceptance gate: every live node scans a log.
//!
//! Every node commits the same un-checkpointed history on machines of 2, 4
//! and 8 nodes and node 0 crashes behind a clock barrier. The retained log
//! — the work of the analysis scan — grows fourfold from 2 to 8 nodes; the
//! analysis phase must not grow with it, because what it costs is the
//! busiest reader's share and that is two logs on any machine (a survivor's
//! own and node 0's): `stable_undo` at 8 nodes is at most 1.1 × that at 2
//! nodes (the slack is the merge: seven readers hand the recovery node more
//! than one does).
//!
//! Simulated quantities only, deterministic on any host.

use smdb_bench::e14_restart_scan;
use smdb_sim::CostModel;

#[test]
fn the_scan_phase_costs_two_logs_on_any_machine() {
    let pts = e14_restart_scan(150);
    assert_eq!(pts.iter().map(|p| p.nodes).collect::<Vec<_>>(), [2, 4, 8]);
    // A survivor's log is one length on every machine; node 0's stable
    // prefix is a little shorter (its last lock releases were never forced).
    let survivor_log = (pts[1].scan_records - pts[0].scan_records) / 2;
    let dead_log = pts[0].scan_records - survivor_log;
    assert!(dead_log <= survivor_log && dead_log + 8 >= survivor_log, "{dead_log} {survivor_log}");
    let cost = CostModel::default();
    for p in &pts {
        println!("{p:?}");
        let survivors = p.nodes as u64 - 1;
        assert_eq!(p.scan_records, survivors * survivor_log + dead_log, "{} nodes", p.nodes);
        assert_eq!(p.scan_records_max, survivor_log + dead_log, "{} nodes: two logs", p.nodes);
        assert!(p.stable_undo_cycles >= p.scan_records_max * cost.log_scan_record);
        assert!(p.stable_undo_cycles <= p.recovery_cycles);
    }
    let (two, eight) = (&pts[0], &pts[2]);
    assert!(eight.scan_records >= 4 * two.scan_records);
    assert!(
        10 * eight.stable_undo_cycles <= 11 * two.stable_undo_cycles,
        "stable_undo {} -> {} cycles while the scan grew 4x",
        two.stable_undo_cycles,
        eight.stable_undo_cycles
    );
}
