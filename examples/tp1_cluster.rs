//! A TP1 (debit-credit) cluster under fire: eight nodes run the classic
//! account/teller/branch workload; halfway through, two nodes fail.
//! IFA recovery keeps the survivors' work intact and money conserved.
//!
//! ```text
//! cargo run --release --example tp1_cluster
//! ```

use smdb::core::{DbConfig, ProtocolKind, SmDb};
use smdb::sim::NodeId;
use smdb::workload::{run_tp1, Tp1Params};

fn total_balance(db: &SmDb, lo: u64, hi: u64) -> i64 {
    (lo..hi)
        .map(|s| {
            let v = db.current_value(s).expect("readable");
            i64::from_le_bytes(v[..8].try_into().expect("8 bytes"))
        })
        .sum()
}

fn main() {
    let mut db = SmDb::new(DbConfig::bench(8, ProtocolKind::VolatileSelectiveRedo));
    let params = Tp1Params { txns: 300, branches: 8, ..Default::default() };

    println!("=== phase 1: 300 TP1 transactions over 8 nodes ===");
    let r1 = run_tp1(&mut db, params.clone());
    let tps_per_mcycle =
        r1.committed as f64 / (r1.sim_cycles as f64 / 1_000_000.0).max(f64::EPSILON);
    println!(
        "committed {} (conflict aborts {}), {tps_per_mcycle:.1} txns per Mcycle",
        r1.committed, r1.conflict_aborts
    );
    let branches_total = total_balance(&db, 0, 8);
    println!("sum of branch balances: {branches_total}");

    println!("\n=== nodes 5 and 6 fail ===");
    let outcome = db.crash_and_recover(&[NodeId(5), NodeId(6)]).expect("recovery");
    println!(
        "recovery: {} lines lost, {} redo, {} undo, {} sim-cycles",
        outcome.lost_lines,
        outcome.redo_applied,
        outcome.undo_records_applied,
        outcome.recovery_cycles
    );
    db.check_ifa(NodeId(0)).assert_ok();
    assert_eq!(total_balance(&db, 0, 8), branches_total, "money conserved across the crash");
    println!("IFA check: ok; branch total unchanged");

    println!("\n=== phase 2: survivors keep serving ===");
    let r2 = run_tp1(&mut db, Tp1Params { txns: 200, seed: 1234, ..params });
    println!("committed {} more on the 6 surviving nodes", r2.committed);
    db.check_ifa(NodeId(0)).assert_ok();

    println!("\n=== rebooted nodes rejoin ===");
    db.reboot(NodeId(5));
    db.reboot(NodeId(6));
    let r3 = run_tp1(&mut db, Tp1Params { txns: 100, seed: 777, ..Tp1Params::default() });
    println!("committed {} with the full cluster back", r3.committed);
    db.check_ifa(NodeId(0)).assert_ok();

    let s = db.stats();
    let m = db.machine().stats();
    println!("\n=== totals ===");
    println!("commits:            {}", s.commits);
    println!("crash aborts:       {}", s.crash_aborts);
    println!("line migrations:    {}", m.migrations);
    println!("line replications:  {}", m.replications);
    println!("log forces:         {}", db.total_log_forces());
    println!("simulated makespan: {} cycles", db.max_clock());
}
