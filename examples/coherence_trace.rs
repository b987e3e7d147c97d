//! Watch the §3.2 data-sharing histories happen, event by event, on the
//! machine-wide event bus — the coherence transitions in one sequence
//! with the lock, log and recovery events around them.
//!
//! ```text
//! cargo run --example coherence_trace
//! ```

use smdb::core::{DbConfig, ProtocolKind, SmDb};
use smdb::obs::Event;
use smdb::sim::NodeId;

fn print_events(db: &SmDb, label: &str) {
    println!("--- {label} ---");
    for rec in db.observability().bus.drain() {
        let seq = rec.seq;
        match rec.event {
            Event::WriteTake { node, line, invalidated, migration } => {
                println!(
                    "  [{seq:>4}] n{node} takes l{line:#x} (invalidated {invalidated} cop{}, {})",
                    if invalidated == 1 { "y" } else { "ies" },
                    if migration { "H_ww migration" } else { "upgrade from shared" }
                );
            }
            Event::ReadRemote { node, line, downgraded } => {
                println!(
                    "  [{seq:>4}] n{node} fetches l{line:#x} remotely{}",
                    if downgraded { " (H_wr: downgraded an exclusive owner)" } else { "" }
                );
            }
            Event::LineLock { node, line } => {
                println!("  [{seq:>4}] n{node} getline l{line:#x}");
            }
            Event::LineUnlock { node, line } => {
                println!("  [{seq:>4}] n{node} releaseline l{line:#x}");
            }
            Event::CrashInjected { nodes, lost_lines } => {
                println!("  [{seq:>4}] CRASH of {nodes} node(s): {lost_lines} lines destroyed");
            }
            Event::Install { node, line } => {
                println!("  [{seq:>4}] n{node} installs l{line:#x} (page fault or recovery)");
            }
            _ => {}
        }
    }
}

fn main() {
    let mut db = SmDb::new(DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo));
    db.enable_observability(512);

    // H_ww1: w_x[l]; w_y[l] — records 0 and 1 share a line.
    let tx = db.begin(NodeId(0)).expect("begin");
    db.update(tx, 0, b"by-x").expect("update");
    let ty = db.begin(NodeId(1)).expect("begin");
    db.update(ty, 1, b"by-y").expect("update");
    print_events(&db, "H_ww1: x writes r0, then y writes r1 (same line)");

    // H_wr: w_x[l]; r_y[l] — a browse-mode read replicates the line.
    db.update(tx, 30, b"hot!").expect("update");
    let _ = db.read_dirty(NodeId(1), 30).expect("dirty read");
    print_events(&db, "H_wr: x writes r30, y browse-reads it");

    // Crash y and watch recovery's installs.
    let outcome = db.crash_and_recover(&[NodeId(1)]).expect("recovery");
    print_events(&db, "crash of y + restart recovery");
    println!(
        "\nrecovery: aborted {:?}, redo {}, undo {}",
        outcome.aborted, outcome.redo_applied, outcome.undo_records_applied
    );
    db.check_ifa(NodeId(0)).assert_ok();
    db.commit(tx).expect("commit");
    println!("t_x survived the crash of y and committed. IFA held.");
}
