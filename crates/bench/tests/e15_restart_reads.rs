//! E15 acceptance gate: every live node reads a share of the restart's
//! pages.
//!
//! Node 0 commits one update on each of the same pages on machines of 2, 4
//! and 8 nodes and crashes behind a clock barrier, taking the only cached
//! copy of every one of them. The restart reads the same pages back on
//! every machine — once each — but deals them out over the live nodes, so
//! the redo phase costs the busiest reader's share: at 8 nodes (seven
//! readers) it is at most ¼ of its value at 2 nodes (one reader).
//!
//! Simulated quantities only, deterministic on any host.

use smdb_bench::e15_restart_reads;
use smdb_sim::CostModel;

#[test]
fn the_redo_phase_shrinks_with_the_readers() {
    let pages = 84;
    let pts = e15_restart_reads(pages);
    assert_eq!(pts.iter().map(|p| p.nodes).collect::<Vec<_>>(), [2, 4, 8]);
    let cost = CostModel::default();
    for p in &pts {
        println!("{p:?}");
        assert_eq!(p.lost_pages, pages as u64, "{} nodes: every page lost", p.nodes);
        assert_eq!(p.pages_read, p.lost_pages, "{} nodes: each lost page read once", p.nodes);
        let readers = p.nodes as u64 - 1;
        assert_eq!(p.pages_read_max, p.pages_read.div_ceil(readers), "{} nodes", p.nodes);
        assert!(p.redo_cycles >= p.pages_read_max * cost.disk_io);
        assert!(p.redo_cycles <= p.recovery_cycles);
    }
    let (two, eight) = (&pts[0], &pts[2]);
    assert_eq!(two.pages_read, eight.pages_read);
    assert!(
        4 * eight.redo_cycles <= two.redo_cycles,
        "redo {} -> {} cycles for the same {} pages",
        two.redo_cycles,
        eight.redo_cycles,
        two.pages_read
    );
}
