//! E16 acceptance gate: every live node reads a share of the index
//! skeleton.
//!
//! Node 0 alone builds the same index on machines of 2, 4 and 8 nodes and
//! crashes behind a clock barrier, taking the only cached copy of every
//! tree page. The restart reads the same pages back on every machine —
//! once each — but deals them out over the live nodes, so the reinstall
//! phase costs the busiest reader's share: at 8 nodes (seven readers) it
//! is at most ¼ of its value at 2 nodes (one reader).
//!
//! Simulated quantities only, deterministic on any host.

use smdb_bench::e16_restart_skeleton;
use smdb_sim::CostModel;

#[test]
fn the_reinstall_phase_shrinks_with_the_readers() {
    let pts = e16_restart_skeleton(2000);
    assert_eq!(pts.iter().map(|p| p.nodes).collect::<Vec<_>>(), [2, 4, 8]);
    let cost = CostModel::default();
    for p in &pts {
        println!("{p:?}");
        assert!(p.lost_pages >= 8, "{} nodes: the crash lost the skeleton", p.nodes);
        assert_eq!(p.pages_read, p.lost_pages, "{} nodes: each lost page read once", p.nodes);
        let readers = p.nodes as u64 - 1;
        assert!(p.reinstall_cycles >= p.pages_read.div_ceil(readers) * cost.disk_io);
        assert!(p.reinstall_cycles <= p.recovery_cycles);
    }
    let (two, eight) = (&pts[0], &pts[2]);
    assert_eq!(two.pages_read, eight.pages_read);
    assert!(
        4 * eight.reinstall_cycles <= two.reinstall_cycles,
        "reinstall {} -> {} cycles for the same {} pages",
        two.reinstall_cycles,
        eight.reinstall_cycles,
        two.pages_read
    );
}
