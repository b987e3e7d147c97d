//! E13 acceptance gate: a checkpoint is written back by every live node.
//!
//! The same dirty set is checkpointed on machines of 1, 2, 4 and 8 nodes.
//! The work (pages flushed) must not depend on the machine; the makespan
//! at 8 nodes must be at most a sixth of one node's (seven flushers share
//! what one wrote alone, plus the per-node checkpoint record); and a crash
//! of the updater right after must lose no more lines with company than
//! alone — the flushers keep the copies their page reads made.
//!
//! Simulated quantities only, deterministic on any host.

use smdb_bench::e13_checkpoint;

#[test]
fn checkpoint_makespan_divides_by_the_flushers_and_the_work_does_not() {
    let pages = 84;
    let pts = e13_checkpoint(pages);
    assert_eq!(pts.iter().map(|p| p.nodes).collect::<Vec<_>>(), [1, 2, 4, 8]);
    for p in &pts {
        println!("{p:?}");
        assert_eq!(p.pages_flushed, pages as u64, "{} nodes: the dirty set", p.nodes);
        // The updater flushes only when it is alone.
        let flushers = (p.nodes as u64 - 1).max(1);
        assert_eq!(
            p.max_pages_per_flusher,
            p.pages_flushed.div_ceil(flushers),
            "{} nodes",
            p.nodes
        );
    }
    let (one, eight) = (&pts[0], &pts[3]);
    assert!(
        6 * eight.makespan_cycles <= one.makespan_cycles,
        "makespan {} -> {} cycles, expected <= 1/6",
        one.makespan_cycles,
        eight.makespan_cycles
    );
    assert!(
        eight.lost_lines <= one.lost_lines,
        "lost lines {} -> {}",
        one.lost_lines,
        eight.lost_lines
    );
}
