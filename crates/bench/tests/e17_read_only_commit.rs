//! E17 acceptance gate: a read-only commit writes no commit record and
//! forces nothing.
//!
//! The serial mix runs on 8 nodes at read fractions 0, 0.5, 0.9 and 1. On
//! VolatileSelectiveRedo the only log forces are commit forces, so the
//! physical forces are exactly the committed transactions that logged a
//! data record, and the simulated cycles per transaction fall as the read
//! fraction rises.
//!
//! Simulated quantities only, deterministic on any host.

use smdb_bench::e17_read_only_commit;

#[test]
fn a_read_only_commit_costs_no_force() {
    let pts = e17_read_only_commit(60);
    for p in &pts {
        println!("{p:?}");
        assert!(p.read_only_commits <= p.committed, "{p:?}");
    }
    let volatile: Vec<_> = pts.iter().filter(|p| p.protocol == "VolatileSelectiveRedo").collect();
    assert_eq!(volatile.iter().map(|p| p.read_fraction).collect::<Vec<_>>(), [0.0, 0.5, 0.9, 1.0]);
    for p in &volatile {
        assert_eq!(p.physical_forces, p.committed - p.read_only_commits, "{p:?}");
    }
    let (all_writes, all_reads) = (volatile[0], volatile[3]);
    assert_eq!(all_writes.read_only_commits, 0);
    assert_eq!(all_reads.read_only_commits, all_reads.committed);
    for w in volatile.windows(2) {
        assert!(
            w[1].cycles_per_txn < w[0].cycles_per_txn,
            "cycles per transaction {} at read fraction {} -> {} at {}",
            w[0].cycles_per_txn,
            w[0].read_fraction,
            w[1].cycles_per_txn,
            w[1].read_fraction
        );
    }
}
