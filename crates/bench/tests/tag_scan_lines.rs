//! Restart's undo-tag scan follows what the crashed node wrote since the
//! last checkpoint, not the size of the caches or the history: it visits
//! the lines the analysed nodes' tag ledgers name
//! (`restart.tag_scan_lines`), where it used to walk every line any
//! survivor held, and each checkpoint prunes the ledgers. A count, so the
//! claim holds whatever the host's speed.

use smdb_core::{DbConfig, ProtocolKind, SmDb};
use smdb_obs::names;
use smdb_sim::NodeId;
use smdb_workload::{run_mix, spawn_active, MixParams};

/// The `crash_eager` / `crash_instant` benchmark shape: 8 nodes, 65 536
/// records of 96 bytes (one to a line), a checkpointed mix, in-flight
/// transactions on every node at the crash.
#[test]
fn tag_scan_visits_under_a_fifth_of_the_held_lines() {
    let mut cfg = DbConfig::bench(8, ProtocolKind::VolatileSelectiveRedo).without_index();
    cfg.records = 65536;
    cfg.rec_data_size = 96;
    for instant in [false, true] {
        let mut db =
            SmDb::new(if instant { cfg.clone().with_instant_restart() } else { cfg.clone() });
        db.enable_observability(0);
        let mix = MixParams {
            txns: 1000,
            ops_per_txn: 8,
            sharing: 0.3,
            shared_slots: 256,
            read_fraction: 0.2,
            checkpoint_every: 250,
            seed: 42,
            ..Default::default()
        };
        run_mix(&mut db, mix);
        spawn_active(&mut db, 2, 2, true, 5);
        db.crash(&[NodeId(0)]);
        let diffs = db.check_tag_scan();
        assert!(diffs.is_empty(), "instant={instant}: {}", diffs.join("; "));
        let held = db.machine().iter_held().count() as u64;
        let outcome = db.recover().expect("recover");
        let visited = outcome.tag_scan_lines;
        assert!(
            visited > 0,
            "instant={instant}: the victim tagged lines, the scan must visit them"
        );
        assert!(
            visited * 5 < held,
            "instant={instant}: the tag scan visited {visited} lines of the {held} held"
        );
        // Each checkpoint prunes the ledgers, so they name the lines
        // written since the last one (250 transactions), not the whole mix.
        assert!(
            visited <= 250,
            "instant={instant}: the tag scan visited {visited} lines, more than one \
             checkpoint interval's writes"
        );
        let snap = db.observability().metrics.snapshot();
        let counted = snap.counters.iter().find(|(n, _)| n == names::RESTART_TAG_SCAN_LINES);
        assert_eq!(counted.map(|(_, v)| *v), Some(visited), "instant={instant}");
    }
}
