//! E4 acceptance gate: the paper's log-force shape by LBM policy and
//! sharing rate (§5.2/§7).
//!
//! With commits pipelined (window 8, polling locks) a line migrates while
//! its updater's commit is still unforced, and the §5.2 trigger forces for
//! it: StableTriggered's forces grow with the sharing rate and sit
//! strictly between Volatile (commit forces only) and StableEager (a force
//! per update). In the serial strict-2PL mix a line migrates only after
//! its updater's commit force, and a transaction's final lock release logs
//! nothing after it, so the trigger has (almost) nothing to force.

use smdb_bench::{e4_log_forces, LogForcePoint};

const TXNS: usize = 60;
const SHARINGS: [f64; 3] = [0.0, 0.5, 1.0];

fn cell<'a>(pts: &'a [LogForcePoint], protocol: &str, sharing: f64) -> &'a LogForcePoint {
    pts.iter().find(|p| p.protocol == protocol && p.sharing == sharing).expect("cell")
}

#[test]
fn pipelined_triggered_forces_grow_with_sharing_between_volatile_and_eager() {
    let pts = e4_log_forces(TXNS, &SHARINGS, false, 8);
    let mut last = 0;
    for sharing in SHARINGS {
        let vol = cell(&pts, "VolatileSelectiveRedo", sharing);
        let trig = cell(&pts, "StableTriggered", sharing);
        let eager = cell(&pts, "StableEager", sharing);
        assert_eq!(vol.lbm_forces, 0, "{vol:?}");
        assert!(vol.total_forces < trig.total_forces, "{vol:?} {trig:?}");
        assert!(trig.total_forces < eager.total_forces, "{trig:?} {eager:?}");
        assert!(trig.total_forces > last, "not growing with sharing at {sharing}: {trig:?}");
        last = trig.total_forces;
    }
}

#[test]
fn serial_triggered_pays_commit_forces_only() {
    let pts = e4_log_forces(TXNS, &SHARINGS, false, 1);
    for sharing in SHARINGS {
        let trig = cell(&pts, "StableTriggered", sharing);
        assert_eq!(trig.committed, TXNS as u64, "{trig:?}");
        // A trigger force is left only for a rare abort's compensation
        // tail: at most one in twenty transactions.
        assert!(20 * trig.lbm_forces <= trig.committed, "{trig:?}");
    }
}
