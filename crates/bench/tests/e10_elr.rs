//! E10-elr acceptance gate: early lock release + pipelined group commit
//! must cut lock waiting under contention without changing what becomes
//! durable.
//!
//! The high-contention Zipf TP1 cell serialises the whole commit window
//! behind a handful of hot record locks. Under strict 2PL those locks
//! only come off once the commit force completes; controlled lock
//! violation releases them at commit-record *append*, letting successors
//! run inside the force window. On StableTriggered that buys no forces: a
//! successor's update makes the hot line active again, and the §5.2
//! trigger re-imposes the force when the line migrates. StableEager
//! forces every update at once, so there is nothing for a migration to
//! force, and ELR pays no more forces than strict 2PL. The gate is
//! comparative — both cells run in-process on the identical operation
//! stream — so it holds on any host.

use smdb_bench::{e10_elr, ElrPoint};

const TXNS: usize = 200;

fn cells() -> Vec<ElrPoint> {
    e10_elr(TXNS)
}

fn pair<'a>(pts: &'a [ElrPoint], protocol: &str) -> (&'a ElrPoint, &'a ElrPoint) {
    let off = pts.iter().find(|p| p.protocol == protocol && !p.elr).expect("off cell");
    let on = pts.iter().find(|p| p.protocol == protocol && p.elr).expect("on cell");
    (off, on)
}

/// Strict 2PL's final lock releases append nothing after the commit
/// force, so its hot lines hand over with nothing left to force. Under ELR
/// the successor updates a line whose predecessor's commit is still
/// unforced, and the trigger forces it: ELR never pays fewer physical
/// forces than strict 2PL on StableTriggered.
#[test]
fn stable_elr_pays_at_least_the_strict_2pl_physical_forces() {
    let pts = cells();
    let p = "StableTriggered";
    let (off, on) = pair(&pts, p);
    assert_eq!(off.committed, TXNS as u64, "{off:?}");
    assert_eq!(on.committed, TXNS as u64, "{on:?}");
    assert!(
        on.physical_forces >= off.physical_forces,
        "{p}: ELR paid fewer physical forces than strict 2PL: off={} on={}",
        off.physical_forces,
        on.physical_forces
    );
}

/// StableEager forces each update the moment it is logged, so a
/// successor never finds a line whose update still owes a force, and ELR
/// adds no trigger forces. What it changes is the commit forces: a drain
/// may cover several pipelined commit records in one force. ELR never
/// pays more physical forces than strict 2PL on StableEager.
#[test]
fn eager_elr_pays_at_most_the_strict_2pl_physical_forces() {
    let pts = cells();
    let (off, on) = pair(&pts, "StableEager");
    assert_eq!((off.committed, on.committed), (TXNS as u64, TXNS as u64), "{off:?} {on:?}");
    assert!(
        on.physical_forces <= off.physical_forces,
        "StableEager: ELR paid more physical forces than strict 2PL: off={} on={}",
        off.physical_forces,
        on.physical_forces
    );
}

#[test]
fn elr_reduces_lock_wait_cycles_on_every_protocol() {
    let pts = cells();
    for p in ["VolatileRedoAll", "VolatileSelectiveRedo", "StableEager", "StableTriggered"] {
        let (off, on) = pair(&pts, p);
        assert!(off.lock_stalls > 0, "cell must actually contend: {off:?}");
        assert!(
            on.lock_wait_cycles < off.lock_wait_cycles,
            "{p}: lock-wait cycles did not drop: off={} on={}",
            off.lock_wait_cycles,
            on.lock_wait_cycles
        );
    }
}

#[test]
fn elr_does_not_change_durability_volume() {
    let pts = cells();
    for p in ["VolatileRedoAll", "VolatileSelectiveRedo", "StableEager", "StableTriggered"] {
        let (off, on) = pair(&pts, p);
        assert_eq!(off.committed, on.committed, "{p}: committed counts diverged");
        assert_eq!(
            off.records_forced, on.records_forced,
            "{p}: records forced diverged between lock policies"
        );
    }
}

#[test]
fn violation_machinery_is_exercised_and_clean() {
    let pts = cells();
    for p in ["VolatileRedoAll", "VolatileSelectiveRedo", "StableEager", "StableTriggered"] {
        let (off, on) = pair(&pts, p);
        assert_eq!(off.early_released, 0, "{off:?}");
        assert_eq!(off.commit_deps, 0, "{off:?}");
        assert!(on.early_released > 0, "hot locks must be violated: {on:?}");
        assert!(on.commit_deps > 0, "successors must inherit deps: {on:?}");
        assert_eq!(on.dep_aborts, 0, "crash-free run must not cascade: {on:?}");
    }
}
