//! Force coalescing changes no forward behaviour (ROADMAP item 13, first
//! step: the equivalence is pinned before anything is deleted).
//!
//! For fuzzer-drawn scenarios (`VoprConfig::draw`: protocol, node count,
//! mix shape, commit window, drain policy, early lock release, index ops,
//! checkpoints, instant restart) the workload runs to completion on
//! engine pairs that must agree field by field:
//!
//! - StableEager with coalesced forces against StableTriggered without
//!   (coalescing defers each StableEager force request to the §5.2
//!   trigger, which is StableTriggered's policy), on every scenario;
//! - the drawn protocol with coalescing on against off.
//!
//! The forward fingerprint is the committed count, simulated cycles,
//! physical forces, records forced, appends, the max clock and a digest of
//! every record and index entry. Each engine then loses its last node and
//! recovers; the digest must still agree, and so must the restart cycles
//! when the mix has no index operations — restart contexts are never
//! coalesced, so index recovery forces eagerly under StableEager.

use smdb_core::{DbConfig, ProtocolKind, SmDb};
use smdb_sim::NodeId;
use smdb_vopr::VoprConfig;
use smdb_workload::{run_mix, MixParams};

const SCENARIOS: u64 = 128;

#[derive(Debug, PartialEq)]
struct Forward {
    committed: u64,
    sim_cycles: u64,
    physical_forces: u64,
    records_forced: u64,
    appends: u64,
    max_clock: u64,
    digest: u64,
}

#[derive(Debug, PartialEq)]
struct Run {
    forward: Forward,
    /// `None` when the mix has index operations (see the module docs).
    restart_cycles: Option<u64>,
    recovered_digest: u64,
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h = (*h ^ u64::from(*b)).wrapping_mul(0x100_0000_01B3);
    }
}

/// Every record's current value and, with an index, every index entry.
fn digest(db: &mut SmDb, reader: NodeId) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for slot in 0..u64::from(db.record_count()) {
        fnv(&mut h, &db.current_value(slot).expect("record readable"));
    }
    if db.config().has_index() {
        for (key, value) in db.index_scan(reader).expect("index scan") {
            fnv(&mut h, &key.to_le_bytes());
            fnv(&mut h, &value);
        }
    }
    h
}

fn params(v: &VoprConfig, seed: u64) -> MixParams {
    MixParams {
        txns: v.txns,
        ops_per_txn: v.ops_per_txn,
        read_fraction: f64::from(v.read_pct) / 100.0,
        sharing: f64::from(v.sharing_pct) / 100.0,
        shared_slots: v.shared_slots,
        index_fraction: f64::from(v.index_pct) / 100.0,
        zipf_theta: f64::from(v.zipf_x100) / 100.0,
        seed,
        retries: 8,
        checkpoint_every: v.checkpoint_every,
        commit_window: v.window,
        drain_every: v.drain_every,
    }
}

fn run(v: &VoprConfig, seed: u64, protocol: ProtocolKind, coalesce: bool) -> Run {
    let mut cfg = DbConfig { protocol, ..v.db_config() };
    cfg.coalesce_forces = coalesce;
    let mut db = SmDb::new(cfg);
    let report = run_mix(&mut db, params(v, seed));
    let logs = db.logs();
    let (physical_forces, appends) = (logs.total_forces(), logs.total_appends());
    let records_forced = logs.total_records_forced();
    let max_clock = db.max_clock();
    let forward = Forward {
        committed: report.committed,
        sim_cycles: report.sim_cycles,
        physical_forces,
        records_forced,
        appends,
        max_clock,
        digest: digest(&mut db, NodeId(0)),
    };
    db.sync_clocks();
    db.crash(&[NodeId(v.nodes - 1)]);
    let outcome = db.recover().expect("recovery");
    Run {
        forward,
        restart_cycles: (v.index_pct == 0).then_some(outcome.recovery_cycles),
        recovered_digest: digest(&mut db, NodeId(0)),
    }
}

#[test]
fn coalescing_matches_the_uncoalesced_policy_on_drawn_scenarios() {
    let mut diffs = Vec::new();
    let mut compare = |what: &str, v: &VoprConfig, a: Run, b: Run| {
        if a != b {
            diffs.push(format!("{what} [{}]:\n  {a:?}\n  {b:?}", v.encode()));
        }
    };
    for seed in 0..SCENARIOS {
        let v = VoprConfig::draw(seed);
        let eager = run(&v, seed, ProtocolKind::StableEager, true);
        let triggered = run(&v, seed, ProtocolKind::StableTriggered, false);
        compare("coalesced StableEager vs StableTriggered", &v, eager, triggered);
        if v.protocol != ProtocolKind::StableEager {
            let on = run(&v, seed, v.protocol, true);
            let off = run(&v, seed, v.protocol, false);
            compare("coalescing on vs off", &v, on, off);
        }
    }
    assert!(diffs.is_empty(), "{} scenario(s) differ:\n{}", diffs.len(), diffs.join("\n"));
}
