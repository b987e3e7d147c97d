//! Property-based IFA validation: random workloads × random crash sets ×
//! every protocol. The invariant (§3.3): after crash-and-recover, all
//! effects of crashed-node transactions are gone and no effect of any
//! surviving node's transaction is lost — checked record-by-record,
//! index-key-by-key, and lock-by-lock by the engine's shadow oracle, with
//! the rest of the oracle battery on both sides of every recovery.

use proptest::prelude::*;
use smdb::core::{DbConfig, DbError, ProtocolKind, RecoveryOutcome, SmDb};
use smdb::sim::NodeId;
use smdb::workload::{run_mix_with_crash, spawn_active, CrashPlan, MixParams};

/// `recover` inside the oracle battery.
fn recover(db: &mut SmDb) -> Result<Result<RecoveryOutcome, DbError>, TestCaseError> {
    db.recover_checked().map_err(|v| TestCaseError::fail(v.to_string()))
}

/// The oracle battery's second call, wherever no crash is pending.
fn settled(db: &mut SmDb) -> Result<(), TestCaseError> {
    db.check_after_recover().map_err(|v| TestCaseError::fail(v.to_string()))
}

/// Crash `nodes` and recover, the battery on both sides.
fn crash_and_recover(db: &mut SmDb, nodes: &[NodeId]) -> Result<RecoveryOutcome, TestCaseError> {
    db.crash(nodes);
    recover(db)?.map_err(|e| TestCaseError::fail(format!("recover: {e}")))
}

fn protocol_strategy() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::FaOnly),
        Just(ProtocolKind::VolatileRedoAll),
        Just(ProtocolKind::VolatileSelectiveRedo),
        Just(ProtocolKind::StableEager),
        Just(ProtocolKind::StableTriggered),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Committed work survives any single-node crash; in-flight work on
    /// survivors persists; in-flight work on the crashed node vanishes.
    #[test]
    fn ifa_holds_for_random_mixes(
        protocol in protocol_strategy(),
        seed in any::<u64>(),
        sharing in 0.0f64..=1.0,
        read_fraction in 0.0f64..=0.8,
        index_fraction in 0.0f64..=0.6,
        txns in 10usize..60,
        crash_node in 0u16..4,
        actives_per_node in 0usize..3,
    ) {
        let mut db = SmDb::new(DbConfig::small(4, protocol));
        let params = MixParams {
            txns,
            sharing,
            read_fraction,
            index_fraction,
            seed,
            ..Default::default()
        };
        let (report, _) = run_mix_with_crash(&mut db, params, None).expect("mix runs");
        prop_assert!(report.committed > 0 || txns == 0);
        let actives = spawn_active(&mut db, actives_per_node, 2, true, seed ^ 0xABCD);
        let outcome = crash_and_recover(&mut db, &[NodeId(crash_node)])?;
        // Abort-set exactness.
        if protocol.guarantees_ifa() {
            let expected: Vec<_> = actives
                .iter()
                .copied()
                .filter(|t| t.node() == NodeId(crash_node))
                .collect();
            prop_assert_eq!(outcome.aborted.clone(), expected);
        } else {
            prop_assert_eq!(outcome.aborted.len(), actives.len());
        }
    }

    /// Same, crashing in the *middle* of the workload and continuing after.
    #[test]
    fn ifa_holds_for_mid_stream_crashes(
        protocol in protocol_strategy(),
        seed in any::<u64>(),
        sharing in 0.0f64..=1.0,
        crash_after in 5usize..25,
        crash_node in 0u16..4,
    ) {
        let mut db = SmDb::new(DbConfig::small(4, protocol));
        let params = MixParams { txns: 40, sharing, seed, ..Default::default() };
        let plan = CrashPlan { after_txns: crash_after, nodes: vec![NodeId(crash_node)] };
        let (report, recovery) =
            run_mix_with_crash(&mut db, params, Some(plan)).expect("recovery succeeds");
        prop_assert!(recovery.is_some());
        prop_assert!(report.committed > 30, "survivors kept committing");
        settled(&mut db)?;
    }

    /// Parallel (multi-node) transactions — §9: a crash of *any*
    /// participant aborts the whole transaction; bystander crashes spare
    /// it.
    #[test]
    fn ifa_holds_with_parallel_txns(
        protocol in protocol_strategy(),
        seed in any::<u64>(),
        home in 0u16..4,
        participant in 0u16..4,
        crash_node in 0u16..4,
        slots in proptest::collection::vec(0u64..200, 1..5),
    ) {
        prop_assume!(home != participant);
        let mut db = SmDb::new(DbConfig::small(4, protocol));
        // Background committed state.
        run_mix_with_crash(
            &mut db,
            MixParams { txns: 15, seed, ..Default::default() },
            None,
        ).expect("mix runs");
        let t = db.begin(NodeId(home)).expect("begin");
        db.attach(t, NodeId(participant)).expect("attach");
        for (i, &slot) in slots.iter().enumerate() {
            let node = if i % 2 == 0 { NodeId(home) } else { NodeId(participant) };
            match db.update_on(t, node, slot, &slot.to_le_bytes()) {
                Ok(()) => {}
                Err(smdb::core::DbError::WouldBlock { .. }) => {} // tolerated
                Err(e) => return Err(TestCaseError::fail(format!("update_on: {e}"))),
            }
        }
        let outcome = crash_and_recover(&mut db, &[NodeId(crash_node)])?;
        let doomed = crash_node == home || crash_node == participant;
        if protocol.guarantees_ifa() {
            prop_assert_eq!(
                outcome.aborted.contains(&t),
                doomed,
                "parallel txn aborted iff a participant crashed"
            );
        }
        if !doomed && protocol.guarantees_ifa() {
            db.commit(t).expect("commit after bystander crash");
            settled(&mut db)?;
        }
    }

    /// Random fault-injection schedules: a random crash point — possibly
    /// a nested pair whose second point strikes while recovery from the
    /// first is still in flight — is armed over a random mix. Wherever
    /// the crashes land (mid-migration, mid-force, mid-flush, either side
    /// of the commit point, between recovery phases), driving
    /// crash+recover to convergence must restore an IFA-consistent state.
    #[test]
    fn ifa_holds_under_random_fault_schedules(
        protocol in protocol_strategy(),
        seed in any::<u64>(),
        sharing in 0.0f64..=1.0,
        site_a in 0usize..5,
        hit_a in 0u64..120,
        nested in any::<bool>(),
        site_b in 0usize..5,
        hit_b in 0u64..8,
    ) {
        use smdb::core::fault::{CrashPoint, FaultInjector, FaultPlan};
        const SITES: [&str; 5] = [
            smdb::sim::FAULT_MIGRATE,
            smdb::sim::FAULT_INVALIDATE,
            smdb::wal::FAULT_FORCE_RECORD,
            smdb::storage::FAULT_FLUSH_LINE,
            smdb::core::FAULT_COMMIT,
        ];
        // Secondary points favour the recovery path; low ordinals so they
        // actually land inside the (short) restart.
        const REC_SITES: [&str; 5] = [
            smdb::core::FAULT_RECOVERY_PHASE,
            smdb::core::FAULT_RECOVERY_PHASE,
            smdb::sim::FAULT_MIGRATE,
            smdb::wal::FAULT_FORCE_RECORD,
            smdb::storage::FAULT_FLUSH_LINE,
        ];
        let mut db = SmDb::new(DbConfig::small(4, protocol));
        let f = FaultInjector::new();
        db.set_fault_injector(f.clone());
        let point_a = CrashPoint::new(SITES[site_a], hit_a);
        let plan = if nested {
            FaultPlan::nested(point_a, CrashPoint::new(REC_SITES[site_b], hit_b))
        } else {
            FaultPlan::single(point_a)
        };
        f.arm(plan.clone());
        let params = MixParams {
            txns: 12,
            sharing,
            index_fraction: 0.25,
            seed,
            ..Default::default()
        };
        match run_mix_with_crash(&mut db, params, None) {
            Ok(_) => {} // ordinal beyond the run's visits: nothing fired
            Err(mut e) => {
                let mut converged = false;
                for _ in 0..8 {
                    let Some(c) = e.fault_crash().copied() else {
                        return Err(TestCaseError::fail(format!("non-crash error: {e}")));
                    };
                    db.crash(&[NodeId(c.node)]);
                    match recover(&mut db)? {
                        Ok(_) => { converged = true; break; }
                        Err(e2) => e = e2,
                    }
                }
                prop_assert!(converged, "recovery did not converge under plan={plan}");
            }
        }
        // Disarm before the oracle: an armed point the perturbed run never
        // reached must not fire during the oracle's own coherent scans.
        f.off();
        db.check_after_recover()
            .map_err(|v| TestCaseError::fail(format!("plan={plan}: {v}")))?;
    }

    /// Instant restart's availability contract, as a property: with the
    /// database opened right after analysis and the whole redo plan still
    /// deferred, a transaction reading *any* record — before a single
    /// background batch has run — observes exactly the committed
    /// pre-crash value the shadow oracle predicts. The on-demand hook is
    /// what stands between the reader and the stale pre-crash heap image,
    /// so every mismatch here is a hole in that hook. Afterwards the
    /// window is drained to empty and the full IFA check must pass.
    #[test]
    fn instant_drain_window_reads_serve_committed_values(
        protocol in prop_oneof![
            Just(ProtocolKind::VolatileRedoAll),
            Just(ProtocolKind::VolatileSelectiveRedo),
            Just(ProtocolKind::StableEager),
            Just(ProtocolKind::StableTriggered),
        ],
        seed in any::<u64>(),
        sharing in 0.0f64..=1.0,
        read_fraction in 0.0f64..=0.5,
        txns in 10usize..40,
        crash_node in 0u16..4,
        probes in proptest::collection::vec(any::<u64>(), 1..10),
    ) {
        let mut db = SmDb::new(DbConfig::small(4, protocol).with_instant_restart());
        let params = MixParams { txns, sharing, read_fraction, seed, ..Default::default() };
        run_mix_with_crash(&mut db, params, None).expect("mix runs");
        crash_and_recover(&mut db, &[NodeId(crash_node)])?;
        let reader = db.machine().surviving_nodes()[0];
        let records = db.record_count() as u64;
        for probe in probes {
            let slot = probe % records;
            let want = db.read_committed(slot).expect("shadow value");
            let t = db.begin(reader).expect("begin in drain window");
            let got = db.read(t, slot).expect("read in drain window");
            db.commit(t).expect("commit in drain window");
            prop_assert_eq!(
                got, want,
                "{:?}: slot {} served a non-committed value mid-window", protocol, slot
            );
        }
        while db.redo_pending() > 0 {
            db.drain_redo(reader, 3).expect("drain");
        }
        settled(&mut db)?;
    }

    /// Multi-node and repeated crashes. The historical failure this found
    /// is pinned as the deterministic
    /// [`sequential_crash_of_both_mix_nodes_stable_eager`] below — keep
    /// that test in sync if this property's body changes.
    #[test]
    fn ifa_holds_for_multi_node_crashes(
        protocol in protocol_strategy(),
        seed in any::<u64>(),
        sharing in 0.0f64..=1.0,
        crash_a in 0u16..6,
        crash_b in 0u16..6,
    ) {
        let mut db = SmDb::new(DbConfig::small(6, protocol));
        run_mix_with_crash(
            &mut db,
            MixParams { txns: 25, sharing, seed, ..Default::default() },
            None,
        ).expect("mix runs");
        let _ = spawn_active(&mut db, 1, 2, true, seed ^ 0x1234);
        crash_and_recover(&mut db, &[NodeId(crash_a)])?;
        // Second crash (possibly the same node — then it's a no-op).
        crash_and_recover(&mut db, &[NodeId(crash_b)])?;
    }
}

/// Deterministic pin of the shrunk case in
/// `ifa_proptest.proptest-regressions` (StableEager, seed 0, sharing 0.0,
/// crash node 1 then node 0): with zero sharing the mix lands
/// transactions round-robin, so the two crashes take down exactly the two
/// nodes that did all the committing, back to back. The second recovery
/// re-analyses the first crash's stable log with the first node still
/// down, which historically re-undid already-settled transactions. Runs
/// on every `cargo test` without proptest in the loop.
#[test]
fn sequential_crash_of_both_mix_nodes_stable_eager() {
    let mut db = SmDb::new(DbConfig::small(6, ProtocolKind::StableEager));
    run_mix_with_crash(
        &mut db,
        MixParams { txns: 25, sharing: 0.0, seed: 0, ..Default::default() },
        None,
    )
    .expect("mix runs");
    let _ = spawn_active(&mut db, 1, 2, true, 0x1234); // seed 0 ^ 0x1234
    crash_and_recover(&mut db, &[NodeId(1)]).unwrap();
    crash_and_recover(&mut db, &[NodeId(0)]).unwrap();
}
