//! Experiment implementations (T1, E1–E8 of `DESIGN.md` §3).

use smdb_core::{DbConfig, ProtocolKind, RecordLayout, RecoveryOutcome, SmDb};
use smdb_lock::LcbGeometry;
use smdb_obs::{Event, Stage};
use smdb_sim::{contended_line_lock_costs, CoherenceKind, CostModel, NodeId};
use smdb_storage::{PageGeometry, PageId};
use smdb_workload::{
    run_mix, run_mix_mt, run_tp1, spawn_active, spawn_active_parallel, MixParams, Tp1Params,
};

/// Standard bench engine: 8 nodes, 4 KiB pages, TP1-capable sizing.
fn bench_db(protocol: ProtocolKind) -> SmDb {
    SmDb::new(DbConfig::bench(8, protocol))
}

// ----------------------------------------------------------------------
// T1 — Table 1: incremental overheads of the IFA protocols
// ----------------------------------------------------------------------

/// Measured overheads for one protocol column of Table 1.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// The protocol measured.
    pub protocol: String,
    /// Early-committed structural changes (splits, root growths, lock
    /// overflow allocations).
    pub structural_early_commits: u64,
    /// Read-lock log records appended.
    pub read_lock_records: u64,
    /// Undo-tag writes performed.
    pub undo_tag_writes: u64,
    /// Log forces beyond commit forces and WAL-at-flush forces (the
    /// Stable-LBM "higher frequency of log forces").
    pub lbm_forces: u64,
    /// Commit forces (baseline cost, incurred by any FA scheme).
    pub commit_forces: u64,
    /// Committed transactions (normalisation basis).
    pub committed: u64,
}

/// Run the Table 1 workload (TP1 + index history, moderate sharing) under
/// each IFA protocol and measure the four overhead classes.
pub fn table1_overheads(txns: usize) -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    for p in ProtocolKind::ifa_protocols() {
        let mut db = bench_db(p);
        let report = run_tp1(&mut db, Tp1Params { txns, ..Default::default() });
        let stats = db.stats();
        let read_locks: u64 = db.logs().iter().map(|l| l.stats().read_lock_records).sum();
        rows.push(OverheadRow {
            protocol: format!("{p:?}"),
            structural_early_commits: stats.structural_early_commits,
            read_lock_records: read_locks,
            undo_tag_writes: stats.undo_tag_writes,
            lbm_forces: stats.lbm_forces,
            commit_forces: stats.commit_forces,
            committed: report.committed,
        });
    }
    rows
}

// ----------------------------------------------------------------------
// E1 — §5.1: line-lock latency vs contention
// ----------------------------------------------------------------------

/// One contention level's line-lock costs.
#[derive(Clone, Debug)]
pub struct LineLockPoint {
    /// Simultaneous requesters.
    pub contenders: u32,
    /// Mean acquisition latency, µs-equivalents.
    pub mean_us: f64,
    /// Worst (last-served) latency, µs-equivalents.
    pub max_us: f64,
}

/// Sweep line-lock contention from 1 to `max` requesters (§5.1 reports
/// < 10 µs uncontended, < 40 µs at 32-way contention on the KSR-1).
pub fn e1_line_lock_contention(max: u32) -> Vec<LineLockPoint> {
    let cost = CostModel::default();
    (1..=max)
        .map(|k| {
            let o = contended_line_lock_costs(&cost, k);
            LineLockPoint { contenders: k, mean_us: o.mean_us, max_us: o.max_us }
        })
        .collect()
}

// ----------------------------------------------------------------------
// E2 — §1/§3.3: aborts per single-node crash, FA-only vs IFA
// ----------------------------------------------------------------------

/// Abort counts for one machine size.
#[derive(Clone, Debug)]
pub struct AbortCountPoint {
    /// Nodes in the machine.
    pub nodes: u16,
    /// Active transactions at crash time.
    pub active: u64,
    /// Aborts under the FA-only baseline.
    pub fa_only_aborts: u64,
    /// Aborts under an IFA protocol (Volatile LBM + Selective Redo).
    pub ifa_aborts: u64,
}

/// For each machine size, populate every node with `per_node` active
/// transactions, crash one node, and count the aborts under FA-only vs an
/// IFA protocol. The paper's motivating claim: at KSR-1 scale (1,088
/// nodes) a single node failure would otherwise affect thousands of
/// active transactions.
pub fn e2_abort_counts(node_counts: &[u16], per_node: usize) -> Vec<AbortCountPoint> {
    let mut out = Vec::new();
    for &n in node_counts {
        let mut point = AbortCountPoint { nodes: n, active: 0, fa_only_aborts: 0, ifa_aborts: 0 };
        for (ifa, proto) in
            [(false, ProtocolKind::FaOnly), (true, ProtocolKind::VolatileSelectiveRedo)]
        {
            let mut cfg = DbConfig::bench(n, proto);
            cfg.records = (n as u32 * (per_node as u32 + 2) * 4).max(4096);
            cfg.lock_buckets = (n as usize * per_node * 2).max(256);
            cfg.index_pages = 0;
            let mut db = SmDb::new(cfg);
            let txns = spawn_active(&mut db, per_node, 2, true, 11);
            point.active = txns.len() as u64;
            let outcome = db.crash_and_recover(&[NodeId(n - 1)]).expect("recovery");
            if ifa {
                point.ifa_aborts = outcome.aborted.len() as u64;
            } else {
                point.fa_only_aborts = outcome.aborted.len() as u64;
            }
        }
        out.push(point);
    }
    out
}

// ----------------------------------------------------------------------
// E3 — §4.1.2: Redo All vs Selective Redo recovery cost
// ----------------------------------------------------------------------

/// Recovery-cost measurements for one (protocol, sharing) cell.
#[derive(Clone, Debug)]
pub struct RecoveryCostPoint {
    /// Protocol measured.
    pub protocol: String,
    /// Workload sharing rate.
    pub sharing: f64,
    /// Heap redo operations applied at recovery.
    pub redo_applied: u64,
    /// Redo candidates skipped via the cached-line probe.
    pub redo_skipped_cached: u64,
    /// Undo operations applied.
    pub undo_applied: u64,
    /// Log records visited by the single analysis scan.
    pub scan_records: u64,
    /// Simulated recovery time, cycles.
    pub recovery_cycles: u64,
    /// Lines destroyed by the crash.
    pub lost_lines: u64,
    /// Per-phase breakdown of `recovery_cycles` (the seven IFA restart
    /// phases; see `RecoveryOutcome::phases`).
    pub phase_stable_undo: u64,
    /// Cycles reinstalling lost lines + index structure.
    pub phase_reinstall: u64,
    /// Cycles discarding survivor caches (Redo All only).
    pub phase_cache_discard: u64,
    /// Cycles in the redo pass.
    pub phase_redo: u64,
    /// Cycles in the undo pass.
    pub phase_undo: u64,
    /// Cycles recovering the lock space.
    pub phase_lock_recovery: u64,
    /// Cycles updating the transaction table.
    pub phase_txn_table: u64,
}

/// Simulated cycles the named recovery phase consumed (0 if absent).
fn phase_cycles(outcome: &RecoveryOutcome, phase: &str) -> u64 {
    outcome.phases.iter().find(|p| p.phase == phase).map(|p| p.sim_cycles).unwrap_or(0)
}

/// Run a mix at each sharing rate, crash one of 8 nodes mid-state, and
/// compare the two volatile restart schemes' recovery work.
pub fn e3_recovery_cost(txns: usize, sharings: &[f64]) -> Vec<RecoveryCostPoint> {
    let mut out = Vec::new();
    for &sharing in sharings {
        for p in [ProtocolKind::VolatileRedoAll, ProtocolKind::VolatileSelectiveRedo] {
            let mut db = bench_db(p);
            run_mix(&mut db, MixParams { txns, sharing, read_fraction: 0.2, ..Default::default() });
            // Leave some in-flight work so recovery has real undo/redo to
            // do.
            let _ = spawn_active(&mut db, 2, 2, true, 5);
            // Crash node 0: it touched the shared region first, so its
            // uncommitted updates have migrated to later touchers and the
            // undo machinery has real work. Behind the clock barrier (E7b's
            // reason): the cycle columns are makespan deltas.
            db.sync_clocks();
            let outcome = db.crash_and_recover(&[NodeId(0)]).expect("recovery");
            db.check_ifa(NodeId(1)).assert_ok();
            out.push(RecoveryCostPoint {
                protocol: format!("{p:?}"),
                sharing,
                redo_applied: outcome.redo_applied,
                redo_skipped_cached: outcome.redo_skipped_cached,
                undo_applied: outcome.undo_records_applied,
                scan_records: outcome.scan_records,
                recovery_cycles: outcome.recovery_cycles,
                lost_lines: outcome.lost_lines,
                phase_stable_undo: phase_cycles(&outcome, "stable_undo"),
                phase_reinstall: phase_cycles(&outcome, "reinstall"),
                phase_cache_discard: phase_cycles(&outcome, "cache_discard"),
                phase_redo: phase_cycles(&outcome, "redo"),
                phase_undo: phase_cycles(&outcome, "undo"),
                phase_lock_recovery: phase_cycles(&outcome, "lock_recovery"),
                phase_txn_table: phase_cycles(&outcome, "txn_table"),
            });
        }
    }
    out
}

// ----------------------------------------------------------------------
// E4 — §5.2/§7: log-force frequency by policy and sharing rate
// ----------------------------------------------------------------------

/// Log-force measurements for one (protocol, sharing) cell.
#[derive(Clone, Debug)]
pub struct LogForcePoint {
    /// Protocol measured.
    pub protocol: String,
    /// Workload sharing rate.
    pub sharing: f64,
    /// Commit window: 1 is the serial driver with blocking locks; a wider
    /// window pipelines commits over polling locks, as E10-elr does.
    pub window: usize,
    /// Total physical log forces.
    pub total_forces: u64,
    /// Forces at commit (incurred by any FA scheme).
    pub commit_forces: u64,
    /// LBM-attributable forces (eager per-update, or coherence-triggered).
    pub lbm_forces: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Simulated cycles per committed transaction.
    pub cycles_per_txn: u64,
}

/// Sweep the sharing rate under every protocol and measure force counts
/// and simulated cost, with commits `window` at a time (1: the serial
/// driver). Expected shape: Volatile stays at ~1 force/txn (commit only);
/// Stable-eager pays one per update regardless of sharing; Stable-triggered
/// grows with the sharing rate — in the pipelined rows. In a serial
/// strict-2PL mix a line only migrates after its updater committed, so the
/// trigger finds nothing unforced and Stable-triggered pays commit forces
/// only.
pub fn e4_log_forces(
    txns: usize,
    sharings: &[f64],
    nvram: bool,
    window: usize,
) -> Vec<LogForcePoint> {
    let mut out = Vec::new();
    for &sharing in sharings {
        for p in ProtocolKind::ifa_protocols() {
            let mut cfg = DbConfig::bench(8, p).without_index();
            if nvram {
                cfg = cfg.with_cost(CostModel::default().with_nvram_log());
            }
            if window > 1 {
                cfg = cfg.with_lock_polling();
            }
            let mut db = SmDb::new(cfg);
            let report = run_mix(
                &mut db,
                MixParams {
                    txns,
                    sharing,
                    read_fraction: 0.3,
                    commit_window: window,
                    drain_every: window,
                    ..Default::default()
                },
            );
            let stats = db.stats();
            out.push(LogForcePoint {
                protocol: format!("{p:?}"),
                sharing,
                window,
                total_forces: db.total_log_forces(),
                commit_forces: stats.commit_forces,
                lbm_forces: stats.lbm_forces,
                committed: report.committed,
                cycles_per_txn: report.sim_cycles / report.committed.max(1),
            });
        }
    }
    out
}

// ----------------------------------------------------------------------
// E5 — §7: write-invalidate vs write-broadcast recovery demands
// ----------------------------------------------------------------------

/// Coherence-protocol comparison for one cell.
#[derive(Clone, Debug)]
pub struct CoherencePoint {
    /// Hardware coherence protocol.
    pub coherence: String,
    /// Lines destroyed by the crash.
    pub lost_lines: u64,
    /// Heap redo operations needed at recovery.
    pub redo_applied: u64,
    /// Undo operations needed at recovery.
    pub undo_applied: u64,
    /// Coherence messages during the workload (invalidations +
    /// broadcast updates).
    pub coherence_traffic: u64,
}

/// Same workload and crash under write-invalidate vs write-broadcast:
/// broadcast leaves replicas everywhere, so recovery needs (almost) no
/// redo — only undo (§7's argument for pairing it with Selective Redo).
pub fn e5_coherence_comparison(txns: usize) -> Vec<CoherencePoint> {
    let mut out = Vec::new();
    for kind in [CoherenceKind::WriteInvalidate, CoherenceKind::WriteBroadcast] {
        let cfg = DbConfig::bench(8, ProtocolKind::VolatileSelectiveRedo).with_coherence(kind);
        let mut db = SmDb::new(cfg);
        run_mix(
            &mut db,
            MixParams { txns, sharing: 0.6, read_fraction: 0.2, ..Default::default() },
        );
        let _ = spawn_active(&mut db, 2, 2, true, 5);
        let traffic = db.machine().stats().invalidations + db.machine().stats().broadcast_updates;
        db.sync_clocks();
        let outcome = db.crash_and_recover(&[NodeId(0)]).expect("recovery");
        db.check_ifa(NodeId(1)).assert_ok();
        out.push(CoherencePoint {
            coherence: format!("{kind:?}"),
            lost_lines: outcome.lost_lines,
            redo_applied: outcome.redo_applied,
            undo_applied: outcome.undo_records_applied,
            coherence_traffic: traffic,
        });
    }
    out
}

// ----------------------------------------------------------------------
// E6 — §6: update-protocol cost, line locks vs semaphores
// ----------------------------------------------------------------------

/// Update-protocol cost for one synchronisation primitive.
#[derive(Clone, Debug)]
pub struct UpdateProtocolPoint {
    /// Primitive modelled.
    pub primitive: String,
    /// Mean simulated cycles per committed transaction.
    pub cycles_per_txn: u64,
    /// Mean µs-equivalents per update operation (includes coherence
    /// traffic and logging, not just the critical section).
    pub us_per_update: f64,
    /// Pure critical-section cost per §6 update (two lock/unlock pairs —
    /// Page-LSN line and record line), µs-equivalents: the paper's
    /// "number of instructions executed" comparison.
    pub critical_section_us: f64,
}

/// Compare the §6 update protocol using hardware line locks against the
/// same protocol using OS-semaphore-class critical sections (modelled by
/// inflating the lock-primitive costs to typical semaphore path lengths:
/// the paper's point is that line locks cut the instruction count
/// substantially).
pub fn e6_update_protocol(txns: usize) -> Vec<UpdateProtocolPoint> {
    let mut out = Vec::new();
    // A semaphore P/V pair costs thousands of instructions (syscall or
    // heavyweight latch) vs the single-instruction getline/releaseline.
    let semaphore_cost =
        CostModel { line_lock_acquire: 3_000, line_lock_release: 1_500, ..CostModel::default() };
    for (name, cost) in [("line locks", CostModel::default()), ("semaphores", semaphore_cost)] {
        let cfg = DbConfig::bench(8, ProtocolKind::VolatileSelectiveRedo)
            .without_index()
            .with_cost(cost.clone());
        let mut db = SmDb::new(cfg);
        // Warm phase: fault every touched page in, so the measured phase
        // isolates the update-protocol cost from one-time disk I/O.
        run_mix(
            &mut db,
            MixParams { txns, sharing: 0.3, read_fraction: 0.0, seed: 1, ..Default::default() },
        );
        let updates_before = db.stats().updates;
        let report = run_mix(
            &mut db,
            MixParams { txns, sharing: 0.3, read_fraction: 0.0, seed: 2, ..Default::default() },
        );
        let updates = (db.stats().updates - updates_before).max(1);
        let cs_cycles = 2 * (cost.line_lock_acquire + cost.line_lock_release);
        out.push(UpdateProtocolPoint {
            primitive: name.to_string(),
            cycles_per_txn: report.sim_cycles / report.committed.max(1),
            us_per_update: cost.cycles_to_us(report.sim_cycles / updates),
            critical_section_us: cost.cycles_to_us(cs_cycles),
        });
    }
    out
}

// ----------------------------------------------------------------------
// E7 — §4.2.2: lock-space recovery
// ----------------------------------------------------------------------

/// Lock-space recovery measurements for one LCB layout.
#[derive(Clone, Debug)]
pub struct LockRecoveryPoint {
    /// LCB layout used.
    pub layout: String,
    /// Lock-table lines destroyed by the crash.
    pub lines_reinstalled: u64,
    /// Crashed transactions' entries released from surviving LCBs.
    pub crashed_entries_released: u64,
    /// LCBs reconstructed from surviving logs.
    pub lcbs_reconstructed: u64,
    /// Surviving transactions' entries restored.
    pub survivor_entries_restored: u64,
    /// Waiters promoted when crashed holders departed.
    pub promotions: u64,
}

/// Lock-heavy steady state, then a crash: measure the §4.2.2 recovery
/// actions under both LCB layouts (co-located vs one-per-line).
pub fn e7_lock_recovery(per_node: usize) -> Vec<LockRecoveryPoint> {
    let mut out = Vec::new();
    for (name, geom) in [
        ("2 LCBs/line (co-located)", LcbGeometry::co_located()),
        ("1 LCB/line", LcbGeometry::one_per_line()),
    ] {
        let mut cfg = DbConfig::bench(8, ProtocolKind::VolatileSelectiveRedo).without_index();
        cfg.lcb_geometry = geom;
        let mut db = SmDb::new(cfg);
        let actives = spawn_active(&mut db, per_node, 3, true, 23);
        // Survivors now *touch the LCBs* of locks held by node 7's
        // transactions (queued conflicting requests): those LCB lines end
        // up on the survivors, so the crash leaves the crashed holders'
        // entries in surviving LCBs — the undo half of §4.2.2.
        let doomed: Vec<_> = actives.iter().filter(|t| t.node() == NodeId(7)).copied().collect();
        for (i, d) in doomed.iter().enumerate() {
            if let Some(&name) = db.held_lock_names(*d).first() {
                let prober = db.begin(NodeId(i as u16 % 4)).expect("alive");
                let _ = db.probe_lock_conflict(prober, name);
            }
        }
        let outcome = db.crash_and_recover(&[NodeId(7)]).expect("recovery");
        db.check_ifa(NodeId(0)).assert_ok();
        let lr = outcome.lock_recovery;
        out.push(LockRecoveryPoint {
            layout: name.to_string(),
            lines_reinstalled: lr.lines_reinstalled,
            crashed_entries_released: lr.crashed_entries_released,
            lcbs_reconstructed: lr.lcbs_reconstructed,
            survivor_entries_restored: lr.survivor_entries_restored,
            promotions: lr.promotions,
        });
    }
    out
}

// ----------------------------------------------------------------------
// E7b — checkpoint-bounded restart: recovery cost vs history length
// ----------------------------------------------------------------------

/// Recovery-scaling measurements for one (protocol, history, checkpoint
/// interval) cell.
#[derive(Clone, Debug)]
pub struct RecoveryScalingPoint {
    /// Protocol measured.
    pub protocol: String,
    /// Transactions executed before the crash (history length).
    pub history_txns: usize,
    /// Sharp-checkpoint interval in transactions (0 = checkpoints off,
    /// i.e. the unbounded pre-checkpoint restart).
    pub checkpoint_every: usize,
    /// Simulated recovery time, cycles.
    pub recovery_cycles: u64,
    /// Log records visited by the single analysis scan.
    pub scan_records: u64,
    /// Heap redo operations applied.
    pub redo_applied: u64,
    /// Redo candidates not applied (cached-probe + stable-equal +
    /// plan-superseded).
    pub redo_skipped: u64,
    /// Highest per-node checkpoint LSN bounding the redo scan.
    pub ckpt_bound_lsn: u64,
}

/// Grow the pre-crash history with and without periodic sharp
/// checkpoints, crash one node, and measure how restart cost scales. The
/// point of checkpoint-bounded recovery: without checkpoints the analysis
/// scan (and therefore restart time) grows linearly with the history;
/// with them, truncation caps the retained log so recovery cost plateaus
/// near one checkpoint interval regardless of history length.
pub fn e7_recovery_scaling(
    history_lens: &[usize],
    checkpoint_every: usize,
) -> Vec<RecoveryScalingPoint> {
    assert!(checkpoint_every > 0, "pass the interval; 0 is generated as the baseline");
    let mut out = Vec::new();
    for &txns in history_lens {
        for p in ProtocolKind::ifa_protocols() {
            for ckpt in [0, checkpoint_every] {
                let mut db = bench_db(p);
                run_mix(
                    &mut db,
                    MixParams {
                        txns,
                        sharing: 0.5,
                        read_fraction: 0.2,
                        checkpoint_every: ckpt,
                        ..Default::default()
                    },
                );
                let _ = spawn_active(&mut db, 2, 2, true, 5);
                // Barrier, as in E11: recovery cycles are a makespan, and
                // the recovery node's clock may trail the furthest one by
                // more than a whole recovery — which then reads as free.
                db.sync_clocks();
                let outcome = db.crash_and_recover(&[NodeId(0)]).expect("recovery");
                db.check_ifa(NodeId(1)).assert_ok();
                out.push(RecoveryScalingPoint {
                    protocol: format!("{p:?}"),
                    history_txns: txns,
                    checkpoint_every: ckpt,
                    recovery_cycles: outcome.recovery_cycles,
                    scan_records: outcome.scan_records,
                    redo_applied: outcome.redo_applied,
                    redo_skipped: outcome.redo_skipped_cached
                        + outcome.redo_skipped_stable
                        + outcome.redo_superseded,
                    ckpt_bound_lsn: outcome.ckpt_bound_lsn,
                });
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// E8 — §4.2.1: B-tree recovery
// ----------------------------------------------------------------------

/// B-tree recovery measurements.
#[derive(Clone, Debug)]
pub struct BtreeRecoveryPoint {
    /// Index operations committed before the crash.
    pub committed_ops: u64,
    /// Splits + root growths (early-committed structural changes).
    pub structural_changes: u64,
    /// Tree pages reinstalled from stable images.
    pub pages_reinstalled: u64,
    /// Index redo operations applied.
    pub index_redo_applied: u64,
    /// Uncommitted inserts removed + deletes unmarked.
    pub index_undo_applied: u64,
}

/// Index-heavy workload (with enough bulk inserts to force splits), then
/// a crash of the busiest node. The setup stages the paper's three
/// recovery cases: (a) uncommitted entries of the crashed node that
/// migrated to a survivor (explicit undo-by-tag), (b) a committed entry
/// whose only cached copy died with the crashed node (redo from its
/// stable log), and (c) early-committed splits whose durability recovery
/// relies on.
pub fn e8_btree_recovery(txns: usize) -> BtreeRecoveryPoint {
    let mut db = bench_db(ProtocolKind::VolatileSelectiveRedo);
    run_mix(
        &mut db,
        MixParams {
            txns,
            index_fraction: 0.8,
            read_fraction: 0.0,
            sharing: 0.4,
            ..Default::default()
        },
    );
    // Bulk inserts by node 6 to force leaf splits (keys well above the
    // mix's key range).
    for i in 0..300u64 {
        let t = db.begin(NodeId(6)).expect("alive");
        db.insert(t, 2_000_000 + i, i.to_le_bytes()).expect("bulk insert");
        db.commit(t).expect("bulk commit");
    }
    let t = db.tree_stats();
    let committed_ops = t.inserts + t.deletes;
    let structural = t.splits + t.root_grows;
    let _ = spawn_active(&mut db, 1, 1, false, 3);
    // (a) In-flight index work on the doomed node, in the mid-range leaf...
    let doomed = db.begin(NodeId(7)).expect("node alive");
    db.insert(doomed, 1_500_001, [1u8; 8]).expect("insert");
    db.insert(doomed, 1_500_002, [2u8; 8]).expect("insert");
    // ...replicated onto a survivor by an H_wr read, so the uncommitted
    // entries outlive the crash and require explicit undo-by-tag.
    let reader = db.begin(NodeId(0)).expect("node alive");
    let _ = db.lookup(reader, 1_500_000);
    db.commit(reader).expect("read-only commit");
    // (b) A committed node-7 insert in the rightmost leaf, whose lines
    // stay exclusive on node 7: destroyed by the crash, redone from node
    // 7's stable log.
    let lost_commit = db.begin(NodeId(7)).expect("node alive");
    db.insert(lost_commit, 2_000_500, [9u8; 8]).expect("insert");
    db.commit(lost_commit).expect("commit");
    db.sync_clocks();
    let outcome = db.crash_and_recover(&[NodeId(7)]).expect("recovery");
    db.check_ifa(NodeId(0)).assert_ok();
    let mut db2_check = db.index_scan(NodeId(0)).expect("scan");
    db2_check.retain(|(k, _)| *k == 2_000_500);
    assert_eq!(db2_check.len(), 1, "lost committed insert must be redone");
    BtreeRecoveryPoint {
        committed_ops,
        structural_changes: structural,
        pages_reinstalled: outcome.btree_recovery.pages_reinstalled,
        index_redo_applied: outcome.index_redo_applied,
        index_undo_applied: outcome.btree_recovery.undo_inserts
            + outcome.btree_recovery.undo_deletes,
    }
}

// ----------------------------------------------------------------------
// E9 — §3.1 ablation: record co-location (records per cache line)
// ----------------------------------------------------------------------

/// Co-location ablation measurements for one record size.
#[derive(Clone, Debug)]
pub struct ColocationPoint {
    /// Records per cache line.
    pub records_per_line: usize,
    /// Record payload size, bytes.
    pub rec_data_size: usize,
    /// ww migrations + invalidations during the workload.
    pub coherence_traffic: u64,
    /// Lines destroyed by the crash.
    pub lost_lines: u64,
    /// Heap redo + undo work at recovery.
    pub recovery_work: u64,
    /// Space overhead vs the densest layout (bytes per record slot).
    pub bytes_per_record_slot: usize,
}

/// Sweep the number of records per cache line (§3: *"unless a lot of
/// space is wasted, it is likely that multiple records will be stored in
/// a cache line"*). One record per line reduces ww co-location traffic at
/// a space cost, but — as the paper stresses — does **not** remove the
/// recovery problems, which also arise from wr sharing and support
/// structures.
pub fn e9_colocation(txns: usize) -> Vec<ColocationPoint> {
    let mut out = Vec::new();
    for rec_size in [40usize, 60, 126] {
        let cfg = DbConfig::bench(8, ProtocolKind::VolatileSelectiveRedo)
            .without_index()
            .with_rec_data_size(rec_size);
        let line = cfg.line_size;
        let mut db = SmDb::new(cfg);
        let rpl = db.record_layout().records_per_line();
        run_mix(
            &mut db,
            MixParams { txns, sharing: 0.5, read_fraction: 0.2, ..Default::default() },
        );
        let _ = spawn_active(&mut db, 2, 2, true, 5);
        let traffic = db.machine().stats().migrations + db.machine().stats().invalidations;
        let outcome = db.crash_and_recover(&[NodeId(0)]).expect("recovery");
        db.check_ifa(NodeId(1)).assert_ok();
        out.push(ColocationPoint {
            records_per_line: rpl,
            rec_data_size: rec_size,
            coherence_traffic: traffic,
            lost_lines: outcome.lost_lines,
            recovery_work: outcome.redo_applied + outcome.undo_records_applied,
            bytes_per_record_slot: line / rpl,
        });
    }
    out
}

// ----------------------------------------------------------------------
// E10 — §9 extension: parallel transactions widen the crash blast radius
// ----------------------------------------------------------------------

/// Blast-radius measurement for one fan-out.
#[derive(Clone, Debug)]
pub struct ParallelBlastPoint {
    /// Participant nodes per transaction.
    pub fan: u16,
    /// Active transactions at crash time.
    pub active: u64,
    /// Transactions aborted by a single node crash.
    pub aborted: u64,
    /// Fraction of actives killed.
    pub kill_fraction: f64,
}

/// §9: "if one of the nodes executing this transaction were to crash, the
/// entire transaction must be aborted." With fan-out `f` on `n` nodes, a
/// single crash dooms ≈ f/n of all active parallel transactions — IFA's
/// per-node isolation dilutes as transactions spread.
pub fn e10_parallel_blast_radius(per_node: usize) -> Vec<ParallelBlastPoint> {
    let mut out = Vec::new();
    for fan in [1u16, 2, 4, 8] {
        let mut cfg = DbConfig::bench(8, ProtocolKind::VolatileSelectiveRedo);
        cfg.index_pages = 0;
        let mut db = SmDb::new(cfg);
        let txns = spawn_active_parallel(&mut db, per_node, fan, 31);
        let active = txns.len() as u64;
        let outcome = db.crash_and_recover(&[NodeId(3)]).expect("recovery");
        db.check_ifa(NodeId(0)).assert_ok();
        let aborted = outcome.aborted.len() as u64;
        out.push(ParallelBlastPoint {
            fan,
            active,
            aborted,
            kill_fraction: aborted as f64 / active as f64,
        });
    }
    out
}

// ----------------------------------------------------------------------
// E9-lat — transaction-latency breakdown by protocol (span attribution)
// ----------------------------------------------------------------------

/// Latency distribution and per-stage cycle attribution for one protocol.
#[derive(Clone, Debug)]
pub struct LatencyPoint {
    /// Protocol measured.
    pub protocol: String,
    /// Committed transactions (span count behind the percentiles).
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Simulated cycles per committed transaction (whole-run makespan).
    pub cycles_per_txn: u64,
    /// Physical log forces performed.
    pub physical_forces: u64,
    /// Mean end-to-end latency, simulated cycles.
    pub mean_cycles: f64,
    /// Median latency (log₂-bucket resolution).
    pub p50_cycles: u64,
    /// 99th-percentile latency.
    pub p99_cycles: u64,
    /// 99.9th-percentile latency.
    pub p999_cycles: u64,
    /// Largest observed latency.
    pub max_cycles: u64,
    /// Sum of end-to-end latencies over all finished spans.
    pub total_latency_cycles: u64,
    /// Cycles attributed to waiting on line locks.
    pub lock_wait_cycles: u64,
    /// Cycles attributed to operation execution (index probes, buffer
    /// traffic, coherence misses).
    pub execute_cycles: u64,
    /// Cycles attributed to WAL appends.
    pub log_append_cycles: u64,
    /// Cycles attributed to waiting on physical log forces.
    pub force_wait_cycles: u64,
    /// Cycles attributed to the commit/abort protocol itself.
    pub commit_cycles: u64,
    /// Fraction of total latency the five stages account for (the
    /// attribution invariant; ≈1.0 by construction).
    pub attributed_fraction: f64,
}

/// TP1 under every IFA protocol with transaction spans enabled: where do
/// a transaction's cycles go, and what does the tail look like? The
/// Stable-LBM protocols pay the log-force latency on the forward path
/// (Table 1's "higher frequency of log forces"), which this experiment
/// resolves into the `force_wait` stage and a fatter p99. Each point also
/// carries the whole run's forward-path cost: cycles per transaction and
/// physical forces.
pub fn e9_latency(txns: usize) -> Vec<LatencyPoint> {
    let mut out = Vec::new();
    for p in ProtocolKind::ifa_protocols() {
        let mut db = bench_db(p);
        db.enable_observability(0);
        let report = run_tp1(&mut db, Tp1Params { txns, ..Default::default() });
        let agg = db.observability().spans.aggregate();
        let lat = agg.latency.snapshot();
        let stages = agg.stage_cycles;
        let attributed: u64 = stages.iter().sum();
        let total = agg.total_latency_cycles as u64;
        out.push(LatencyPoint {
            protocol: format!("{p:?}"),
            committed: agg.committed,
            aborted: agg.aborted,
            cycles_per_txn: report.sim_cycles / report.committed.max(1),
            physical_forces: report.physical_forces,
            mean_cycles: lat.mean,
            p50_cycles: lat.p50,
            p99_cycles: lat.p99,
            p999_cycles: lat.p999,
            max_cycles: lat.max,
            total_latency_cycles: total,
            lock_wait_cycles: stages[Stage::LockWait.index()],
            execute_cycles: stages[Stage::Execute.index()],
            log_append_cycles: stages[Stage::LogAppend.index()],
            force_wait_cycles: stages[Stage::ForceWait.index()],
            commit_cycles: stages[Stage::Commit.index()],
            attributed_fraction: attributed as f64 / total.max(1) as f64,
        });
    }
    out
}

// ----------------------------------------------------------------------
// E10-elr — early lock release + pipelined group commit under contention
// ----------------------------------------------------------------------

/// One (protocol, early-lock-release) cell of the contended pipelined mix.
#[derive(Clone, Debug)]
pub struct ElrPoint {
    /// Protocol measured.
    pub protocol: String,
    /// Whether controlled lock violation (early lock release) was on.
    pub elr: bool,
    /// Committed transactions.
    pub committed: u64,
    /// Simulated cycles per committed transaction.
    pub cycles_per_txn: u64,
    /// Cycles attributed to waiting on record locks (span stage total —
    /// polling retries accumulate here).
    pub lock_wait_cycles: u64,
    /// Operations that found their lock held and retried in place.
    pub lock_stalls: u64,
    /// Write locks released at commit-record append time.
    pub early_released: u64,
    /// Commit-LSN dependencies inherited through violated locks.
    pub commit_deps: u64,
    /// Dependents aborted because a predecessor died before the covering
    /// force (0 in a crash-free run).
    pub dep_aborts: u64,
    /// Physical log forces performed.
    pub physical_forces: u64,
    /// Log records made durable, measured over the run *plus* a closing
    /// checkpoint that forces every log to its tip — i.e. the total
    /// durability volume of the cell, which must not depend on the
    /// lock-release policy.
    pub records_forced: u64,
}

/// The high-contention Zipf TP1 cell under every IFA protocol, with
/// controlled lock violation off and on. All cells run the pipelined
/// group-commit driver over a polling lock manager, so the *only*
/// difference between the off and on cell of a
/// protocol is when write locks come off: at commit acknowledgement
/// (strict 2PL) versus at commit-record append (violation edges +
/// dependency-covered acknowledgement). Early release lets successors
/// run during the force window, so the hot-set serialisation stalls
/// collapse, while the logged record stream (and hence `records_forced`)
/// is byte-for-byte the same. Whole-run cycles follow on the Volatile
/// protocols. On StableTriggered a successor's update re-marks the hot
/// line while its predecessor's commit is unforced, and the §5.2 trigger
/// forces it when the line migrates, so ELR pays at least strict 2PL's
/// physical forces there; StableEager forces every update at once and
/// pays no more under ELR.
pub fn e10_elr(txns: usize) -> Vec<ElrPoint> {
    let mut out = Vec::new();
    for p in ProtocolKind::ifa_protocols() {
        for elr in [false, true] {
            let mut cfg = DbConfig::bench(8, p).with_lock_polling();
            if elr {
                cfg = cfg.with_early_lock_release();
            }
            let mut db = SmDb::new(cfg);
            db.enable_observability(0);
            let records0 = db.logs().total_records_forced();
            let report = run_mix(&mut db, MixParams::contended_tp1(txns));
            // Close the cell by forcing every log to its tip (one
            // checkpoint record per node, identical in both cells): total
            // records forced == total records appended, making the
            // durability volume comparable across lock policies.
            db.checkpoint(NodeId(0)).expect("closing checkpoint");
            let records_forced = db.logs().total_records_forced() - records0;
            db.check_ifa(NodeId(0)).assert_ok();
            let agg = db.observability().spans.aggregate();
            let stats = db.stats();
            out.push(ElrPoint {
                protocol: format!("{p:?}"),
                elr,
                committed: report.committed,
                cycles_per_txn: report.sim_cycles / report.committed.max(1),
                lock_wait_cycles: agg.stage_cycles[Stage::LockWait.index()],
                lock_stalls: report.lock_stalls,
                early_released: db.lock_stats().early_released,
                commit_deps: stats.commit_deps,
                dep_aborts: stats.dep_aborts,
                physical_forces: report.physical_forces,
                records_forced,
            });
        }
    }
    out
}

// ----------------------------------------------------------------------
// E11 — instant restart: serve transactions during recovery
// ----------------------------------------------------------------------

/// One cell of the instant-restart availability experiment.
#[derive(Clone, Debug)]
pub struct InstantRestartPoint {
    /// Protocol under test.
    pub protocol: String,
    /// Instant restart on (open after analysis, deferred heap redo) or
    /// off (stop-the-world eager restart).
    pub instant: bool,
    /// Time to first transaction: simulated cycles from crash injection
    /// to the first post-recovery commit (the availability headline).
    pub ttft_cycles: u64,
    /// Simulated cycles charged inside `recover()` itself.
    pub recovery_cycles: u64,
    /// Heap redo writes performed, wherever they ran: eagerly during
    /// restart, inline on first access, or by the background drain.
    pub redo_total: u64,
    /// Deferred entries applied inline on first forward-path access.
    pub redo_on_demand: u64,
    /// Deferred entries applied by the background drain.
    pub redo_background: u64,
    /// Deferred entries retired without a write (stable image current).
    pub redo_skipped_stable: u64,
    /// FNV-1a digest of every record's post-drain value: instant and
    /// eager cells of the same protocol must agree byte-for-byte.
    pub state_digest: u64,
    /// Every record also matched the shadow oracle's committed value.
    pub matches_committed: bool,
}

/// Identical pre-crash histories (E7b scale: checkpoint-bounded mix plus
/// survivor-active transactions), one crash, then the availability
/// measurement: how long until the engine commits its first post-crash
/// transaction? The eager cell pays the whole heap-redo pass before it
/// opens; the instant cell opens after analysis/reinstall and repays the
/// redo on demand plus in the background — same total work, earlier
/// first commit, byte-identical end state.
pub fn e11_instant_restart(txns: usize, checkpoint_every: usize) -> Vec<InstantRestartPoint> {
    let mut out = Vec::new();
    for p in ProtocolKind::ifa_protocols() {
        for instant in [false, true] {
            let mut cfg = DbConfig::bench(8, p);
            // E7b-scale heap: enough pages that the crashed node's
            // resident set at the crash spans hundreds of them. One
            // record per line (96-byte payloads) makes every lost line
            // an independent page fault for the eager reinstall.
            cfg.records = 65536;
            cfg.rec_data_size = 96;
            if instant {
                cfg = cfg.with_instant_restart();
            }
            let mut db = SmDb::new(cfg);
            db.enable_observability(0);
            // E7b-scale history: a wide uniform footprint (a moderate
            // shared region plus large per-node partitions) makes the
            // crashed node's cache span dozens of heap pages, so eager
            // recovery pays one disk fault per lost page while the
            // instant open stays bounded by the checkpoint interval.
            run_mix(
                &mut db,
                MixParams {
                    txns,
                    ops_per_txn: 8,
                    sharing: 0.3,
                    shared_slots: 256,
                    read_fraction: 0.2,
                    checkpoint_every,
                    ..Default::default()
                },
            );
            let active = spawn_active(&mut db, 2, 2, true, 5);
            // Barrier: start the availability window from a common clock
            // origin so TTFT is pure recovery + first-txn cost, not
            // whatever clock skew the mix left between nodes.
            db.sync_clocks();
            let outcome = db.crash_and_recover(&[NodeId(0)]).expect("recovery");
            // First post-recovery transaction: a locked read in the
            // crashed node's private partition (free of survivor locks,
            // and exactly where pending redo concentrates).
            let t = db.begin(NodeId(1)).expect("begin after open");
            db.read(t, 300).expect("read after open");
            db.commit(t).expect("commit after open");
            let ttft = db
                .observability()
                .timeline
                .time_to_first_txn()
                .expect("crash and post-recovery commit recorded");
            while db.redo_pending() > 0 {
                db.drain_redo(NodeId(1), 64).expect("drain");
            }
            // Roll back the transactions left in flight across the crash
            // (the crashed node's are already gone — ignore those) so the
            // end-state digest compares fully-committed states.
            for t in &active {
                let _ = db.abort(*t);
            }
            db.check_ifa(NodeId(1)).assert_ok();
            let c = db.instant_redo_counters();
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            let mut matches_committed = true;
            for slot in 0..db.record_count() as u64 {
                let v = db.current_value(slot).expect("record readable");
                matches_committed &= v == db.read_committed(slot).expect("shadow value");
                for b in &v {
                    digest = (digest ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
                }
            }
            out.push(InstantRestartPoint {
                protocol: format!("{p:?}"),
                instant,
                ttft_cycles: ttft,
                recovery_cycles: outcome.recovery_cycles,
                redo_total: outcome.redo_applied + c.on_demand + c.background,
                redo_on_demand: c.on_demand,
                redo_background: c.background,
                redo_skipped_stable: c.skipped_stable,
                state_digest: digest,
                matches_committed,
            });
        }
    }
    out
}

// ----------------------------------------------------------------------
// E12 — true multicore execution: epoch-scheduled lanes on OS threads
// ----------------------------------------------------------------------

/// One cell×thread-count point of the multicore scaling experiment.
#[derive(Clone, Debug)]
pub struct MulticorePoint {
    /// Workload cell (`private_tp1` or `contended_zipf`).
    pub cell: String,
    /// OS threads driving the epoch lanes.
    pub threads: usize,
    /// Transactions committed (identical across thread counts).
    pub committed: u64,
    /// Simulated machine makespan, cycles (thread-count-invariant).
    pub sim_cycles: u64,
    /// Physical commit-record forces: one per lane that committed a
    /// writer, per epoch, plus one per serial retry.
    pub commit_forces: u64,
    /// Epochs the scheduler split the run into.
    pub epochs: u64,
    /// Largest single-epoch admission.
    pub max_epoch_txns: u64,
    /// Admissions rejected on a claimed data stripe.
    pub data_conflicts: u64,
    /// Admissions rejected on a cross-node lock-name collision.
    pub lock_conflicts: u64,
    /// Node-epochs stalled by either conflict.
    pub epoch_waits: u64,
    /// Lane footprint escapes re-run serially.
    pub serial_retries: u64,
    /// FNV-1a digest of every committed record value (must be identical
    /// across thread counts within a cell).
    pub state_digest: u64,
}

/// Sweep OS threads over the epoch scheduler on two workload shapes: a
/// TP1-style private-partition update mix (admission packs whole nodes
/// into disjoint lanes — the scaling headline) and a fully-shared Zipf
/// hot-spot mix (admission degenerates towards serial epochs — the
/// honest worst case). Every run asserts the IFA oracle and that the
/// committed state digest is thread-count-invariant.
pub fn e12_multicore(txns: usize) -> Vec<MulticorePoint> {
    let cells: [(&str, MixParams); 2] = [
        (
            "private_tp1",
            MixParams {
                txns,
                ops_per_txn: 4,
                read_fraction: 0.0,
                sharing: 0.0,
                shared_slots: 0,
                zipf_theta: 0.0,
                seed: 0xE12,
                ..Default::default()
            },
        ),
        (
            "contended_zipf",
            MixParams {
                txns,
                ops_per_txn: 4,
                read_fraction: 0.0,
                sharing: 1.0,
                shared_slots: 4,
                zipf_theta: 0.95,
                seed: 0xE12,
                ..Default::default()
            },
        ),
    ];
    let mut out = Vec::new();
    for (cell, params) in cells {
        let mut cell_digest = None;
        for threads in [1usize, 2, 4, 8] {
            let mut db = SmDb::new(DbConfig::bench(8, ProtocolKind::VolatileSelectiveRedo));
            let (report, o) = run_mix_mt(&mut db, params.clone(), threads).expect("multicore run");
            db.check_ifa(NodeId(0)).assert_ok();
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for slot in 0..db.record_count() as u64 {
                for b in &db.read_committed(slot).expect("record readable") {
                    digest = (digest ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
                }
            }
            match cell_digest {
                None => cell_digest = Some(digest),
                Some(d) => {
                    assert_eq!(d, digest, "{cell}: thread count changed committed state")
                }
            }
            out.push(MulticorePoint {
                cell: cell.to_string(),
                threads,
                committed: report.committed,
                sim_cycles: report.sim_cycles,
                commit_forces: db.stats().commit_forces,
                epochs: o.epochs,
                max_epoch_txns: o.max_epoch_txns,
                data_conflicts: o.data_conflicts,
                lock_conflicts: o.lock_conflicts,
                epoch_waits: o.epoch_waits,
                serial_retries: o.serial_retries,
                state_digest: digest,
            });
        }
    }
    out
}

// ----------------------------------------------------------------------
// E13 — a checkpoint written back by every live node
// ----------------------------------------------------------------------

/// One node-count point of the checkpoint write-back experiment.
#[derive(Clone, Debug)]
pub struct CheckpointPoint {
    /// Nodes in the machine (all live).
    pub nodes: u16,
    /// Pages the checkpoint wrote to the stable database.
    pub pages_flushed: u64,
    /// The largest share any one node wrote.
    pub max_pages_per_flusher: u64,
    /// Simulated cycles from a common clock origin to the end of the
    /// checkpoint (the machine-wide makespan of the call).
    pub makespan_cycles: u64,
    /// Cache lines destroyed when the updater crashes right after.
    pub lost_lines: u64,
}

/// One node commits the same updates — two records on each of `pages`
/// heap pages — on machines of 1, 2, 4 and 8 nodes; node 0 then hosts a
/// checkpoint and crashes. The dirty set is the same everywhere; what
/// changes is who writes it back ([`smdb_wal::assign_flushers`]): alone,
/// the updater flushes its own pages one after the other and its crash
/// takes the only cached copies; with company the pages go round the
/// other nodes, which keep what they read.
pub fn e13_checkpoint(pages: u32) -> Vec<CheckpointPoint> {
    let mut out = Vec::new();
    for nodes in [1u16, 2, 4, 8] {
        let mut cfg = DbConfig::bench(nodes, ProtocolKind::VolatileSelectiveRedo);
        let geometry = PageGeometry::new(cfg.line_size, cfg.lines_per_page);
        let per_page = RecordLayout::new(geometry, cfg.rec_data_size).records_per_page() as u64;
        cfg.records = pages * per_page as u32;
        let mut db = SmDb::new(cfg);
        for page in 0..pages as u64 {
            let t = db.begin(NodeId(0)).expect("begin");
            for slot in [page * per_page, page * per_page + per_page / 2] {
                db.update(t, slot, &slot.to_le_bytes()).expect("update");
            }
            db.commit(t).expect("commit");
        }
        db.sync_clocks();
        db.enable_observability(1 << 16);
        let (clock0, flushed0) = (db.max_clock(), db.stats().page_flushes);
        db.checkpoint(NodeId(0)).expect("checkpoint");
        let makespan_cycles = db.max_clock() - clock0;
        let mut shares = vec![0u64; nodes as usize];
        for record in db.observability().bus.drain() {
            if let Event::BufFlush { node, .. } | Event::BufSteal { node, .. } = record.event {
                shares[node as usize] += 1;
            }
        }
        let pages_flushed = db.stats().page_flushes - flushed0;
        assert_eq!(shares.iter().sum::<u64>(), pages_flushed, "a flush left the event ring");
        let outcome = db.crash_and_recover(&[NodeId(0)]).expect("recovery");
        db.check_ifa(outcome.recovery_node).assert_ok();
        out.push(CheckpointPoint {
            nodes,
            pages_flushed,
            max_pages_per_flusher: shares.into_iter().max().unwrap_or(0),
            makespan_cycles,
            lost_lines: outcome.lost_lines,
        });
    }
    out
}

// ----------------------------------------------------------------------
// E14 — every live node scans a log
// ----------------------------------------------------------------------

/// One node-count point of the restart-scan experiment.
#[derive(Clone, Debug)]
pub struct RestartScanPoint {
    /// Nodes in the machine (node 0 crashes).
    pub nodes: u16,
    /// Log records the analysis scan visited, over every log.
    pub scan_records: u64,
    /// Log records the busiest reader visited.
    pub scan_records_max: u64,
    /// Simulated cycles of the analysis phase (`stable_undo`).
    pub stable_undo_cycles: u64,
    /// Simulated cycles of the whole restart.
    pub recovery_cycles: u64,
}

/// Every node commits the same un-checkpointed history — `txns` two-update
/// transactions in a partition of its own — on machines of 2, 4 and 8
/// nodes; the clocks are synchronised and node 0 crashes. The retained log
/// grows with the machine; what one reader reads does not
/// ([`smdb_wal::assign_scanners`]): every survivor reads its own log, one
/// of them node 0's as well, so the analysis phase costs two logs at any
/// size.
pub fn e14_restart_scan(txns: u64) -> Vec<RestartScanPoint> {
    let mut out = Vec::new();
    for nodes in [2u16, 4, 8] {
        let mut db =
            SmDb::new(DbConfig::bench(nodes, ProtocolKind::VolatileSelectiveRedo).without_index());
        let partition = db.record_count() as u64 / 8;
        for i in 0..txns {
            for n in 0..nodes {
                let t = db.begin(NodeId(n)).expect("begin");
                for slot in [2 * i, 2 * i + 1] {
                    let slot = n as u64 * partition + slot % partition;
                    db.update(t, slot, &i.to_le_bytes()).expect("update");
                }
                db.commit(t).expect("commit");
            }
        }
        db.sync_clocks();
        let outcome = db.crash_and_recover(&[NodeId(0)]).expect("recovery");
        db.check_ifa(outcome.recovery_node).assert_ok();
        out.push(RestartScanPoint {
            nodes,
            scan_records: outcome.scan_records,
            scan_records_max: outcome.scan_records_max,
            stable_undo_cycles: phase_cycles(&outcome, "stable_undo"),
            recovery_cycles: outcome.recovery_cycles,
        });
    }
    out
}

// ----------------------------------------------------------------------
// E15 — every live node reads a share of the restart's pages
// ----------------------------------------------------------------------

/// One node-count point of the restart page-read experiment.
#[derive(Clone, Debug)]
pub struct RestartReadsPoint {
    /// Nodes in the machine (node 0 crashes).
    pub nodes: u16,
    /// Heap pages holding a line the crash destroyed.
    pub lost_pages: u64,
    /// Pages the eager plan read from the stable database.
    pub pages_read: u64,
    /// Pages the busiest reader read.
    pub pages_read_max: u64,
    /// Simulated cycles of the redo phase.
    pub redo_cycles: u64,
    /// Simulated cycles of the whole restart.
    pub recovery_cycles: u64,
}

/// Node 0 commits one update on each of `pages` heap pages — the only
/// cached copy of every line of them — on machines of 2, 4 and 8 nodes;
/// the clocks are synchronised and node 0 crashes. The pages the restart
/// reads back are the same on every machine; what changes is how many live
/// nodes share them ([`smdb_wal::assign_flushers`], nobody excluded).
pub fn e15_restart_reads(pages: u32) -> Vec<RestartReadsPoint> {
    let mut out = Vec::new();
    for nodes in [2u16, 4, 8] {
        let mut cfg = DbConfig::bench(nodes, ProtocolKind::VolatileSelectiveRedo).without_index();
        let geometry = PageGeometry::new(cfg.line_size, cfg.lines_per_page);
        let per_page = RecordLayout::new(geometry, cfg.rec_data_size).records_per_page() as u64;
        cfg.records = pages * per_page as u32;
        let mut db = SmDb::new(cfg);
        for page in 0..pages as u64 {
            let t = db.begin(NodeId(0)).expect("begin");
            db.update(t, page * per_page, &page.to_le_bytes()).expect("update");
            db.commit(t).expect("commit");
        }
        db.sync_clocks();
        db.crash(&[NodeId(0)]);
        let heap_lines = db.heap_pages() as u64 * geometry.lines_per_page as u64;
        let lost: std::collections::BTreeSet<_> = db
            .machine()
            .iter_lost()
            .filter(|l| l.0 < heap_lines)
            .map(|l| geometry.page_of_addr(l.0).0)
            .collect();
        let outcome = db.recover().expect("recovery");
        db.check_ifa(outcome.recovery_node).assert_ok();
        out.push(RestartReadsPoint {
            nodes,
            lost_pages: lost.len() as u64,
            pages_read: outcome.pages_read,
            pages_read_max: outcome.pages_read_max,
            redo_cycles: phase_cycles(&outcome, "redo"),
            recovery_cycles: outcome.recovery_cycles,
        });
    }
    out
}

// ----------------------------------------------------------------------
// E16 — every live node reads a share of the index skeleton
// ----------------------------------------------------------------------

/// One node-count point of the restart skeleton-read experiment.
#[derive(Clone, Debug)]
pub struct RestartSkeletonPoint {
    /// Nodes in the machine (node 0 crashes).
    pub nodes: u16,
    /// Tree pages holding a line the crash destroyed.
    pub lost_pages: u64,
    /// Tree pages the restart read back from the stable database.
    pub pages_read: u64,
    /// Simulated cycles of the reinstall phase: the busiest reader's share.
    pub reinstall_cycles: u64,
    /// Simulated cycles of the whole restart.
    pub recovery_cycles: u64,
}

/// Node 0 alone commits `keys` index inserts, one a transaction — every
/// line of every tree page is in its cache only — on machines of 2, 4 and 8
/// nodes, and checkpoints; the clocks are synchronised and node 0 crashes.
/// The skeleton the restart reads back is the same on every machine, and
/// almost all the restart does; what changes is how many live nodes share
/// it ([`smdb_wal::assign_flushers`], nobody excluded).
pub fn e16_restart_skeleton(keys: u64) -> Vec<RestartSkeletonPoint> {
    let mut out = Vec::new();
    for nodes in [2u16, 4, 8] {
        let mut db = SmDb::new(DbConfig::bench(nodes, ProtocolKind::VolatileSelectiveRedo));
        for key in 0..keys {
            let t = db.begin(NodeId(0)).expect("begin");
            db.insert(t, key, key.to_le_bytes()).expect("insert");
            db.commit(t).expect("commit");
        }
        // Node 0 writes its own tree pages back, so the checkpoint after
        // puts no copy in another cache and leaves nothing to redo.
        let grown = db.tree_stats();
        let tree_pages = 1 + (grown.splits + grown.root_grows) as u32;
        for page in db.heap_pages()..db.heap_pages() + tree_pages {
            db.flush_page(NodeId(0), PageId(page)).expect("flush");
        }
        db.checkpoint(NodeId(0)).expect("checkpoint");
        db.sync_clocks();
        db.crash(&[NodeId(0)]);
        let cfg = db.config();
        let per_page = cfg.lines_per_page as u64;
        let heap = db.heap_pages() as u64 * per_page;
        let tree = heap..heap + cfg.index_pages as u64 * per_page;
        let lost: std::collections::BTreeSet<_> = db
            .machine()
            .iter_lost()
            .filter(|l| tree.contains(&l.0))
            .map(|l| l.0 / per_page)
            .collect();
        let outcome = db.recover().expect("recovery");
        db.check_ifa(outcome.recovery_node).assert_ok();
        out.push(RestartSkeletonPoint {
            nodes,
            lost_pages: lost.len() as u64,
            pages_read: outcome.btree_recovery.pages_reinstalled,
            reinstall_cycles: phase_cycles(&outcome, "reinstall"),
            recovery_cycles: outcome.recovery_cycles,
        });
    }
    out
}

// ----------------------------------------------------------------------
// E17 — a read-only commit writes no commit record and forces nothing
// ----------------------------------------------------------------------

/// One (protocol, read fraction) cell of the read-only commit experiment.
#[derive(Clone, Debug)]
pub struct ReadOnlyCommitPoint {
    /// Protocol measured.
    pub protocol: String,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Committed transactions.
    pub committed: u64,
    /// Commits of transactions that logged no data record
    /// (`txn.committed_read_only`).
    pub read_only_commits: u64,
    /// Physical log forces performed.
    pub physical_forces: u64,
    /// Simulated cycles per committed transaction.
    pub cycles_per_txn: u64,
}

/// The serial mix (synchronous commits, 4 operations, no index, no
/// checkpoint) on 8 nodes at read fractions 0, 0.5, 0.9 and 1, under a
/// volatile and a stable LBM protocol. A transaction that drew four reads
/// commits with no record and no force, so on the volatile protocol —
/// whose only forces are commit forces — the forces are exactly the
/// writing transactions, and the cycles per transaction fall as reads
/// take over.
pub fn e17_read_only_commit(txns: usize) -> Vec<ReadOnlyCommitPoint> {
    let mut out = Vec::new();
    for p in [ProtocolKind::VolatileSelectiveRedo, ProtocolKind::StableTriggered] {
        for read_fraction in [0.0, 0.5, 0.9, 1.0] {
            let mut db = SmDb::new(DbConfig::bench(8, p).without_index());
            db.enable_observability(0);
            let report = run_mix(&mut db, MixParams { txns, read_fraction, ..Default::default() });
            db.check_ifa(NodeId(0)).assert_ok();
            let metrics = db.observability().metrics;
            out.push(ReadOnlyCommitPoint {
                protocol: format!("{p:?}"),
                read_fraction,
                committed: report.committed,
                read_only_commits: metrics.counter(smdb_obs::names::TXN_COMMITTED_READ_ONLY),
                physical_forces: report.physical_forces,
                cycles_per_txn: report.sim_cycles / report.committed.max(1),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shape_matches_paper() {
        let pts = e1_line_lock_contention(32);
        assert!(pts[0].mean_us <= 10.0);
        let last = pts.last().unwrap();
        assert!(last.mean_us <= 40.0 && last.mean_us > 10.0);
    }

    #[test]
    fn e2_gap_grows_with_nodes() {
        let pts = e2_abort_counts(&[2, 4], 2);
        for p in &pts {
            assert_eq!(p.fa_only_aborts, p.active, "FA-only aborts everyone");
            assert_eq!(p.ifa_aborts, 2, "IFA aborts only the crashed node's txns");
        }
    }

    #[test]
    fn e3_redo_all_costs_more_than_selective_redo_at_every_sharing_rate() {
        let pts = e3_recovery_cost(60, &[0.1, 0.5, 0.9]);
        for pair in pts.chunks(2) {
            let (all, selective) = (&pair[0], &pair[1]);
            assert!(all.protocol.contains("RedoAll") && selective.protocol.contains("Selective"));
            assert_eq!(all.scan_records, selective.scan_records, "same logs, same scan");
            assert_eq!(all.phase_stable_undo, selective.phase_stable_undo);
            assert!(selective.redo_skipped_cached > 0 && all.redo_applied > selective.redo_applied);
            assert!(all.recovery_cycles > selective.recovery_cycles, "{all:?} vs {selective:?}");
        }
    }

    #[test]
    fn e4_volatile_never_lbm_forces() {
        let pts = e4_log_forces(20, &[0.5], false, 1);
        let vol = pts.iter().find(|p| p.protocol.contains("VolatileSelective")).unwrap();
        assert_eq!(vol.lbm_forces, 0);
        let eager = pts.iter().find(|p| p.protocol.contains("Eager")).unwrap();
        assert!(eager.lbm_forces > vol.lbm_forces);
    }

    #[test]
    fn e10_elr_smoke() {
        let pts = e10_elr(16);
        assert_eq!(pts.len(), 8, "4 IFA protocols x ELR off/on");
        for pair in pts.chunks(2) {
            let (off, on) = (&pair[0], &pair[1]);
            assert!(!off.elr && on.elr, "cells ordered off, on: {pair:?}");
            assert_eq!(off.protocol, on.protocol);
            assert!(off.committed > 0 && on.committed > 0, "{pair:?}");
            assert_eq!(off.early_released, 0, "{off:?}");
            assert!(on.early_released > 0, "{on:?}");
            assert_eq!(
                off.records_forced, on.records_forced,
                "durability volume must not depend on the lock policy: {pair:?}"
            );
        }
    }

    #[test]
    fn e9lat_smoke() {
        let pts = e9_latency(12);
        assert_eq!(pts.len(), 4, "one point per IFA protocol");
        for pt in &pts {
            assert!(pt.committed > 0, "{pt:?}");
            assert!(pt.p50_cycles <= pt.p99_cycles && pt.p99_cycles <= pt.p999_cycles, "{pt:?}");
            assert!((pt.attributed_fraction - 1.0).abs() < 0.05, "{pt:?}");
        }
    }

    #[test]
    fn e5_broadcast_needs_less_redo() {
        let pts = e5_coherence_comparison(30);
        let inval = &pts[0];
        let bcast = &pts[1];
        assert!(bcast.lost_lines <= inval.lost_lines);
        assert!(bcast.redo_applied <= inval.redo_applied);
    }

    #[test]
    fn e6_line_locks_beat_semaphores() {
        let pts = e6_update_protocol(30);
        assert!(pts[0].cycles_per_txn < pts[1].cycles_per_txn);
    }

    #[test]
    fn e7_recovery_reports_actions() {
        let pts = e7_lock_recovery(2);
        for p in &pts {
            assert!(p.crashed_entries_released + p.lcbs_reconstructed > 0, "{p:?}");
        }
    }

    #[test]
    fn e8_btree_recovery_runs() {
        let pt = e8_btree_recovery(40);
        assert!(pt.committed_ops > 0);
        assert!(pt.index_undo_applied >= 2, "the doomed inserts must be undone");
    }

    #[test]
    fn e10_blast_radius_grows_with_fan() {
        let pts = e10_parallel_blast_radius(2);
        assert!((pts[0].kill_fraction - 0.125).abs() < 1e-9, "fan 1: 1/8 of actives");
        for w in pts.windows(2) {
            assert!(w[1].kill_fraction >= w[0].kill_fraction, "{pts:?}");
        }
        assert!(pts.last().unwrap().kill_fraction > 0.9, "fan 8 on 8 nodes: ~everything");
    }

    #[test]
    fn e9_one_record_per_line_still_needs_recovery() {
        let pts = e9_colocation(30);
        let densest = &pts[0];
        let sparsest = pts.last().unwrap();
        assert!(densest.records_per_line > sparsest.records_per_line);
        // Space cost of avoiding co-location is real...
        assert!(sparsest.bytes_per_record_slot > densest.bytes_per_record_slot);
        // ...and the recovery problems do not vanish (wr sharing remains).
        assert!(sparsest.lost_lines > 0);
    }

    #[test]
    fn table1_matrix_matches_paper_checkmarks() {
        let rows = table1_overheads(250);
        let find = |s: &str| rows.iter().find(|r| r.protocol.contains(s)).unwrap().clone();
        let sel = find("VolatileSelective");
        let all = find("VolatileRedoAll");
        let eager = find("StableEager");
        let trig = find("StableTriggered");
        // Undo tagging: only Selective-Volatile.
        assert!(sel.undo_tag_writes > 0);
        assert_eq!(all.undo_tag_writes, 0);
        assert_eq!(eager.undo_tag_writes, 0);
        assert_eq!(trig.undo_tag_writes, 0);
        // Read-lock logging: everywhere.
        assert!(sel.read_lock_records > 0);
        // Higher force frequency: only the Stable LBM column.
        assert_eq!(sel.lbm_forces, 0);
        assert_eq!(all.lbm_forces, 0);
        assert!(eager.lbm_forces > 0);
        // Structural early commits appear whenever splits/overflows occur.
        assert!(sel.structural_early_commits > 0);
    }
}
