//! The heap plan against the derivation it replaced, and the record
//! table the analysis folds into.
//!
//! * a lockstep proptest drives random begin / update / parallel update /
//!   commit / abort / steal / checkpoint / crash / interrupted recovery /
//!   reboot / drain sequences under all five protocols, eager and instant,
//!   and at every crash (an interrupted restart's included) builds
//!   the pending restart's heap plan twice: as restart does (the planned
//!   records merged with the Selective-Redo probe's lines, only what gets
//!   written sorted by GSN) and as it used to (every candidate sorted by
//!   GSN, each then looked up in the probe's list). Entries, order,
//!   writer, bytes and the undo flag must match, and so must
//!   `redo_skipped_cached` and `redo_superseded`;
//! * unit tests pin [`RecTable`]: pages touched out of order, reads of
//!   what was never touched, ascending iteration across pages, and one
//!   chunk per touched page on the crash benchmarks' 65 536-record heap.

use super::*;
use crate::config::DbConfig;
use crate::fault::{CrashPoint, FaultInjector, FaultPlan};
use proptest::prelude::*;

const NODES: u16 = 4;

impl SmDb {
    /// The heap plan as it was derived before the probe's filter moved in
    /// front of the sort: every redo candidate of the table, sorted by GSN
    /// (stably), then each one looked up in `cached` by binary search and
    /// skipped if cached or if undo wins.
    fn reference_plan_writes(
        &self,
        analysis: &StableAnalysis,
        outcome: &mut RecoveryOutcome,
        scope: &RestartScope,
        cached: &[LineId],
        undo: BTreeMap<RecId, Vec<u8>>,
    ) -> Result<Vec<HeapWrite>, DbError> {
        let mut candidates: Vec<(RecId, Latest)> = analysis
            .heap
            .slots()
            .filter(|(_, f)| f.redo.is_some())
            .map(|(rec, f)| (rec, f.redo))
            .collect();
        candidates.sort_by_key(|(_, kept)| kept.gsn);
        outcome.redo_superseded += analysis.heap_candidates() - candidates.len() as u64;
        let mut redo = Vec::new();
        for (rec, kept) in candidates {
            let line = self.rec_line(rec);
            if cached.binary_search(&line).is_ok() {
                outcome.redo_skipped_cached += 1;
                continue;
            }
            if undo.contains_key(&rec) {
                continue;
            }
            redo.push(Planned { rec, line, kept });
        }
        self.assemble_plan(analysis, scope, redo, undo)
    }
}

/// What the plans of one script exercised, summed over its crashes.
#[derive(Default, Debug)]
struct Coverage {
    undo_written: u64,
    skipped_cached: u64,
    /// Plans whose redo entries are not in record order.
    reordered: u64,
}

/// Build the pending restart's heap plan both ways — over the inputs
/// `restart_phases` hands `heap_plan` — and compare them.
fn compare_plans(db: &SmDb, cov: &mut Coverage) -> Result<(), String> {
    let scope = db.restart_scope();
    let analysis = db.analyse_stable(&scope).map_err(|e| format!("analysis: {e}"))?;
    let cached = if scope.scheme == RestartScheme::Selective {
        db.cached_plan_lines(&analysis)
    } else {
        Vec::new()
    };
    let undo = db.undo_images(&analysis, &scope).map_err(|e| format!("undo images: {e}"))?;
    let (mut got, mut want) = (RecoveryOutcome::default(), RecoveryOutcome::default());
    let plan = db
        .plan_writes(&analysis, &mut got, &scope, &cached, undo.clone())
        .map_err(|e| format!("plan: {e}"))?;
    let reference = db
        .reference_plan_writes(&analysis, &mut want, &scope, &cached, undo)
        .map_err(|e| format!("reference plan: {e}"))?;
    if plan != reference {
        return Err(format!("plan {plan:?}\n  reference {reference:?}"));
    }
    let counts = |o: &RecoveryOutcome| (o.redo_skipped_cached, o.redo_superseded);
    if counts(&got) != counts(&want) {
        return Err(format!(
            "(skipped cached, superseded): plan {:?}, reference {:?}",
            counts(&got),
            counts(&want)
        ));
    }
    let redo: Vec<RecId> = plan.iter().filter(|w| !w.undo).map(|w| w.rec).collect();
    cov.undo_written += (plan.len() - redo.len()) as u64;
    cov.skipped_cached += got.redo_skipped_cached;
    cov.reordered += u64::from(!redo.is_sorted());
    Ok(())
}

#[derive(Clone, Debug)]
enum Step {
    Begin(u16),
    /// Live transaction `pick % live` updates `slot`.
    Update(usize, u64),
    /// Live transaction `pick % live` enlists a participant and updates
    /// `slot` there (§9): a crash of either side dooms it.
    UpdateOn(usize, u16, u64),
    Commit(usize),
    Abort(usize),
    /// Steal: the page holding `slot` reaches the stable database,
    /// uncommitted updates included.
    Flush(u64),
    Checkpoint(u16),
    /// Crash the nodes in the mask, build both plans, recover; `Some(k)`
    /// kills the recovery node at the restart's `k`-th phase boundary, and
    /// the plans are built again before the restart that follows.
    Crash(u8, Option<u64>),
    Reboot(u16),
    Drain(u16),
}

const SLOTS: u64 = 96;

fn step_strategy() -> impl Strategy<Value = Step> {
    let pick = 0usize..64;
    prop_oneof![
        4 => (0..NODES).prop_map(Step::Begin),
        8 => (pick.clone(), 0..SLOTS).prop_map(|(t, s)| Step::Update(t, s)),
        1 => (pick.clone(), 0..NODES, 0..SLOTS).prop_map(|(t, n, s)| Step::UpdateOn(t, n, s)),
        3 => pick.clone().prop_map(Step::Commit),
        1 => pick.prop_map(Step::Abort),
        1 => (0..SLOTS).prop_map(Step::Flush),
        1 => (0..NODES).prop_map(Step::Checkpoint),
        2 => (1u8..16).prop_map(|m| Step::Crash(m, None)),
        1 => (1u8..16, 0u64..7).prop_map(|(m, k)| Step::Crash(m, Some(k))),
        2 => (0..NODES).prop_map(Step::Reboot),
        1 => (0..NODES).prop_map(Step::Drain),
    ]
}

/// Run `steps` on a fresh engine, checking the plan lockstep at every
/// crash. Forward operations a lock conflict or a down node refuses are
/// skipped; a restart must succeed.
fn run_script(protocol: ProtocolKind, instant: bool, steps: &[Step]) -> Result<Coverage, String> {
    let mut cfg = DbConfig::small(NODES, protocol).without_index();
    if instant {
        cfg = cfg.with_instant_restart();
    }
    let mut db = SmDb::new(cfg);
    let fault = FaultInjector::new();
    db.set_fault_injector(fault.clone());
    let mut live: Vec<TxnId> = Vec::new();
    let mut cov = Coverage::default();
    let mut stamp = 0u32;
    let pick = |live: &[TxnId], i: usize| (!live.is_empty()).then(|| live[i % live.len()]);
    for (i, step) in steps.iter().enumerate() {
        stamp += 1;
        let data = stamp.to_le_bytes();
        match *step {
            Step::Begin(n) => live.extend(db.begin(NodeId(n)).ok()),
            Step::Update(t, slot) => {
                if let Some(t) = pick(&live, t) {
                    let _ = db.update(t, slot, &data);
                }
            }
            Step::UpdateOn(t, n, slot) => {
                if let Some(t) = pick(&live, t) {
                    if db.attach(t, NodeId(n)).is_ok() {
                        let _ = db.update_on(t, NodeId(n), slot, &data);
                    }
                }
            }
            Step::Commit(t) => {
                if let Some(t) = pick(&live, t) {
                    let _ = db.commit(t);
                }
            }
            Step::Abort(t) => {
                if let Some(t) = pick(&live, t) {
                    let _ = db.abort(t);
                }
            }
            Step::Flush(slot) => {
                let page = db.layout.rec_of_global(slot).page;
                if let Some(&node) = db.m.surviving_nodes().first() {
                    let _ = db.flush_page(node, page);
                }
            }
            Step::Checkpoint(n) => {
                let _ = db.checkpoint(NodeId(n));
            }
            Step::Crash(mask, interrupt) => {
                let nodes: Vec<NodeId> =
                    (0..NODES).filter(|n| mask & (1 << n) != 0).map(NodeId).collect();
                if db.crash(&nodes).is_empty() {
                    continue;
                }
                compare_plans(&db, &mut cov).map_err(|e| format!("at step {i} {step:?}: {e}"))?;
                if let Some(k) = interrupt {
                    fault.arm(FaultPlan::single(CrashPoint::new(FAULT_RECOVERY_PHASE, k)));
                }
                let mut result = db.recover();
                fault.off();
                if let Err(e) = &result {
                    // The recovery node died at a phase boundary; the next
                    // restart starts over with its installs marked stale.
                    let victim =
                        e.fault_crash().ok_or_else(|| format!("recover at step {i}: {e}"))?;
                    db.crash(&[NodeId(victim.node)]);
                    compare_plans(&db, &mut cov)
                        .map_err(|e| format!("after the interrupted restart of step {i}: {e}"))?;
                    result = db.recover();
                }
                result.map_err(|e| format!("recover at step {i}: {e}"))?;
            }
            Step::Reboot(n) => db.reboot(NodeId(n)),
            Step::Drain(n) => {
                if db.redo_pending() > 0 {
                    let _ = db.drain_redo(NodeId(n), 4);
                }
            }
        }
        live.retain(|t| db.txn_status(*t) == Some(TxnStatus::Active));
    }
    Ok(cov)
}

proptest! {
    /// At every crash, the one-pass plan equals the sort-everything plan.
    #[test]
    fn plan_lockstep(
        protocol in 0usize..5,
        instant in any::<bool>(),
        steps in proptest::collection::vec(step_strategy(), 1..120),
    ) {
        let protocol = ProtocolKind::all()[protocol];
        if let Err(e) = run_script(protocol, instant, &steps) {
            prop_assert!(false, "{:?} instant={}: {}", protocol, instant, e);
        }
    }
}

/// The lockstep is only as good as the plans it meets: over fixed scripts,
/// each protocol's crashes write redo entries out of record order, skip
/// cached candidates (Selective Redo) and write undo entries.
#[test]
fn plan_lockstep_meets_every_kind_of_entry() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let nodes = NODES as u64;
    for protocol in ProtocolKind::all() {
        let mut cov = Coverage::default();
        for script in 0..24 {
            let steps: Vec<Step> = (0..150)
                .map(|_| match next(20) {
                    0..=2 => Step::Begin(next(nodes) as u16),
                    3..=9 => Step::Update(next(64) as usize, next(SLOTS)),
                    10 => Step::UpdateOn(next(64) as usize, next(nodes) as u16, next(SLOTS)),
                    11..=13 => Step::Commit(next(64) as usize),
                    14 => Step::Flush(next(SLOTS)),
                    15 => Step::Checkpoint(next(nodes) as u16),
                    16 => Step::Crash(1 + next(14) as u8, (next(3) == 0).then(|| next(7))),
                    17 => Step::Drain(next(nodes) as u16),
                    _ => Step::Reboot(next(nodes) as u16),
                })
                .collect();
            let c = run_script(protocol, script % 2 == 1, &steps)
                .unwrap_or_else(|e| panic!("{protocol:?} script {script}: {e}"));
            cov.undo_written += c.undo_written;
            cov.skipped_cached += c.skipped_cached;
            cov.reordered += c.reordered;
        }
        assert!(cov.reordered > 0, "{protocol:?}: {cov:?}");
        assert!(cov.undo_written > 0, "{protocol:?}: {cov:?}");
        if protocol.restart_scheme() == RestartScheme::Selective {
            assert!(cov.skipped_cached > 0, "{protocol:?}: {cov:?}");
        }
    }
}

#[test]
fn rec_table_touched_out_of_order_reads_back_ascending() {
    let mut t: RecTable<u32> = RecTable::new(4);
    let rec = |page, slot| RecId::new(PageId(page), slot);
    *t.slot_mut(rec(7, 2)) = 72;
    *t.slot_mut(rec(1, 3)) = 13;
    *t.slot_mut(rec(7, 0)) = 70;
    *t.slot_mut(rec(4, 1)) = 41;
    // One chunk per touched page, handed out in touch order.
    assert_eq!(t.arena.len(), 3 * 4);
    assert_eq!(t.get(rec(7, 2)), Some(&72));
    assert_eq!(t.get(rec(1, 3)), Some(&13));
    let written: Vec<(RecId, u32)> =
        t.slots().filter(|(_, v)| **v != 0).map(|(r, v)| (r, *v)).collect();
    assert_eq!(written, [(rec(1, 3), 13), (rec(4, 1), 41), (rec(7, 0), 70), (rec(7, 2), 72)]);
    let all: Vec<RecId> = t.slots().map(|(r, _)| r).collect();
    assert_eq!(all.len(), 3 * 4, "every slot of every touched page");
    assert!(all.is_sorted(), "ascending across pages: {all:?}");
}

#[test]
fn rec_table_reads_nothing_where_nothing_was_touched() {
    let mut t: RecTable<u32> = RecTable::new(4);
    let rec = |page, slot| RecId::new(PageId(page), slot);
    assert_eq!(t.get(rec(0, 0)), None, "empty table");
    *t.slot_mut(rec(5, 1)) = 51;
    assert_eq!(t.get(rec(3, 1)), None, "untouched page below a touched one");
    assert_eq!(t.get(rec(9, 1)), None, "untouched page past the last touched");
    assert_eq!(t.get(rec(5, 2)), Some(&0), "untouched slot of a touched page");
    assert_eq!(t.get(rec(5, 4)), None, "past the page's last record");
}

/// The crash benchmarks' heap (65 536 records of 96 bytes, one to a line):
/// a restart that scans a handful of transactions' records gets one chunk
/// per page those records live on, not a slot per database record.
#[test]
fn rec_table_allocates_per_touched_page_on_the_crash_heap() {
    let mut cfg = DbConfig::bench(8, ProtocolKind::VolatileSelectiveRedo).without_index();
    cfg.records = 65536;
    cfg.rec_data_size = 96;
    let mut db = SmDb::new(cfg);
    let rpp = db.layout.records_per_page();
    let mut pages = BTreeSet::new();
    for n in 0..8u16 {
        let t = db.begin(NodeId(n)).expect("begin");
        for i in 0..5u64 {
            let slot = (u64::from(n) * 8191 + i * 1543) % 65536;
            db.update(t, slot, b"x").expect("update");
            pages.insert(db.layout.rec_of_global(slot).page);
        }
        db.commit(t).expect("commit");
    }
    db.crash(&[NodeId(0)]);
    let analysis = db.analyse_stable(&db.restart_scope()).expect("analysis");
    let scanned: u64 = analysis.scans.iter().map(|s| s.records).sum();
    assert!((60..=120).contains(&scanned), "the scan covered {scanned} records");
    // Every committed update is a committed value or a redo candidate.
    let touched = analysis.heap.offsets.iter().filter(|&&o| o != UNTOUCHED).count();
    assert_eq!(touched, pages.len());
    assert_eq!(analysis.heap.arena.len(), touched * rpp);
    let room = analysis.heap.arena.capacity();
    assert!(room <= 2 * touched * rpp && room * 10 < 65536, "{room} slots");
}
