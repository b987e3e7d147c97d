//! Lock-space restart recovery (§4.2.2).
//!
//! Guarantees, for every transaction active at crash time:
//!
//! 1. all locks acquired by transactions on **crashed** nodes are released
//!    (undo — their entries are scrubbed from surviving LCBs);
//! 2. no locks acquired by transactions on **surviving** nodes are lost
//!    (redo — LCBs destroyed with a crashed node are reconstructed from
//!    the surviving nodes' lock logs, which record *read locks and queued
//!    requests too*). A transaction's final release is not logged: the
//!    caller passes only transactions that still hold their locks, so
//!    nothing a replay folds was released unlogged.
//!
//! Per-transaction lock chains are pointer-derived data and are rebuilt
//! *after* the underlying LCB data is restored, per the paper's guidance on
//! pointer-based structures.

use crate::lcb::{Lcb, LockEntry};
use crate::manager::LockManager;
use crate::mode::LockMode;
use smdb_obs::ForceReason;
use smdb_sim::{LineId, Machine, MemError, NodeId, TxnId};
use smdb_wal::{LogPayload, LogSet, Lsn, Records, StructuralKind};
use std::collections::{BTreeMap, BTreeSet};

/// Counters describing one lock-space recovery pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockRecoveryStats {
    /// Entries (grants or waits) of crashed-node transactions removed from
    /// surviving LCBs.
    pub crashed_entries_released: u64,
    /// Lock-table lines that had been destroyed and were reinstalled.
    pub lines_reinstalled: u64,
    /// LCBs re-created from surviving logs.
    pub lcbs_reconstructed: u64,
    /// Surviving transactions' lock entries restored into reconstructed
    /// LCBs.
    pub survivor_entries_restored: u64,
    /// Waiters promoted because a crashed transaction's grant was
    /// released.
    pub promotions: u64,
    /// Overflow lines relinked from structural log records.
    pub overflow_relinked: u64,
}

/// Replay one node's lock log into the desired per-name lock state for
/// its *surviving active* transactions. The replay starts at the lowest
/// first-record LSN any of them has on this log (the per-log incremental
/// index knows it — the same bound checkpoint truncation trusts):
/// everything below is the settled past and contributes nothing.
fn replay_node_lock_log(
    logs: &LogSet,
    node: NodeId,
    active: &BTreeSet<TxnId>,
    desired: &mut BTreeMap<u64, Lcb>,
) {
    let log = logs.log(node);
    let Some(first) = active.iter().filter_map(|t| log.index().first_txn_lsn(*t)).min() else {
        return; // no surviving active transaction ever wrote to this log
    };
    replay_lock_records(log.records_after(Lsn(first.0 - 1)), active, desired);
}

/// Fold lock-log records, in log order, into the desired lock state of the
/// `active` transactions.
fn replay_lock_records(
    recs: Records<'_>,
    active: &BTreeSet<TxnId>,
    desired: &mut BTreeMap<u64, Lcb>,
) {
    for rec in recs {
        match &rec.payload {
            LogPayload::LockAcquire { txn, name, mode, queued } if active.contains(txn) => {
                let lcb = desired.entry(*name).or_insert_with(|| Lcb::new(*name));
                let mode = LockMode::from(*mode);
                if *queued {
                    if !lcb.waiters.iter().any(|w| w.txn == *txn) {
                        lcb.waiters.push(LockEntry { txn: *txn, mode });
                    }
                } else {
                    // A grant (possibly a promotion of an earlier queued
                    // request, or an upgrade): drop any waiter entry and
                    // any weaker grant first. A grant never weakens a held
                    // mode: a queued shared request promoted right after
                    // the same transaction's exclusive one leaves it
                    // exclusive, as `Lcb::promote_waiters` does.
                    let held = lcb.holders.iter().find(|h| h.txn == *txn).map(|h| h.mode);
                    let mode = held.map_or(mode, |h| h.max(mode));
                    lcb.waiters.retain(|w| w.txn != *txn);
                    lcb.holders.retain(|h| h.txn != *txn);
                    lcb.holders.push(LockEntry { txn: *txn, mode });
                }
            }
            LogPayload::LockRelease { txn, name, wait_only } if active.contains(txn) => {
                if let Some(lcb) = desired.get_mut(name) {
                    if *wait_only {
                        // A withdrawn queued request (no-wait cancel): the
                        // transaction's grant, if it holds one, stands.
                        lcb.waiters.retain(|w| w.txn != *txn);
                    } else {
                        lcb.remove(*txn);
                    }
                    if lcb.is_empty() {
                        desired.remove(name);
                    }
                }
            }
            _ => {}
        }
    }
}

impl LockManager {
    /// Restore the lock space after the crash of `crashed` nodes.
    ///
    /// * `active_surviving` — transactions that were active at crash time
    ///   and ran on surviving nodes (their lock state must be preserved).
    ///   A transaction that already made its final, unlogged release (an
    ///   early-lock-release committer) does not belong here.
    /// * `recovery_node` — the surviving node performing reconstruction
    ///   writes (in a real system each survivor shares the work; charging
    ///   one node keeps the accounting simple and conservative).
    pub fn recover(
        &mut self,
        m: &mut Machine,
        logs: &mut LogSet,
        crashed: &[NodeId],
        active_surviving: &BTreeSet<TxnId>,
        recovery_node: NodeId,
    ) -> Result<LockRecoveryStats, MemError> {
        let mut stats = LockRecoveryStats::default();
        let crashed: BTreeSet<NodeId> = crashed.iter().copied().collect();
        let line_size = m.line_size();

        // The placement hint cache may point at lines that died with the
        // crashed nodes or at slots recovery will repack; drop it wholesale
        // (it re-warms on first use).
        self.table().invalidate_placement();

        // Phase 0: restore the overflow-chain skeleton from structural log
        // records. Structural changes were committed early (forced), so
        // every allocation appears in some node's *stable* log even if that
        // node crashed; survivors' volatile logs cover the rest.
        let mut links: Vec<(LineId, LineId)> = Vec::new();
        for node in m.node_ids() {
            for rec in logs.log(node).structural_records(m.is_crashed(node)) {
                if let LogPayload::Structural {
                    kind: StructuralKind::LockSpaceAlloc { line, parent },
                    ..
                } = rec.payload
                {
                    links.push((LineId(parent), LineId(line)));
                }
            }
        }
        // The log scan alone is not enough: a link allocated long before
        // the crash may have had its structural record reclaimed by
        // checkpoint truncation. The registration list itself lives in
        // shared memory and survives, so it is the authoritative union.
        // (Found by the schedule fuzzer: a truncated alloc record left a
        // reinstalled parent's overflow pointer null, orphaning the
        // surviving overflow LCBs.)
        links.extend(self.table().overflow_links().iter().copied());
        let links: BTreeSet<(LineId, LineId)> = links.into_iter().collect();
        for (parent, line) in links {
            self.table_mut().restore_overflow_registration(parent, line);
            // Reinstall whichever end of the link died with the crash —
            // the *parent* included. Leaving a lost parent to the phase-2
            // zero-fill would null its overflow pointer, orphaning the
            // surviving overflow LCBs: `find` (which walks the in-line
            // pointers) stops seeing them while the lockstep oracle (which
            // walks the registration list) still does, and releases then
            // operate on a reconstructed duplicate, stranding stale holder
            // entries in the orphaned line. (Found by the schedule
            // fuzzer.)
            for l in [line, parent] {
                if !m.probe_cached(l) {
                    m.install_line(recovery_node, l, &vec![0u8; line_size])?;
                    stats.lines_reinstalled += 1;
                }
            }
            // Relink the pointer unconditionally: the parent's surviving
            // copy may predate the allocation, and a parent reinstalled
            // empty above carries a null pointer.
            let geom = *self.table().geometry();
            let off = geom.overflow_offset(line_size);
            m.write(recovery_node, parent, off, &line.0.to_le_bytes())?;
            stats.overflow_relinked += 1;
        }

        // Phase 1 (undo): scrub crashed transactions' entries from
        // surviving lines, promoting any waiters their departure unblocks.
        let all_lines = self.table().all_lines();
        for line in &all_lines {
            if !m.probe_cached(*line) {
                continue;
            }
            let lcbs =
                m.read_line_with(recovery_node, *line, |img| self.table().decode_line(img))?;
            for (slot, mut lcb) in lcbs {
                let before = lcb.holders.len() + lcb.waiters.len();
                lcb.holders.retain(|e| !crashed.contains(&e.txn.node()));
                lcb.waiters.retain(|e| !crashed.contains(&e.txn.node()));
                let removed = before - (lcb.holders.len() + lcb.waiters.len());
                if removed == 0 {
                    continue;
                }
                stats.crashed_entries_released += removed as u64;
                self.promote_logged(&mut lcb, logs, &mut stats);
                if lcb.is_empty() {
                    self.table().clear_lcb(m, recovery_node, *line, slot)?;
                } else {
                    self.table().write_lcb(m, recovery_node, *line, slot, &lcb)?;
                }
            }
        }

        // Phase 2 (redo): reconstruct lock state destroyed with crashed
        // nodes. Compute the desired state of every surviving active
        // transaction from the surviving logs, reinstall lost lines, and
        // re-insert any LCB that no longer resolves.
        let mut desired: BTreeMap<u64, Lcb> = BTreeMap::new();
        for node in m.surviving_nodes() {
            replay_node_lock_log(logs, node, active_surviving, &mut desired);
        }
        // Reinstall base-table lines that were destroyed.
        for line in &all_lines {
            if m.is_lost(*line) || !m.line_exists(*line) {
                m.install_line(recovery_node, *line, &vec![0u8; line_size])?;
                stats.lines_reinstalled += 1;
            }
        }
        let mut existing = Lcb::default();
        for (name, want) in &desired {
            match self.table().find(m, recovery_node, *name, &mut existing)? {
                Some((line, slot)) => {
                    // The LCB survived (phase 1 already scrubbed crashed
                    // entries). Ensure every surviving entry is present —
                    // entries can be missing if the surviving copy of the
                    // line predates a later acquisition that lived only on
                    // the crashed node.
                    let mut changed = false;
                    for h in &want.holders {
                        if !existing.holders.iter().any(|e| e.txn == h.txn) {
                            existing.holders.push(*h);
                            existing.waiters.retain(|w| w.txn != h.txn);
                            stats.survivor_entries_restored += 1;
                            changed = true;
                        }
                    }
                    for w in &want.waiters {
                        if !existing.waiters.iter().any(|e| e.txn == w.txn)
                            && !existing.holders.iter().any(|e| e.txn == w.txn)
                        {
                            existing.waiters.push(*w);
                            stats.survivor_entries_restored += 1;
                            changed = true;
                        }
                    }
                    changed |= self.promote_logged(&mut existing, logs, &mut stats);
                    if changed {
                        self.table().write_lcb(m, recovery_node, line, slot, &existing)?;
                    }
                }
                None => {
                    let (line, slot) =
                        match self.table().find_empty_slot(m, recovery_node, *name)? {
                            Some(found) => found,
                            None => {
                                // The chain is full (reconstruction packs LCBs
                                // in a different order than the original
                                // inserts): extend it, early-committing the
                                // structural change exactly as normal
                                // operation would.
                                let chain = self.table().chain_for(m, recovery_node, *name)?;
                                let tail = *chain.last().ok_or(MemError::Corrupted {
                                    what: "lock bucket chain empty during reconstruction",
                                })?;
                                let new_line =
                                    self.table_mut().alloc_overflow(m, recovery_node, tail)?;
                                let recovery_txn = TxnId::new(recovery_node, 0);
                                let lsn = logs.append(
                                    recovery_node,
                                    LogPayload::Structural {
                                        txn: recovery_txn,
                                        kind: StructuralKind::LockSpaceAlloc {
                                            line: new_line.0,
                                            parent: tail.0,
                                        },
                                    },
                                );
                                // A mid-recovery crash point: the recovery
                                // node itself can die here.
                                logs.force(m, recovery_node, lsn, ForceReason::Commit)
                                    .map_err(MemError::FaultCrash)?;
                                (new_line, 0)
                            }
                        };
                    // The reconstructed LCB may be headed by waiters whose
                    // blocker died with the crash (the grant lived only in
                    // the destroyed line): promote them now, exactly as
                    // phase 1 does for surviving lines.
                    let mut rebuilt = want.clone();
                    stats.survivor_entries_restored +=
                        (rebuilt.holders.len() + rebuilt.waiters.len()) as u64;
                    self.promote_logged(&mut rebuilt, logs, &mut stats);
                    self.table().write_lcb(m, recovery_node, line, slot, &rebuilt)?;
                    stats.lcbs_reconstructed += 1;
                }
            }
        }

        // Phase 3: rebuild the per-transaction chains from the restored
        // LCB data (pointers reconstructed from the data they derive from).
        // Grant modes come straight from the reconstructed holder entries,
        // which keeps the re-acquire fast lane truthful after recovery.
        let lines = self.table().all_lines();
        let mut grants: Vec<(TxnId, u64, LockMode)> = Vec::new();
        for line in lines {
            if let Some(img) = m.peek(line).map(|d| d.to_vec()) {
                for (_, lcb) in self.table().decode_line(&img) {
                    for e in &lcb.holders {
                        grants.push((e.txn, lcb.name, e.mode));
                    }
                }
            }
        }
        self.rebuild_chains(&grants);
        self.stats_mut().promotions += stats.promotions;
        Ok(stats)
    }

    /// Promote the waiters `lcb`'s holders no longer block, each logged
    /// as a grant on its transaction's home log (what a later replay reads
    /// back) and counted. Returns whether any was promoted.
    fn promote_logged(
        &self,
        lcb: &mut Lcb,
        logs: &mut LogSet,
        stats: &mut LockRecoveryStats,
    ) -> bool {
        let promoted = lcb.promote_waiters(self.table().geometry().max_holders);
        for p in &promoted {
            let grant = LogPayload::LockAcquire {
                txn: p.txn,
                name: lcb.name,
                mode: p.mode.into(),
                queued: false,
            };
            logs.append(p.txn.node(), grant);
        }
        stats.promotions += promoted.len() as u64;
        !promoted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcb::LcbGeometry;
    use crate::manager::LockOutcome;
    use crate::table::LockTable;
    use smdb_sim::SimConfig;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);

    fn setup() -> (Machine, LogSet, LockManager) {
        let mut m = Machine::new(SimConfig::new(4));
        let logs = LogSet::new(4);
        let table = LockTable::create(&mut m, N0, 5000, 16, LcbGeometry::co_located()).unwrap();
        (m, logs, LockManager::new(table))
    }

    fn t(node: u16, seq: u64) -> TxnId {
        TxnId::new(NodeId(node), seq)
    }

    #[test]
    fn crashed_txn_locks_released_from_surviving_lcb() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(0, 1); // will crash
        let ty = t(1, 1); // survives
        mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Shared).unwrap();
        mgr.acquire(&mut m, &mut logs, ty, 7, LockMode::Shared).unwrap();
        // LCB line now lives on n1 (survivor); crash n0.
        m.crash(&[N0]);
        logs.crash(&[N0]);
        let active: BTreeSet<TxnId> = [ty].into_iter().collect();
        let st = mgr.recover(&mut m, &mut logs, &[N0], &active, N1).unwrap();
        assert_eq!(st.crashed_entries_released, 1);
        let holders = mgr.holders_of(&mut m, N1, 7).unwrap();
        assert_eq!(holders.len(), 1);
        assert_eq!(holders[0].txn, ty);
        assert_eq!(mgr.held_locks(ty), &[7]);
    }

    #[test]
    fn survivor_locks_reconstructed_when_lcb_destroyed() {
        // The inverse §3.1 scenario: the last toucher of the LCB line
        // crashes, destroying the only copy — including the survivor's
        // grant. Redo from the survivor's lock log must restore it.
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(1, 1); // survives
        let ty = t(2, 1); // crashes, and was last to touch the LCB line
        mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Shared).unwrap();
        mgr.acquire(&mut m, &mut logs, ty, 7, LockMode::Shared).unwrap();
        let line = mgr.table().bucket_line(7);
        assert_eq!(m.exclusive_owner(line), Some(N2));
        m.crash(&[N2]);
        logs.crash(&[N2]);
        assert!(m.is_lost(line));
        let active: BTreeSet<TxnId> = [tx].into_iter().collect();
        let st = mgr.recover(&mut m, &mut logs, &[N2], &active, N1).unwrap();
        assert!(st.lines_reinstalled >= 1);
        assert_eq!(st.lcbs_reconstructed, 1);
        let holders = mgr.holders_of(&mut m, N1, 7).unwrap();
        assert_eq!(holders.len(), 1);
        assert_eq!(holders[0].txn, tx);
        assert_eq!(holders[0].mode, LockMode::Shared);
    }

    #[test]
    fn promoted_shared_request_after_exclusive_one_keeps_the_grant_exclusive() {
        // A transaction queues X and then S behind a sharer; the sharer's
        // release promotes both, logging the X grant and then the S grant.
        // Replaying them in order must leave X, as the live LCB holds.
        let (mut m, mut logs, mut mgr) = setup();
        let sharer = t(2, 1); // crashes, last to touch the line
        let tx = t(1, 1); // survives
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, sharer, 7, LockMode::Shared).unwrap(),
            LockOutcome::Granted
        );
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap(),
            LockOutcome::Waiting
        );
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Shared).unwrap(),
            LockOutcome::Waiting
        );
        let promoted = mgr.release(&mut m, &mut logs, sharer, 7).unwrap();
        assert_eq!(promoted.len(), 2, "{promoted:?}");
        assert_eq!(mgr.held_mode(tx, 7), Some(LockMode::Exclusive));
        let line = mgr.table().bucket_line(7);
        assert_eq!(m.exclusive_owner(line), Some(N2));
        m.crash(&[N2]);
        logs.crash(&[N2]);
        let active: BTreeSet<TxnId> = [tx].into_iter().collect();
        mgr.recover(&mut m, &mut logs, &[N2], &active, N1).unwrap();
        let holders = mgr.holders_of(&mut m, N1, 7).unwrap();
        assert_eq!(holders, vec![LockEntry { txn: tx, mode: LockMode::Exclusive }]);
        assert_eq!(mgr.held_mode(tx, 7), Some(LockMode::Exclusive));
    }

    #[test]
    fn read_lock_logging_is_what_enables_redo() {
        // Without read-lock log records the reconstruction above would be
        // impossible: verify the reconstruction really came from a Shared
        // acquire record.
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(1, 1);
        mgr.acquire(&mut m, &mut logs, tx, 9, LockMode::Shared).unwrap();
        assert_eq!(logs.log(N1).stats().read_lock_records, 1);
        // Destroy the LCB line by migrating it to n2 and crashing n2.
        let ty = t(2, 1);
        mgr.acquire(&mut m, &mut logs, ty, 9, LockMode::Shared).unwrap();
        m.crash(&[N2]);
        logs.crash(&[N2]);
        let active: BTreeSet<TxnId> = [tx].into_iter().collect();
        mgr.recover(&mut m, &mut logs, &[N2], &active, N1).unwrap();
        let holders = mgr.holders_of(&mut m, N1, 9).unwrap();
        assert_eq!(holders.len(), 1, "shared lock redone from read-lock log record");
    }

    #[test]
    fn released_locks_stay_released_after_recovery() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(1, 1);
        mgr.acquire(&mut m, &mut logs, tx, 5, LockMode::Exclusive).unwrap();
        mgr.release(&mut m, &mut logs, tx, 5).unwrap();
        // Lose the (now empty) bucket line with a crash of its owner.
        let line = mgr.table().bucket_line(5);
        let owner = m.exclusive_owner(line).unwrap();
        if owner != N1 {
            m.crash(&[owner]);
            logs.crash(&[owner]);
            let active: BTreeSet<TxnId> = [tx].into_iter().collect();
            mgr.recover(&mut m, &mut logs, &[owner], &active, N1).unwrap();
        }
        assert!(mgr.holders_of(&mut m, N1, 5).unwrap().is_empty());
    }

    #[test]
    fn waiter_of_crashed_holder_gets_promoted() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(0, 1); // holder, will crash
        let ty = t(1, 1); // waiter, survives
        mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap();
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, ty, 7, LockMode::Exclusive).unwrap(),
            LockOutcome::Waiting
        );
        m.crash(&[N0]);
        logs.crash(&[N0]);
        let active: BTreeSet<TxnId> = [ty].into_iter().collect();
        let st = mgr.recover(&mut m, &mut logs, &[N0], &active, N1).unwrap();
        assert_eq!(st.promotions, 1);
        let holders = mgr.holders_of(&mut m, N1, 7).unwrap();
        assert_eq!(holders.len(), 1);
        assert_eq!(holders[0].txn, ty);
        assert_eq!(mgr.held_locks(ty), &[7]);
    }

    #[test]
    fn queued_request_of_survivor_reconstructed() {
        let (mut m, mut logs, mut mgr) = setup();
        let tx = t(1, 1); // holder, survives
        let ty = t(2, 1); // waiter, survives
        let tz = t(0, 1); // toucher that takes the line and crashes
        mgr.acquire(&mut m, &mut logs, tx, 7, LockMode::Exclusive).unwrap();
        mgr.acquire(&mut m, &mut logs, ty, 7, LockMode::Exclusive).unwrap();
        // tz takes an unrelated lock that co-locates in the same line: use
        // the same name's bucket by locking name 7 in shared — simpler: tz
        // just touches the LCB line via a conflicting request.
        assert_eq!(
            mgr.acquire(&mut m, &mut logs, tz, 7, LockMode::Shared).unwrap(),
            LockOutcome::Waiting
        );
        let line = mgr.table().bucket_line(7);
        assert_eq!(m.exclusive_owner(line), Some(N0));
        m.crash(&[N0]);
        logs.crash(&[N0]);
        let active: BTreeSet<TxnId> = [tx, ty].into_iter().collect();
        mgr.recover(&mut m, &mut logs, &[N0], &active, N1).unwrap();
        let holders = mgr.holders_of(&mut m, N1, 7).unwrap();
        let waiters = mgr.waiters_of(&mut m, N1, 7).unwrap();
        assert_eq!(holders.len(), 1);
        assert_eq!(holders[0].txn, tx);
        assert_eq!(waiters.len(), 1);
        assert_eq!(waiters[0].txn, ty);
    }

    #[test]
    fn multi_node_crash_recovery() {
        let (mut m, mut logs, mut mgr) = setup();
        let survivors: Vec<TxnId> = (0..2).map(|s| t(1, s + 1)).collect();
        for (i, &txn) in survivors.iter().enumerate() {
            mgr.acquire(&mut m, &mut logs, txn, 100 + i as u64, LockMode::Exclusive).unwrap();
        }
        let doomed_a = t(0, 1);
        let doomed_b = t(2, 1);
        mgr.acquire(&mut m, &mut logs, doomed_a, 100, LockMode::Shared).unwrap();
        mgr.acquire(&mut m, &mut logs, doomed_b, 101, LockMode::Shared).unwrap();
        m.crash(&[N0, N2]);
        logs.crash(&[N0, N2]);
        let active: BTreeSet<TxnId> = survivors.iter().copied().collect();
        mgr.recover(&mut m, &mut logs, &[N0, N2], &active, N1).unwrap();
        for (i, &txn) in survivors.iter().enumerate() {
            let holders = mgr.holders_of(&mut m, N1, 100 + i as u64).unwrap();
            assert_eq!(holders.len(), 1, "lock {} has exactly the survivor", 100 + i);
            assert_eq!(holders[0].txn, txn);
        }
    }

    /// The bounded replay against the replay-everything reference, behind
    /// a long settled prefix and again on the checkpoint-truncated log.
    #[test]
    fn replay_from_first_active_lsn_equals_replay_from_zero() {
        let (mut m, mut logs, mut mgr) = setup();
        // A long settled past on node 1: grants, queued requests, upgrades
        // and releases by transactions that are all finished.
        for seq in 1..=200u64 {
            let a = t(1, seq);
            let b = t(2, seq);
            let name = 10 + seq % 7;
            mgr.acquire(&mut m, &mut logs, a, name, LockMode::Shared).unwrap();
            mgr.acquire_from(&mut m, &mut logs, b, name, LockMode::Exclusive, N1).unwrap();
            mgr.acquire(&mut m, &mut logs, a, 50 + seq, LockMode::Exclusive).unwrap();
            mgr.release_all(&mut m, &mut logs, a).unwrap();
            mgr.release_all(&mut m, &mut logs, b).unwrap();
        }
        let settled_upto = logs.log(N1).last_lsn();
        // The live tail: two active transactions holding, upgrading and
        // queueing, interleaved with one more settled transaction.
        let (x, y, z) = (t(1, 1000), t(1, 1001), t(1, 1002));
        mgr.acquire(&mut m, &mut logs, x, 12, LockMode::Shared).unwrap();
        mgr.acquire(&mut m, &mut logs, z, 13, LockMode::Exclusive).unwrap();
        mgr.acquire(&mut m, &mut logs, y, 12, LockMode::Shared).unwrap();
        mgr.acquire(&mut m, &mut logs, y, 13, LockMode::Shared).unwrap();
        mgr.release_all(&mut m, &mut logs, z).unwrap();
        mgr.acquire(&mut m, &mut logs, x, 14, LockMode::Exclusive).unwrap();
        mgr.acquire(&mut m, &mut logs, y, 14, LockMode::Shared).unwrap();
        let active: BTreeSet<TxnId> = [x, y].into_iter().collect();

        let bounded = |logs: &LogSet| {
            let mut desired = BTreeMap::new();
            replay_node_lock_log(logs, N1, &active, &mut desired);
            desired
        };
        let mut from_zero = BTreeMap::new();
        replay_lock_records(logs.log(N1).records(), &active, &mut from_zero);
        assert!(!from_zero.is_empty());
        assert_eq!(from_zero[&14].waiters.len(), 1, "the tail queues a request");
        assert_eq!(bounded(&logs), from_zero);

        // A checkpoint reclaims the settled prefix (its cutoff is the same
        // first-active-record bound); the bounded replay must not notice.
        assert!(logs.log(N1).index().first_txn_lsn(x).unwrap() > settled_upto);
        logs.log_mut(N1).force_all();
        logs.log_mut(N1).truncate_through(settled_upto);
        assert_eq!(bounded(&logs), from_zero);
        let mut retained = BTreeMap::new();
        replay_lock_records(logs.log(N1).records(), &active, &mut retained);
        assert_eq!(retained, from_zero);

        // A node whose log no active transaction ever touched is skipped.
        assert!(!logs.log(N2).is_empty());
        let mut none = BTreeMap::new();
        replay_node_lock_log(&logs, N2, &active, &mut none);
        assert!(none.is_empty());
    }
}
