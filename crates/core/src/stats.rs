//! Engine-level counters, including the Table 1 overhead breakdown.

use smdb_btree::TreeCtx;

/// Counters maintained by the engine during normal operation. The fields
/// marked *(Table 1)* quantify the paper's qualitative overhead matrix:
/// a protocol "checks the box" exactly when its counter is non-zero under
/// a workload that exercises the mechanism.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted voluntarily (lock conflicts etc.).
    pub voluntary_aborts: u64,
    /// Transactions aborted by crashes/recovery.
    pub crash_aborts: u64,
    /// Record reads.
    pub reads: u64,
    /// Record updates.
    pub updates: u64,
    /// Index inserts.
    pub index_inserts: u64,
    /// Index deletes.
    pub index_deletes: u64,
    /// *(Table 1: Undo Tagging)* tag writes performed because the protocol
    /// requires per-record undo tags.
    pub undo_tag_writes: u64,
    /// *(Table 1: Undo Tagging)* extra bytes written for tags.
    pub undo_tag_bytes: u64,
    /// Log forces performed at commit (needed for plain FA too — not an
    /// IFA overhead).
    pub commit_forces: u64,
    /// *(Table 1: Higher Frequency of Log Forces)* forces attributable to
    /// the Stable LBM policy (eager per-update forces and trigger-driven
    /// forces), beyond commit/WAL forces.
    pub lbm_forces: u64,
    /// Forces required by the WAL rule at page flush.
    pub wal_flush_forces: u64,
    /// *(Table 1: Early Commit of Structural Changes)* structural changes
    /// committed early (forced structural records): B-tree splits, root
    /// growths, lock-table overflow allocations.
    pub structural_early_commits: u64,
    /// Pages flushed (steals + checkpoints).
    pub page_flushes: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Lock requests denied under the no-wait policy.
    pub would_blocks: u64,
    /// Write locks released early at commit-record append (controlled lock
    /// violation), before the covering force made the commit durable.
    pub early_lock_releases: u64,
    /// Commit-LSN dependencies inherited by transactions that touched a
    /// violated lock name before the releaser's covering force.
    pub commit_deps: u64,
    /// Transactions aborted in cascade because a commit-dependency
    /// predecessor's node crashed before the covering force.
    pub dep_aborts: u64,
}

impl EngineStats {
    /// Fold a forward-path context's physical LBM forces in.
    pub(crate) fn add_lbm(&mut self, ctx: &TreeCtx<'_>) {
        self.lbm_forces += ctx.lbm_forces;
    }

    /// Counter-wise difference `self - earlier`. Saturates at zero: an
    /// `earlier` snapshot taken after a counter reset (or from a different
    /// engine) yields zeros instead of panicking on underflow.
    pub fn delta_since(&self, earlier: &EngineStats) -> EngineStats {
        macro_rules! d {
            ($($f:ident),*) => {
                EngineStats { $($f: self.$f.saturating_sub(earlier.$f)),* }
            };
        }
        d!(
            begins,
            commits,
            voluntary_aborts,
            crash_aborts,
            reads,
            updates,
            index_inserts,
            index_deletes,
            undo_tag_writes,
            undo_tag_bytes,
            commit_forces,
            lbm_forces,
            wal_flush_forces,
            structural_early_commits,
            page_flushes,
            checkpoints,
            would_blocks,
            early_lock_releases,
            commit_deps,
            dep_aborts
        )
    }

    /// Fold an execution lane's counters into this one at an epoch
    /// barrier. Counter addition commutes, so sibling-lane merge order
    /// cannot change the totals.
    pub fn absorb(&mut self, other: &EngineStats) {
        macro_rules! a {
            ($($f:ident),*) => {
                $(self.$f += other.$f;)*
            };
        }
        a!(
            begins,
            commits,
            voluntary_aborts,
            crash_aborts,
            reads,
            updates,
            index_inserts,
            index_deletes,
            undo_tag_writes,
            undo_tag_bytes,
            commit_forces,
            lbm_forces,
            wal_flush_forces,
            structural_early_commits,
            page_flushes,
            checkpoints,
            would_blocks,
            early_lock_releases,
            commit_deps,
            dep_aborts
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts() {
        let a = EngineStats { commits: 10, updates: 7, ..Default::default() };
        let b = EngineStats { commits: 4, updates: 2, ..Default::default() };
        let d = a.delta_since(&b);
        assert_eq!(d.commits, 6);
        assert_eq!(d.updates, 5);
        assert_eq!(d.reads, 0);
    }

    #[test]
    fn delta_saturates_on_counter_regress() {
        // `earlier` ahead of `self` (snapshot straddling a stats reset):
        // clamp to zero instead of panicking.
        let after_reset = EngineStats { commits: 1, ..Default::default() };
        let before_reset = EngineStats { commits: 50, updates: 9, ..Default::default() };
        let d = after_reset.delta_since(&before_reset);
        assert_eq!(d.commits, 0);
        assert_eq!(d.updates, 0);
    }
}
