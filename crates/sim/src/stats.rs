//! Coherence-traffic and failure statistics.

/// Counters maintained by the [`crate::Machine`].
///
/// The migration/replication counters correspond directly to the data
/// sharing patterns of paper §3.2: a **migration** is the `H_ww1`/`H_ww2`
/// transition (a write moves the only copy of a line to the writer), a
/// **replication** is the `H_wr` transition (a read of an exclusively-held
/// line leaves copies on both nodes).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total read operations.
    pub reads: u64,
    /// Total write operations.
    pub writes: u64,
    /// Reads and writes satisfied from the local cache.
    pub local_hits: u64,
    /// Line transfers from a remote cache.
    pub remote_transfers: u64,
    /// ww sharing: a write took exclusive ownership away from another node.
    pub migrations: u64,
    /// wr sharing: a read downgraded another node's exclusive copy.
    pub replications: u64,
    /// Remote copies invalidated by writes (write-invalidate mode).
    pub invalidations: u64,
    /// Exclusive copies downgraded to shared by remote reads.
    pub downgrades: u64,
    /// Remote copies updated in place (write-broadcast mode).
    pub broadcast_updates: u64,
    /// Successful line-lock acquisitions.
    pub line_lock_acquires: u64,
    /// Line-lock requests that found the lock held by another node.
    pub line_lock_conflicts: u64,
    /// Accesses that observed a lost line.
    pub lost_line_accesses: u64,
    /// Lines created (statically addressed or dynamically allocated).
    pub lines_created: u64,
    /// Lines destroyed by node crashes (only copies were on failed nodes).
    pub lines_lost: u64,
    /// Explicit evictions.
    pub evictions: u64,
}

impl SimStats {
    /// Difference `self - earlier`, counter-wise. Useful for measuring one
    /// phase of a workload. Saturates at zero: an `earlier` snapshot from
    /// a different machine yields zeros instead of panicking on underflow.
    pub fn delta_since(&self, earlier: &SimStats) -> SimStats {
        SimStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            local_hits: self.local_hits.saturating_sub(earlier.local_hits),
            remote_transfers: self.remote_transfers.saturating_sub(earlier.remote_transfers),
            migrations: self.migrations.saturating_sub(earlier.migrations),
            replications: self.replications.saturating_sub(earlier.replications),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
            downgrades: self.downgrades.saturating_sub(earlier.downgrades),
            broadcast_updates: self.broadcast_updates.saturating_sub(earlier.broadcast_updates),
            line_lock_acquires: self.line_lock_acquires.saturating_sub(earlier.line_lock_acquires),
            line_lock_conflicts: self
                .line_lock_conflicts
                .saturating_sub(earlier.line_lock_conflicts),
            lost_line_accesses: self.lost_line_accesses.saturating_sub(earlier.lost_line_accesses),
            lines_created: self.lines_created.saturating_sub(earlier.lines_created),
            lines_lost: self.lines_lost.saturating_sub(earlier.lines_lost),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    /// Fold `other` into `self`, counter-wise. Used when an execution
    /// lane's coherence stats are merged back into the parent machine at
    /// an epoch barrier.
    pub fn absorb(&mut self, other: &SimStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.local_hits += other.local_hits;
        self.remote_transfers += other.remote_transfers;
        self.migrations += other.migrations;
        self.replications += other.replications;
        self.invalidations += other.invalidations;
        self.downgrades += other.downgrades;
        self.broadcast_updates += other.broadcast_updates;
        self.line_lock_acquires += other.line_lock_acquires;
        self.line_lock_conflicts += other.line_lock_conflicts;
        self.lost_line_accesses += other.lost_line_accesses;
        self.lines_created += other.lines_created;
        self.lines_lost += other.lines_lost;
        self.evictions += other.evictions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counterwise() {
        let a = SimStats { reads: 10, writes: 4, ..Default::default() };
        let b = SimStats { reads: 3, writes: 1, ..Default::default() };
        let d = a.delta_since(&b);
        assert_eq!(d.reads, 7);
        assert_eq!(d.writes, 3);
        assert_eq!(d.migrations, 0);
    }

    #[test]
    fn delta_saturates_on_counter_regress() {
        // `earlier` ahead of `self` (e.g. a snapshot of another
        // machine): the delta clamps to zero instead of panicking.
        let after_reset = SimStats { reads: 2, ..Default::default() };
        let before_reset = SimStats { reads: 100, writes: 5, ..Default::default() };
        let d = after_reset.delta_since(&before_reset);
        assert_eq!(d.reads, 0);
        assert_eq!(d.writes, 0);
    }
}
