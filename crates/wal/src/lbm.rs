//! Logging-Before-Migration policy selection (§4.1.1, §5).

/// Which LBM (Logging Before Migration) policy the engine enforces.
///
/// All three guarantee that, before an uncommitted update migrates to
/// another node, log records sufficient for recovery exist; they differ in
/// *where* those records must reside at migration time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbmMode {
    /// **Volatile LBM** (§5.1): the undo/redo log record is written to the
    /// node's volatile log inside the line-lock critical section of the
    /// update, before the line can migrate. No forcing beyond commit.
    Volatile,
    /// **Stable LBM, eager variant** (§5.2): the log is forced as part of
    /// every update protocol — correct but very expensive ("a log force is
    /// performed on each update, regardless of whether the cache line ever
    /// migrates").
    StableEager,
    /// **Stable LBM, trigger-based variant** (§5.2): updated lines carry an
    /// *active bit*; the log force is deferred to the latest admissible
    /// point — the downgrade or invalidation of the active line by another
    /// node's access. Requires the one-bit-per-line coherence extension the
    /// paper proposes (provided by `smdb-sim`).
    StableTriggered,
}

impl LbmMode {
    /// Whether this policy uses the per-line active bit and coherence
    /// triggers.
    pub fn uses_triggers(self) -> bool {
        matches!(self, LbmMode::StableTriggered)
    }

    /// Whether this policy forces the log on every update.
    pub fn forces_eagerly(self) -> bool {
        matches!(self, LbmMode::StableEager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(LbmMode::StableTriggered.uses_triggers());
        assert!(!LbmMode::Volatile.uses_triggers());
        assert!(LbmMode::StableEager.forces_eagerly());
        assert!(!LbmMode::StableTriggered.forces_eagerly());
    }
}
