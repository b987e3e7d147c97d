//! Machine configuration.

use crate::cost::CostModel;
use crate::DEFAULT_LINE_SIZE;

/// Which hardware cache-coherence protocol the machine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoherenceKind {
    /// Before a write to a cache line by one node occurs, all other cached
    /// copies of the line are invalidated (paper §2). The assumption under
    /// which all of the paper's recovery scenarios are developed.
    WriteInvalidate,
    /// Writes are propagated to every cached copy instead of invalidating
    /// them. Discussed in §7: under write-broadcast, ww sharing does not
    /// leave a single exclusive copy, so restart recovery needs *undo only*
    /// — making Selective Redo the natural pairing.
    WriteBroadcast,
}

/// Configuration for a [`crate::Machine`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of nodes (processor/memory pairs). The KSR-1 scales to 1,088
    /// nodes (paper §3.3); the simulator accepts any `u16` population.
    pub nodes: u16,
    /// Cache line size in bytes (default 128, as on KSR-1 and FLASH).
    pub line_size: usize,
    /// The coherence protocol.
    pub coherence: CoherenceKind,
    /// Simulated operation costs.
    pub cost: CostModel,
    /// §4.2.2: if true, references to lines whose only copies resided on
    /// crashed nodes are *stalled* (the access returns
    /// [`crate::MemError::Stalled`]) rather than observing an invalid line.
    /// This is the hardware support that lets locking activity continue
    /// while recovery runs. If false, such references return
    /// [`crate::MemError::LineLost`].
    pub stall_on_lost: bool,
    /// Stripe granule in lines: consecutive runs of `stripe_lines` line
    /// addresses map to the same stripe, round-robin across the
    /// [`crate::STRIPES`] stripes. The database engine sets this to its
    /// lines-per-page so one page — record lines plus the Page-LSN line —
    /// never straddles stripes.
    pub stripe_lines: u64,
}

impl SimConfig {
    /// A default configuration for `nodes` nodes: 128-byte lines,
    /// write-invalidate coherence, default cost model.
    pub fn new(nodes: u16) -> Self {
        SimConfig {
            nodes,
            line_size: DEFAULT_LINE_SIZE,
            coherence: CoherenceKind::WriteInvalidate,
            cost: CostModel::default(),
            stall_on_lost: false,
            stripe_lines: 32,
        }
    }

    /// Switch to write-broadcast coherence.
    pub fn write_broadcast(mut self) -> Self {
        self.coherence = CoherenceKind::WriteBroadcast;
        self
    }

    /// Use a custom line size (bytes). Must be non-zero.
    pub fn with_line_size(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "line size must be non-zero");
        self.line_size = bytes;
        self
    }

    /// Use a custom cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Enable stalling references to lost lines (§4.2.2).
    pub fn with_stall_on_lost(mut self, stall: bool) -> Self {
        self.stall_on_lost = stall;
        self
    }

    /// Set the stripe granule in lines (see [`SimConfig::stripe_lines`]).
    /// Must be non-zero.
    pub fn with_stripe_lines(mut self, lines: u64) -> Self {
        assert!(lines > 0, "stripe granule must be non-zero");
        self.stripe_lines = lines;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = SimConfig::new(4).write_broadcast().with_line_size(64).with_stall_on_lost(true);
        assert_eq!(c.nodes, 4);
        assert_eq!(c.line_size, 64);
        assert_eq!(c.coherence, CoherenceKind::WriteBroadcast);
        assert!(c.stall_on_lost);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn zero_line_size_rejected() {
        let _ = SimConfig::new(1).with_line_size(0);
    }
}
