//! Unified cross-layer observability for the shared-memory database.
//!
//! Three pieces, all dependency-free and cheap when disabled:
//!
//! - [`Bus`] — a machine-wide, sequence-numbered, bounded timeline of typed
//!   [`Event`]s from every layer (coherence transitions, lock traffic, WAL
//!   appends and forces, LBM migration-triggered forces, buffer steals,
//!   crash injection, recovery phases). It is the simulator's only trace:
//!   one global sequence numbering means events from different layers can
//!   be causally ordered against each other.
//! - [`Registry`] — named counters, gauges, and fixed-bucket log₂
//!   [`Histogram`]s with percentile queries and CSV/JSON export. Every
//!   metric name lives in the [`names`] catalog.
//! - [`SpanTracker`] — per-transaction spans with simulated-cycle stage
//!   attribution (`lock-wait → execute → log-append → force-wait →
//!   commit`), aggregated into a cycles-by-stage breakdown and latency
//!   histograms with p50/p99/p999.
//! - [`Timeline`] — the availability timeline: a fixed-capacity ring of
//!   simulated-time buckets sampling throughput, in-flight transactions,
//!   and recovery progress, plus exact crash/recovery/first-commit
//!   markers for time-to-first-transaction.
//! - [`chrome_trace`] — Chrome trace-event JSON exporter (Perfetto) over
//!   the bus and the finished spans.
//! - [`PhaseSpan`] / [`PhaseTiming`] — paired simulated-cost and wall-clock
//!   spans for the phases of IFA crash recovery.
//!
//! The [`Obs`] handle bundles all of them; it is `Clone` (shared handle
//! semantics) so the engine can own one copy and hand another to the
//! caller. Every emission site is a single relaxed atomic load plus
//! branch while observability is disabled; what switching it on costs is
//! measured by `perf`'s `obs.*_overhead_ratio` rows.

mod bus;
mod chrome;
mod metrics;
pub mod names;
mod phase;
mod span;
mod timeline;

pub use bus::{Bus, Event, ForceReason, Record};
pub use chrome::chrome_trace;
pub use metrics::{Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use phase::{PhaseSpan, PhaseTiming};
pub use span::{FinishedSpan, SpanAggregate, SpanTracker, Stage, DEFAULT_SPAN_CAPACITY, STAGES};
pub use timeline::{Timeline, TimelineBucket, DEFAULT_BUCKET_CYCLES, DEFAULT_TIMELINE_CAPACITY};

/// Shared observability handle: event bus, metrics registry, transaction
/// spans, and the availability timeline.
///
/// Cloning yields another handle to the same underlying state. All four
/// start disabled; [`Obs::enable`] switches them on together (the
/// timeline with default bucketing — call [`Timeline::enable`] directly
/// for a custom bucket width).
#[derive(Clone, Default)]
pub struct Obs {
    /// The machine-wide event timeline.
    pub bus: Bus,
    /// Counters, gauges, and histograms.
    pub metrics: Registry,
    /// Per-transaction spans with stage attribution.
    pub spans: SpanTracker,
    /// The availability timeline (throughput / in-flight / recovery
    /// progress per simulated-time bucket).
    pub timeline: Timeline,
}

impl Obs {
    /// New disabled handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable every half: the bus (with the given ring capacity), the
    /// metrics registry, the span tracker, and the timeline (default
    /// bucket width and capacity).
    pub fn enable(&self, bus_capacity: usize) {
        self.bus.enable(bus_capacity);
        self.metrics.enable();
        self.spans.enable(0);
        self.timeline.enable(0, 0);
    }

    /// Disable everything; buffered events, accumulated metrics, spans,
    /// and timeline buckets are retained.
    pub fn disable(&self) {
        self.bus.disable();
        self.metrics.disable();
        self.spans.disable();
        self.timeline.disable();
    }

    /// Whether any half is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.bus.is_enabled()
            || self.metrics.is_enabled()
            || self.spans.is_enabled()
            || self.timeline.is_enabled()
    }

    /// Render the bus backlog and the retained finished spans as a Chrome
    /// trace-event JSON document (see [`chrome_trace`]).
    pub fn export_chrome_trace(&self) -> String {
        chrome_trace(&self.bus.snapshot(), &self.spans.finished())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_is_shared_across_clones() {
        let a = Obs::new();
        let b = a.clone();
        assert!(!b.is_enabled());
        a.enable(16);
        assert!(b.is_enabled());
        b.bus.emit(5, || Event::WriteLocal { node: 1, line: 2 });
        a.metrics.inc("x");
        assert_eq!(a.bus.len(), 1);
        assert_eq!(b.metrics.counter("x"), 1);
        a.disable();
        assert!(!b.is_enabled());
        b.bus.emit(6, || Event::WriteLocal { node: 1, line: 2 });
        assert_eq!(a.bus.len(), 1, "disabled bus drops events");
    }
}
