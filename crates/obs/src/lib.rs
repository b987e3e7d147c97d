//! Unified cross-layer observability for the shared-memory database.
//!
//! Four recorders behind one switch, all dependency-free and cheap while
//! it is off:
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
//! - [`Timeline`] — the availability timeline: simulated-time buckets
//!   sampling throughput, in-flight transactions, and recovery progress,
//!   plus exact crash/recovery/first-commit markers for
//!   time-to-first-transaction.
//!
//! Beside them: [`chrome_trace`], the Chrome trace-event JSON exporter
//! (Perfetto) over the bus and the finished spans, and [`PhaseSpan`] /
//! [`PhaseTiming`], paired simulated-cost and wall-clock spans for the
//! phases of IFA crash recovery.
//!
//! The [`Obs`] handle bundles the four; it is `Clone` (shared handle
//! semantics) so the engine can own one copy and hand another to the
//! caller. They share one on/off switch, which [`Obs::enable`] turns on,
//! and keep what they retain in one bounded ring type (the bus backlog,
//! the finished spans, the timeline buckets). Every emission site is a
//! single relaxed atomic load plus branch while observability is off;
//! what switching it on costs is measured by `perf`'s
//! `obs.*_overhead_ratio` rows.

mod bus;
mod chrome;
mod metrics;
pub mod names;
mod phase;
mod ring;
mod span;
mod timeline;

pub use bus::{Bus, Event, ForceReason, Record};
pub use chrome::chrome_trace;
pub use metrics::{json_escape, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use phase::{PhaseSpan, PhaseTiming};
pub use span::{FinishedSpan, SpanAggregate, SpanTracker, Stage, SPAN_CAPACITY, STAGES};
pub use timeline::{Timeline, TimelineBucket, BUCKET_CYCLES, TIMELINE_CAPACITY};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The one on/off switch: every recorder of an [`Obs`] holds a clone.
#[derive(Clone, Default)]
pub(crate) struct Switch(Arc<AtomicBool>);

impl Switch {
    /// Whether recording is on: one relaxed load.
    #[inline]
    pub(crate) fn is_on(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared observability handle: event bus, metrics registry, transaction
/// spans, and the availability timeline.
///
/// Cloning yields another handle to the same underlying state. All four
/// start off and share one switch; [`Obs::enable`] turns it on.
#[derive(Clone)]
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
    on: Switch,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// New handle, switched off.
    pub fn new() -> Self {
        let on = Switch::default();
        Obs {
            bus: Bus::new(on.clone()),
            metrics: Registry::new(on.clone()),
            spans: SpanTracker::new(on.clone()),
            timeline: Timeline::new(on.clone()),
            on,
        }
    }

    /// Turn every recorder on, the bus with a ring of `bus_capacity`
    /// records (0: the default of 4 096). Enabling again only resizes
    /// the bus ring, dropping its oldest records beyond the new size.
    pub fn enable(&self, bus_capacity: usize) {
        self.bus.set_capacity(bus_capacity);
        self.on.0.store(true, Ordering::Relaxed);
    }

    /// Whether the recorders are on: the one guard every emission site
    /// that does work before emitting reads.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on.is_on()
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
        b.bus.emit(4, || panic!("closure evaluated while off"));
        a.metrics.inc("x");
        assert_eq!((a.bus.len(), b.metrics.counter("x")), (0, 0), "off records nothing");
        a.enable(16);
        assert!(b.is_enabled());
        b.bus.emit(5, || Event::WriteLocal { node: 1, line: 2 });
        a.metrics.inc("x");
        assert_eq!(a.bus.len(), 1);
        assert_eq!(b.metrics.counter("x"), 1);
        assert_eq!(b.bus.capacity(), 16);
    }
}
