//! The availability timeline: a ring of simulated-time buckets sampling
//! throughput, in-flight transactions, commit latency, and recovery
//! progress — the substrate for latency-through-crash and
//! time-to-first-transaction curves.
//!
//! Every sample is stamped with the machine-wide makespan (`max_clock`),
//! the only clock that is monotone across nodes, and lands in the bucket
//! `at / BUCKET_CYCLES`. The ring holds the newest [`TIMELINE_CAPACITY`]
//! buckets; older buckets are evicted, so a long run degrades into a sliding
//! window instead of growing without bound.
//!
//! Besides the buckets, the timeline latches three exact markers — the
//! last crash injection, the last recovery completion, and the first
//! commit after that recovery — from which [`Timeline::time_to_first_txn`]
//! answers the availability question directly: how many simulated cycles
//! passed between the crash and the first post-recovery commit.

use crate::ring::Ring;
use crate::Switch;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Number of retained buckets.
pub const TIMELINE_CAPACITY: usize = 512;

/// Bucket width in simulated cycles (10 ms at 100 cycles/µs).
pub const BUCKET_CYCLES: u64 = 1_000_000;

/// One simulated-time bucket of the availability timeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimelineBucket {
    /// Bucket start, simulated cycles.
    pub start: u64,
    /// Transactions begun in this bucket.
    pub begins: u64,
    /// Transactions committed in this bucket.
    pub commits: u64,
    /// Transactions aborted in this bucket.
    pub aborts: u64,
    /// Crash injections in this bucket.
    pub crashes: u64,
    /// Maximum in-flight transactions sampled in this bucket.
    pub in_flight_max: u64,
    /// Sum of commit latencies (simulated cycles) in this bucket.
    pub latency_sum: u128,
    /// Number of latency samples in this bucket.
    pub latency_count: u64,
    /// Cumulative `restart.scan_records` at the last sample.
    pub scan_records: u64,
    /// Cumulative `restart.redo_applied` at the last sample.
    pub redo_applied: u64,
    /// Redo candidates planned by the analysis scan (progress target).
    pub redo_planned: u64,
}

struct TlInner {
    /// Bucket index (`at / BUCKET_CYCLES`) of the ring's oldest bucket.
    base_index: u64,
    buckets: Ring<TimelineBucket>,
    last_crash_at: Option<u64>,
    last_recovery_end: Option<u64>,
    first_commit_after: Option<u64>,
    /// Latched by a recovery completion; the next commit resolves it.
    awaiting_first_commit: bool,
}

impl TlInner {
    /// The bucket containing `at`, creating/evicting as needed. Returns
    /// None for samples older than the retained window.
    fn bucket_mut(&mut self, at: u64) -> Option<&mut TimelineBucket> {
        let idx = at / BUCKET_CYCLES;
        // The first sample, or a gap wider than the whole ring: start the
        // window here rather than pushing (and evicting) filler buckets.
        let end = self.base_index + self.buckets.len() as u64;
        if self.buckets.is_empty() || idx >= end + TIMELINE_CAPACITY as u64 {
            self.buckets.clear();
            self.base_index = idx;
        }
        if idx < self.base_index {
            return None;
        }
        while self.base_index + (self.buckets.len() as u64) <= idx {
            let next = self.base_index + self.buckets.len() as u64;
            let bucket = TimelineBucket { start: next * BUCKET_CYCLES, ..Default::default() };
            if self.buckets.push(bucket) {
                self.base_index += 1;
            }
        }
        self.buckets.get_mut((idx - self.base_index) as usize)
    }
}

/// Shared availability timeline. `Clone` shares the ring.
#[derive(Clone)]
pub struct Timeline {
    on: Switch,
    inner: Arc<Mutex<TlInner>>,
}

impl Timeline {
    pub(crate) fn new(on: Switch) -> Self {
        let inner = TlInner {
            base_index: 0,
            buckets: Ring::new(TIMELINE_CAPACITY),
            last_crash_at: None,
            last_recovery_end: None,
            first_commit_after: None,
            awaiting_first_commit: false,
        };
        Timeline { on, inner: Arc::new(Mutex::new(inner)) }
    }

    /// Sample a transaction begin at makespan `at` with `in_flight`
    /// transactions active (this one included).
    #[inline]
    pub fn on_begin(&self, at: u64, in_flight: u64) {
        if !self.on.is_on() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        if let Some(b) = g.bucket_mut(at) {
            b.begins += 1;
            b.in_flight_max = b.in_flight_max.max(in_flight);
        }
    }

    /// Sample a commit: `latency` is the transaction's end-to-end
    /// simulated latency (0 when it had no open span), `in_flight` the count of
    /// still-active transactions.
    #[inline]
    pub fn on_commit(&self, at: u64, latency: u64, in_flight: u64) {
        if !self.on.is_on() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        if g.awaiting_first_commit {
            g.awaiting_first_commit = false;
            g.first_commit_after = Some(at);
        }
        if let Some(b) = g.bucket_mut(at) {
            b.commits += 1;
            b.latency_sum += latency as u128;
            b.latency_count += 1;
            b.in_flight_max = b.in_flight_max.max(in_flight);
        }
    }

    /// Sample an abort.
    #[inline]
    pub fn on_abort(&self, at: u64, in_flight: u64) {
        if !self.on.is_on() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        if let Some(b) = g.bucket_mut(at) {
            b.aborts += 1;
            b.in_flight_max = b.in_flight_max.max(in_flight);
        }
    }

    /// Mark a crash injection: starts a fresh time-to-first-txn window.
    #[inline]
    pub fn on_crash(&self, at: u64) {
        if !self.on.is_on() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        g.last_crash_at = Some(at);
        g.first_commit_after = None;
        g.awaiting_first_commit = false;
        if let Some(b) = g.bucket_mut(at) {
            b.crashes += 1;
        }
    }

    /// Sample recovery progress: cumulative analysis/redo counters against
    /// the planned redo volume.
    #[inline]
    pub fn recovery_progress(
        &self,
        at: u64,
        scan_records: u64,
        redo_applied: u64,
        redo_planned: u64,
    ) {
        if !self.on.is_on() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        if let Some(b) = g.bucket_mut(at) {
            b.scan_records = scan_records;
            b.redo_applied = redo_applied;
            b.redo_planned = redo_planned;
        }
    }

    /// Mark recovery completion: the next commit closes the
    /// time-to-first-txn window opened by [`Timeline::on_crash`].
    #[inline]
    pub fn on_recovery_end(&self, at: u64) {
        if !self.on.is_on() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        g.last_recovery_end = Some(at);
        if g.last_crash_at.is_some() && g.first_commit_after.is_none() {
            g.awaiting_first_commit = true;
        }
    }

    /// Simulated cycles from the last crash injection to the first commit
    /// after the recovery that followed it (None until both happened).
    /// This is the availability gap a client would see through the crash:
    /// outage + recovery + the first transaction's own latency.
    pub fn time_to_first_txn(&self) -> Option<u64> {
        let g = self.inner.lock().unwrap();
        Some(g.first_commit_after?.saturating_sub(g.last_crash_at?))
    }

    /// Makespan of the last crash injection.
    pub fn last_crash_at(&self) -> Option<u64> {
        self.inner.lock().unwrap().last_crash_at
    }

    /// Makespan when the last recovery completed.
    pub fn last_recovery_end(&self) -> Option<u64> {
        self.inner.lock().unwrap().last_recovery_end
    }

    /// Copy of the retained buckets, oldest first.
    pub fn snapshot(&self) -> Vec<TimelineBucket> {
        self.inner.lock().unwrap().buckets.iter().cloned().collect()
    }

    /// The timeline as CSV, one row per retained bucket:
    /// `bucket_start,begins,commits,aborts,crashes,in_flight_max,latency_sum,latency_count,scan_records,redo_applied,redo_planned`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "bucket_start,begins,commits,aborts,crashes,in_flight_max,latency_sum,latency_count,scan_records,redo_applied,redo_planned\n",
        );
        for b in self.snapshot() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{}",
                b.start,
                b.begins,
                b.commits,
                b.aborts,
                b.crashes,
                b.in_flight_max,
                b.latency_sum,
                b.latency_count,
                b.scan_records,
                b.redo_applied,
                b.redo_planned
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = BUCKET_CYCLES;

    /// A timeline switched on.
    fn timeline() -> Timeline {
        let obs = crate::Obs::new();
        obs.enable(0);
        obs.timeline
    }

    #[test]
    fn disabled_timeline_samples_nothing() {
        let t = crate::Obs::new().timeline;
        t.on_begin(10, 1);
        t.on_commit(20, 10, 0);
        t.on_crash(30);
        assert!(t.snapshot().is_empty());
        assert!(t.time_to_first_txn().is_none());
    }

    #[test]
    fn samples_land_in_width_sized_buckets() {
        let t = timeline();
        t.on_begin(W / 10, 1);
        t.on_begin(W / 2, 2);
        t.on_commit(W + W / 2, 140, 1);
        t.on_commit(2 * W - 1, 149, 0);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!((snap[0].start, snap[0].begins, snap[0].in_flight_max), (0, 2, 2));
        assert_eq!((snap[1].start, snap[1].commits, snap[1].latency_sum), (W, 2, 289));
    }

    #[test]
    fn ring_evicts_oldest_and_survives_giant_gaps() {
        let t = timeline();
        for k in 0..=TIMELINE_CAPACITY as u64 {
            t.on_begin(k * W + 5, 1);
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), TIMELINE_CAPACITY, "ring bounded");
        assert_eq!(snap[0].start, W, "oldest bucket evicted");
        // Out-of-order sample older than the window is dropped silently.
        t.on_begin(2, 1);
        assert_eq!(t.snapshot()[0].start, W);
        // A gap far beyond the ring restarts the window.
        t.on_begin(10_000 * W, 1);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].start, 10_000 * W);
    }

    #[test]
    fn time_to_first_txn_spans_crash_to_first_post_recovery_commit() {
        let t = timeline();
        t.on_commit(50, 10, 0);
        assert!(t.time_to_first_txn().is_none(), "no crash yet");
        t.on_crash(1_000);
        t.recovery_progress(1_500, 40, 10, 12);
        t.on_recovery_end(2_000);
        assert!(t.time_to_first_txn().is_none(), "no commit yet");
        t.on_commit(2_600, 300, 0);
        t.on_commit(2_900, 300, 0);
        assert_eq!(t.time_to_first_txn(), Some(1_600), "crash → first commit");
        assert_eq!(t.last_recovery_end(), Some(2_000));
        assert!(t.to_csv().starts_with("bucket_start,begins,commits,"));
        assert!(t.snapshot().iter().any(|b| b.scan_records == 40 && b.redo_planned == 12));
    }

    #[test]
    fn a_second_crash_restarts_the_window() {
        let t = timeline();
        t.on_crash(1_000);
        t.on_recovery_end(1_500);
        t.on_commit(1_800, 10, 0);
        assert_eq!(t.time_to_first_txn(), Some(800));
        t.on_crash(5_000);
        assert!(t.time_to_first_txn().is_none(), "window reset by new crash");
        t.on_recovery_end(6_000);
        t.on_commit(6_300, 10, 0);
        assert_eq!(t.time_to_first_txn(), Some(1_300));
    }
}
