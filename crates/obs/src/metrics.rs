//! Named counters, gauges, and fixed-bucket log₂ histograms.
//!
//! The [`Registry`] is a shared handle (`Clone` = same storage) guarded by
//! the [`crate::Obs`] switch: while it is off every mutator is a single
//! relaxed atomic load + branch. Histograms use 65 power-of-two buckets, so a
//! recorded value costs one `leading_zeros` plus a few adds, and
//! percentile queries resolve to the upper bound of the containing bucket
//! (≤ 2× relative error, plenty for latency distributions).

use crate::Switch;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

const BUCKETS: usize = 65;

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Fixed-bucket log₂ histogram of `u64` samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at percentile `p` (0–100): the upper bound of the log₂ bucket
    /// containing the p-th sample, clamped to the observed `[min, max]`
    /// range. Degenerate inputs resolve exactly: an empty histogram is 0,
    /// a single-bucket histogram answers every percentile with a value
    /// inside the observed range, and samples in the saturating top
    /// bucket (`≥ 2^63`) clamp to the observed max instead of `u64::MAX`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Point-in-time summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            mean: self.mean(),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
        }
    }
}

/// Summary statistics of one histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u128,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (log₂-bucket resolution).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

#[derive(Default)]
struct RegInner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// Shared metrics registry. `Clone` yields a handle to the same storage.
#[derive(Clone)]
pub struct Registry {
    on: Switch,
    inner: Arc<Mutex<RegInner>>,
}

impl Registry {
    pub(crate) fn new(on: Switch) -> Self {
        Registry { on, inner: Arc::default() }
    }

    /// Increment counter `name` by 1.
    #[inline]
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `delta`.
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if !self.on.is_on() {
            return;
        }
        *self.inner.lock().unwrap().counters.entry(name).or_insert(0) += delta;
    }

    /// Set gauge `name` to `value`.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        if !self.on.is_on() {
            return;
        }
        self.inner.lock().unwrap().gauges.insert(name, value);
    }

    /// Record `value` into histogram `name`.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if !self.on.is_on() {
            return;
        }
        self.inner.lock().unwrap().histograms.entry(name).or_default().record(value);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().unwrap().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.inner.lock().unwrap().gauges.get(name).copied()
    }

    /// Summary of histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.inner.lock().unwrap().histograms.get(name).map(Histogram::snapshot)
    }

    /// Point-in-time snapshot of everything, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: g.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: g.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: g.histograms.iter().map(|(k, h)| (k.to_string(), h.snapshot())).collect(),
        }
    }
}

/// Exportable snapshot of a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram name → summary, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Minimal JSON string escaping for hand-rolled writers (no serde here):
/// quotes, backslashes, `\n` / `\r` / `\t`, and other control characters
/// as `\u00XX`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// CSV with one row per metric:
    /// `kind,name,value,count,sum,min,max,mean,p50,p95,p99,p999`.
    /// Counters and gauges fill only `value`; histograms fill the rest.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,value,count,sum,min,max,mean,p50,p95,p99,p999\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter,{name},{v},,,,,,,,,");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge,{name},{v},,,,,,,,,");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram,{name},,{},{},{},{},{:.2},{},{},{},{}",
                h.count, h.sum, h.min, h.max, h.mean, h.p50, h.p95, h.p99, h.p999
            );
        }
        out
    }

    /// JSON object `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.2},\"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{}}}",
                json_escape(name), h.count, h.sum, h.min, h.max, h.mean, h.p50, h.p95, h.p99, h.p999
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn percentiles_bound_samples() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000, 1000, 1000, 4000, 4000, 60_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 60_000);
        let p50 = h.percentile(50.0);
        assert!((100..=1023).contains(&p50), "median in the 1000s bucket: {p50}");
        assert!(h.percentile(99.0) >= 4000);
        assert!(h.percentile(100.0) <= 60_000, "clamped to observed max");
        assert_eq!(h.percentile(0.0), 1, "lowest sample's bucket, clamped by rank 1");
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(99.9), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        let snap = h.snapshot();
        assert_eq!((snap.p50, snap.p99, snap.p999), (0, 0, 0));
    }

    #[test]
    fn single_sample_answers_every_percentile_exactly() {
        let mut h = Histogram::default();
        h.record(777);
        for p in [0.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 777, "p{p} of a single sample is that sample");
        }
    }

    #[test]
    fn single_bucket_percentiles_stay_inside_observed_range() {
        // All samples land in the [512, 1023] bucket; the bucket upper
        // bound (1023) exceeds the observed max and the lower bound of
        // the bucket undershoots the observed min — percentiles must
        // clamp to [600, 900].
        let mut h = Histogram::default();
        for v in [600u64, 700, 800, 900] {
            h.record(v);
        }
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            let got = h.percentile(p);
            assert!((600..=900).contains(&got), "p{p}={got} outside observed range");
        }
    }

    #[test]
    fn saturating_top_bucket_clamps_to_observed_max() {
        // Samples ≥ 2^63 fall into the saturating top bucket whose upper
        // bound is u64::MAX; percentiles still report the observed max.
        let mut h = Histogram::default();
        h.record(1u64 << 63);
        h.record((1u64 << 63) + 5);
        assert_eq!(h.percentile(50.0), (1u64 << 63) + 5);
        assert_eq!(h.percentile(99.9), (1u64 << 63) + 5);
        assert_eq!(h.snapshot().p999, (1u64 << 63) + 5);
        h.record(u64::MAX);
        assert_eq!(h.percentile(100.0), u64::MAX);
    }

    #[test]
    fn p999_separates_the_tail() {
        let mut h = Histogram::default();
        for _ in 0..998 {
            h.record(100);
        }
        h.record(1 << 20);
        h.record(1 << 30);
        let s = h.snapshot();
        assert!(s.p50 < 1 << 20, "p50 ({}) stays in the body", s.p50);
        assert!(s.p99 < 1 << 20, "p99 ({}) stays in the body", s.p99);
        assert!(s.p999 >= 1 << 20, "p999 ({}) reaches the outlier bucket", s.p999);
        assert!(s.p999 <= s.max);
    }

    #[test]
    fn registry_gates_on_enabled() {
        let obs = crate::Obs::new();
        let r = obs.metrics.clone();
        r.inc("a");
        r.observe("h", 5);
        assert_eq!(r.counter("a"), 0, "a registry switched off records nothing");
        obs.enable(0);
        r.inc("a");
        r.add("a", 4);
        r.gauge_set("g", -3);
        r.observe("h", 5);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.gauge("g"), Some(-3));
        assert_eq!(r.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn csv_and_json_exports() {
        let obs = crate::Obs::new();
        obs.enable(0);
        let r = obs.metrics;
        r.add("ops", 7);
        r.gauge_set("depth", 2);
        r.observe("lat", 8);
        r.observe("lat", 9);
        let snap = r.snapshot();
        let csv = snap.to_csv();
        assert!(csv.starts_with("kind,name,value,"));
        assert!(csv.contains("counter,ops,7,"));
        assert!(csv.contains("gauge,depth,2,"));
        assert!(csv.contains("histogram,lat,,2,17,8,9,"));
        let json = snap.to_json();
        assert!(json.contains("\"ops\":7"));
        assert!(json.contains("\"depth\":2"));
        assert!(json.contains("\"count\":2"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
