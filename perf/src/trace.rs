//! In-memory harness spans around each call the benchmark makes into a
//! layer, written out as Chrome-trace JSON when the run ends.
//!
//! The tracer lives in the benchmark, not in the engine: it brackets the
//! public calls (`run_tp1`, `checkpoint`, `crash`, `recover`, …) so a
//! layer's *self time* is its span minus the spans it caused. When the
//! tracer is off every call is a branch and nothing is recorded, which is
//! how the end-to-end pass runs.

use smdb_bench::json_escape;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Crash round (or batch) the span belongs to: spans of one round
    /// share it.
    pub round: u32,
}

/// Handle returned by [`Tracer::begin`]; `None` while the tracer is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pub round: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), stack: Vec::new(), round: 0 }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span caused by the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Close a span; spans close innermost first.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Attach child spans of known durations to a *closed* span. The
    /// engine reports recovery-phase durations but not their start times,
    /// so the children are laid back to back ending where the parent ends
    /// (the analysis scan, which has no phase of its own, runs first).
    pub fn add_children(&mut self, parent: SpanId, children: &[(&'static str, u64)]) {
        let Some(p) = parent.0 else { return };
        let total: u64 = children.iter().map(|c| c.1).sum();
        let (p_start, p_end, round) =
            (self.spans[p].start_ns, self.spans[p].end_ns, self.spans[p].round);
        let mut at = p_end.saturating_sub(total).max(p_start);
        for &(name, dur) in children {
            let end = (at + dur).min(p_end);
            self.spans.push(Span { name, start_ns: at, end_ns: end, parent: Some(p), round });
            at = end;
        }
    }

    /// Durations (ns) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Mean duration (ns) of the spans called `name`; 0 when none ran.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Self times (ns) of the spans called `name`: duration minus the part
    /// covered by their direct children.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(covered[i]) as f64)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): complete events,
    /// one track per nesting depth, with parent and round as arguments.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut depth = vec![0u32; self.spans.len()];
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            depth[i] = s.parent.map_or(0, |p| depth[p] + 1);
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"round\":{}}}}}",
                json_escape(s.name),
                json_escape(workload),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                depth[i],
                s.round,
            )
            .expect("write to string");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("a");
        t.end(a);
        t.add_children(a, &[("x", 5)]);
        assert_eq!(t.len(), 0);
        assert_eq!(t.mean_ns("a"), 0.0);
    }

    #[test]
    fn parents_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("recover");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        // Fix the clock readings so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 1000;
        t.spans[1].start_ns = 100;
        t.spans[1].end_ns = 300;
        t.add_children(SpanId(Some(0)), &[("redo", 400), ("undo", 100)]);
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (500, 900));
        assert_eq!((t.spans[3].start_ns, t.spans[3].end_ns), (900, 1000));
        assert_eq!(t.self_times("recover"), vec![300.0]);
        assert_eq!(t.durations("redo"), vec![400.0]);
    }

    #[test]
    fn chrome_json_shape() {
        let mut t = Tracer::new(true);
        t.round = 3;
        let a = t.begin("crash");
        t.end(a);
        let j = t.chrome_json("crash_eager");
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"name\":\"crash\""));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"parent\":-1,\"round\":3"));
        assert!(j.trim_end().ends_with("]}"));
    }
}
