//! Spans recorded by the benchmark around each public call of the loop.
//!
//! Spans live in memory and are written once, at the end of a run, as
//! a Chrome trace (`chrome://tracing`, Perfetto). The same spans give
//! the per-layer self-time table and the per-frame reconciliation gate:
//! the child calls of a frame must account for the frame's root span up
//! to the benchmark's own bookkeeping between the calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `node.process_stage`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Frame the span belongs to (spans of one frame share it).
    pub frame: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`. Capacity is
    /// reserved up front so recording never reallocates mid-frame.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        frame: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            frame,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a root span whose end is set later by [`Tracer::close`],
    /// so its children can name it as their parent.
    pub fn open(&mut self, name: &'static str, start: Instant, frame: u64) -> usize {
        self.record(name, start, start, None, frame)
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&mut self, index: usize, end: Instant) {
        self.spans[index].end_ns = self.offset(end);
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome-trace JSON document; `metadata` (the run's
    /// provenance) is embedded as string pairs.
    pub fn chrome_json(&self, metadata: &[(&str, String)]) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + 1024);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"metadata\": {");
        for (i, (k, v)) in metadata.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
        }
        out.push_str("}, \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"cat\": \"{layer}\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \
                 \"parent\": {parent}, \"frame\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.frame
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Time one span name accounts for across the run.
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: usize,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the time their direct children cover, ns.
    pub self_ns: u64,
}

/// For each span, the summed durations of its direct children, ns.
fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    child_ns
}

/// Per-name totals and self times, sorted by self time, largest first.
pub fn self_times(spans: &[Span]) -> Vec<LayerRow> {
    let child_ns = child_ns(spans);
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let row = rows.entry(s.name).or_insert_with(|| LayerRow {
            name: s.name,
            ..LayerRow::default()
        });
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    let mut rows: Vec<LayerRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// How well each root span's children account for it.
#[derive(Debug, Clone, Copy)]
pub struct Reconciliation {
    /// Root spans checked.
    pub roots: usize,
    /// Median of `(root − Σ children) / root`, percent.
    pub median_gap_pct: f64,
    /// Largest such gap, percent.
    pub max_gap_pct: f64,
}

/// Reconciles every root span named `root` against its direct children.
pub fn reconcile(spans: &[Span], root: &str) -> Reconciliation {
    let child_ns = child_ns(spans);
    let mut gaps: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root && s.dur_ns() > 0)
        .map(|(i, s)| 100.0 * s.dur_ns().saturating_sub(child_ns[i]) as f64 / s.dur_ns() as f64)
        .collect();
    gaps.sort_by(f64::total_cmp);
    Reconciliation {
        roots: gaps.len(),
        median_gap_pct: gaps.get(gaps.len() / 2).copied().unwrap_or(f64::NAN),
        max_gap_pct: gaps.last().copied().unwrap_or(f64::NAN),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_reconciles() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0);
        let root = tr.open("loop.frame", at(0), 0);
        tr.record("node.process_stage", at(1), at(7), Some(root), 0);
        tr.record("data.recycle", at(7), at(9), Some(root), 0);
        tr.close(root, at(10));
        let rows = self_times(tr.spans());
        let frame = rows.iter().find(|r| r.name == "loop.frame").unwrap();
        assert_eq!(frame.total_ns, 10_000_000);
        assert_eq!(frame.self_ns, 2_000_000);
        let r = reconcile(tr.spans(), "loop.frame");
        assert_eq!(r.roots, 1);
        assert!((r.max_gap_pct - 20.0).abs() < 1e-9);
        let json = tr.chrome_json(&[("seed", "7".to_string())]);
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"seed\": \"7\""));
    }
}
