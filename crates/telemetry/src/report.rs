//! Snapshots and exporters: hierarchical text summary, Chrome
//! `trace_event` JSON, and a machine-readable counter report (the
//! Prometheus renderer lives in `prometheus.rs`).

use crate::hist::Histogram;
use crate::json::quote;
use crate::registry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span (or instant) as exported in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, dot-prefixed by subsystem (e.g. `tensor.gemm_nn`).
    pub name: String,
    /// Free-form detail (kernel shape, batch size, …); empty if none.
    pub label: String,
    /// Small per-process thread id (dense, assigned on first record).
    pub tid: u32,
    /// OS thread name at first record (e.g. `insitu-worker-0`).
    pub thread: String,
    /// Start time, nanoseconds since the telemetry epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds; 0 for instants.
    pub dur_ns: u64,
    /// Nesting depth at open (0 = top level on its thread).
    pub depth: u16,
    /// Whether this is a zero-duration point event.
    pub instant: bool,
}

/// Aggregate totals for one `(name, label)` counter key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterTotal {
    /// Counter name (span names double as counter names).
    pub name: String,
    /// Counter label (span label / shape key); empty if none.
    pub label: String,
    /// Number of additions (for spans: completed calls).
    pub calls: u64,
    /// Sum of added values (for spans: total nanoseconds).
    pub total: u64,
    /// Largest single added value.
    pub max: u64,
}

/// The merged histogram for one `(name, label)` key, with its headline
/// percentiles pre-extracted for display and diffing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramTotal {
    /// Histogram name (span names double as histogram names).
    pub name: String,
    /// Histogram label (e.g. precision `"f32"`/`"i8"`); empty if none.
    pub label: String,
    /// The merged cross-thread histogram.
    pub hist: Histogram,
    /// Median sample.
    pub p50: u64,
    /// 90th-percentile sample.
    pub p90: u64,
    /// 99th-percentile sample.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramTotal {
    pub(crate) fn from_hist(name: String, label: String, hist: Histogram) -> Self {
        let (p50, p90, p99, max) =
            (hist.percentile(0.50), hist.percentile(0.90), hist.percentile(0.99), hist.max());
        HistogramTotal { name, label, hist, p50, p90, p99, max }
    }
}

/// A merged view of everything telemetry has recorded so far: raw span
/// events per thread plus exact cross-thread counter aggregates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Spans and instants, ordered by `(tid, ts_ns)`.
    pub spans: Vec<SpanRecord>,
    /// Counter aggregates summed over threads, ordered by `(name, label)`.
    pub counters: Vec<CounterTotal>,
    /// Merged histograms with p50/p90/p99/max, ordered by `(name, label)`.
    pub hists: Vec<HistogramTotal>,
    /// Session-epoch id at capture (see [`crate::advance_epoch`]).
    pub epoch: u64,
    /// Raw events discarded because a thread hit its buffer cap
    /// (counters remain exact regardless).
    pub dropped_events: u64,
}

/// Builds a snapshot from the live registry (see [`crate::snapshot`]).
pub(crate) fn capture() -> TelemetrySnapshot {
    let mut spans = Vec::new();
    let mut counters: BTreeMap<(String, String), CounterTotal> = BTreeMap::new();
    let mut hists: BTreeMap<(String, String), Histogram> = BTreeMap::new();
    let mut dropped = 0u64;
    registry::for_each_buf(|buf| {
        dropped += buf.dropped;
        for ev in &buf.events {
            spans.push(SpanRecord {
                name: ev.name.to_string(),
                label: ev.label.as_deref().unwrap_or("").to_string(),
                tid: buf.tid,
                thread: buf.thread_name.clone(),
                ts_ns: ev.ts_ns,
                dur_ns: ev.dur_ns,
                depth: ev.depth,
                instant: ev.instant,
            });
        }
        for ((name, label), c) in &buf.counters {
            let e = counters
                .entry((name.to_string(), label.to_string()))
                .or_insert_with(|| CounterTotal {
                    name: name.to_string(),
                    label: label.to_string(),
                    calls: 0,
                    total: 0,
                    max: 0,
                });
            e.calls += c.calls;
            e.total += c.total;
            e.max = e.max.max(c.max);
        }
        for ((name, label), h) in &buf.hists {
            hists
                .entry((name.to_string(), label.to_string()))
                .or_default()
                .merge(h);
        }
    });
    spans.sort_by_key(|s| (s.tid, s.ts_ns, std::cmp::Reverse(s.dur_ns)));
    TelemetrySnapshot {
        spans,
        counters: counters.into_values().collect(),
        hists: hists
            .into_iter()
            .map(|((name, label), h)| HistogramTotal::from_hist(name, label, h))
            .collect(),
        epoch: registry::epoch_id(),
        dropped_events: dropped,
    }
}

impl TelemetrySnapshot {
    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Looks up a counter aggregate by exact `(name, label)` key.
    pub fn counter(&self, name: &str, label: &str) -> Option<&CounterTotal> {
        self.counters.iter().find(|c| c.name == name && c.label == label)
    }

    /// Whether any recorded span's name starts with `prefix`.
    pub fn has_span(&self, prefix: &str) -> bool {
        self.spans.iter().any(|s| s.name.starts_with(prefix))
    }

    /// Looks up a merged histogram by exact `(name, label)` key.
    pub fn hist(&self, name: &str, label: &str) -> Option<&HistogramTotal> {
        self.hists.iter().find(|h| h.name == name && h.label == label)
    }

    /// Human-readable hierarchical summary: spans grouped by their
    /// nesting path (aggregated across threads), then counter totals.
    pub fn summary(&self) -> String {
        // Rebuild each thread's nesting from start order + depth: a
        // span's ancestors are exactly the spans currently open at
        // depths 0..depth when it starts.
        let mut agg: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut stack: Vec<&str> = Vec::new();
        let mut cur_tid = u32::MAX;
        for s in &self.spans {
            if s.instant {
                continue;
            }
            if s.tid != cur_tid {
                cur_tid = s.tid;
                stack.clear();
            }
            stack.truncate(s.depth as usize);
            stack.push(&s.name);
            let path = stack.join("/");
            let e = agg.entry(path).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_ns;
        }
        let mut out = String::from("telemetry summary\n  spans (calls, total, mean):\n");
        if agg.is_empty() {
            out.push_str("    (none)\n");
        }
        for (path, &(calls, total_ns)) in &agg {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let indent = "  ".repeat(depth);
            let mean_ns = total_ns / calls.max(1);
            let _ = writeln!(
                out,
                "    {indent}{name:<28} {calls:>7}  {:>12}  {:>10}",
                fmt_ns(total_ns),
                fmt_ns(mean_ns),
            );
        }
        out.push_str("  counters (calls, total, max):\n");
        if self.counters.is_empty() {
            out.push_str("    (none)\n");
        }
        for c in &self.counters {
            let key = if c.label.is_empty() {
                c.name.clone()
            } else {
                format!("{}[{}]", c.name, c.label)
            };
            let _ = writeln!(
                out,
                "    {key:<40} {:>9}  {:>14}  {:>12}",
                c.calls, c.total, c.max
            );
        }
        out.push_str("  histograms (count, p50, p90, p99, max):\n");
        if self.hists.is_empty() {
            out.push_str("    (none)\n");
        }
        for h in &self.hists {
            let key = if h.label.is_empty() {
                h.name.clone()
            } else {
                format!("{}[{}]", h.name, h.label)
            };
            let _ = writeln!(
                out,
                "    {key:<40} {:>9}  {:>10}  {:>10}  {:>10}  {:>10}",
                h.hist.count(),
                fmt_ns(h.p50),
                fmt_ns(h.p90),
                fmt_ns(h.p99),
                fmt_ns(h.max),
            );
        }
        if self.dropped_events > 0 {
            let _ = writeln!(out, "  dropped raw events: {}", self.dropped_events);
        }
        out
    }

    /// Chrome `trace_event` JSON: an object with a `traceEvents` array
    /// of complete (`"ph":"X"`), instant (`"ph":"i"`) and thread-name
    /// metadata (`"ph":"M"`) events. Load the output in
    /// `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps are
    /// microseconds since the telemetry epoch.
    pub fn chrome_trace_json(&self) -> String {
        let mut events: Vec<String> = Vec::with_capacity(self.spans.len() + 8);
        let mut named: BTreeMap<u32, &str> = BTreeMap::new();
        for s in &self.spans {
            named.entry(s.tid).or_insert(&s.thread);
        }
        for (tid, thread) in &named {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                quote(thread)
            ));
        }
        for s in &self.spans {
            let cat = s.name.split('.').next().unwrap_or("insitu");
            let common = format!(
                "\"name\":{},\"cat\":{},\"pid\":1,\"tid\":{},\"ts\":{:.3},\
                 \"args\":{{\"label\":{}}}",
                quote(&s.name),
                quote(cat),
                s.tid,
                s.ts_ns as f64 / 1e3,
                quote(&s.label),
            );
            if s.instant {
                events.push(format!("{{{common},\"ph\":\"i\",\"s\":\"t\"}}"));
            } else {
                events.push(format!(
                    "{{{common},\"ph\":\"X\",\"dur\":{:.3}}}",
                    s.dur_ns as f64 / 1e3
                ));
            }
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}",
            events.join(",\n")
        )
    }

    /// Machine-readable report: dropped-event count, per-name span
    /// totals, and every counter aggregate.
    pub fn to_json(&self) -> String {
        let mut span_totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            if !s.instant {
                let e = span_totals.entry(&s.name).or_insert((0, 0));
                e.0 += 1;
                e.1 += s.dur_ns;
            }
        }
        let spans: Vec<String> = span_totals
            .iter()
            .map(|(name, (calls, total_ns))| {
                format!(
                    "{{\"name\":{},\"calls\":{calls},\"total_ns\":{total_ns}}}",
                    quote(name)
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"label\":{},\"calls\":{},\"total\":{},\"max\":{}}}",
                    quote(&c.name),
                    quote(&c.label),
                    c.calls,
                    c.total,
                    c.max
                )
            })
            .collect();
        let hists: Vec<String> = self
            .hists
            .iter()
            .map(|h| {
                format!(
                    "{{\"name\":{},\"label\":{},\"count\":{},\"sum\":{},\"min\":{},\
                     \"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                    quote(&h.name),
                    quote(&h.label),
                    h.hist.count(),
                    h.hist.sum(),
                    h.hist.min(),
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max
                )
            })
            .collect();
        format!(
            "{{\"epoch\":{},\"dropped_events\":{},\"span_totals\":[{}],\"counters\":[{}],\
             \"hists\":[{}]}}",
            self.epoch,
            self.dropped_events,
            spans.join(","),
            counters.join(","),
            hists.join(",")
        )
    }
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            spans: vec![
                SpanRecord {
                    name: "a.outer".into(),
                    label: String::new(),
                    tid: 0,
                    thread: "main".into(),
                    ts_ns: 0,
                    dur_ns: 3_000,
                    depth: 0,
                    instant: false,
                },
                SpanRecord {
                    name: "a.inner".into(),
                    label: "x\"y".into(),
                    tid: 0,
                    thread: "main".into(),
                    ts_ns: 1_000,
                    dur_ns: 1_000,
                    depth: 1,
                    instant: false,
                },
                SpanRecord {
                    name: "a.mark".into(),
                    label: String::new(),
                    tid: 1,
                    thread: "worker".into(),
                    ts_ns: 500,
                    dur_ns: 0,
                    depth: 0,
                    instant: true,
                },
            ],
            counters: vec![CounterTotal {
                name: "a.bytes".into(),
                label: "k".into(),
                calls: 2,
                total: 64,
                max: 48,
            }],
            hists: vec![{
                let mut h = Histogram::new();
                for v in [100u64, 200, 300] {
                    h.record(v);
                }
                HistogramTotal::from_hist("a.lat".into(), String::new(), h)
            }],
            epoch: 3,
            dropped_events: 0,
        }
    }

    #[test]
    fn summary_nests_by_depth() {
        let s = sample().summary();
        assert!(s.contains("a.outer"), "{s}");
        assert!(s.contains("  a.inner"), "inner indented under outer:\n{s}");
        assert!(s.contains("a.bytes[k]"), "{s}");
    }

    #[test]
    fn chrome_trace_parses_and_escapes() {
        let json = sample().chrome_trace_json();
        let v = crate::json::parse(&json).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // 2 thread_name metadata + 2 spans + 1 instant.
        assert_eq!(events.len(), 5);
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(|p| p.as_str())).collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 1);
        // The escaped label round-trips.
        let inner = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("a.inner"))
            .unwrap();
        let label = inner.get("args").and_then(|a| a.get("label")).and_then(|l| l.as_str());
        assert_eq!(label, Some("x\"y"));
    }

    #[test]
    fn report_json_parses() {
        let mut snap = sample();
        // Labels with quotes, backslashes, newlines and control
        // characters must survive the round trip.
        let hostile = "bs=\"8\"\\\n\t\u{1}";
        snap.counters.push(CounterTotal {
            name: "cloud.cache.hit".into(),
            label: hostile.into(),
            calls: 3,
            total: 123,
            max: 100,
        });
        let v = crate::json::parse(&snap.to_json()).unwrap();
        let counters = v.get("counters").and_then(|c| c.as_array()).unwrap();
        assert_eq!(counters.len(), 2);
        let hit = counters
            .iter()
            .find(|c| c.get("label").and_then(|l| l.as_str()) == Some(hostile))
            .expect("the hostile label round-trips");
        assert_eq!(hit.get("name").and_then(|n| n.as_str()), Some("cloud.cache.hit"));
        assert_eq!(hit.get("total").and_then(|t| t.as_f64()), Some(123.0));
        assert_eq!(
            v.get("span_totals").and_then(|c| c.as_array()).map(Vec::len),
            Some(2)
        );
        assert_eq!(v.get("epoch").and_then(|e| e.as_f64()), Some(3.0));
        let hists = v.get("hists").and_then(|h| h.as_array()).unwrap();
        assert_eq!(hists.len(), 1);
        let h = &hists[0];
        assert_eq!(h.get("name").and_then(|n| n.as_str()), Some("a.lat"));
        assert_eq!(h.get("count").and_then(|c| c.as_f64()), Some(3.0));
        assert!(h.get("p50").and_then(|p| p.as_f64()).unwrap() >= 100.0);
        assert!(h.get("p99").is_some() && h.get("max").is_some());
    }

    #[test]
    fn summary_lists_histograms() {
        let s = sample().summary();
        assert!(s.contains("histograms"), "{s}");
        assert!(s.contains("a.lat"), "{s}");
    }

    #[test]
    fn hist_lookup() {
        let snap = sample();
        let h = snap.hist("a.lat", "").expect("histogram present");
        assert_eq!(h.hist.count(), 3);
        assert_eq!(h.max, 300);
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max);
        assert!(snap.hist("a.lat", "zz").is_none());
    }

    #[test]
    fn helpers() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.50 us");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00 s");
        let snap = sample();
        assert!(snap.has_span("a.out"));
        assert!(!snap.has_span("zz"));
        assert!(!snap.is_empty());
        assert!(TelemetrySnapshot::default().is_empty());
    }
}
