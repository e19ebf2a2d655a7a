//! # insitu-telemetry
//!
//! Structured tracing and per-kernel counters for the In-situ AI
//! reproduction: the measurement substrate behind the paper's
//! time/resource characterizations (its Eqs. 1–14 and Figs. 5/6/25)
//! applied to the *reproduction itself* — where does a streaming
//! session spend its time, how busy is the kernel worker pool, when
//! does the node hot-swap a model.
//!
//! ## Model
//!
//! * **Spans** — RAII guards ([`span`], [`span_with`]) that record a
//!   named, optionally labelled interval on the current thread, with
//!   nesting depth. Dropping the guard closes the span.
//! * **Instants** — zero-duration point events ([`instant`],
//!   [`instant_with`]) such as a model hot-swap.
//! * **Counters** — named accumulators ([`counter_add`]) tracking
//!   `calls`, `total` and `max` of the added values. Every span close
//!   also feeds the counter keyed by its `(name, label)`, so aggregate
//!   call counts and total nanoseconds stay exact even if the raw
//!   event buffer saturates.
//!
//! Events land in per-thread buffers owned by a process-wide registry;
//! recording locks only the recording thread's own (uncontended) mutex.
//! [`snapshot`] merges every thread's data into a [`TelemetrySnapshot`],
//! which renders as a hierarchical text [`TelemetrySnapshot::summary`],
//! as Chrome `trace_event` JSON
//! ([`TelemetrySnapshot::chrome_trace_json`], loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)), and is
//! the one metrics export: a machine-readable JSON report
//! ([`TelemetrySnapshot::to_json`]) or Prometheus text
//! ([`TelemetrySnapshot::to_prometheus`], checked by
//! [`validate_prometheus`]).
//!
//! ## Cost
//!
//! Telemetry is **off by default**. While disabled, every entry point
//! reduces to one relaxed atomic load — no allocation, no locking, no
//! clock read — so instrumented hot paths (the GEMM kernels, the worker
//! pool) run at their uninstrumented speed. Enable it programmatically
//! with [`set_enabled`] or from the environment with [`init_from_env`]
//! (`INSITU_TRACE=1`).
//!
//! ## Example
//!
//! ```
//! use insitu_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! telemetry::reset();
//! {
//!     let _outer = telemetry::span("demo.outer");
//!     let _inner = telemetry::span_with("demo.inner", || "first".to_string());
//!     telemetry::counter_add("demo.bytes", "", 128);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.spans.len(), 2);
//! assert_eq!(snap.counter("demo.bytes", "").unwrap().total, 128);
//! telemetry::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
mod prometheus;
mod registry;
mod report;

pub use hist::Histogram;
pub use prometheus::validate_prometheus;
pub use report::{CounterTotal, HistogramTotal, SpanRecord, TelemetrySnapshot};

use std::time::Instant;

/// Turns recording on or off for the whole process. Disabling does not
/// discard already-recorded data (use [`reset`] for that).
pub fn set_enabled(on: bool) {
    registry::set_enabled(on);
}

/// Whether telemetry is currently recording.
pub fn enabled() -> bool {
    registry::enabled()
}

/// Enables telemetry if the `INSITU_TRACE` environment variable is set
/// to anything other than `0`, `false` or the empty string. Returns the
/// resulting enabled state.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("INSITU_TRACE") {
        let v = v.trim();
        if !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false") {
            set_enabled(true);
        }
    }
    enabled()
}

/// Discards every recorded span, instant, counter and histogram on
/// every thread. The enabled state is unchanged.
pub fn reset() {
    registry::reset();
}

/// Clears all recorded data and bumps the session-epoch id, returning
/// the new id. Runtimes call this when a session starts so back-to-back
/// sessions in one process never merge each other's telemetry;
/// [`TelemetrySnapshot::epoch`] records which window a snapshot saw.
pub fn advance_epoch() -> u64 {
    registry::advance_epoch()
}

/// The current session-epoch id (0 until the first [`advance_epoch`]).
pub fn epoch_id() -> u64 {
    registry::epoch_id()
}

/// Merges every thread's recorded data into one snapshot. The recorded
/// data is left in place (non-destructive), so snapshots can be taken
/// mid-run; call [`reset`] to start a fresh window.
pub fn snapshot() -> TelemetrySnapshot {
    report::capture()
}

/// An open span; dropping it records the interval. Obtain via [`span`]
/// or [`span_with`]. Inert (a `None` payload) while telemetry is
/// disabled.
#[must_use = "a span records its interval when dropped"]
#[derive(Debug)]
pub struct Span(Option<ActiveSpan>);

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    label: Option<Box<str>>,
    start: Instant,
    ts_ns: u64,
    depth: u16,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            registry::set_depth(s.depth);
            let dur_ns = u64::try_from(s.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            registry::record_span_close(s.name, s.label, s.ts_ns, dur_ns, s.depth);
        }
    }
}

/// Opens an unlabelled span named `name`. Returns an inert guard while
/// telemetry is disabled.
pub fn span(name: &'static str) -> Span {
    open_span(name, None)
}

/// Opens a span with a lazily-built label (e.g. a kernel shape). The
/// closure runs only while telemetry is enabled, so formatting costs
/// nothing on the disabled path.
pub fn span_with<F: FnOnce() -> String>(name: &'static str, label: F) -> Span {
    if !registry::enabled() {
        return Span(None);
    }
    open_span(name, Some(label().into_boxed_str()))
}

fn open_span(name: &'static str, label: Option<Box<str>>) -> Span {
    if !registry::enabled() {
        return Span(None);
    }
    let epoch = registry::epoch();
    let start = Instant::now();
    let ts_ns = u64::try_from(start.saturating_duration_since(epoch).as_nanos())
        .unwrap_or(u64::MAX);
    let depth = registry::push_depth();
    Span(Some(ActiveSpan { name, label, start, ts_ns, depth }))
}

/// Records a zero-duration point event (e.g. "model swapped").
pub fn instant(name: &'static str) {
    if registry::enabled() {
        registry::record_instant(name, None);
    }
}

/// Records a labelled point event; the label closure runs only while
/// telemetry is enabled.
pub fn instant_with<F: FnOnce() -> String>(name: &'static str, label: F) {
    if registry::enabled() {
        registry::record_instant(name, Some(label().into_boxed_str()));
    }
}

/// Adds `value` to the counter keyed by `(name, label)`: bumps `calls`,
/// adds to `total`, and raises `max` if `value` exceeds it. Use an
/// empty label for scalar process-wide counters.
pub fn counter_add(name: &'static str, label: &str, value: u64) {
    if registry::enabled() {
        registry::record_counter(name, label, value);
    }
}

/// Records one sample into the log-bucketed histogram keyed by
/// `(name, label)` — latency in nanoseconds, sizes in bytes, any `u64`
/// distribution worth percentiles. Recording is a bucket increment in
/// this thread's own buffer; while telemetry is disabled this is a
/// single relaxed atomic load. Spans also auto-feed the unlabelled
/// histogram for their name on close, so explicit calls are only
/// needed for non-span distributions (per-image latency, byte sizes).
pub fn hist_record(name: &'static str, label: &str, value: u64) {
    if registry::enabled() {
        registry::record_hist(name, label, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that toggle the global enabled flag.
    static GATE: Mutex<()> = Mutex::new(());

    fn with_telemetry(f: impl FnOnce()) {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        f();
        set_enabled(false);
        reset();
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        {
            let _s = span("off.span");
            let _t = span_with("off.labelled", || "x".into());
            counter_add("off.counter", "", 5);
            instant("off.instant");
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty(), "spans recorded while disabled");
        assert!(snap.counters.is_empty(), "counters recorded while disabled");
    }

    #[test]
    fn span_close_feeds_counter() {
        with_telemetry(|| {
            for _ in 0..3 {
                let _s = span_with("t.kernel", || "2x2".into());
            }
            let snap = snapshot();
            let c = snap.counter("t.kernel", "2x2").expect("span counter");
            assert_eq!(c.calls, 3);
            assert_eq!(snap.spans.len(), 3);
        });
    }

    #[test]
    fn counter_tracks_calls_total_max() {
        with_telemetry(|| {
            counter_add("t.bytes", "gemm", 10);
            counter_add("t.bytes", "gemm", 30);
            counter_add("t.bytes", "gemm", 20);
            let snap = snapshot();
            let c = snap.counter("t.bytes", "gemm").unwrap();
            assert_eq!((c.calls, c.total, c.max), (3, 60, 30));
        });
    }

    #[test]
    fn hist_record_and_span_autofeed() {
        with_telemetry(|| {
            hist_record("t.lat", "f32", 100);
            hist_record("t.lat", "f32", 900);
            {
                let _s = span("t.spanned");
            }
            let snap = snapshot();
            let h = snap.hist("t.lat", "f32").expect("explicit histogram");
            assert_eq!(h.hist.count(), 2);
            assert_eq!(h.max, 900);
            // Span close auto-feeds the unlabelled histogram for its name.
            let auto = snap.hist("t.spanned", "").expect("span-fed histogram");
            assert_eq!(auto.hist.count(), 1);
        });
    }

    #[test]
    fn epoch_advances_and_clears() {
        with_telemetry(|| {
            counter_add("t.epoch", "", 1);
            hist_record("t.epoch.h", "", 1);
            let before = epoch_id();
            let id = advance_epoch();
            assert_eq!(id, before + 1);
            assert_eq!(epoch_id(), id);
            let snap = snapshot();
            assert_eq!(snap.epoch, id);
            assert!(snap.counter("t.epoch", "").is_none(), "counter survived epoch");
            assert!(snap.hist("t.epoch.h", "").is_none(), "hist survived epoch");
        });
    }

    #[test]
    fn env_init_respects_falsy_values() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        // No variable set in the test environment: stays disabled.
        std::env::remove_var("INSITU_TRACE");
        set_enabled(false);
        assert!(!init_from_env());
    }
}
