//! The fault flight recorder: a bounded ring of coarse runtime events
//! dumped as JSON when a session dies.
//!
//! Telemetry spans answer "where did the time go"; the flight recorder
//! answers "what was the system *doing* just before it crashed". It is
//! **always on** (no enable flag): events are coarse — one per stage,
//! mode decision, model swap, upload or re-plan, never per image or
//! per kernel — so the cost is one short-lived mutex lock on a
//! bounded ring per stage-scale event.
//!
//! When [`crate::run_ingested_session`] surfaces any error
//! (including [`crate::CoreError::ActorPanicked`] from an injected
//! fault), it calls [`dump`] with the error as the reason. The dump is
//! a self-contained JSON post-mortem: the reason plus the most recent
//! events in order. Dumps are kept in a small in-process store
//! ([`last_dumps`]) for tests and tooling, and additionally written to
//! `$INSITU_FLIGHT_DIR/flight_<n>.json` when that variable is set.

use insitu_telemetry::json::quote;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Ring capacity: enough for several sessions' worth of stage-scale
/// events (~100 stages each) without unbounded growth.
const RING_CAPACITY: usize = 512;

/// Post-mortem dumps retained in-process.
const MAX_DUMPS: usize = 8;

/// One recorded flight event.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Process-wide sequence number (gap-free, monotonic).
    pub seq: u64,
    /// Milliseconds since the recorder first saw an event.
    pub t_ms: u64,
    /// Coarse event kind (`stage`, `mode_decision`, `model_swap`, …).
    pub kind: &'static str,
    /// Human-readable detail line.
    pub detail: String,
}

static RING: OnceLock<Mutex<VecDeque<FlightEvent>>> = OnceLock::new();
static DUMPS: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);
static START: OnceLock<Instant> = OnceLock::new();
static NEXT_DUMP_ID: AtomicU64 = AtomicU64::new(0);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn ring() -> &'static Mutex<VecDeque<FlightEvent>> {
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(RING_CAPACITY)))
}

fn dumps() -> &'static Mutex<Vec<String>> {
    DUMPS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Records one coarse event. Call this at stage granularity (a stage
/// processed, a plan picked, a model swapped), never per image.
pub fn record(kind: &'static str, detail: impl Into<String>) {
    let t_ms =
        u64::try_from(START.get_or_init(Instant::now).elapsed().as_millis()).unwrap_or(u64::MAX);
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut ring = lock(ring());
    if ring.len() >= RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(FlightEvent { seq, t_ms, kind, detail: detail.into() });
}

/// Number of events currently buffered.
pub fn len() -> usize {
    lock(ring()).len()
}

/// Builds a post-mortem JSON dump (`{"reason":…,"events":[…]}`),
/// stores it in the in-process dump list (oldest evicted past a small
/// cap), optionally writes it to `$INSITU_FLIGHT_DIR`, and returns it.
/// The ring is left intact — a later fault still sees the history.
pub fn dump(reason: &str) -> String {
    let events: Vec<FlightEvent> = lock(ring()).iter().cloned().collect();
    let mut out = String::with_capacity(events.len() * 64 + 64);
    out.push('{');
    let _ = write!(out, "\"reason\":{},\"events\":[", quote(reason));
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seq\":{},\"t_ms\":{},\"kind\":{},\"detail\":{}}}",
            e.seq,
            e.t_ms,
            quote(e.kind),
            quote(&e.detail)
        );
    }
    out.push_str("]}");
    {
        let mut dumps = lock(dumps());
        if dumps.len() >= MAX_DUMPS {
            dumps.remove(0);
        }
        dumps.push(out.clone());
    }
    if let Ok(dir) = std::env::var("INSITU_FLIGHT_DIR") {
        if !dir.is_empty() {
            let id = NEXT_DUMP_ID.fetch_add(1, Ordering::Relaxed);
            let path = std::path::Path::new(&dir).join(format!("flight_{id}.json"));
            // Post-mortem best effort: a failed write must not mask the
            // error that triggered the dump.
            let _ = std::fs::write(path, &out);
        }
    }
    out
}

/// The retained post-mortem dumps, oldest first. Concurrent sessions
/// share the store, so scan for the dump whose `reason` matches rather
/// than assuming the last entry is yours.
pub fn last_dumps() -> Vec<String> {
    lock(dumps()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_dump_roundtrip() {
        record("test_event", "stage 1: 8 images");
        record("test_event", "detail with \"quotes\" and\nnewline");
        let dump = dump("unit-test reason");
        let v = insitu_telemetry::json::parse(&dump).expect("dump must be valid JSON");
        assert_eq!(
            v.get("reason").and_then(|r| r.as_str()),
            Some("unit-test reason")
        );
        let events = v.get("events").and_then(|e| e.as_array()).unwrap();
        assert!(events.len() >= 2);
        assert!(events.iter().any(|e| {
            e.get("detail").and_then(|d| d.as_str()) == Some("detail with \"quotes\" and\nnewline")
        }));
        // The dump is retained for later inspection.
        assert!(last_dumps().iter().any(|d| d.contains("unit-test reason")));
    }

    #[test]
    fn ring_is_bounded() {
        for i in 0..(RING_CAPACITY + 50) {
            record("flood", format!("event {i}"));
        }
        assert!(len() <= RING_CAPACITY);
    }
}
