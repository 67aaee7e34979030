//! RAII spans, per-thread event buffers, and the global flush path.
//!
//! Each thread that records events owns one ring buffer, registered in
//! a global list on the thread's first event, plus its streaming
//! per-stage statistics ([`stream_stages`]). The hot path locks only
//! the thread's *own* buffer — uncontended except during a concurrent
//! flush or streaming read — so threads never serialize against each
//! other while tracing. Buffers are rings: when a thread outruns
//! [`RING_CAPACITY`] the oldest events are dropped (and counted), so
//! tracing can stay on across arbitrarily long runs with bounded
//! memory.

use crate::ledger::StageRecord;
use crate::{OpenSpans, StageAcc};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread ring capacity, in events. Large enough that flush-bounded
/// workloads (a pipeline run, one figure harness) never wrap.
pub const RING_CAPACITY: usize = 1 << 16;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A span opened (`value` is 0).
    Begin,
    /// A span closed (`value` is its duration in ns).
    End,
    /// A monotonic counter increment (`value` is the increment).
    Counter,
    /// A standalone duration sample (`value` in ns), e.g. one
    /// `measure_median` iteration.
    Sample,
}

/// One trace record. `name` is `'static` so the hot path never copies
/// or hashes strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub name: &'static str,
    pub phase: Phase,
    /// Nanoseconds since the process-wide trace epoch.
    pub ts_ns: u64,
    /// Stable id of the recording thread.
    pub tid: u64,
    /// Phase-dependent payload (see [`Phase`]).
    pub value: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (first use wins) —
/// the clock span events and `telemetry::RequestRecord::start_ns` are
/// stamped with, so request producers outside this crate timestamp
/// consistently with the trace stream.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Default)]
struct Ring {
    events: VecDeque<Event>,
    /// Events discarded because the ring was full.
    dropped: u64,
    /// This thread's streaming statistics per stage: never drained,
    /// bounded by the distinct `'static` stage names.
    stages: BTreeMap<&'static str, StageAcc>,
    /// Spans open on this thread, for the streaming self-time.
    open: OpenSpans,
}

struct ThreadBuf {
    tid: u64,
    ring: Mutex<Ring>,
}

impl ThreadBuf {
    fn push(&self, e: Event) {
        let mut ring = self.ring.lock().unwrap();
        match e.phase {
            Phase::Begin => ring.open.begin(e.name),
            Phase::End => {
                let self_ns = ring.open.end(e.name, e.value).unwrap_or(e.value);
                ring.stages.entry(e.name).or_default().observe(e.value, self_ns);
            }
            Phase::Sample => ring.stages.entry(e.name).or_default().observe(e.value, e.value),
            Phase::Counter => {}
        }
        if ring.events.len() == RING_CAPACITY {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(e);
    }
}

static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());

/// Every thread buffer ever registered (exited threads included).
fn threads() -> Vec<Arc<ThreadBuf>> {
    REGISTRY.lock().unwrap().clone()
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
}

/// Appends one event to the calling thread's ring and, for span ends
/// and samples, to its streaming stage statistics.
pub(crate) fn record(name: &'static str, phase: Phase, ts_ns: u64, value: u64) {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buf = local.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                ring: Mutex::new(Ring::default()),
            });
            REGISTRY.lock().unwrap().push(Arc::clone(&buf));
            buf
        });
        buf.push(Event { name, phase, ts_ns, tid: buf.tid, value });
    });
}

/// The live per-stage records of every span and sample recorded since
/// start, every thread's statistics merged per
/// stage. Exact: each merged sketch equals one fed the concatenated
/// durations.
pub fn stream_stages() -> BTreeMap<String, StageRecord> {
    let mut merged: BTreeMap<&'static str, StageAcc> = BTreeMap::new();
    for buf in threads() {
        for (&name, acc) in &buf.ring.lock().unwrap().stages {
            merged.entry(name).or_default().merge(acc);
        }
    }
    merged.into_iter().map(|(name, acc)| (name.to_string(), acc.record())).collect()
}

/// Total heap footprint of the per-thread streaming sketches, for
/// bounded-memory assertions.
pub fn stream_footprint_bytes() -> usize {
    let sketch_bytes = |buf: &Arc<ThreadBuf>| -> usize {
        buf.ring.lock().unwrap().stages.values().map(|a| a.sketch.footprint_bytes()).sum()
    };
    threads().iter().map(sketch_bytes).sum()
}

/// An open span; records its `End` event (with duration) on drop.
/// Obtained from [`span`]; inert when tracing is disabled.
#[must_use = "a span measures the scope it is bound to; bind it to a `_guard` variable"]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    active: bool,
}

/// Opens a hierarchical span. Nesting is positional: spans opened while
/// this one is live (on the same thread) are its children. When tracing
/// is disabled this is one relaxed atomic load and returns an inert
/// guard (no allocation, nothing recorded on drop).
#[inline]
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span { name, start_ns: 0, active: false };
    }
    let start_ns = now_ns();
    record(name, Phase::Begin, start_ns, 0);
    Span { name, start_ns, active: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            let end = now_ns();
            record(self.name, Phase::End, end, end - self.start_ns);
        }
    }
}

/// Adds `value` to the named monotonic counter. One relaxed load when
/// tracing is disabled.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    if crate::enabled() {
        record(name, Phase::Counter, now_ns(), value);
    }
}

/// Records one standalone sample under `name` — the histogram feed for
/// repeated measurements like `measure_median` iterations. Durations are
/// in nanoseconds; a dimensionless stage keeps its own unit (the
/// `drift.regret` stage records measured/predicted permille). One
/// relaxed load when tracing is disabled.
#[inline]
pub fn observe_ns(name: &'static str, value: u64) {
    if crate::enabled() {
        record(name, Phase::Sample, now_ns(), value);
    }
}

/// Drains every thread's buffer and returns the merged event stream,
/// sorted by timestamp (ties keep per-thread recording order). Spans
/// still open when this is called are *not* included — flush after the
/// work being traced has completed.
pub fn take_events() -> Vec<Event> {
    let mut all = Vec::new();
    for buf in threads() {
        let mut ring = buf.ring.lock().unwrap();
        all.extend(ring.events.drain(..));
    }
    // Stable: per-thread order (begin-before-end for zero-length spans)
    // survives the merge.
    all.sort_by_key(|e| e.ts_ns);
    all
}

/// Total events dropped to ring overflow since the last drain, across
/// all threads.
pub fn dropped_events() -> u64 {
    let mut total = 0;
    for buf in threads() {
        let mut ring = buf.ring.lock().unwrap();
        total += ring.dropped;
        ring.dropped = 0;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    // The span tests that flip the global enable flag live in the
    // `tests/` integration binaries (one process each) so they cannot
    // race the rest of the unit-test suite over shared trace state.

    #[test]
    fn disabled_span_is_inert() {
        crate::set_enabled(false);
        let _ = take_events(); // drain anything earlier tests left behind
        {
            let _s = span("unit.disabled");
            counter("unit.disabled.count", 5);
            observe_ns("unit.disabled.sample", 10);
        }
        assert!(take_events().iter().all(|e| !e.name.starts_with("unit.disabled")));
    }
}
