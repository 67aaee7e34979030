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
use crate::telemetry::QuantileSketch;
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

/// Every thread's streaming statistics merged per stage. Exact: each
/// merged sketch equals one fed the concatenated durations.
fn stream_merged() -> BTreeMap<&'static str, StageAcc> {
    let mut merged: BTreeMap<&'static str, StageAcc> = BTreeMap::new();
    for buf in threads() {
        for (&name, acc) in &buf.ring.lock().unwrap().stages {
            merged.entry(name).or_default().merge(acc);
        }
    }
    merged
}

/// The live per-stage records of every span and sample recorded since
/// start (or [`stream_reset`]), across all threads.
pub fn stream_stages() -> BTreeMap<String, StageRecord> {
    stream_merged().into_iter().map(|(name, acc)| (name.to_string(), acc.record())).collect()
}

/// The live per-stage sketches, merged across threads.
pub fn stream_sketches() -> BTreeMap<&'static str, QuantileSketch> {
    stream_merged().into_iter().map(|(name, acc)| (name, acc.sketch)).collect()
}

/// Clears every thread's streaming statistics (tests).
pub fn stream_reset() {
    for buf in threads() {
        buf.ring.lock().unwrap().stages.clear();
    }
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

/// Records one standalone duration sample (nanoseconds) under `name` —
/// the histogram feed for repeated measurements like `measure_median`
/// iterations. One relaxed load when tracing is disabled.
#[inline]
pub fn observe_ns(name: &'static str, ns: u64) {
    if crate::enabled() {
        record(name, Phase::Sample, now_ns(), ns);
    }
}

/// Records one standalone histogram sample under `name` for
/// dimensionless values (ratios, sizes) — identical recording path to
/// [`observe_ns`]; the unit is the caller's convention (e.g. the
/// `drift.regret` stage records measured/predicted permille). One
/// relaxed load when tracing is disabled.
#[inline]
pub fn observe(name: &'static str, value: u64) {
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

/// One node of the reconstructed span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub duration_ns: u64,
    pub children: Vec<SpanNode>,
}

/// Rebuilds the parent/child span forest from a flushed event stream.
/// Parentage is per-thread and positional: a span's parent is the span
/// that was open on the same thread when it began. Returns the roots
/// (cross-thread, start-time order).
///
/// # Panics
///
/// Panics if the stream's Begin/End events are not properly nested per
/// thread (which [`take_events`] guarantees for streams with no dropped
/// events and no still-open spans).
pub fn build_forest(events: &[Event]) -> Vec<SpanNode> {
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stacks: std::collections::HashMap<u64, Vec<SpanNode>> =
        std::collections::HashMap::new();
    for e in events {
        match e.phase {
            Phase::Begin => stacks.entry(e.tid).or_default().push(SpanNode {
                name: e.name,
                tid: e.tid,
                start_ns: e.ts_ns,
                duration_ns: 0,
                children: Vec::new(),
            }),
            Phase::End => {
                let stack = stacks.entry(e.tid).or_default();
                let mut node = stack.pop().unwrap_or_else(|| {
                    panic!("End without Begin for span '{}' on tid {}", e.name, e.tid)
                });
                assert_eq!(node.name, e.name, "interleaved spans on tid {}", e.tid);
                node.duration_ns = e.value;
                match stack.last_mut() {
                    Some(parent) => parent.children.push(node),
                    None => roots.push(node),
                }
            }
            Phase::Counter | Phase::Sample => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "{} unclosed span(s) on tid {}", stack.len(), tid);
    }
    roots.sort_by_key(|n| n.start_ns);
    roots
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

    #[test]
    fn forest_rejects_unbalanced_streams() {
        let begin = Event { name: "a", phase: Phase::Begin, ts_ns: 0, tid: 1, value: 0 };
        let result = std::panic::catch_unwind(|| build_forest(&[begin]));
        assert!(result.is_err(), "open span must panic");
    }

    #[test]
    fn forest_nests_by_position() {
        let ev = |name, phase, ts_ns, value| Event { name, phase, ts_ns, tid: 7, value };
        let events = [
            ev("outer", Phase::Begin, 0, 0),
            ev("inner", Phase::Begin, 10, 0),
            ev("inner", Phase::End, 20, 10),
            ev("outer", Phase::End, 30, 30),
            ev("second", Phase::Begin, 40, 0),
            ev("second", Phase::End, 50, 10),
        ];
        let forest = build_forest(&events);
        assert_eq!(forest.len(), 2);
        assert_eq!(forest[0].name, "outer");
        assert_eq!(forest[0].children.len(), 1);
        assert_eq!(forest[0].children[0].name, "inner");
        assert_eq!(forest[1].name, "second");
        assert!(forest[1].children.is_empty());
    }
}
