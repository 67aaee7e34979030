//! `wise-trace` — zero-dependency observability for the WISE pipeline.
//!
//! Every performance claim WISE makes is an *end-to-end* claim: feature
//! extraction, format conversion and the SpMV win must be accounted for
//! together (paper §4.4, Figs. 10–13). This crate gives the whole
//! workspace one shared way to do that accounting, from wall time alone
//! (no hardware counters):
//!
//! * [`span`] — hierarchical RAII spans recorded into per-thread
//!   buffers (no shared lock on the hot path; buffers merge at flush);
//! * [`counter`] / [`observe_ns`] — monotonic counters and duration
//!   samples, aggregated into exact per-stage percentiles ([`Summary`])
//!   and a mergeable quantile sketch ([`QuantileSketch`]);
//! * [`export`] — a human-readable run report, Chrome trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`), and a machine-
//!   readable `perf_summary.json` (stage → `{p50, p95, count}`) so
//!   benchmark trajectories can be diffed across PRs;
//! * [`ledger`] — the versioned `BENCH_<seq>.json` benchmark ledger
//!   (host fingerprint, per-stage wall times, throughput, model
//!   quality) and the noise-aware regression gate that compares runs
//!   (driven by the `bench_regress` bin in `wise-bench`).
//!
//! # Cost when disabled
//!
//! Tracing is off unless `WISE_TRACE` is set (to anything but `0` or
//! the empty string) or the process calls [`set_enabled`]`(true)`. When
//! off, [`span`], [`counter`] and [`observe_ns`] each cost exactly one
//! relaxed atomic load and perform **no allocation** — cheap enough to
//! leave in SpMV inner loops and the fused feature-extraction sweep.
//!
//! # Quick use
//!
//! ```
//! wise_trace::set_enabled(true);
//! {
//!     let _outer = wise_trace::span("demo.outer");
//!     let _inner = wise_trace::span("demo.inner");
//!     wise_trace::counter("demo.nnz", 1234);
//! }
//! let events = wise_trace::take_events();
//! assert!(events.len() >= 5); // 2 begins + 2 ends + 1 counter
//! let summary = wise_trace::Summary::from_events(&events);
//! assert_eq!(summary.counters["demo.nnz"], 1234);
//! wise_trace::set_enabled(false);
//! ```
//!
//! # Span taxonomy
//!
//! Names are dotted `area.step` strings; the conventional areas used
//! across the workspace are `matrix.*`, `gen.*`, `features.*`,
//! `kernel.*`, `estimate.*`, `label.*`, `train.*`, `select.*` and
//! `pipeline.*` (see DESIGN.md §10 for the full table).

#![forbid(unsafe_code)]

pub mod env_knob;
pub mod export;
pub mod ledger;
pub mod span;
pub mod telemetry;

pub use export::{
    balanced_events, chrome_trace_json, perf_summary_json, perf_summary_json_with, run_report,
    write_trace_files,
};
pub use ledger::{BenchRecord, GatePolicy, GateReport, HostFingerprint, ModelMetrics};
pub use span::{
    build_forest, counter, dropped_events, observe, observe_ns, span, take_events, Event, Phase,
    Span, SpanNode,
};
pub use summary::{StageStats, Summary};
pub use telemetry::{DriftLevel, QuantileSketch, RequestRecord};

use std::sync::atomic::{AtomicU8, Ordering};

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// Whether tracing is currently on. One relaxed atomic load on every
/// call after the first (the first call reads `WISE_TRACE` from the
/// environment).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("WISE_TRACE").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

/// Overrides the `WISE_TRACE` environment gate (used by `--trace-out`
/// flags and tests).
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

mod summary {
    use crate::span::{Event, Phase};
    use crate::telemetry::QuantileSketch;
    use std::collections::{BTreeMap, HashMap};

    /// Aggregated statistics of one span/sample stage.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StageStats {
        /// Completed spans / recorded samples.
        pub count: u64,
        /// Sum of all durations, nanoseconds.
        pub total_ns: u64,
        /// Sum of durations *minus* time spent in child spans on the
        /// same thread — the stage's own work, so nested stages (e.g.
        /// `kernel.spmv.simd` inside `kernel.spmv`) are not
        /// double-counted. Samples contribute their full value.
        pub self_total_ns: u64,
        pub min_ns: u64,
        pub p50_ns: u64,
        pub p95_ns: u64,
        pub p99_ns: u64,
        pub max_ns: u64,
        /// Most frequent enclosing span, if this stage ever nested
        /// (drives the indented run-report tree).
        pub parent: Option<String>,
        /// Mergeable quantile sketch over the same durations
        /// (α = [`crate::telemetry::DEFAULT_ALPHA`]): lets runs be
        /// combined after the fact with bounded error, unlike the exact
        /// percentiles above which only describe this stream. The run
        /// report draws its spread column from it.
        pub sketch: QuantileSketch,
    }

    /// Everything the exporters need, aggregated from a flushed event
    /// stream: per-stage duration statistics (from span ends and
    /// duration samples) and summed counters.
    #[derive(Debug, Clone, Default)]
    pub struct Summary {
        /// Stage name → duration statistics, name-sorted.
        pub stages: BTreeMap<String, StageStats>,
        /// Counter name → summed value, name-sorted.
        pub counters: BTreeMap<String, u64>,
    }

    #[derive(Default)]
    struct Acc {
        ds: Vec<u64>,
        self_ns: u64,
        /// Enclosing-span name ("" = root) → occurrences.
        parents: BTreeMap<&'static str, u64>,
    }

    impl Summary {
        /// Aggregates a flushed event stream ([`crate::take_events`]).
        ///
        /// Self-time uses the same positional nesting rule as
        /// [`crate::build_forest`], but tolerates unbalanced streams
        /// (dropped or truncated events): an `End` that does not match
        /// the top of its thread's stack is attributed as a root span
        /// with full self-time, never a panic.
        pub fn from_events(events: &[Event]) -> Summary {
            let mut accs: BTreeMap<&'static str, Acc> = BTreeMap::new();
            let mut counters: BTreeMap<String, u64> = BTreeMap::new();
            // Per-thread stack of (open span, ns consumed by its
            // already-closed children).
            let mut stacks: HashMap<u64, Vec<(&'static str, u64)>> = HashMap::new();
            for e in events {
                match e.phase {
                    Phase::Begin => stacks.entry(e.tid).or_default().push((e.name, 0)),
                    Phase::End => {
                        let stack = stacks.entry(e.tid).or_default();
                        let matched = stack.last().map(|t| t.0) == Some(e.name);
                        let (self_ns, parent) = if matched {
                            let (_, child_ns) = stack.pop().unwrap();
                            if let Some(top) = stack.last_mut() {
                                top.1 += e.value;
                            }
                            (e.value.saturating_sub(child_ns), stack.last().map(|t| t.0))
                        } else {
                            (e.value, None)
                        };
                        let acc = accs.entry(e.name).or_default();
                        acc.ds.push(e.value);
                        acc.self_ns += self_ns;
                        *acc.parents.entry(parent.unwrap_or("")).or_insert(0) += 1;
                    }
                    Phase::Sample => {
                        let acc = accs.entry(e.name).or_default();
                        acc.ds.push(e.value);
                        acc.self_ns += e.value;
                        *acc.parents.entry("").or_insert(0) += 1;
                    }
                    Phase::Counter => *counters.entry(e.name.to_string()).or_insert(0) += e.value,
                }
            }
            let stages = accs
                .into_iter()
                .filter(|(_, acc)| !acc.ds.is_empty())
                .map(|(name, acc)| {
                    let mut ds = acc.ds;
                    ds.sort_unstable();
                    let pct = |p: f64| ds[((ds.len() - 1) as f64 * p).round() as usize];
                    let mut sketch = QuantileSketch::default();
                    for &d in &ds {
                        sketch.observe(d);
                    }
                    // Dominant parent; ties break toward "" (root,
                    // which sorts first) then lexicographically.
                    let parent = acc
                        .parents
                        .iter()
                        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                        .map(|(&p, _)| p)
                        .filter(|p| !p.is_empty())
                        .map(str::to_string);
                    let stats = StageStats {
                        count: ds.len() as u64,
                        total_ns: ds.iter().sum(),
                        self_total_ns: acc.self_ns,
                        min_ns: ds[0],
                        p50_ns: pct(0.50),
                        p95_ns: pct(0.95),
                        p99_ns: pct(0.99),
                        max_ns: ds[ds.len() - 1],
                        parent,
                        sketch,
                    };
                    (name.to_string(), stats)
                })
                .collect();
            Summary { stages, counters }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles_are_exact() {
        let mk = |value| Event { name: "s", phase: Phase::Sample, ts_ns: 0, tid: 0, value };
        let events: Vec<Event> = (1..=100).map(mk).collect();
        let s = Summary::from_events(&events);
        let st = &s.stages["s"];
        assert_eq!(st.count, 100);
        assert_eq!(st.min_ns, 1);
        assert_eq!(st.max_ns, 100);
        assert_eq!(st.p50_ns, 51); // index round(99 * 0.5) = 50 -> value 51
        assert_eq!(st.p95_ns, 95); // index round(99 * 0.95) = 94 -> value 95
        assert_eq!(st.p99_ns, 99); // index round(99 * 0.99) = 98 -> value 99
        assert_eq!(st.total_ns, 5050);
        assert_eq!(st.self_total_ns, 5050); // samples are all self-time
        assert_eq!(st.parent, None);
    }

    #[test]
    fn summary_sketch_agrees_with_exact_percentiles() {
        // Acceptance bound: the streaming sketch must land within its
        // documented α of the retained-sample exact percentiles.
        let mk = |value| Event { name: "s", phase: Phase::Sample, ts_ns: 0, tid: 0, value };
        let events: Vec<Event> = (1..=5000u64).map(|i| mk(i * 37 % 100_000 + 1)).collect();
        let s = Summary::from_events(&events);
        let st = &s.stages["s"];
        assert_eq!(st.sketch.count(), st.count);
        for (exact, q) in [(st.p50_ns, 0.50), (st.p95_ns, 0.95), (st.p99_ns, 0.99)] {
            let est = st.sketch.quantile(q).unwrap();
            let bound = st.sketch.alpha() * exact as f64 + 1.0;
            assert!(
                (est as f64 - exact as f64).abs() <= bound,
                "sketch q{q}: {est} vs exact {exact} (bound {bound})"
            );
        }
    }

    #[test]
    fn summary_sums_counters() {
        let mk = |value| Event { name: "c", phase: Phase::Counter, ts_ns: 0, tid: 0, value };
        let s = Summary::from_events(&[mk(3), mk(4)]);
        assert_eq!(s.counters["c"], 7);
        assert!(s.stages.is_empty());
    }

    #[test]
    fn summary_subtracts_child_time_and_tracks_parents() {
        let ev = |name, phase, ts_ns, value| Event { name, phase, ts_ns, tid: 1, value };
        let events = [
            ev("outer", Phase::Begin, 0, 0),
            ev("inner", Phase::Begin, 10, 0),
            ev("inner", Phase::End, 40, 30),
            ev("inner", Phase::Begin, 50, 0),
            ev("inner", Phase::End, 70, 20),
            ev("outer", Phase::End, 100, 100),
        ];
        let s = Summary::from_events(&events);
        assert_eq!(s.stages["outer"].total_ns, 100);
        assert_eq!(s.stages["outer"].self_total_ns, 50); // 100 - (30 + 20)
        assert_eq!(s.stages["outer"].parent, None);
        assert_eq!(s.stages["inner"].self_total_ns, 50);
        assert_eq!(s.stages["inner"].parent.as_deref(), Some("outer"));
    }

    #[test]
    fn summary_tolerates_unbalanced_streams() {
        let ev = |name, phase, ts_ns, value| Event { name, phase, ts_ns, tid: 1, value };
        // End without Begin, then a Begin never closed: no panic, and
        // the orphan End is attributed as a root with full self-time.
        let events = [ev("orphan", Phase::End, 10, 10), ev("open", Phase::Begin, 20, 0)];
        let s = Summary::from_events(&events);
        assert_eq!(s.stages["orphan"].self_total_ns, 10);
        assert_eq!(s.stages["orphan"].parent, None);
        assert!(!s.stages.contains_key("open"));
    }
}
