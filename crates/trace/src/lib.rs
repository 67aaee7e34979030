//! `wise-trace` — zero-dependency observability for the WISE pipeline.
//!
//! Every performance claim WISE makes is an *end-to-end* claim: feature
//! extraction, format conversion and the SpMV win must be accounted for
//! together (paper §4.4, Figs. 10–13). This crate gives the whole
//! workspace one shared way to do that accounting, from wall time alone
//! (no hardware counters):
//!
//! * [`mod@span`] — hierarchical RAII spans recorded into per-thread
//!   buffers (no shared lock on the hot path; buffers merge at flush);
//! * [`counter`] / [`observe_ns`] — monotonic counters and duration
//!   samples, aggregated per stage into one [`StageRecord`] (exact
//!   count, min, max, total and self-time; p50/p95/p99 from a mergeable
//!   [`QuantileSketch`]), both per flushed stream ([`Summary`]) and
//!   live per thread ([`span::stream_stages`]);
//! * [`export`] — a human-readable run report, Chrome trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`), and the machine-
//!   readable `perf_summary.json` (the encoded [`Summary`]) so
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
//! off, [`span()`], [`counter`] and [`observe_ns`] each cost exactly one
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

pub mod export;
pub mod ledger;
pub mod span;
pub mod telemetry;

pub use export::{balanced_events, chrome_trace_json, run_report, write_trace_files};
pub use ledger::{BenchRecord, GatePolicy, GateReport, HostFingerprint, ModelMetrics, StageRecord};
pub use span::{counter, dropped_events, observe_ns, span, take_events, Event, Phase, Span};
pub use summary::Summary;
pub(crate) use summary::{OpenSpans, StageAcc};
pub use telemetry::{QuantileSketch, RequestRecord};

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
    use crate::ledger::{HostFingerprint, StageRecord};
    use crate::span::{Event, Phase};
    use crate::telemetry::QuantileSketch;
    use std::collections::{BTreeMap, HashMap};

    /// A thread's open spans, innermost last, each with the nanoseconds
    /// its already-closed children consumed: the one self-time rule that
    /// [`Summary::from_events`], the folded-stack export and the
    /// streaming per-thread stages all apply.
    #[derive(Debug, Default)]
    pub(crate) struct OpenSpans(Vec<(&'static str, u64)>);

    impl OpenSpans {
        pub(crate) fn begin(&mut self, name: &'static str) {
            self.0.push((name, 0));
        }

        /// Closes `name` after `dur` ns and returns its self-time.
        /// Nesting is positional; an `End` that does not match the
        /// innermost open span (dropped or truncated events) leaves the
        /// stack as is and returns `None`: the span counts as a root
        /// with its full duration as self-time, never a panic.
        pub(crate) fn end(&mut self, name: &'static str, dur: u64) -> Option<u64> {
            if self.0.last().map(|t| t.0) != Some(name) {
                return None;
            }
            let (_, child_ns) = self.0.pop()?;
            if let Some(top) = self.0.last_mut() {
                top.1 += dur;
            }
            Some(dur.saturating_sub(child_ns))
        }

        /// The open span names, outermost first.
        pub(crate) fn frames(&self) -> impl Iterator<Item = &'static str> + '_ {
            self.0.iter().map(|t| t.0)
        }
    }

    /// Running statistics of one stage: the sketch over its durations,
    /// plus the exact total and self-time the sketch cannot carry.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct StageAcc {
        pub(crate) sketch: QuantileSketch,
        total_ns: u64,
        self_ns: u64,
    }

    impl StageAcc {
        pub(crate) fn observe(&mut self, ns: u64, self_ns: u64) {
            self.sketch.observe(ns);
            self.total_ns += ns;
            self.self_ns += self_ns;
        }

        pub(crate) fn merge(&mut self, other: &StageAcc) {
            self.sketch.merge(&other.sketch);
            self.total_ns += other.total_ns;
            self.self_ns += other.self_ns;
        }

        pub(crate) fn record(&self) -> StageRecord {
            StageRecord::new(self.sketch.clone(), self.total_ns, self.self_ns)
        }
    }

    /// Everything the exporters need, aggregated from a flushed event
    /// stream: per-stage statistics (from span ends and duration
    /// samples), summed counters, and the host the run executed on.
    /// Encoded as-is, this is `perf_summary.json`.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct Summary {
        /// The fingerprint of the process that aggregated the stream.
        pub host: HostFingerprint,
        /// Stage name → statistics, name-sorted.
        pub stages: BTreeMap<String, StageRecord>,
        /// Counter name → summed value, name-sorted.
        pub counters: BTreeMap<String, u64>,
    }

    crate::json_struct!(Summary { host, stages, counters });

    impl Summary {
        /// Aggregates a flushed event stream ([`crate::take_events`]):
        /// count, min, max, total and self-time are exact; p50/p95/p99
        /// come from each stage's [`QuantileSketch`] (relative error α).
        /// Self-time follows positional nesting per thread, tolerating
        /// unbalanced streams (see `OpenSpans::end`).
        pub fn from_events(events: &[Event]) -> Summary {
            let mut accs: BTreeMap<&'static str, StageAcc> = BTreeMap::new();
            // Enclosing-span name ("" = root) → occurrences, per stage.
            let mut parents: BTreeMap<&'static str, BTreeMap<&'static str, u64>> = BTreeMap::new();
            let mut counters: BTreeMap<String, u64> = BTreeMap::new();
            let mut stacks: HashMap<u64, OpenSpans> = HashMap::new();
            for e in events {
                let (self_ns, parent) = match e.phase {
                    Phase::Begin => {
                        stacks.entry(e.tid).or_default().begin(e.name);
                        continue;
                    }
                    Phase::End => {
                        let stack = stacks.entry(e.tid).or_default();
                        match stack.end(e.name, e.value) {
                            Some(self_ns) => (self_ns, stack.frames().last().unwrap_or("")),
                            None => (e.value, ""),
                        }
                    }
                    Phase::Sample => (e.value, ""),
                    Phase::Counter => {
                        *counters.entry(e.name.to_string()).or_insert(0) += e.value;
                        continue;
                    }
                };
                accs.entry(e.name).or_default().observe(e.value, self_ns);
                *parents.entry(e.name).or_default().entry(parent).or_insert(0) += 1;
            }
            let stages = accs
                .into_iter()
                .map(|(name, acc)| {
                    let mut rec = acc.record();
                    // Dominant parent; ties break toward "" (root,
                    // which sorts first) then lexicographically.
                    rec.parent = parents[name]
                        .iter()
                        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                        .map(|(&p, _)| p)
                        .filter(|p| !p.is_empty())
                        .map(str::to_string);
                    (name.to_string(), rec)
                })
                .collect();
            Summary { host: HostFingerprint::detect(), stages, counters }
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
        // A fixed nested stream: count, min, max, total and self-time
        // must equal the exact sort-based computation; each quantile
        // must sit within the sketch's α of the exact order statistic
        // (rank round(q·(n-1))) and inside [min, max].
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u64| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            1 + (lcg >> 33) % bound
        };
        let ev = |name, phase, value| Event { name, phase, ts_ns: 0, tid: 3, value };
        let (mut inner, mut outer, mut outer_self) = (Vec::new(), Vec::new(), 0u64);
        let mut events = Vec::new();
        for _ in 0..5000 {
            let (d, extra) = (next(100_000), next(1_000));
            events.extend([
                ev("outer", Phase::Begin, 0),
                ev("inner", Phase::Begin, 0),
                ev("inner", Phase::End, d),
                ev("outer", Phase::End, d + extra),
            ]);
            inner.push(d);
            outer.push(d + extra);
            outer_self += extra;
        }
        let s = Summary::from_events(&events);
        for (name, mut exact, self_ns) in
            [("inner", inner.clone(), inner.iter().sum()), ("outer", outer, outer_self)]
        {
            exact.sort_unstable();
            let st = &s.stages[name];
            assert_eq!(st.count, exact.len() as u64);
            assert_eq!((st.min_ns, st.max_ns), (exact[0], exact[exact.len() - 1]));
            assert_eq!(st.total_ns, exact.iter().sum::<u64>());
            assert_eq!(st.self_total_ns, self_ns);
            let alpha = st.sketch.as_ref().unwrap().alpha();
            for (est, q) in [(st.p50_ns, 0.50), (st.p95_ns, 0.95), (st.p99_ns, 0.99)] {
                let truth = exact[((exact.len() - 1) as f64 * q).round() as usize];
                let bound = alpha * truth as f64 + 1.0;
                assert!(
                    (est as f64 - truth as f64).abs() <= bound,
                    "{name} q{q}: {est} vs exact {truth} (bound {bound})"
                );
                assert!(st.min_ns <= est && est <= st.max_ns, "{name} q{q} outside [min, max]");
            }
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
