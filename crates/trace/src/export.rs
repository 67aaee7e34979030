//! Exporters: Chrome trace-event JSON, the human-readable run report,
//! and the machine-readable `perf_summary.json`.
//!
//! The Chrome format is the subset understood by Perfetto and
//! `chrome://tracing`: an object with a `traceEvents` array of `B`/`E`
//! duration events, `C` counter events and `i` instant events, with
//! timestamps in *microseconds*. `trace_document` is its one writer,
//! shared by the span export and the flight recorder's anomaly dump.
//! JSON is emitted by hand — this crate is zero-dependency — and
//! [`json`] holds the workspace's parser and typed encode/decode
//! traits, so the `check_trace` validator (and tests) can verify
//! emitted files.

use crate::export::json::{write_member, ToJson};
use crate::span::{Event, Phase};
use crate::{QuantileSketch, Summary};
use std::fmt::Write as _;
use std::path::Path;

/// One trace-event object, as [`trace_document`] writes it: `s` is an
/// instant event's scope (`"t"` thread, `"g"` global), `args` any
/// encodable payload.
pub(crate) struct TraceEvent<'a, A> {
    pub(crate) name: &'a str,
    pub(crate) cat: &'static str,
    pub(crate) ph: &'static str,
    pub(crate) ts_ns: u64,
    pub(crate) tid: u64,
    pub(crate) s: Option<&'static str>,
    pub(crate) args: Option<A>,
}

impl<A: ToJson> ToJson for TraceEvent<'_, A> {
    fn write_json(&self, out: &mut String) {
        let mut sep = '{';
        write_member(out, &mut sep, "name", self.name);
        write_member(out, &mut sep, "cat", self.cat);
        write_member(out, &mut sep, "ph", self.ph);
        // Microseconds, the format's unit, with the nanoseconds kept as
        // exact decimals.
        let _ = write!(out, ",\"ts\":{}.{:03},\"pid\":1", self.ts_ns / 1_000, self.ts_ns % 1_000);
        write_member(out, &mut sep, "tid", &self.tid);
        if let Some(s) = self.s {
            write_member(out, &mut sep, "s", s);
        }
        if let Some(args) = &self.args {
            write_member(out, &mut sep, "args", args);
        }
        out.push('}');
    }
}

/// A one-member `args` object: `{"<name>":<value>}`.
struct Arg<'a>(&'a str, u64);

impl ToJson for Arg<'_> {
    fn write_json(&self, out: &mut String) {
        let mut sep = '{';
        write_member(out, &mut sep, self.0, &self.1);
        out.push('}');
    }
}

/// The trace-event document around `events`:
/// `{"displayTimeUnit":"ms","traceEvents":[…]}`.
pub(crate) fn trace_document<A: ToJson>(events: Vec<TraceEvent<'_, A>>) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    let mut sep = '{';
    write_member(&mut out, &mut sep, "displayTimeUnit", "ms");
    write_member(&mut out, &mut sep, "traceEvents", &events);
    out.push('}');
    out
}

/// Renders a flushed event stream as Chrome trace-event JSON. Spans
/// become `B`/`E` pairs, counters become `C` events (chartable as
/// counter tracks in Perfetto), duration samples become `i` instant
/// events carrying their nanosecond value in `args`.
pub fn chrome_trace_json(events: &[Event]) -> String {
    trace_document(
        events
            .iter()
            .map(|e| {
                let (ph, s, args) = match e.phase {
                    Phase::Begin => ("B", None, None),
                    Phase::End => ("E", None, None),
                    Phase::Counter => ("C", None, Some(Arg(e.name, e.value))),
                    Phase::Sample => ("i", Some("t"), Some(Arg("ns", e.value))),
                };
                TraceEvent { name: e.name, cat: "wise", ph, ts_ns: e.ts_ns, tid: e.tid, s, args }
            })
            .collect(),
    )
}

/// A duration with a unit, for the run report and the gate's diff.
pub(crate) fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Stages in run-report order: a DFS over the dominant-parent tree
/// (children under their parent, name-sorted at each level), yielding
/// `(name, depth)`. Stages whose parent chain is degenerate (a cycle in
/// a pathological stream) fall back to depth 0 at the end.
fn report_order(summary: &Summary) -> Vec<(&str, usize)> {
    let mut children: std::collections::BTreeMap<&str, Vec<&str>> =
        std::collections::BTreeMap::new();
    let mut roots: Vec<&str> = Vec::new();
    for (name, st) in &summary.stages {
        match st.parent.as_deref().filter(|p| *p != name && summary.stages.contains_key(*p)) {
            Some(parent) => children.entry(parent).or_default().push(name),
            None => roots.push(name),
        }
    }
    let mut order = Vec::with_capacity(summary.stages.len());
    let mut seen = std::collections::BTreeSet::new();
    let mut stack: Vec<(&str, usize)> = roots.into_iter().rev().map(|n| (n, 0)).collect();
    while let Some((name, depth)) = stack.pop() {
        if !seen.insert(name) {
            continue;
        }
        order.push((name, depth));
        if let Some(kids) = children.get(name) {
            for &kid in kids.iter().rev() {
                stack.push((kid, depth + 1));
            }
        }
    }
    for name in summary.stages.keys() {
        if seen.insert(name.as_str()) {
            order.push((name.as_str(), 0));
        }
    }
    order
}

/// Renders the human-readable run report: one line per stage, nested
/// under its dominant parent span and indented by depth, with both
/// total and self (child-subtracted) time, p50/p95/p99/max, a log2
/// spark-line drawn from the stage's quantile sketch, then the live
/// telemetry gauges and the counters.
pub fn run_report(summary: &Summary) -> String {
    let mut out = String::from("== wise-trace run report ==\n");
    if summary.stages.is_empty() && summary.counters.is_empty() {
        out.push_str("(no events recorded)\n");
        return out;
    }
    let order = report_order(summary);
    let name_w =
        order.iter().map(|(n, depth)| n.len() + 2 * depth).max().unwrap_or(5).max("stage".len());
    let _ = writeln!(
        out,
        "{:<name_w$} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}  log2-spread",
        "stage", "count", "total", "self", "p50", "p95", "p99", "max"
    );
    for &(name, depth) in &order {
        let st = &summary.stages[name];
        let label = format!("{}{}", "  ".repeat(depth), name);
        let _ = writeln!(
            out,
            "{:<name_w$} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}  {}",
            label,
            st.count,
            fmt_ns(st.total_ns),
            fmt_ns(st.self_total_ns),
            fmt_ns(st.p50_ns),
            fmt_ns(st.p95_ns),
            fmt_ns(st.p99_ns),
            fmt_ns(st.max_ns),
            st.sketch.as_ref().map(QuantileSketch::sparkline).unwrap_or_default()
        );
    }
    // The flight recorder's aggregates, when the run recorded requests.
    let flight = crate::telemetry::flight_stats();
    if flight.requests > 0 {
        let _ = writeln!(
            out,
            "flight: {} request(s), {} anomaly(ies), threshold {}",
            flight.requests,
            flight.anomalies,
            flight.threshold_ns.map_or("unarmed".to_string(), fmt_ns)
        );
    }
    if !summary.counters.is_empty() {
        out.push_str("-- counters --\n");
        for (name, value) in &summary.counters {
            let _ = writeln!(out, "{name:<name_w$} {value}");
        }
    }
    out
}

/// Closes any span left open in a flushed event stream with synthetic
/// `End` events, returning a balanced copy.
///
/// A panic (or an early `process::exit`) unwinding through open spans
/// leaves their `Begin` events in the buffers with no matching `End`;
/// the raw stream would then fail [`validate_chrome_trace`], and
/// [`folded::folded_stacks`] and [`Summary::from_events`] would drop the
/// open spans' time. A span still open when an enclosing span
/// ends (its guard was leaked, or unwinding skipped it) is closed just
/// before that `End`; spans open at the end of the stream are closed
/// per thread in LIFO order (preserving nesting) at the stream's final
/// timestamp, so the trace shows them running until the crash — exactly
/// what a flame view of a panicking run should look like.
pub fn balanced_events(events: &[Event]) -> Vec<Event> {
    fn close(out: &mut Vec<Event>, open: &Event, ts_ns: u64) {
        let value = ts_ns.saturating_sub(open.ts_ns);
        out.push(Event { name: open.name, phase: Phase::End, ts_ns, tid: open.tid, value });
    }
    let mut out = Vec::with_capacity(events.len());
    let mut stacks: std::collections::HashMap<u64, Vec<&Event>> = std::collections::HashMap::new();
    for e in events {
        match e.phase {
            Phase::Begin => stacks.entry(e.tid).or_default().push(e),
            Phase::End => {
                // A stray End (no open span of that name) is kept as
                // is, so this helper never panics.
                let stack = stacks.entry(e.tid).or_default();
                if let Some(pos) = stack.iter().rposition(|b| b.name == e.name) {
                    for open in stack.drain(pos + 1..).rev() {
                        close(&mut out, open, e.ts_ns);
                    }
                    stack.pop();
                }
            }
            Phase::Counter | Phase::Sample => {}
        }
        out.push(*e);
    }
    let end_ts = events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
    let mut tids: Vec<u64> = stacks.keys().copied().collect();
    tids.sort_unstable();
    for tid in tids {
        while let Some(open) = stacks.get_mut(&tid).and_then(Vec::pop) {
            close(&mut out, open, end_ts);
        }
    }
    out
}

pub mod folded {
    //! Folded-stack export: one line per distinct span stack,
    //! `root;child;grandchild <self_ns>`, aggregated — the input format
    //! of `flamegraph.pl` / `inferno-flamegraph`, so any span stream
    //! turns into a flame graph with stock tools.
    //!
    //! The invariant that makes flame graphs truthful (and that the
    //! property loop in `tests/folded_prop.rs` pins down): every line's
    //! value is *self* time, so the values sum to exactly the total
    //! root-span time — no double counting of nested spans.

    use crate::span::{Event, Phase};
    use crate::OpenSpans;
    use std::collections::{BTreeMap, HashMap};

    /// Aggregates a flushed event stream into folded-stack lines,
    /// name-sorted. Uses the same self-time walk as
    /// `Summary::from_events`: an `End` without a matching open span
    /// becomes a single-frame root line (balance panic-truncated
    /// streams with [`super::balanced_events`] first for open spans to
    /// be counted at all).
    pub fn folded_stacks(events: &[Event]) -> String {
        let mut lines: BTreeMap<String, u64> = BTreeMap::new();
        let mut stacks: HashMap<u64, OpenSpans> = HashMap::new();
        for e in events {
            match e.phase {
                Phase::Begin => stacks.entry(e.tid).or_default().begin(e.name),
                Phase::End => {
                    let stack = stacks.entry(e.tid).or_default();
                    let mut path = String::new();
                    let self_ns = match stack.end(e.name, e.value) {
                        Some(self_ns) => {
                            for frame in stack.frames() {
                                path.push_str(frame);
                                path.push(';');
                            }
                            self_ns
                        }
                        None => e.value,
                    };
                    path.push_str(e.name);
                    *lines.entry(path).or_insert(0) += self_ns;
                }
                Phase::Counter | Phase::Sample => {}
            }
        }
        let mut out = String::new();
        for (path, self_ns) in lines {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&self_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses folded-stack text back into `(stack frames, self_ns)`
    /// rows — the round-trip half of the export invariant, also handy
    /// for asserting on specific stacks in tests.
    pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
        let mut rows = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let (path, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no value separator", i + 1))?;
            let value: u64 =
                value.parse().map_err(|e| format!("line {}: bad value: {e}", i + 1))?;
            if path.is_empty() || path.split(';').any(str::is_empty) {
                return Err(format!("line {}: empty frame", i + 1));
            }
            rows.push((path.split(';').map(str::to_string).collect(), value));
        }
        Ok(rows)
    }
}

/// Writes the Chrome trace to `trace_path`, plus `perf_summary.json`
/// next to it (same directory) and the folded-stack flame-graph feed at
/// `trace_path` with a `.folded` extension, returning the summary path.
/// The conventional call is at the end of a run, after the traced work
/// has completed; spans still open in the stream (a panic mid-span) are
/// closed via [`balanced_events`] so the emitted artifacts always load.
pub fn write_trace_files(
    events: &[Event],
    trace_path: &Path,
) -> std::io::Result<std::path::PathBuf> {
    let events = balanced_events(events);
    std::fs::write(trace_path, chrome_trace_json(&events))?;
    std::fs::write(trace_path.with_extension("folded"), folded::folded_stacks(&events))?;
    let summary = Summary::from_events(&events);
    let summary_path = trace_path.parent().unwrap_or(Path::new(".")).join("perf_summary.json");
    std::fs::write(&summary_path, summary.to_json())?;
    Ok(summary_path)
}

pub mod json;

/// Validates a Chrome trace document: parses it, checks `traceEvents`
/// exists, and checks every `B` has a matching same-name `E` per tid
/// (properly nested). Returns the number of complete spans.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let events =
        doc.get("traceEvents").and_then(|v| v.as_array()).ok_or("missing traceEvents array")?;
    let mut stacks: std::collections::HashMap<i64, Vec<String>> = std::collections::HashMap::new();
    let mut spans = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e.get("ph").and_then(|v| v.as_str()).ok_or(format!("event {i}: no ph"))?;
        let name = e.get("name").and_then(|v| v.as_str()).ok_or(format!("event {i}: no name"))?;
        let tid = e.get("tid").and_then(|v| v.as_f64()).ok_or(format!("event {i}: no tid"))? as i64;
        match ph {
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => {
                let top = stacks.entry(tid).or_default().pop();
                match top {
                    Some(open) if open == name => spans += 1,
                    Some(open) => {
                        return Err(format!("event {i}: E '{name}' closes '{open}' on tid {tid}"))
                    }
                    None => return Err(format!("event {i}: E '{name}' with empty stack")),
                }
            }
            "C" | "i" | "M" | "X" => {}
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: {} unclosed span(s): {:?}", stack.len(), stack));
        }
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, phase: Phase, ts_ns: u64, tid: u64, value: u64) -> Event {
        Event { name, phase, ts_ns, tid, value }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            ev("pipeline.select", Phase::Begin, 1_000, 1, 0),
            ev("features.extract", Phase::Begin, 2_000, 1, 0),
            ev("features.nnz", Phase::Counter, 2_500, 1, 4096),
            ev("features.extract", Phase::End, 9_000, 1, 7_000),
            ev("timing.measure_median", Phase::Sample, 9_500, 2, 1_234),
            ev("pipeline.select", Phase::End, 10_000, 1, 9_000),
        ]
    }

    #[test]
    fn chrome_json_parses_and_balances() {
        let text = chrome_trace_json(&sample_events());
        let spans = validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(spans, 2);
        // Microsecond timestamps with ns decimals survive.
        assert!(text.contains("\"ts\":2.500"), "{text}");
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = chrome_trace_json(&[]);
        assert_eq!(validate_chrome_trace(&text), Ok(0));
    }

    #[test]
    fn validator_catches_unbalanced() {
        let events = vec![ev("a", Phase::Begin, 0, 1, 0)];
        let text = chrome_trace_json(&events);
        assert!(validate_chrome_trace(&text).is_err());
        let crossed = vec![
            ev("a", Phase::Begin, 0, 1, 0),
            ev("b", Phase::Begin, 1, 1, 0),
            ev("a", Phase::End, 2, 1, 2),
        ];
        assert!(validate_chrome_trace(&chrome_trace_json(&crossed)).is_err());
    }

    #[test]
    fn perf_summary_shape() {
        let summary = Summary::from_events(&sample_events());
        let text = summary.to_json();
        let doc = json::parse(&text).expect("parses");
        let stages = doc.get("stages").unwrap().as_object().unwrap();
        assert!(stages.contains_key("features.extract"));
        assert!(stages.contains_key("pipeline.select"));
        assert!(stages.contains_key("timing.measure_median"));
        let fe = stages["features.extract"].as_object().unwrap();
        assert_eq!(fe["count"].as_f64(), Some(1.0));
        assert_eq!(fe["p50_ns"].as_f64(), Some(7_000.0));
        assert_eq!(fe["p99_ns"].as_f64(), Some(7_000.0));
        assert_eq!(fe["self_total_ns"].as_f64(), Some(7_000.0));
        // pipeline.select's self-time excludes the nested extract.
        let ps = stages["pipeline.select"].as_object().unwrap();
        assert_eq!(ps["total_ns"].as_f64(), Some(9_000.0));
        assert_eq!(ps["self_total_ns"].as_f64(), Some(2_000.0));
        let counters = doc.get("counters").unwrap().as_object().unwrap();
        assert_eq!(counters["features.nnz"].as_f64(), Some(4096.0));
    }

    #[test]
    fn run_report_lists_stages_and_counters() {
        let summary = Summary::from_events(&sample_events());
        let report = run_report(&summary);
        assert!(report.contains("features.extract"));
        assert!(report.contains("-- counters --"));
        assert!(report.contains("features.nnz"));
        assert!(report.contains("self"));
        assert!(report.contains("p99"));
        assert!(run_report(&Summary::default()).contains("no events"));
    }

    #[test]
    fn run_report_nests_children_under_parents() {
        let summary = Summary::from_events(&sample_events());
        let report = run_report(&summary);
        // features.extract nested under pipeline.select: indented, and
        // rendered after its parent despite sorting before it.
        let lines: Vec<&str> = report.lines().collect();
        let parent = lines.iter().position(|l| l.starts_with("pipeline.select")).unwrap();
        let child = lines.iter().position(|l| l.starts_with("  features.extract")).unwrap();
        assert_eq!(child, parent + 1, "{report}");
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = json::parse(r#"{"a\n\"b":[1,-2.5e2,true,null,{"x":"A"}]}"#).unwrap();
        let arr = v.get("a\n\"b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-250.0));
        assert_eq!(arr[4].get("x").unwrap().as_str(), Some("A"));
        assert!(json::parse("{},").is_err());
        assert!(json::parse(r#"{"unterminated"#).is_err());
    }

    #[test]
    fn perf_summary_carries_host_fingerprint() {
        let mut summary = Summary::from_events(&sample_events());
        // from_events fingerprints the process it runs in.
        assert_eq!(summary.host, crate::HostFingerprint::detect());
        summary.host = crate::HostFingerprint {
            cpu_cores: 4,
            threads_env: Some("2".into()),
            rustc: Some("rustc 1.95.0".into()),
            simd: Some("avx2:4".into()),
        };
        let doc = json::parse(&summary.to_json()).expect("parses");
        let h = doc.get("host").expect("host object");
        assert_eq!(h.get("cpu_cores").unwrap().as_f64(), Some(4.0));
        assert_eq!(h.get("threads_env").unwrap().as_str(), Some("2"));
        assert_eq!(h.get("rustc").unwrap().as_str(), Some("rustc 1.95.0"));
        assert_eq!(h.get("simd").unwrap().as_str(), Some("avx2:4"));
        // The document decodes back to the summary it encodes.
        let back = <Summary as json::FromJson>::from_json(&doc).expect("decodes");
        assert_eq!(back, summary);
    }

    #[test]
    fn balanced_events_closes_open_spans_lifo() {
        let open = vec![
            ev("outer", Phase::Begin, 1_000, 1, 0),
            ev("inner", Phase::Begin, 2_000, 1, 0),
            ev("done", Phase::Begin, 2_500, 2, 0),
            ev("done", Phase::End, 3_000, 2, 500),
            ev("other_thread", Phase::Begin, 4_000, 2, 0),
        ];
        let balanced = balanced_events(&open);
        assert_eq!(balanced.len(), open.len() + 3);
        let text = chrome_trace_json(&balanced);
        assert_eq!(validate_chrome_trace(&text), Ok(4));
        // Synthetic ends land at the stream max with derived durations.
        let inner_end = balanced
            .iter()
            .find(|e| e.name == "inner" && e.phase == Phase::End)
            .expect("inner closed");
        assert_eq!(inner_end.ts_ns, 4_000);
        assert_eq!(inner_end.value, 2_000);
        // The balanced stream nests inner under outer.
        let folded = folded::parse_folded(&folded::folded_stacks(&balanced)).unwrap();
        assert!(folded.iter().any(|(path, _)| path == &["outer", "inner"]), "{folded:?}");
        // Already-balanced streams come back unchanged.
        assert_eq!(balanced_events(&sample_events()), sample_events());
    }

    #[test]
    fn write_trace_files_emits_all_artifacts() {
        let dir = std::env::temp_dir().join("wise_trace_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let summary_path = write_trace_files(&sample_events(), &trace_path).unwrap();
        assert_eq!(summary_path, dir.join("perf_summary.json"));
        let trace_text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(validate_chrome_trace(&trace_text).is_ok());
        let summary_text = std::fs::read_to_string(&summary_path).unwrap();
        assert!(json::parse(&summary_text).is_ok());
        let folded_text = std::fs::read_to_string(dir.join("trace.folded")).unwrap();
        assert!(folded::parse_folded(&folded_text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn folded_stacks_are_self_time_and_round_trip() {
        let text = folded::folded_stacks(&sample_events());
        let rows = folded::parse_folded(&text).expect("parses");
        let get = |path: &[&str]| rows.iter().find(|(p, _)| p == path).map(|(_, v)| *v);
        assert_eq!(get(&["pipeline.select"]), Some(2_000)); // 9000 - 7000 child
        assert_eq!(get(&["pipeline.select", "features.extract"]), Some(7_000));
        // Self-times sum to the total root duration.
        let sum: u64 = rows.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, 9_000);
    }

    #[test]
    fn folded_stacks_nest_by_position() {
        // A span's parent is whatever was open on its thread when it
        // began; a later span opened after its predecessor closed is a
        // sibling root, not a child.
        let events = [
            ev("outer", Phase::Begin, 0, 7, 0),
            ev("inner", Phase::Begin, 10, 7, 0),
            ev("inner", Phase::End, 20, 7, 10),
            ev("outer", Phase::End, 30, 7, 30),
            ev("second", Phase::Begin, 40, 7, 0),
            ev("second", Phase::End, 50, 7, 10),
        ];
        let rows = folded::parse_folded(&folded::folded_stacks(&events)).unwrap();
        let paths: Vec<Vec<&str>> =
            rows.iter().map(|(p, _)| p.iter().map(String::as_str).collect()).collect();
        assert_eq!(paths, [vec!["outer"], vec!["outer", "inner"], vec!["second"]]);
        let summary = Summary::from_events(&events);
        assert_eq!(summary.stages["inner"].parent.as_deref(), Some("outer"));
        assert_eq!(summary.stages["second"].parent, None);
    }

    #[test]
    fn parse_folded_rejects_malformed_lines() {
        assert!(folded::parse_folded("no_value\n").is_err());
        assert!(folded::parse_folded("a;b not_a_number\n").is_err());
        assert!(folded::parse_folded("a;;b 10\n").is_err());
        assert_eq!(folded::parse_folded("").unwrap().len(), 0);
    }
}
