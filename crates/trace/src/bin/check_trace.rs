//! CI validator for emitted trace artifacts.
//!
//! Usage: `check_trace <trace.json> [<perf_summary.json>]
//! [--snapshot <metrics_snapshot.json>] [--require stage1,stage2,...]`
//!
//! Checks that the Chrome trace parses as JSON with balanced,
//! properly-nested begin/end events, and that the perf summary, when
//! given, decodes as a [`Summary`] — every
//! host string member present (string or null), a positive core count,
//! integer stage statistics in `min ≤ p50 ≤ p95 ≤ p99 ≤ max` order with
//! any sketch agreeing with its stage's count, integer counters — and
//! contains every required stage with a non-zero count. The default
//! required set is the end-to-end WISE pipeline: feature extraction,
//! labeling, training, selection, format conversion and SpMV.
//! `--snapshot` additionally validates a `metrics_snapshot.json` written
//! by the streaming telemetry exporter: it must decode as a
//! [`Snapshot`] (schema version, stage records in the same order, a
//! known drift status, flight-recorder aggregates).

use std::collections::BTreeMap;
use std::io::Write as _;
use wise_trace::export::json::{self, FromJson};
use wise_trace::export::validate_chrome_trace;
use wise_trace::telemetry::Snapshot;
use wise_trace::{StageRecord, Summary};

const DEFAULT_REQUIRED: &[&str] = &[
    "features.extract",
    "label.corpus",
    "train.registry",
    "pipeline.select",
    "kernel.convert",
    "kernel.spmv",
];

/// `println!` that ignores a closed stdout (`check_trace … | head -0`)
/// instead of panicking: the verdict is the exit code.
macro_rules! say {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

fn fail(msg: &str) -> ! {
    eprintln!("check_trace: FAIL: {msg}");
    std::process::exit(1);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&String> = Vec::new();
    let mut snapshot_flag: Option<&String> = None;
    let mut required: Vec<String> = DEFAULT_REQUIRED.iter().map(|s| s.to_string()).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--require" {
            let list = it.next().unwrap_or_else(|| fail("--require needs a comma-separated list"));
            required = list.split(',').map(|s| s.trim().to_string()).collect();
        } else if a == "--snapshot" {
            snapshot_flag = Some(it.next().unwrap_or_else(|| fail("--snapshot needs a path")));
        } else {
            paths.push(a);
        }
    }
    // A snapshot stands alone (`check_trace --snapshot <path>`); every
    // other mode starts from a positional trace.
    let (trace_path, summary_path) = match paths.as_slice() {
        [trace] => (Some(trace), None),
        [trace, summary] => (Some(trace), Some(summary)),
        [] if snapshot_flag.is_some() => (None, None),
        _ => fail(
            "usage: check_trace <trace.json> [<perf_summary.json>] \
             [--snapshot <path>] [--require a,b,...]",
        ),
    };

    if let Some(trace_path) = trace_path {
        match validate_chrome_trace(&read(trace_path)) {
            Ok(0) => fail("trace is valid JSON but contains no complete spans"),
            Ok(spans) => say!("check_trace: {trace_path}: OK ({spans} balanced spans)"),
            Err(e) => fail(&format!("{trace_path}: {e}")),
        }
    }

    if let Some(summary_path) = summary_path {
        let summary = decode_summary(&read(summary_path))
            .unwrap_or_else(|e| fail(&format!("{summary_path}: schema: {e}")));
        let stages = &summary.stages;
        for name in &required {
            if stages.get(name.as_str()).is_none_or(|s| s.count == 0) {
                fail(&format!("{summary_path}: required stage '{name}' missing or empty"));
            }
        }
        say!(
            "check_trace: {summary_path}: OK ({} stages, all {} required present)",
            stages.len(),
            required.len()
        );
    }

    if let Some(snapshot_path) = snapshot_flag {
        let snapshot = Snapshot::from_json_str(&read(snapshot_path))
            .map_err(|e| e.to_string())
            .and_then(|snap| check_order(&snap.stages).map(|()| snap))
            .unwrap_or_else(|e| fail(&format!("{snapshot_path}: schema: {e}")));
        say!("check_trace: {snapshot_path}: OK ({} streaming stages)", snapshot.stages.len());
    }
}

/// Decodes `perf_summary.json`. Beyond the typed decode: the host's
/// optional string members must be present (`null` when unknown), and
/// the core count positive. Members it does not know (e.g. the
/// `pmu_status` of older summaries) are ignored.
fn decode_summary(text: &str) -> Result<Summary, String> {
    let doc = json::parse(text)?;
    for key in ["threads_env", "rustc", "simd"] {
        if doc.get("host").and_then(|h| h.get(key)).is_none() {
            return Err(format!("host.{key} missing"));
        }
    }
    let summary = Summary::from_json(&doc).map_err(|e| e.to_string())?;
    if summary.host.cpu_cores < 1 {
        return Err("host.cpu_cores must be >= 1, got 0".into());
    }
    check_order(&summary.stages)?;
    Ok(summary)
}

/// Every stage's order statistics must be ordered.
fn check_order(stages: &BTreeMap<String, StageRecord>) -> Result<(), String> {
    for (name, st) in stages {
        let chain = [st.min_ns, st.p50_ns, st.p95_ns, st.p99_ns, st.max_ns];
        if chain.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("stage '{name}': min/p50/p95/p99/max out of order {chain:?}"));
        }
    }
    Ok(())
}
