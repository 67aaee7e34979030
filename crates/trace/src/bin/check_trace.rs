//! CI validator for emitted trace artifacts.
//!
//! Usage: `check_trace <trace.json> [<perf_summary.json>] [--summary
//! <perf_summary.json>] [--snapshot <metrics_snapshot.json>]
//! [--require stage1,stage2,...]`
//!
//! Checks that the Chrome trace parses as JSON with balanced,
//! properly-nested begin/end events, and that the perf summary (given
//! positionally or via `--summary`) conforms to the schema
//! `perf_summary_json` emits — a `host` fingerprint object with a
//! positive core count, numeric per-stage statistics (including a
//! loadable quantile sketch whose count matches the stage), numeric
//! counters — and contains every required stage with a non-zero count.
//! The default required set is the end-to-end WISE pipeline: feature
//! extraction, labeling, training, selection, format conversion and
//! SpMV. `--snapshot` additionally validates a `metrics_snapshot.json`
//! written by the streaming telemetry exporter (schema version, stage
//! sketch quantiles, drift status, flight-recorder aggregates).

use wise_trace::export::json::{self, FromJson, Value};
use wise_trace::export::validate_chrome_trace;
use wise_trace::telemetry::{DriftLevel, QuantileSketch};

const DEFAULT_REQUIRED: &[&str] = &[
    "features.extract",
    "label.corpus",
    "train.registry",
    "pipeline.select",
    "kernel.convert",
    "kernel.spmv",
];

/// Every numeric field `perf_summary_json` writes per stage.
const STAGE_FIELDS: &[&str] =
    &["count", "p50_ns", "p95_ns", "p99_ns", "min_ns", "max_ns", "total_ns", "self_total_ns"];

fn fail(msg: &str) -> ! {
    eprintln!("check_trace: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&String> = Vec::new();
    let mut summary_flag: Option<&String> = None;
    let mut snapshot_flag: Option<&String> = None;
    let mut required: Vec<String> = DEFAULT_REQUIRED.iter().map(|s| s.to_string()).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--require" {
            let list = it.next().unwrap_or_else(|| fail("--require needs a comma-separated list"));
            required = list.split(',').map(|s| s.trim().to_string()).collect();
        } else if a == "--summary" {
            summary_flag = Some(it.next().unwrap_or_else(|| fail("--summary needs a path")));
        } else if a == "--snapshot" {
            snapshot_flag = Some(it.next().unwrap_or_else(|| fail("--snapshot needs a path")));
        } else {
            paths.push(a);
        }
    }
    // A snapshot stands alone (`check_trace --snapshot <path>`); every
    // other mode starts from a positional trace.
    let (trace_path, rest): (Option<&String>, &[&String]) = match paths.as_slice() {
        [trace, rest @ ..] => (Some(trace), rest),
        [] if snapshot_flag.is_some() => (None, &[]),
        [] => fail(
            "usage: check_trace <trace.json> [<perf_summary.json>] \
             [--summary <path>] [--snapshot <path>] [--require a,b,...]",
        ),
    };

    if let Some(trace_path) = trace_path {
        let trace_text = std::fs::read_to_string(trace_path)
            .unwrap_or_else(|e| fail(&format!("cannot read {trace_path}: {e}")));
        match validate_chrome_trace(&trace_text) {
            Ok(0) => fail("trace is valid JSON but contains no complete spans"),
            Ok(spans) => println!("check_trace: {trace_path}: OK ({spans} balanced spans)"),
            Err(e) => fail(&format!("{trace_path}: {e}")),
        }
    }

    // The summary may be given positionally (historical) or via
    // --summary; both run the same validation.
    let summary_path = match (summary_flag, rest) {
        (Some(p), []) => Some(p),
        (None, [p]) => Some(*p),
        (None, []) => None,
        _ => fail("give the summary either positionally or via --summary, not both"),
    };
    if let Some(summary_path) = summary_path {
        let summary_text = std::fs::read_to_string(summary_path)
            .unwrap_or_else(|e| fail(&format!("cannot read {summary_path}: {e}")));
        let doc =
            json::parse(&summary_text).unwrap_or_else(|e| fail(&format!("{summary_path}: {e}")));
        validate_summary_schema(&doc)
            .unwrap_or_else(|e| fail(&format!("{summary_path}: schema: {e}")));
        let stages = doc.get("stages").and_then(|v| v.as_object()).unwrap();
        for name in &required {
            let count = stages
                .get(name.as_str())
                .and_then(|s| s.get("count"))
                .and_then(|c| c.as_f64())
                .unwrap_or(0.0);
            if count < 1.0 {
                fail(&format!("{summary_path}: required stage '{name}' missing or empty"));
            }
        }
        println!(
            "check_trace: {summary_path}: OK ({} stages, all {} required present)",
            stages.len(),
            required.len()
        );
    }

    if let Some(snapshot_path) = snapshot_flag {
        let text = std::fs::read_to_string(snapshot_path)
            .unwrap_or_else(|e| fail(&format!("cannot read {snapshot_path}: {e}")));
        let doc = json::parse(&text).unwrap_or_else(|e| fail(&format!("{snapshot_path}: {e}")));
        validate_snapshot_schema(&doc)
            .unwrap_or_else(|e| fail(&format!("{snapshot_path}: schema: {e}")));
        let stages = doc.get("stages").and_then(|v| v.as_object()).unwrap();
        println!("check_trace: {snapshot_path}: OK ({} streaming stages)", stages.len());
    }
}

/// Numeric fields of a snapshot's per-stage streaming-sketch block.
const SNAPSHOT_STAGE_FIELDS: &[&str] =
    &["count", "p50_ns", "p95_ns", "p99_ns", "max_ns", "total_ns", "alpha"];

/// Validates a `metrics_snapshot.json` written by
/// `wise_trace::telemetry::snapshot_json`: schema version 1, a
/// timestamp, per-stage sketch quantiles, a drift object with a known
/// status label, and the flight-recorder aggregates. Members it does
/// not know (e.g. the `pmu_status` of older snapshots) are ignored.
fn validate_snapshot_schema(doc: &Value) -> Result<(), String> {
    match doc.get("schema_version").and_then(|v| v.as_f64()) {
        Some(1.0) => {}
        Some(v) => return Err(format!("unsupported schema_version {v}")),
        None => return Err("schema_version missing".into()),
    }
    doc.get("ts_ns").and_then(|v| v.as_f64()).ok_or("ts_ns missing or not a number")?;
    let stages = doc.get("stages").and_then(|v| v.as_object()).ok_or("missing stages object")?;
    for (name, st) in stages {
        for field in SNAPSHOT_STAGE_FIELDS {
            let v = st
                .get(field)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("stage '{name}': {field} missing or not a number"))?;
            if v < 0.0 {
                return Err(format!("stage '{name}': {field} negative"));
            }
        }
        let p50 = st.get("p50_ns").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let p99 = st.get("p99_ns").and_then(|v| v.as_f64()).unwrap_or(0.0);
        if p99 < p50 {
            return Err(format!("stage '{name}': p99 < p50 ({p99} < {p50})"));
        }
    }
    let drift = doc.get("drift").ok_or("missing drift object")?;
    let status = drift.get("status").and_then(|v| v.as_str()).ok_or("drift.status missing")?;
    if DriftLevel::parse(status).is_none() {
        return Err(format!("drift.status '{status}' is not a known level"));
    }
    for field in ["regret_permille", "fallthrough_permille", "observed"] {
        drift
            .get(field)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("drift.{field} missing or not a number"))?;
    }
    let flight = doc.get("flight").ok_or("missing flight object")?;
    for field in ["requests", "anomalies", "ring"] {
        flight
            .get(field)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("flight.{field} missing or not a number"))?;
    }
    match flight.get("threshold_ns") {
        Some(Value::Number(_) | Value::Null) => Ok(()),
        _ => Err("flight.threshold_ns missing or mistyped".into()),
    }
}

/// Validates the `perf_summary.json` schema: `host` object with a
/// positive `cpu_cores` and string-or-null env fields, `stages` mapping
/// names to objects with every numeric field, `counters` mapping names
/// to numbers. Members it does not know (e.g. the `pmu_status` and
/// per-stage `pmu` blocks of older summaries) are ignored.
fn validate_summary_schema(doc: &Value) -> Result<(), String> {
    let host = doc.get("host").ok_or("missing host object")?;
    let cores =
        host.get("cpu_cores").and_then(|v| v.as_f64()).ok_or("host.cpu_cores not a number")?;
    if cores < 1.0 {
        return Err(format!("host.cpu_cores must be >= 1, got {cores}"));
    }
    for key in ["threads_env", "rustc", "simd"] {
        match host.get(key) {
            Some(Value::String(_) | Value::Null) => {}
            Some(_) => return Err(format!("host.{key} must be a string or null")),
            None => return Err(format!("host.{key} missing")),
        }
    }
    let stages = doc.get("stages").and_then(|v| v.as_object()).ok_or("missing stages object")?;
    for (name, st) in stages {
        for field in STAGE_FIELDS {
            let v = st
                .get(field)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("stage '{name}': {field} missing or not a number"))?;
            if v < 0.0 {
                return Err(format!("stage '{name}': {field} negative"));
            }
        }
        // The sketch is optional (summaries from older tools); when
        // present it must load and agree with the stage's count.
        if let Some(sk) = st.get("sketch") {
            let sketch = QuantileSketch::from_json(sk)
                .map_err(|e| format!("stage '{name}': sketch is malformed: {e}"))?;
            let count = st.get("count").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
            if sketch.count() != count {
                return Err(format!(
                    "stage '{name}': sketch count {} != stage count {count}",
                    sketch.count()
                ));
            }
        }
    }
    let counters =
        doc.get("counters").and_then(|v| v.as_object()).ok_or("missing counters object")?;
    for (name, v) in counters {
        if v.as_f64().is_none() {
            return Err(format!("counter '{name}' is not a number"));
        }
    }
    Ok(())
}
