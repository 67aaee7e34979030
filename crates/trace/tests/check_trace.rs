//! The `check_trace` validator end to end: a valid trace, summary and
//! snapshot pass, and each malformed document below is rejected with a
//! non-zero exit. The valid documents come from the library's own
//! emitters; each malformed one is a single edit of a valid one.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use wise_trace::export::json::{self, ToJson, Value};
use wise_trace::span::{Event, Phase};
use wise_trace::{chrome_trace_json, Summary};

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wise_check_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn events() -> Vec<Event> {
    let ev = |name, phase, ts_ns, value| Event { name, phase, ts_ns, tid: 1, value };
    vec![
        ev("pipeline.select", Phase::Begin, 1_000, 0),
        ev("features.extract", Phase::Begin, 2_000, 0),
        ev("features.nnz", Phase::Counter, 2_500, 4_096),
        ev("features.extract", Phase::End, 9_000, 7_000),
        ev("pipeline.select", Phase::End, 10_000, 9_000),
        ev("features.extract", Phase::Begin, 11_000, 0),
        ev("features.extract", Phase::End, 14_000, 3_000),
    ]
}

/// Serializes a parsed document back to text (members in key order).
fn emit(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(n),
        Value::String(s) => {
            out.push('"');
            out.push_str(&s.replace('\\', "\\\\").replace('"', "\\\""));
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit(item, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit(&Value::String(k.clone()), out);
                out.push(':');
                emit(item, out);
            }
            out.push('}');
        }
    }
}

/// The object member at `path`, for editing.
fn at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(v, |v, key| match v {
        Value::Object(m) => m.get_mut(*key).unwrap_or_else(|| panic!("no member {key}")),
        _ => panic!("{key}: not an object"),
    })
}

fn edited(text: &str, edit: impl FnOnce(&mut Value)) -> String {
    let mut doc = json::parse(text).expect("valid document");
    edit(&mut doc);
    let mut out = String::new();
    emit(&doc, &mut out);
    out
}

fn check_trace(args: &[&Path], flags: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_check_trace"))
        .args(args)
        .args(flags)
        .output()
        .expect("run check_trace");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn valid_snapshot() -> String {
    wise_trace::set_enabled(true);
    for ns in [1_000, 2_000, 40_000] {
        wise_trace::observe_ns("unit.snapshot.stage", ns);
    }
    wise_trace::set_enabled(false);
    wise_trace::telemetry::Snapshot::capture().to_json()
}

#[test]
fn valid_documents_pass_and_each_malformed_one_fails() {
    let dir = temp_dir();
    let trace = dir.join("trace.json");
    std::fs::write(&trace, chrome_trace_json(&events())).unwrap();
    let summary_text = Summary::from_events(&events()).to_json();
    let summary = dir.join("perf_summary.json");
    std::fs::write(&summary, &summary_text).unwrap();
    let snapshot_text = valid_snapshot();
    let snapshot = dir.join("metrics_snapshot.json");
    std::fs::write(&snapshot, &snapshot_text).unwrap();

    let require = ["--require", "pipeline.select,features.extract"];
    let (ok, stderr) = check_trace(&[&trace, &summary], &require);
    assert!(ok, "valid trace + summary rejected: {stderr}");
    let (ok, stderr) = check_trace(&[Path::new("--snapshot"), &snapshot], &[]);
    assert!(ok, "valid snapshot rejected: {stderr}");
    // Schema-2 snapshots written while the drift monitor existed carry a
    // `drift` member, which is ignored.
    let with_drift = edited(&snapshot_text, |d| {
        let Value::Object(doc) = d else { panic!("snapshot object") };
        let drift =
            r#"{"status":"warning","regret_permille":1700,"fallthrough_permille":0,"observed":16}"#;
        doc.insert("drift".into(), json::parse(drift).unwrap());
    });
    std::fs::write(&snapshot, &with_drift).unwrap();
    let (ok, stderr) = check_trace(&[Path::new("--snapshot"), &snapshot], &[]);
    assert!(ok, "snapshot with a drift member rejected: {stderr}");

    let stage = ["stages", "features.extract"];
    let summaries: Vec<(&str, String)> = vec![
        (
            "missing host.threads_env",
            edited(&summary_text, |d| {
                let Value::Object(host) = at(d, &["host"]) else { panic!("host") };
                assert!(host.remove("threads_env").is_some());
            }),
        ),
        ("cpu_cores 0", edited(&summary_text, |d| *at(d, &["host", "cpu_cores"]) = num(0))),
        (
            "non-numeric stage field",
            edited(&summary_text, |d| {
                *at(d, &[stage[0], stage[1], "p50_ns"]) = Value::String("fast".into())
            }),
        ),
        (
            "sketch count != stage count",
            edited(&summary_text, |d| *at(d, &[stage[0], stage[1], "count"]) = num(3)),
        ),
        (
            "non-numeric counter",
            edited(&summary_text, |d| {
                *at(d, &["counters", "features.nnz"]) = Value::String("many".into())
            }),
        ),
    ];
    for (what, text) in summaries {
        let bad = dir.join("bad_summary.json");
        std::fs::write(&bad, &text).unwrap();
        let (ok, stderr) = check_trace(&[&trace, &bad], &require);
        assert!(!ok, "summary with {what} passed:\n{text}");
        assert!(stderr.contains("FAIL"), "{what}: {stderr}");
    }

    let snap_stage = ["stages", "unit.snapshot.stage"];
    let snapshots: Vec<(&str, String)> = vec![
        (
            "p99 < p50",
            edited(&snapshot_text, |d| {
                *at(d, &[snap_stage[0], snap_stage[1], "p50_ns"]) = num(40_000);
                *at(d, &[snap_stage[0], snap_stage[1], "p99_ns"]) = num(1_000);
            }),
        ),
        (
            "unsupported schema_version",
            edited(&snapshot_text, |d| *at(d, &["schema_version"]) = num(1)),
        ),
    ];
    for (what, text) in snapshots {
        let bad = dir.join("bad_snapshot.json");
        std::fs::write(&bad, &text).unwrap();
        let (ok, stderr) = check_trace(&[Path::new("--snapshot"), &bad], &[]);
        assert!(!ok, "snapshot with {what} passed:\n{text}");
        assert!(stderr.contains("FAIL"), "{what}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn num(n: u64) -> Value {
    Value::Number(n.to_string())
}

/// `check_trace --snapshot … | head -0`: a reader gone before the first
/// line must not turn a passing verdict into a panic.
#[test]
fn closed_stdout_keeps_the_verdict_and_does_not_panic() {
    let dir = std::env::temp_dir().join(format!("wise_check_trace_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("metrics_snapshot.json");
    std::fs::write(&snapshot, valid_snapshot()).unwrap();
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_check_trace"))
        .arg("--snapshot")
        .arg(&snapshot)
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("run check_trace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "a valid snapshot must still pass: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
