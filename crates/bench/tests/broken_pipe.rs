//! `all --only table1 | grep -q …` closes stdout early: the figure
//! driver must stop echoing instead of panicking, and still save the
//! full report under the results directory. `wise_top` must likewise
//! stop rendering without a panic.

use std::process::{Command, Stdio};
use wise_trace::export::json::ToJson;

#[test]
fn closed_stdout_neither_panics_nor_loses_the_saved_report() {
    let dir = std::env::temp_dir().join(format!("wise_broken_pipe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // The reader is gone before the child starts: its first stdout
    // write fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--only", "table1"])
        .env("WISE_RESULTS_DIR", &dir)
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("run the figure driver");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let report = std::fs::read_to_string(dir.join("table1.txt")).expect("saved report");
    assert!(report.contains("29 configurations"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wise_top_on_a_closed_stdout_does_not_panic() {
    let dir = std::env::temp_dir().join(format!("wise_broken_pipe_top_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("metrics_snapshot.json");
    std::fs::write(&snapshot, wise_trace::telemetry::Snapshot::capture().to_json()).unwrap();
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_wise_top"))
        .arg(&snapshot)
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("run wise_top");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
