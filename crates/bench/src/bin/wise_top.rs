//! `wise-top`: terminal renderer for the streaming telemetry snapshot.
//!
//! Reads the `metrics_snapshot.json` written by the periodic exporter
//! ([`wise_trace::telemetry::start_snapshot_thread`], enabled with
//! `WISE_SNAPSHOT=<path>`) and renders a `top`-style text view: the
//! hottest stages by total time with their streaming-sketch quantiles,
//! the prediction-drift status, and the flight-recorder aggregates.
//!
//! Usage: `wise_top [<snapshot path>] [--watch <secs>]`
//!
//! With `--watch`, re-reads and re-renders every interval until
//! interrupted (the exporter's atomic tmp+rename write guarantees a
//! torn file is never observed).

use std::time::Duration;
use wise_trace::export::json::{self, Value};

fn fail(msg: &str) -> ! {
    eprintln!("wise_top: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = "metrics_snapshot.json".to_string();
    let mut watch: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--watch" {
            let secs = it.next().unwrap_or_else(|| fail("--watch needs a number of seconds"));
            let secs: f64 = secs.parse().unwrap_or_else(|_| fail("--watch needs a number"));
            if !(secs.is_finite() && secs > 0.0) {
                fail("--watch needs a positive number of seconds");
            }
            watch = Some(secs);
        } else if a == "--help" || a == "-h" {
            println!("usage: wise_top [<metrics_snapshot.json>] [--watch <secs>]");
            return;
        } else {
            path = a.clone();
        }
    }

    loop {
        match render_file(&path) {
            Ok(view) => {
                if watch.is_some() {
                    // ANSI clear + home, like top(1).
                    print!("\x1b[2J\x1b[H");
                }
                print!("{view}");
            }
            Err(e) if watch.is_some() => eprintln!("wise_top: {e} (retrying)"),
            Err(e) => fail(&e),
        }
        match watch {
            Some(secs) => std::thread::sleep(Duration::from_secs_f64(secs)),
            None => return,
        }
    }
}

fn render_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    render(&doc).ok_or_else(|| format!("{path}: not a metrics snapshot"))
}

/// Pretty ns with a unit, column-stable at 9 chars.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:7.2}s ", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:7.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:7.2}us", ns / 1e3)
    } else {
        format!("{ns:7.0}ns")
    }
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0)
}

fn render(doc: &Value) -> Option<String> {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(2048);
    let ts_s = num(doc, "ts_ns") / 1e9;
    let _ = writeln!(out, "wise-top — uptime {ts_s:.1}s");

    if let Some(d) = doc.get("drift") {
        let status = d.get("status").and_then(|v| v.as_str()).unwrap_or("?");
        let _ = writeln!(
            out,
            "drift   {status}  regret {:.2}x  fallthrough {:.1}%  ({} observed)",
            num(d, "regret_permille") / 1000.0,
            num(d, "fallthrough_permille") / 10.0,
            num(d, "observed") as u64,
        );
    }
    if let Some(f) = doc.get("flight") {
        let threshold = match f.get("threshold_ns").and_then(|v| v.as_f64()) {
            Some(t) => fmt_ns(t).trim().to_string(),
            None => "unarmed".to_string(),
        };
        let _ = writeln!(
            out,
            "flight  {} request(s)  {} anomaly(ies)  ring {}  threshold {threshold}",
            num(f, "requests") as u64,
            num(f, "anomalies") as u64,
            num(f, "ring") as u64,
        );
    }

    let stages = doc.get("stages")?.as_object()?;
    let mut rows: Vec<(&String, &Value)> = stages.iter().collect();
    rows.sort_by(|a, b| {
        num(b.1, "total_ns").partial_cmp(&num(a.1, "total_ns")).unwrap_or(std::cmp::Ordering::Equal)
    });
    let _ = writeln!(
        out,
        "{:<32} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "stage", "count", "p50", "p95", "p99", "max", "total"
    );
    for (name, st) in rows {
        let _ = writeln!(
            out,
            "{:<32} {:>9} {} {} {} {} {}",
            name,
            num(st, "count") as u64,
            fmt_ns(num(st, "p50_ns")),
            fmt_ns(num(st, "p95_ns")),
            fmt_ns(num(st, "p99_ns")),
            fmt_ns(num(st, "max_ns")),
            fmt_ns(num(st, "total_ns")),
        );
    }
    Some(out)
}
