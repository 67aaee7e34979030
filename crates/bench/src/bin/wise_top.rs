//! `wise-top`: terminal renderer for the streaming telemetry snapshot.
//!
//! Reads the `metrics_snapshot.json` written by the periodic exporter
//! ([`wise_trace::telemetry::start_snapshot_thread`], enabled with
//! `WISE_SNAPSHOT=<path>`) and renders a `top`-style text view: the
//! hottest stages by total time with their streaming-sketch quantiles,
//! and the flight-recorder aggregates.
//!
//! Usage: `wise_top [<snapshot path>] [--watch <secs>]`
//!
//! With `--watch`, re-reads and re-renders every interval until
//! interrupted (the exporter's atomic tmp+rename write guarantees a
//! torn file is never observed).

use std::time::Duration;
use wise_bench::{out, outln};
use wise_trace::export::json::FromJson;
use wise_trace::telemetry::Snapshot;

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
            outln!("usage: wise_top [<metrics_snapshot.json>] [--watch <secs>]");
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
                    out!("\x1b[2J\x1b[H");
                }
                out!("{view}");
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
    let snap = Snapshot::from_json_str(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(render(&snap))
}

/// Pretty ns with a unit, column-stable at 9 chars.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
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

fn render(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(2048);
    let _ = writeln!(out, "wise-top — uptime {:.1}s", snap.ts_ns as f64 / 1e9);
    let f = &snap.flight;
    let threshold = f.threshold_ns.map_or("unarmed".to_string(), |t| fmt_ns(t).trim().to_string());
    let _ = writeln!(
        out,
        "flight  {} request(s)  {} anomaly(ies)  ring {}  threshold {threshold}",
        f.requests, f.anomalies, f.ring_len,
    );

    let mut rows: Vec<_> = snap.stages.iter().collect();
    rows.sort_by_key(|(_, st)| std::cmp::Reverse(st.total_ns));
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
            st.count,
            fmt_ns(st.p50_ns),
            fmt_ns(st.p95_ns),
            fmt_ns(st.p99_ns),
            fmt_ns(st.max_ns),
            fmt_ns(st.total_ns),
        );
    }
    out
}
