//! Shared progress/artifact reporting and trace-session management for
//! the harness binaries.
//!
//! Every bin starts `main` with
//!
//! ```ignore
//! let _trace = wise_bench::report::init();
//! ```
//!
//! which parses the common `--trace-out <path>` flag (forcing tracing on
//! when present) and, on drop, flushes the recorded events to a Chrome
//! trace + `perf_summary.json` and prints the human-readable run report.
//! Progress lines go through [`progress`] / [`section`] / [`artifact`]
//! so they share one format (and stdout stays reserved for the figure
//! content the bins exist to print).

use crate::BenchContext;
use std::fmt::{self, Display};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use wise_kernels::timing::Samples;

/// Set once stdout's reader has gone away (`all | grep -q …`).
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `s` to stdout. A closed pipe ends the echo for the rest of
/// the run instead of panicking; the caller's own copy (a [`Report`]'s
/// text, the saved results file) is unaffected. The bins print through
/// it with [`out!`](crate::out) and [`outln!`](crate::outln).
pub fn echo(s: &str) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_all(s.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
        }
    }
}

/// `print!` through [`echo`]: stops echoing once stdout's reader is
/// gone (`bin | head`) instead of panicking.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::report::echo(&format!($($arg)*))
    };
}

/// `println!` through [`echo`] (see [`out!`](crate::out)).
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::report::echo(&format!("{}\n", format_args!($($arg)*)))
    };
}

/// A progress note on stderr: `[wise-bench] {msg}`. Stderr so piping a
/// bin's stdout to a file captures only the figure/table content.
pub fn progress(msg: impl Display) {
    eprintln!("[wise-bench] {msg}");
}

/// A section banner on stdout (used between sub-runs, e.g. by `all`).
pub fn section(title: impl Display) {
    echo(&format!("\n=================== {title} ===================\n"));
}

/// Reports a file artifact written by the run.
pub fn artifact(path: impl Display) {
    echo(&format!("\n[artifact] {path}\n"));
}

/// A figure's text report. Every write goes to stdout as it happens
/// (while stdout is open) and is also kept, so the `all` driver can
/// save the report under the results directory.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything written so far.
    pub text: String,
}

impl Report {
    /// Writes a CSV artifact under `ctx`'s results dir and notes it in
    /// the report (the line [`artifact`] prints).
    pub fn csv(
        &mut self,
        ctx: &BenchContext,
        name: &str,
        header: &str,
        rows: &[String],
    ) -> fmt::Result {
        let path = ctx.save_csv(name, header, rows);
        fmt::Write::write_fmt(self, format_args!("\n[artifact] {}\n", path.display()))
    }
}

impl fmt::Write for Report {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        echo(s);
        self.text.push_str(s);
        Ok(())
    }
}

/// Formats a [`Samples`] measurement for artifact/report lines:
/// median, min..p95 spread, *and the summed total* — the honest
/// wall-clock cost of the whole measurement, which median × iters
/// understates whenever the spread is skewed.
pub fn samples_summary(s: &Samples) -> String {
    format!(
        "median={:.2}us min={:.2}us p95={:.2}us total={:.2}ms over {} iters",
        s.median.as_secs_f64() * 1e6,
        s.min.as_secs_f64() * 1e6,
        s.p95.as_secs_f64() * 1e6,
        s.total.as_secs_f64() * 1e3,
        s.iters
    )
}

/// Scans argv for `--trace-out <path>` / `--trace-out=<path>` without
/// disturbing a bin's own flags.
fn trace_out_from_args() -> Option<PathBuf> {
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            out = args.next().map(PathBuf::from);
        } else if let Some(p) = a.strip_prefix("--trace-out=") {
            out = Some(PathBuf::from(p));
        }
    }
    out
}

/// RAII handle for a bin's trace session; created by [`init`], flushes
/// exporters on drop (i.e. at the end of `main`).
pub struct TraceSession {
    trace_out: Option<PathBuf>,
    /// Periodic `metrics_snapshot.json` exporter, live when
    /// `WISE_SNAPSHOT=<path>` is set; stopping it (on drop) writes one
    /// final snapshot.
    snapshot: Option<wise_trace::telemetry::SnapshotHandle>,
}

/// Starts the trace session for a harness binary. `--trace-out <path>`
/// turns tracing on even without `WISE_TRACE=1`; `WISE_TRACE=1` alone
/// still records and prints the run report, just without the JSON
/// artifacts. `WISE_SNAPSHOT=<path>` additionally starts the periodic
/// telemetry snapshot exporter (every 5 s), which also writes a final
/// snapshot when the session ends.
pub fn init() -> TraceSession {
    TraceSession::with_path(trace_out_from_args())
}

impl TraceSession {
    /// Builds a session with an explicit output path (bins that manage
    /// their own flags, and the panic-flush test). Tracing is forced on
    /// when a path is given, mirroring [`init`].
    pub fn with_path(trace_out: Option<PathBuf>) -> TraceSession {
        if trace_out.is_some() {
            wise_trace::set_enabled(true);
        }
        let snapshot = wise_trace::telemetry::snapshot_from_env();
        if let Some(s) = &snapshot {
            progress(format_args!("telemetry snapshots -> {}", s.path().display()));
        }
        TraceSession { trace_out, snapshot }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // Stop the exporter first so the final snapshot reflects the
        // full run (stopping joins the thread and writes once more).
        if let Some(snapshot) = self.snapshot.take() {
            let path = snapshot.path().to_path_buf();
            snapshot.stop();
            artifact(path.display());
        }
        if !wise_trace::enabled() {
            return;
        }
        let events = wise_trace::take_events();
        if events.is_empty() {
            return;
        }
        if let Some(path) = &self.trace_out {
            match wise_trace::write_trace_files(&events, path) {
                Ok(summary_path) => {
                    artifact(path.display());
                    artifact(summary_path.display());
                }
                Err(e) => progress(format_args!("failed to write trace files: {e}")),
            }
        }
        let summary = wise_trace::Summary::from_events(&events);
        eprint!("{}", wise_trace::run_report(&summary));
        let dropped = wise_trace::dropped_events();
        if dropped > 0 {
            progress(format_args!("trace ring overflowed: {dropped} events dropped"));
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn trace_out_parsing_handles_both_spellings() {
        // Can't inject argv into std::env::args; exercise the strip
        // logic directly instead.
        assert_eq!("--trace-out=/tmp/t.json".strip_prefix("--trace-out="), Some("/tmp/t.json"));
        assert_eq!("--trace-out".strip_prefix("--trace-out="), None);
    }
}
