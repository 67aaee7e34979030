//! Quickstart: train WISE on a small corpus, then let it pick and run
//! the best SpMV method for a new matrix.
//!
//! Run with: `cargo run --release -p wise-core --example quickstart`
//!
//! Pass `WISE_TRACE=1` to collect a trace of every pipeline stage, and
//! `-- --trace-out trace.json` to additionally write Chrome trace JSON
//! (open in Perfetto / `chrome://tracing`) plus a machine-readable
//! `perf_summary.json` next to it.
//!
//! `WISE_SNAPSHOT=<path>` additionally streams a periodic
//! `metrics_snapshot.json` (render it with `wise_top`), and
//! `-- --flight-demo` warms the per-request flight recorder and injects
//! one pathologically slow request so the anomaly dump
//! (`WISE_FLIGHT_DIR/flight_latest.json`) can be demonstrated — and
//! validated in CI — deterministically.

use wise_core::pipeline::{TrainOptions, Wise};
use wise_gen::{Corpus, CorpusScale, RmatParams};
use wise_trace::telemetry;

fn trace_out_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            return args.next().map(Into::into);
        } else if let Some(p) = a.strip_prefix("--trace-out=") {
            return Some(p.into());
        }
    }
    None
}

fn main() {
    // `--trace-out` implies tracing even without WISE_TRACE=1.
    let trace_out = trace_out_path();
    if trace_out.is_some() {
        wise_trace::set_enabled(true);
    }
    let flight_demo = std::env::args().skip(1).any(|a| a == "--flight-demo");
    // WISE_SNAPSHOT=<path> streams metrics_snapshot.json while we run;
    // dropping the handle at the end of main writes one final snapshot.
    let _snapshot = telemetry::snapshot_from_env();

    // 1. Train. The corpus scale and the label backend (deterministic
    //    machine model by default, wall clock with WISE_MEASURED=1) are
    //    the only knobs. Labeling and training record `label.*` /
    //    `train.*` spans; the wrapping span groups them in the trace.
    let scale = CorpusScale::tiny();
    println!("generating + labeling training corpus...");
    let (wise, corpus_len) = {
        let _train = wise_trace::span("pipeline.train");
        let corpus = Corpus::full(&scale, 42);
        (Wise::train(&corpus, &TrainOptions::for_scale(&scale)), corpus.len())
    };
    println!("trained {} models on {} matrices", wise.registry().catalog().len(), corpus_len);

    // 2. A new matrix WISE has never seen: a skewed power-law graph.
    let m = RmatParams::HIGH_SKEW.generate(10, 16, 2024);
    println!("\nnew matrix: {}x{}, {} nonzeros", m.nrows(), m.ncols(), m.nnz());

    // 3. Select: features -> 29 class predictions -> best config. The
    //    per-stage cost is always measured (choice.timing), traced or not.
    let choice = wise.select(&m);
    println!("WISE selected: {}", choice.config.label());
    println!(
        "predicted class: {} (representative speedup {:.2}x over best CSR)",
        choice.predictions[choice.index],
        choice.predictions[choice.index].representative_speedup()
    );
    println!(
        "selection cost: extract {:.1}us + predict {:.1}us + pick {:.1}us",
        choice.timing.feature_extraction_s * 1e6,
        choice.timing.predict_s * 1e6,
        choice.timing.select_s * 1e6
    );

    // 4. Convert once, iterate many times (the SpMV usage pattern).
    //    `prepare` records kernel.convert; each spmv records kernel.spmv.
    let prepared = wise.prepare(&m, &choice);
    let mut ws = wise_kernels::srvpack::SpmvWorkspace::default();
    let mut x = vec![1.0 / m.ncols() as f64; m.ncols()];
    let mut y = vec![0.0; m.nrows()];
    {
        let _iterate = wise_trace::span("pipeline.iterate");
        for _ in 0..10 {
            prepared.spmv(&x, &mut y, wise_kernels::sched::default_threads(), &mut ws);
            std::mem::swap(&mut x, &mut y);
        }
    }
    let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    println!("\nran 10 SpMV iterations; |x|_2 = {norm:.3e}");

    // Optional: demonstrate the flight recorder's anomaly trigger.
    if flight_demo {
        println!("\nflight demo: warming the latency history...");
        // Real selections arm the anomaly threshold (the trigger needs
        // FLIGHT_MIN_HISTORY observations before it fires).
        for _ in 0..telemetry::FLIGHT_MIN_HISTORY {
            let _ = wise.select(&m);
        }
        let threshold = telemetry::flight_stats()
            .threshold_ns
            .expect("warmed recorder arms the anomaly threshold");
        // Inject one request far beyond the armed threshold: the
        // recorder must flag it and dump the surrounding window.
        let id = telemetry::next_request_id();
        let flagged = telemetry::record_request(telemetry::RequestRecord {
            id,
            start_ns: wise_trace::span::now_ns(),
            latency_ns: threshold.saturating_mul(10),
            method: choice.config.label(),
            stage: "full",
            margin: None,
            predicted_s: None,
            measured_s: None,
        });
        assert!(flagged, "injected slow request must trip the anomaly trigger");
        let stats = telemetry::flight_stats();
        println!(
            "flight demo: request {id} flagged ({} requests, {} anomalies, threshold {}ns)",
            stats.requests, stats.anomalies, threshold
        );
        if let Ok(dir) = std::env::var("WISE_FLIGHT_DIR") {
            if !dir.is_empty() {
                println!("[artifact] {dir}/flight_latest.json");
            }
        }
    }

    // 5. Flush the trace: run report on stderr, JSON artifacts if asked.
    if wise_trace::enabled() {
        let events = wise_trace::take_events();
        if let Some(path) = &trace_out {
            let summary_path =
                wise_trace::write_trace_files(&events, path).expect("write trace files");
            println!("\n[artifact] {}", path.display());
            println!("[artifact] {}", summary_path.display());
        }
        let summary = wise_trace::Summary::from_events(&events);
        eprint!("{}", wise_trace::run_report(&summary));
    }
}
