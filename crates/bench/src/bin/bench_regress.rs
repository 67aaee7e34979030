//! Benchmark ledger + regression gate: the repo's performance memory.
//!
//! Runs a *pinned* quick suite — every stage the ledger tracks, on
//! fixed seeds and a fixed tiny corpus — then:
//!
//! 1. aggregates the trace into a versioned [`BenchRecord`] (host
//!    fingerprint, corpus digest, per-stage wall times, kernel
//!    throughput, model quality: accuracy / P-ratio / per-matrix
//!    regret) and appends it to the `BENCH_<seq>.json` ledger;
//! 2. gates the new record against every comparable prior record
//!    (same schema, corpus digest, and host fingerprint) with a
//!    noise-aware threshold derived from each side's min/p50 spread,
//!    exiting non-zero with a readable diff on regression.
//!
//! Flags: `--quick` (CI sizing), `--ledger-dir <dir>` (default `.`),
//! `--trace-out <path>` (also write Chrome trace + perf summary),
//! `--note <text>` (free-form tag stored in the record),
//! `--simd-floor <x>` (minimum scalar/vector speedup of the SIMD
//! throughput stage; default 1.0 — the vector kernel must not lose.
//! Hosts whose probe resolves to the scalar ISA gate on parity only).
//! The p50 cascade-vs-full selection speedup on the stage-6 latency
//! probe must reach `CASCADE_SPEEDUP_FLOOR` (1.0) — the fast path must not
//! lose — unless the calibrated gate never accepts a probe matrix
//! (skipped with a notice).
//! Stage 7 records the cost of one traced span (ring event plus
//! streaming sketch) as `bench.trace.span_ns`, for trend tracking.
//!
//! Every figure is wall time: the suite reads no hardware counters.
//!
//! The suite must stay byte-for-byte pinned: records are only
//! comparable across runs because the work is identical. Change the
//! suite and the corpus digest changes with it, which quarantines old
//! records instead of diffing against them.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::Command;
use wise_bench::{outln, report};
use wise_core::classes::N_CLASSES;
use wise_core::evaluate::{evaluate_cv, CvEvaluation};
use wise_core::explain_choice;
use wise_core::labels::label_corpus;
use wise_core::pipeline::{TrainOptions, Wise};
use wise_features::{FeatureConfig, FeatureVector};
use wise_gen::{Corpus, CorpusScale, RggParams, RmatParams};
use wise_kernels::srvpack::SpmvWorkspace;
use wise_kernels::{MethodConfig, Schedule};
use wise_matrix::Csr;
use wise_ml::TreeParams;
use wise_perf::Estimator;
use wise_trace::ledger::{self, Fnv1a, MatrixRegret};
use wise_trace::{BenchRecord, GatePolicy, HostFingerprint, ModelMetrics, Summary};

/// The suite seed is part of the contract, not a knob: changing it
/// would silently start a new baseline.
const SEED: u64 = 42;

/// Minimum p50 cascade-vs-full selection speedup on the stage-6 probe.
const CASCADE_SPEEDUP_FLOOR: f64 = 1.0;

struct Args {
    quick: bool,
    ledger_dir: PathBuf,
    trace_out: Option<PathBuf>,
    note: String,
    simd_floor: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        ledger_dir: PathBuf::from("."),
        trace_out: None,
        note: String::new(),
        simd_floor: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--ledger-dir" => {
                args.ledger_dir = PathBuf::from(it.next().expect("--ledger-dir needs a path"));
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(it.next().expect("--trace-out needs a path")));
            }
            "--note" => args.note = it.next().expect("--note needs text"),
            "--simd-floor" => {
                let raw = it.next().expect("--simd-floor needs a number");
                args.simd_floor = raw.parse().expect("--simd-floor: not a number");
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: bench_regress [--quick] [--ledger-dir <dir>] \
                     [--trace-out <path>] [--note <text>] [--simd-floor <x>]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Fixed probe matrices for the feature-extraction and kernel stages.
/// Shapes chosen so every catalog method gets non-trivial work while a
/// full run stays in the seconds range.
fn probe_matrices() -> Vec<(String, Csr)> {
    vec![
        ("rmat_hs_s10_d8".into(), RmatParams::HIGH_SKEW.generate(10, 8, SEED)),
        ("rmat_ll_s9_d4".into(), RmatParams::LOW_LOC.generate(9, 4, SEED)),
        ("rgg_n512_d8".into(), RggParams { n: 512, avg_degree: 8.0 }.generate(SEED)),
        // The SIMD throughput probe: >= 2^16 nonzeros so the vector-vs-
        // scalar ratio is not dominated by dispatch overhead.
        ("rmat_ms_s13_d16_simd".into(), RmatParams::MED_SKEW.generate(13, 16, SEED)),
    ]
}

/// FNV-1a digest over everything that defines the suite's inputs: the
/// probe matrices and the training corpus (names, shapes, and full
/// sparsity patterns — tiny corpus, so hashing every column index is
/// cheap). Two records diff only when this matches.
fn corpus_digest(probes: &[(String, Csr)], corpus: &Corpus) -> String {
    let mut h = Fnv1a::new();
    h.update_u64(SEED);
    let mut fold = |name: &str, m: &Csr| {
        h.update(name.as_bytes());
        h.update_u64(m.nrows() as u64);
        h.update_u64(m.ncols() as u64);
        h.update_u64(m.nnz() as u64);
        for &c in m.col_idx() {
            h.update_u64(c as u64);
        }
    };
    for (name, m) in probes {
        fold(name, m);
    }
    for lm in &corpus.matrices {
        fold(&lm.name, &lm.matrix);
    }
    h.digest()
}

fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("-V").output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Folds a [`CvEvaluation`] into the ledger's model-quality block.
fn model_metrics(eval: &CvEvaluation) -> ModelMetrics {
    let mut merged = wise_ml::ConfusionMatrix::new(N_CLASSES);
    let mut acc_sum = 0.0;
    for cm in &eval.confusions {
        merged.merge(cm);
        acc_sum += cm.accuracy();
    }
    let accuracy =
        if eval.confusions.is_empty() { 0.0 } else { acc_sum / eval.confusions.len() as f64 };
    let mut confusion = Vec::with_capacity(N_CLASSES * N_CLASSES);
    for t in 0..N_CLASSES {
        for p in 0..N_CLASSES {
            confusion.push(merged.get(t, p));
        }
    }
    // Regret: how much slower WISE's pick is than the per-matrix
    // oracle (1.0 = perfect). P-ratio is its reciprocal mean, the
    // paper's "fraction of oracle performance achieved".
    let mut per_matrix_regret = Vec::with_capacity(eval.outcomes.len());
    let mut p_sum = 0.0;
    for o in &eval.outcomes {
        let regret = o.wise_seconds / o.oracle_seconds.max(1e-300);
        per_matrix_regret.push(MatrixRegret { name: o.name.clone(), regret });
        p_sum += o.oracle_seconds / o.wise_seconds.max(1e-300);
    }
    let n = eval.outcomes.len().max(1) as f64;
    let mean_regret = per_matrix_regret.iter().map(|m| m.regret).sum::<f64>() / n;
    let max_regret = per_matrix_regret.iter().map(|m| m.regret).fold(0.0, f64::max);
    ModelMetrics {
        accuracy,
        p_ratio: p_sum / n,
        mean_regret,
        max_regret,
        n_classes: N_CLASSES as u64,
        confusion,
        per_matrix_regret,
    }
}

fn main() {
    let args = parse_args();
    wise_trace::set_enabled(true);
    let spmv_iters = if args.quick { 10 } else { 40 };
    let nthreads = 2;
    let mode = if args.quick { "quick" } else { "full" };

    outln!("== bench_regress: pinned suite (seed {SEED}, {mode} mode) ==");

    // ---- 1. Feature extraction on the fixed probes ------------------
    report::progress("stage 1/7: feature extraction probes");
    let probes = probe_matrices();
    let feature_config = FeatureConfig::default();
    for (name, m) in &probes {
        let fv = FeatureVector::extract(m, &feature_config);
        black_box(&fv);
        report::progress(format_args!("extracted {name} ({} rows, {} nnz)", m.nrows(), m.nnz()));
    }

    // ---- 2. Registry fit on the pinned tiny corpus ------------------
    report::progress("stage 2/7: label corpus + registry fit");
    let scale = CorpusScale::tiny();
    let corpus = Corpus::full(&scale, SEED);
    let digest = corpus_digest(&probes, &corpus);
    let max_rows = 1usize << scale.row_scales.iter().copied().max().unwrap_or(10);
    let opts = TrainOptions {
        // Deterministic model backend on purpose: measured labels would
        // fold machine noise into the *model-quality* numbers, which
        // are supposed to move only when the code does.
        estimator: Estimator::model_for_rows(max_rows),
        feature_config,
        tree_params: TreeParams::default(),
    };
    let labels = label_corpus(&corpus, &opts.estimator, &opts.feature_config);
    let wise = Wise::from_labels(&labels, &opts);

    // ---- 3. SpMV catalog through the worker pool --------------------
    report::progress("stage 3/7: SpMV catalog sweep");
    let (_, spmv_matrix) = &probes[0];
    let x: Vec<f64> = (0..spmv_matrix.ncols()).map(|i| (i as f64).sin()).collect();
    let mut y = vec![0.0; spmv_matrix.nrows()];
    let mut ws = SpmvWorkspace::default();
    for cfg in MethodConfig::catalog() {
        let prep = cfg.prepare(spmv_matrix);
        for _ in 0..spmv_iters {
            prep.spmv(&x, &mut y, nthreads, &mut ws);
        }
        black_box(&y);
    }

    // ---- 4. SIMD vs scalar throughput on the pinned SELL probe ------
    // Two rungs: forced scalar (v = 1) and the auto kernel (v = 0) —
    // the kernel selection actually executes, with the auto prefetch
    // and chunk-pair policies engaged wherever they apply.
    report::progress("stage 4/7: SIMD throughput probe (scalar / vector)");
    let isa = wise_kernels::simd::active();
    let (_, simd_matrix) = &probes[3];
    let simd_cfg = MethodConfig::sell_c_sigma(8, 512, Schedule::StCont);
    let xs: Vec<f64> = (0..simd_matrix.ncols()).map(|i| (i as f64).cos()).collect();
    let mut ys = vec![0.0; simd_matrix.nrows()];
    let scalar_prep = simd_cfg.with_simd(1).prepare(simd_matrix);
    let vector_prep = simd_cfg.prepare(simd_matrix);
    let probe_nnz = vector_prep.nnz_padded() as u64;
    // Each rung warms and times its own pack back to back: alternating
    // the two packs per call would make every call start on the other
    // pack's cache footprint.
    for (prep, span, nnz) in [
        (&scalar_prep, "bench.simd.scalar", "bench.simd.scalar.nnz"),
        (&vector_prep, "bench.simd.vector", "bench.simd.vector.nnz"),
    ] {
        for _ in 0..3 {
            prep.spmv(&xs, &mut ys, 1, &mut ws);
        }
        for _ in 0..spmv_iters {
            {
                let _s = wise_trace::span(span);
                prep.spmv(&xs, &mut ys, 1, &mut ws);
            }
            wise_trace::counter(nnz, probe_nnz);
        }
    }
    black_box(&ys);
    report::progress(format_args!(
        "simd probe: {} ({} lanes), {} padded nnz, {spmv_iters} iters",
        isa.name(),
        isa.lanes(),
        probe_nnz
    ));

    // ---- 5. End-to-end selection + model quality --------------------
    report::progress("stage 5/7: end-to-end select + CV evaluation");
    let choice = wise.select(spmv_matrix);
    wise.run_spmv(spmv_matrix, &choice, &x, &mut y, nthreads);
    outln!("\n{}", explain_choice(wise.registry().catalog(), &choice));
    let folds = 5.min(labels.len());
    let eval = evaluate_cv(&labels, opts.tree_params, folds, SEED);
    let metrics = model_metrics(&eval);
    outln!(
        "model: accuracy {:.3}, P-ratio {:.3}, regret mean {:.3} / max {:.3} over {} matrices",
        metrics.accuracy,
        metrics.p_ratio,
        metrics.mean_regret,
        metrics.max_regret,
        metrics.per_matrix_regret.len()
    );

    // ---- 6. Selection-latency probe: cascade vs full ----------------
    // The same trained instance selects every probe matrix twice — once
    // through the calibrated cascade, once with the gate stripped (the
    // exact pre-cascade pipeline) — under `bench.cascade.fast` /
    // `bench.cascade.full` latency samples. Stage-1 answers then run a
    // measured SpMV to feed the drift monitor's regret.
    report::progress("stage 6/7: selection-latency probe (cascade vs full)");
    let full_wise = wise.clone().with_cascade_gate(None);
    let sel_iters = if args.quick { 3 } else { 10 };
    let mut cascade_selects = 0u64;
    let mut stage1_answers = 0u64;
    for (name, m) in &probes {
        let mut fast_choice = None;
        for _ in 0..sel_iters {
            let t0 = std::time::Instant::now();
            let c = wise.select(m);
            wise_trace::observe_ns("bench.cascade.fast", t0.elapsed().as_nanos() as u64);
            cascade_selects += 1;
            let stage = c.cascade.as_ref().map(|i| i.stage);
            if stage == Some(wise_core::CascadeStage::Stage1) {
                stage1_answers += 1;
                fast_choice = Some(c);
            }
            let t1 = std::time::Instant::now();
            let full = full_wise.select(m);
            wise_trace::observe_ns("bench.cascade.full", t1.elapsed().as_nanos() as u64);
            black_box(&full);
        }
        // Close the loop: measure the fast-path pick and record its
        // regret against the stage-1 roofline prediction.
        if let Some(c) = fast_choice {
            let prep = wise.prepare(m, &c);
            let xc: Vec<f64> = (0..m.ncols()).map(|i| (i as f64).sin()).collect();
            let mut yc = vec![0.0; m.nrows()];
            prep.spmv(&xc, &mut yc, 1, &mut ws); // warm caches + dispatch
            let t = std::time::Instant::now();
            for _ in 0..spmv_iters {
                prep.spmv(&xc, &mut yc, 1, &mut ws);
            }
            let per_iter = t.elapsed().as_secs_f64() / spmv_iters as f64;
            wise_core::observe_execution(&c, per_iter);
            black_box(&yc);
            report::progress(format_args!("cascade stage-1 answered {name}"));
        }
    }
    let fallthrough_rate = 1.0 - stage1_answers as f64 / cascade_selects.max(1) as f64;
    report::progress(format_args!(
        "cascade: {stage1_answers}/{cascade_selects} stage-1 answers \
         (fallthrough rate {fallthrough_rate:.2})"
    ));
    let drift = wise_trace::telemetry::drift_gauge();
    if drift.observed > 0 {
        outln!(
            "drift monitor: {} (regret EWMA {:.3}x measured/predicted, {} observed executions)",
            drift.status.label(),
            drift.regret_permille as f64 / 1000.0,
            drift.observed
        );
    }

    // ---- 7. Span-cost probe -----------------------------------------
    // Times a hot span loop: each traced span appends two ring events
    // and feeds its thread's streaming sketch. The per-span cost lands
    // in the ledger as a trend. The suite's events are drained *first*
    // so the probe's ring traffic (discarded below) cannot overflow the
    // ring and drop stage 1-6 samples out of the summary.
    report::progress("stage 7/7: span-cost probe (ring + streaming sketch)");
    let events = wise_trace::take_events();
    let span_iters: u32 = if args.quick { 20_000 } else { 50_000 };
    let time_spans = |iters: u32| -> f64 {
        let t0 = std::time::Instant::now();
        for i in 0..iters {
            let _s = wise_trace::span("bench.trace.probe");
            black_box(i);
        }
        t0.elapsed().as_nanos() as f64 / f64::from(iters.max(1))
    };
    time_spans(span_iters / 10); // warm the span path + the sketch
    let span_ns = time_spans(span_iters);
    drop(wise_trace::take_events()); // discard the probe's ring traffic
    report::progress(format_args!("span cost: {span_ns:.0}ns per traced span"));

    // ---- Flush the trace and build the record -----------------------
    if let Some(path) = &args.trace_out {
        match wise_trace::write_trace_files(&events, path) {
            Ok(summary_path) => {
                report::artifact(path.display());
                report::artifact(summary_path.display());
            }
            Err(e) => report::progress(format_args!("failed to write trace files: {e}")),
        }
    }
    let summary = Summary::from_events(&events);
    let host = HostFingerprint { rustc: rustc_version(), ..HostFingerprint::detect() };

    let dir = &args.ledger_dir;
    let mut warnings = Vec::new();
    let prior = match ledger::load_all(dir, &mut warnings) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("cannot read ledger dir {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    for w in &warnings {
        report::progress(format_args!("ledger warning: {w}"));
    }
    let seq = ledger::next_seq(dir).expect("scan ledger dir");
    let note = if args.note.is_empty() { format!("{mode} suite") } else { args.note };
    let mut record = BenchRecord::from_summary(seq, &note, &digest, host, &summary);
    record.model = Some(metrics);

    // SIMD speedup: min-of-k scalar time over min-of-k vector time on
    // the stage-4 probe, recorded alongside the derived nnz/s rates.
    let speedup = match (
        summary.stages.get("bench.simd.scalar").map(|s| s.min_ns),
        summary.stages.get("bench.simd.vector").map(|s| s.min_ns),
    ) {
        (Some(s), Some(v)) if v > 0 => Some(s as f64 / v as f64),
        _ => None,
    };
    if let Some(sp) = speedup {
        record.throughput.insert("bench.simd.speedup".to_string(), sp);
        outln!(
            "simd: {} ({} lanes), vector speedup {sp:.2}x over forced scalar (floor {:.2}x)",
            isa.name(),
            isa.lanes(),
            args.simd_floor
        );
    }
    // Cascade selection latency: p50-over-p50 fast-vs-full speedup and
    // the fallthrough rate, recorded for trend tracking (older records
    // simply lack the fields).
    let cascade_speedup = match (
        summary.stages.get("bench.cascade.full").map(|s| s.p50_ns),
        summary.stages.get("bench.cascade.fast").map(|s| s.p50_ns),
    ) {
        (Some(full), Some(fast)) if fast > 0 => Some(full as f64 / fast as f64),
        _ => None,
    };
    record.throughput.insert("select.cascade.fallthrough_rate".to_string(), fallthrough_rate);
    record.throughput.insert("bench.trace.span_ns".to_string(), span_ns);
    if let Some(sp) = cascade_speedup {
        record.throughput.insert("bench.cascade.speedup".to_string(), sp);
        outln!(
            "cascade: selection p50 speedup {sp:.2}x over the full pipeline, \
             fallthrough rate {fallthrough_rate:.2} (floor {CASCADE_SPEEDUP_FLOOR:.2}x)"
        );
    }

    match ledger::write_record(dir, &record) {
        Ok(path) => report::artifact(path.display()),
        Err(e) => {
            eprintln!("cannot write ledger record: {e}");
            std::process::exit(2);
        }
    }

    // ---- Gate against comparable priors -----------------------------
    // The SIMD throughput stages only gate on hosts where a vector ISA
    // is active: a scalar-fallback host runs identical code in both
    // spans, so tracking them there would only gate noise.
    let mut policy = GatePolicy::default();
    if isa.lanes() > 1 {
        policy.tracked.push("bench.simd.scalar".to_string());
        policy.tracked.push("bench.simd.vector".to_string());
    }
    let gate_report = ledger::gate(&prior, &record, &policy);
    outln!("\n{}", gate_report.render());
    if !gate_report.passed() {
        eprintln!(
            "bench_regress: REGRESSION — {} tracked stage(s) failed the gate",
            gate_report.failures()
        );
        std::process::exit(1);
    }
    if isa.lanes() > 1 {
        let sp = speedup.unwrap_or(0.0);
        if sp < args.simd_floor {
            eprintln!(
                "bench_regress: SIMD floor violated — vector kernel {sp:.2}x vs scalar \
                 (floor {:.2}x)",
                args.simd_floor
            );
            std::process::exit(1);
        }
    } else {
        outln!("simd: scalar-fallback host; gated on parity only");
    }

    // ---- Cascade selection-latency floor ----------------------------
    // Only meaningful when the calibrated gate actually accepted at
    // least one probe selection: an always-fallthrough cascade pays the
    // probe on top of full extraction by design, and gating that would
    // only punish conservative calibrations.
    if stage1_answers > 0 {
        let sp = cascade_speedup.unwrap_or(0.0);
        if sp < CASCADE_SPEEDUP_FLOOR {
            eprintln!(
                "bench_regress: cascade floor violated — fast-path selection {sp:.2}x vs \
                 full (floor {CASCADE_SPEEDUP_FLOOR:.2}x)"
            );
            std::process::exit(1);
        }
    } else {
        outln!("cascade: gate accepted no probe selections; floor gate skipped");
    }

    outln!("bench_regress: gate passed (BENCH_{seq}.json recorded)");
}
