//! SpMV executor microbenchmark on the persistent worker pool.
//!
//! Two measurements, both across schedules and thread counts:
//!
//! 1. **Dispatch overhead** — `parallel_for_chunks` with a near-empty
//!    body isolates what one parallel call costs before any useful
//!    work: the pool's condvar handoff. This is the per-label tax the
//!    WISE ground-truth pipeline pays 29 configurations ×
//!    `measure_median` iterations × corpus size times.
//! 2. **Small/medium-matrix SpMV** — full `Prepared::spmv` calls on
//!    RMAT matrices where kernels run in the microsecond range, i.e.
//!    where dispatch overhead actually distorts labels. The 2-thread /
//!    1-thread time ratio shows whether the second thread pays for
//!    itself.
//!
//! Every multi-thread output is asserted bit-identical to the 1-thread
//! one before timings are trusted (the exhaustive version lives in the
//! `pool_parity` suite). `WISE_SCALE=tiny` is the CI smoke mode (fewer
//! thread counts and iterations); pass `--trace-out <path>` to capture
//! `pool.dispatch` / `pool.jobs` / `kernel.spmv` for `check_trace`.

use std::time::Duration;
use wise_bench::*;
use wise_gen::RmatParams;
use wise_kernels::sched::parallel_for_chunks;
use wise_kernels::srvpack::SpmvWorkspace;
use wise_kernels::timing::measure_median;
use wise_kernels::{MethodConfig, Schedule};

fn main() {
    let _trace = wise_bench::report::init();
    let ctx = BenchContext::from_env();
    let quick = ctx.scale_name == "tiny";
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let isa = wise_kernels::simd::active();
    outln!("== SpMV executor: persistent worker pool ==");
    outln!(
        "(host cores: {cores}; simd: {} x{}; dispatch times are per \
         parallel_for_chunks call)\n",
        isa.name(),
        isa.lanes()
    );

    let mut rows: Vec<String> = Vec::new();
    // Honest wall-clock accounting: every `Samples.total` measured by
    // this bin, summed per section and reported at the end.
    let mut measured: [Duration; 2] = [Duration::ZERO; 2];

    // ---- 1. Dispatch-path overhead (near-empty body) ----------------
    let thread_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8, 16] };
    let iters = if quick { 300 } else { 3000 };
    outln!("-- dispatch overhead, ns/call (empty body, nchunks = 4 x threads, grain 1) --");
    outln!("{:>8} {:>8} {:>12}", "sched", "threads", "pool");
    for &nthreads in thread_counts {
        for sched in Schedule::ALL {
            let nchunks = nthreads * 4;
            let s = measure_median(
                || {
                    parallel_for_chunks(nchunks, nthreads, sched, 1, |i| {
                        std::hint::black_box(i);
                    });
                },
                iters / 10,
                iters,
            );
            let pool_ns = s.median.as_nanos() as f64;
            measured[0] += s.total;
            report::progress(format_args!(
                "dispatch {}/t{nthreads} pool: {}",
                sched.name(),
                report::samples_summary(&s)
            ));
            outln!("{:>8} {:>8} {:>10.0}ns", sched.name(), nthreads, pool_ns);
            rows.push(format!("dispatch,{},{nthreads},,{pool_ns:.0}", sched.name()));
        }
    }

    // ---- 2. Small/medium-matrix SpMV --------------------------------
    // 1 thread is always timed: the 2-thread/1-thread ratio printed per
    // config shows whether the second thread pays for itself. Quick mode
    // keeps a 4096-row shape because at 256 rows every kernel's work
    // fits one 256-row grab and runs inline.
    let shapes: &[(u32, u32)] =
        if quick { &[(8, 8), (12, 8)] } else { &[(8, 8), (10, 8), (12, 8)] };
    let spmv_threads: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let configs = [
        MethodConfig::csr(Schedule::Dyn),
        MethodConfig::csr(Schedule::St),
        MethodConfig::csr(Schedule::StCont),
        MethodConfig::sellpack(8, Schedule::Dyn),
        MethodConfig::lav(8, 0.8),
    ];
    let spmv_iters = if quick { 30 } else { 200 };
    outln!("\n-- SpMV medians, us/call (RMAT, nnz/row ~8) --");
    outln!("{:>8} {:>26} {:>8} {:>12}", "rows", "config", "threads", "pool");
    for &(scale, deg) in shapes {
        let m = RmatParams::MED_SKEW.generate(scale, deg, ctx.seed);
        let x: Vec<f64> = (0..m.ncols()).map(|i| (i as f64).sin()).collect();
        for cfg in configs {
            let prep = cfg.prepare(&m);
            let mut pool_us_at = Vec::new();
            let mut first: Option<Vec<f64>> = None;
            for &nthreads in spmv_threads {
                let mut y = vec![0.0; m.nrows()];
                let mut ws = SpmvWorkspace::default();
                let s = measure_median(
                    || prep.spmv(&x, &mut y, nthreads, &mut ws),
                    spmv_iters / 10,
                    spmv_iters,
                );
                let pool_us = s.median.as_secs_f64() * 1e6;
                measured[1] += s.total;
                report::progress(format_args!(
                    "spmv {}/t{nthreads} pool: {}",
                    cfg.label(),
                    report::samples_summary(&s)
                ));
                let want = first.get_or_insert_with(|| y.clone());
                assert!(
                    want.iter().zip(&y).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{} threads disagree with {} on {} ({} rows)",
                    nthreads,
                    spmv_threads[0],
                    cfg.label(),
                    m.nrows()
                );
                pool_us_at.push((nthreads, pool_us));
                outln!("{:>8} {:>26} {:>8} {:>10.2}us", m.nrows(), cfg.label(), nthreads, pool_us);
                rows.push(format!("spmv,{},{nthreads},{},{pool_us:.3}", cfg.label(), m.nrows()));
            }
            if let [(1, one), (2, two), ..] = pool_us_at[..] {
                outln!(
                    "{:>8} {:>26} {:>8} {:>8.2}x (pool time ratio)",
                    m.nrows(),
                    cfg.label(),
                    "2t/1t",
                    two / one.max(1e-9)
                );
            }
        }
    }
    outln!("\n(outputs verified bit-identical across thread counts; see tests/pool_parity.rs)");
    outln!(
        "(total measured wall-clock: dispatch {:.1}ms, spmv {:.1}ms)",
        measured[0].as_secs_f64() * 1e3,
        measured[1].as_secs_f64() * 1e3
    );
    ctx.write_csv("spmv_exec.csv", "kind,config,threads,rows,pool", &rows);
}
