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
//! 3. **2-thread scaling at `solve` sizes** — one config per packed
//!    family on 2^12–2^14-row RMAT matrices at 4–16 nnz/row (the sizes
//!    of perfbench's `solve` workload): 1- and 2-thread medians, their
//!    ratio, and fixed CSR-StCont at 2 threads beside them. Printed
//!    only: on a shared 2-vCPU host the ratios move by tens of percent
//!    between runs, too much to gate on.
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
use wise_kernels::{MethodConfig, Prepared, Schedule};

/// Median µs of `prep.spmv` at `nthreads` over `iters` calls (after
/// `iters / 10` warm-up calls), and the output of the last call. Adds
/// the timed wall-clock to `measured`.
fn time_spmv(
    prep: &Prepared,
    label: &str,
    x: &[f64],
    nrows: usize,
    nthreads: usize,
    iters: usize,
    measured: &mut Duration,
) -> (f64, Vec<f64>) {
    let mut y = vec![0.0; nrows];
    let mut ws = SpmvWorkspace::default();
    let s = measure_median(|| prep.spmv(x, &mut y, nthreads, &mut ws), iters / 10, iters);
    *measured += s.total;
    report::progress(format_args!(
        "spmv {label}/t{nthreads} pool: {}",
        report::samples_summary(&s)
    ));
    (s.median.as_secs_f64() * 1e6, y)
}

/// Asserts that two SpMV outputs agree bit for bit.
fn assert_bit_identical(a: &[f64], b: &[f64], what: impl std::fmt::Display) {
    assert!(a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits()), "{what}");
}

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
                let (pool_us, y) = time_spmv(
                    &prep,
                    &cfg.label(),
                    &x,
                    m.nrows(),
                    nthreads,
                    spmv_iters,
                    &mut measured[1],
                );
                let want = first.get_or_insert_with(|| y.clone());
                assert_bit_identical(
                    want,
                    &y,
                    format_args!(
                        "{} threads disagree with {} on {} ({} rows)",
                        nthreads,
                        spmv_threads[0],
                        cfg.label(),
                        m.nrows()
                    ),
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

    // ---- 3. 2-thread scaling at solve sizes ---------------------------
    let scaling_shapes: &[(u32, u32)] =
        if quick { &[(12, 4), (13, 8)] } else { &[(12, 4), (13, 8), (14, 16)] };
    let packed = [
        MethodConfig::sellpack(8, Schedule::StCont),
        MethodConfig::sell_c_sigma(8, 512, Schedule::StCont),
        MethodConfig::sell_c_r(8),
        MethodConfig::lav_1seg(8),
        MethodConfig::lav(8, 0.7),
    ];
    let csr = MethodConfig::csr(Schedule::StCont);
    outln!("\n-- 2-thread scaling at solve sizes, median us/call (RMAT, MED_SKEW) --");
    outln!(
        "{:>6} {:>7} {:>24} {:>9} {:>9} {:>6} {:>14} {:>7}",
        "rows",
        "nnz/row",
        "config",
        "1t",
        "2t",
        "2t/1t",
        "CSR-StCont 2t",
        "2t/CSR"
    );
    for &(scale, deg) in scaling_shapes {
        let m = RmatParams::MED_SKEW.generate(scale, deg, ctx.seed);
        let x: Vec<f64> = (0..m.ncols()).map(|i| (i as f64).sin()).collect();
        let n = m.nrows();
        let (csr_us, _) =
            time_spmv(&csr.prepare(&m), &csr.label(), &x, n, 2, spmv_iters, &mut measured[1]);
        rows.push(format!("scaling,{},2,{n},{csr_us:.3}", csr.label()));
        for cfg in packed {
            let (prep, label) = (cfg.prepare(&m), cfg.label());
            let (one, y1) = time_spmv(&prep, &label, &x, n, 1, spmv_iters, &mut measured[1]);
            let (two, y2) = time_spmv(&prep, &label, &x, n, 2, spmv_iters, &mut measured[1]);
            assert_bit_identical(
                &y1,
                &y2,
                format_args!("2 threads disagree with 1 on {label} ({n} rows)"),
            );
            outln!(
                "{n:>6} {deg:>7} {label:>24} {one:>7.2}us {two:>7.2}us {:>5.2}x {csr_us:>12.2}us {:>6.2}x",
                two / one.max(1e-9),
                two / csr_us.max(1e-9)
            );
            rows.push(format!("scaling,{label},1,{n},{one:.3}"));
            rows.push(format!("scaling,{label},2,{n},{two:.3}"));
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
