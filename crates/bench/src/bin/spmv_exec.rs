//! SpMV executor microbenchmark: persistent worker pool vs. per-call
//! thread spawning.
//!
//! Two measurements, both across schedules and thread counts:
//!
//! 1. **Dispatch overhead** — `parallel_for_chunks` with a near-empty
//!    body isolates what one parallel call costs before any useful
//!    work: pool = condvar handoff, spawn = OS thread creation + join.
//!    This is the per-label tax the WISE ground-truth pipeline pays 29
//!    configurations × `measure_median` iterations × corpus size times.
//! 2. **Small/medium-matrix SpMV** — full `Prepared::spmv` calls on
//!    RMAT matrices where kernels run in the microsecond range, i.e.
//!    where dispatch overhead actually distorts labels.
//!
//! Pool and spawn results are asserted bit-identical before timings are
//! trusted (the exhaustive version lives in the `pool_parity` suite).
//! `WISE_EXEC_QUICK=1` is the CI smoke mode; pass `--trace-out <path>`
//! to capture `pool.dispatch` / `pool.jobs` / `kernel.spmv` for
//! `check_trace`.

use std::time::Duration;
use wise_bench::*;
use wise_gen::RmatParams;
use wise_kernels::sched::{parallel_for_chunks_with, set_executor};
use wise_kernels::srvpack::SpmvWorkspace;
use wise_kernels::timing::measure_median;
use wise_kernels::{Executor, MethodConfig, Schedule};

fn main() {
    let _trace = wise_bench::report::init();
    let ctx = BenchContext::from_env();
    let quick = std::env::var("WISE_EXEC_QUICK").map(|v| v == "1").unwrap_or(false);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let isa = wise_kernels::simd::active();
    println!("== SpMV executor: persistent pool vs per-call spawn ==");
    println!(
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
    println!("-- dispatch overhead, ns/call (empty body, nchunks = 4 x threads, grain 1) --");
    println!("{:>8} {:>8} {:>12} {:>12} {:>9}", "sched", "threads", "spawn", "pool", "ratio");
    for &nthreads in thread_counts {
        for sched in Schedule::ALL {
            let nchunks = nthreads * 4;
            let mut per_exec = [0f64; 2];
            for (slot, exec) in [Executor::Spawn, Executor::Pool].into_iter().enumerate() {
                let s = measure_median(
                    || {
                        parallel_for_chunks_with(exec, nchunks, nthreads, sched, 1, |i| {
                            std::hint::black_box(i);
                        });
                    },
                    iters / 10,
                    iters,
                );
                per_exec[slot] = s.median.as_nanos() as f64;
                measured[0] += s.total;
                if exec == Executor::Pool {
                    report::progress(format_args!(
                        "dispatch {}/t{nthreads} pool: {}",
                        sched.name(),
                        report::samples_summary(&s)
                    ));
                }
            }
            let [spawn_ns, pool_ns] = per_exec;
            println!(
                "{:>8} {:>8} {:>10.0}ns {:>10.0}ns {:>8.1}x",
                sched.name(),
                nthreads,
                spawn_ns,
                pool_ns,
                spawn_ns / pool_ns.max(1.0)
            );
            rows.push(format!(
                "dispatch,{},{nthreads},,{spawn_ns:.0},{pool_ns:.0},{:.3}",
                sched.name(),
                spawn_ns / pool_ns.max(1.0)
            ));
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
    println!("\n-- SpMV medians, us/call (RMAT, nnz/row ~8) --");
    println!(
        "{:>8} {:>26} {:>8} {:>12} {:>12} {:>9}",
        "rows", "config", "threads", "spawn", "pool", "speedup"
    );
    for &(scale, deg) in shapes {
        let m = RmatParams::MED_SKEW.generate(scale, deg, ctx.seed);
        let x: Vec<f64> = (0..m.ncols()).map(|i| (i as f64).sin()).collect();
        for cfg in configs {
            let prep = cfg.prepare(&m);
            let mut pool_us_at = Vec::new();
            for &nthreads in spmv_threads {
                let mut per_exec = [0f64; 2];
                let mut outputs: Vec<Vec<f64>> = Vec::new();
                for (slot, exec) in [Executor::Spawn, Executor::Pool].into_iter().enumerate() {
                    set_executor(exec);
                    let mut y = vec![0.0; m.nrows()];
                    let mut ws = SpmvWorkspace::default();
                    let s = measure_median(
                        || prep.spmv(&x, &mut y, nthreads, &mut ws),
                        spmv_iters / 10,
                        spmv_iters,
                    );
                    per_exec[slot] = s.median.as_secs_f64() * 1e6;
                    measured[1] += s.total;
                    if exec == Executor::Pool {
                        report::progress(format_args!(
                            "spmv {}/t{nthreads} pool: {}",
                            cfg.label(),
                            report::samples_summary(&s)
                        ));
                    }
                    outputs.push(y);
                }
                set_executor(Executor::Pool);
                assert!(
                    outputs[0].iter().zip(&outputs[1]).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "executors disagree on {} ({} rows)",
                    cfg.label(),
                    m.nrows()
                );
                let [spawn_us, pool_us] = per_exec;
                pool_us_at.push((nthreads, pool_us));
                println!(
                    "{:>8} {:>26} {:>8} {:>10.2}us {:>10.2}us {:>8.2}x",
                    m.nrows(),
                    cfg.label(),
                    nthreads,
                    spawn_us,
                    pool_us,
                    spawn_us / pool_us.max(1e-9)
                );
                rows.push(format!(
                    "spmv,{},{nthreads},{},{spawn_us:.3},{pool_us:.3},{:.3}",
                    cfg.label(),
                    m.nrows(),
                    spawn_us / pool_us.max(1e-9)
                ));
            }
            if let [(1, one), (2, two), ..] = pool_us_at[..] {
                println!(
                    "{:>8} {:>26} {:>8} {:>24} {:>8.2}x",
                    m.nrows(),
                    cfg.label(),
                    "2t/1t",
                    "(pool time ratio)",
                    two / one.max(1e-9)
                );
            }
        }
    }
    println!("\n(outputs verified bit-identical per cell; see tests/pool_parity.rs)");
    println!(
        "(total measured wall-clock: dispatch {:.1}ms, spmv {:.1}ms)",
        measured[0].as_secs_f64() * 1e3,
        measured[1].as_secs_f64() * 1e3
    );
    ctx.write_csv("spmv_exec.csv", "kind,config,threads,rows,spawn,pool,speedup", &rows);
}
