//! Worker-pool parity suite.
//!
//! The persistent pool must be *observationally identical* to running
//! every chunk inline: chunk→thread assignments for the static
//! schedules match `static_assignment` (the introspection helper
//! `wise-perf` models with), Dyn covers every chunk exactly once, and
//! every catalog config's SpMV output is bit-identical at every thread
//! count to the 1-thread inline result, across ragged thread/chunk
//! shapes. Every packed SpMV writes every row of `y`, whatever `y`
//! held before, and the three CSR schedules agree bit-for-bit at 1 and
//! 2 threads. Plus lifecycle: a panic inside a job body must not wedge
//! the pool, and a call nested inside a pool worker runs inline on that
//! worker.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use wise_gen::{suite, Recipe, RmatParams, SplitMix64};
use wise_kernels::pool::{self, WorkerPool};
use wise_kernels::sched::{parallel_for_chunks, static_assignment, Schedule};
use wise_kernels::srvpack::SpmvWorkspace;
use wise_kernels::{MethodConfig, Prepared, SrvPack};
use wise_matrix::Csr;

/// The thread counts the issue pins (1 = inline fallback, 16 >
/// container cores, 3/7 ragged against chunk counts).
const NTHREADS: [usize; 5] = [1, 2, 3, 7, 16];
/// Ragged chunk counts: fewer than threads, prime-ish, non-multiples.
const NCHUNKS: [usize; 6] = [1, 3, 5, 17, 63, 130];
const GRAINS: [usize; 3] = [1, 2, 8];

/// Runs a recording body on the pool and returns (owner per chunk,
/// effective thread count). Chunks run inline on the caller map to
/// thread 0, matching `static_assignment` with one thread.
fn record_assignment(
    nchunks: usize,
    nthreads: usize,
    sched: Schedule,
    grain: usize,
) -> (Vec<usize>, usize) {
    let owners = Mutex::new(vec![usize::MAX; nchunks]);
    let hits: Vec<AtomicUsize> = (0..nchunks).map(|_| AtomicUsize::new(0)).collect();
    parallel_for_chunks(nchunks, nthreads, sched, grain, |i| {
        let t = pool::current_worker_index().unwrap_or(0);
        owners.lock().unwrap()[i] = t;
        hits[i].fetch_add(1, Ordering::SeqCst);
    });
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::SeqCst), 1, "chunk {i} ran {} times", h.load(Ordering::SeqCst));
    }
    // Mirror the dispatcher's own clamping: inline when single-threaded
    // or the whole job fits one grain, else cap threads at nchunks.
    let effective =
        if nthreads <= 1 || nchunks <= grain.max(1) { 1 } else { nthreads.min(nchunks) };
    (owners.into_inner().unwrap(), effective)
}

#[test]
fn static_assignments_match_the_model() {
    for sched in [Schedule::St, Schedule::StCont] {
        for &nthreads in &NTHREADS {
            for &nchunks in &NCHUNKS {
                for &grain in &GRAINS {
                    let tag = format!("{sched:?} t={nthreads} n={nchunks} g={grain}");
                    let (pool_owners, eff) = record_assignment(nchunks, nthreads, sched, grain);
                    // (a) the pool places every chunk on the logical
                    // thread the model's assignment function names
                    // (with the dispatcher's thread clamping applied).
                    let want = static_assignment(nchunks, eff, sched, grain);
                    for (t, chunks) in want.iter().enumerate() {
                        for &c in chunks {
                            assert_eq!(pool_owners[c], t, "{tag} chunk {c}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn dyn_covers_every_chunk_exactly_once() {
    for &nthreads in &NTHREADS {
        for &nchunks in &NCHUNKS {
            for &grain in &GRAINS {
                // Coverage is asserted inside record_assignment; Dyn's
                // owner is timing-dependent by design.
                record_assignment(nchunks, nthreads, Schedule::Dyn, grain);
            }
        }
    }
}

fn random_x(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

/// (b) CSR and SRVPack results must be bit-identical at every thread
/// count: each chunk computes its outputs with the same instruction
/// sequence regardless of which thread runs it, and rows are written by
/// exactly one chunk (per segment, with segments sequential), so the
/// pool cannot change a single bit of the 1-thread inline result.
#[test]
fn spmv_results_bit_identical_across_thread_counts() {
    let matrices: Vec<(String, Csr)> = vec![
        ("rmat9".into(), RmatParams::HIGH_SKEW.generate(9, 8, 42)),
        ("stencil".into(), suite::stencil_2d(23, 23)),
        ("banded".into(), suite::banded(517, 9, 0.5, 3)),
    ];
    for (name, m) in &matrices {
        let x = random_x(m.ncols(), 7);
        for cfg in MethodConfig::catalog() {
            let prep = cfg.prepare(m);
            let mut y_inline = vec![f64::NAN; m.nrows()];
            prep.spmv(&x, &mut y_inline, 1, &mut SpmvWorkspace::default());
            for nthreads in [2, 3, 7, 16] {
                let mut y_pool = vec![f64::NAN; m.nrows()];
                prep.spmv(&x, &mut y_pool, nthreads, &mut SpmvWorkspace::default());
                for (r, (a, b)) in y_inline.iter().zip(&y_pool).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{name} {} t={nthreads} row {r}: inline={a} pool={b}",
                        cfg.label()
                    );
                }
            }
        }
    }
}

/// A random `nrows × ncols` matrix in which row `r` is empty when
/// `empty(r)`, else holds 1–12 distinct columns.
fn sparse_rows(nrows: usize, ncols: usize, seed: u64, empty: impl Fn(usize) -> bool) -> Csr {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let (mut row_ptr, mut col_idx, mut vals) = (vec![0usize], Vec::new(), Vec::new());
    for r in 0..nrows {
        if !empty(r) {
            let mut cols: Vec<u32> =
                (0..1 + rng.below(12)).map(|_| rng.below(ncols) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            vals.extend(cols.iter().map(|_| rng.range_f64(-1.0, 1.0)));
            col_idx.extend(cols);
        }
        row_ptr.push(col_idx.len());
    }
    Csr::try_new(nrows, ncols, row_ptr, col_idx, vals).unwrap()
}

/// The packed SpMV the kernel replaces, replayed from the pack's public
/// layout: zero y, then add every chunk's scalar lane sums (each lane
/// summed over the chunk's column steps in order, as the scalar chunk
/// loop does) into its rows, segment by segment.
fn zero_then_add_replay(pack: &SrvPack, x: &[f64]) -> Vec<f64> {
    let c = pack.config().c;
    let xeff: Vec<f64> = match pack.col_perm() {
        Some(perm) => (0..pack.ncols()).map(|i| x[perm.apply(i)]).collect(),
        None => x.to_vec(),
    };
    let mut y = vec![0.0; pack.nrows()];
    for seg in pack.segments() {
        let (vals, cols) = (seg.vals(), seg.col_ids());
        let mut step = 0;
        for k in 0..seg.nchunks() {
            let mut sums = vec![0.0f64; c];
            for j in step..step + seg.chunk_width(k) {
                for (l, sum) in sums.iter_mut().enumerate() {
                    *sum += vals[j * c + l] * xeff[cols[j * c + l] as usize];
                }
            }
            step += seg.chunk_width(k);
            for (&r, &s) in seg.chunk_rows(k, c).iter().zip(&sums) {
                y[r as usize] += s;
            }
        }
    }
    y
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Packed SpMV overwrites every row of `y`: the first segment stores
/// its sums and zeroes the rows it does not list, so no stale value may
/// survive a call, whatever `y` held. Shapes that leave rows off the
/// first segment (empty rows, an all-empty matrix, one dense row) or
/// leave a ragged last chunk (`nrows % c != 0`), square and not, every
/// catalog config, threads {1, 2, 3, 7}, `y` pre-filled with NaN and
/// with 1e300: all outputs are bit-identical, and a forced-scalar pack
/// equals the zero-then-add replay of its layout.
#[test]
fn every_row_of_y_is_written() {
    let mut one_dense = vec![0usize; 58];
    one_dense.extend(std::iter::repeat_n(90, 100 - 57));
    let matrices: Vec<(&str, Csr)> = vec![
        ("every-third-row-empty", sparse_rows(203, 203, 5, |r| r % 3 == 1)),
        ("all-empty", Csr::zero(37, 41)),
        (
            "one-dense-row",
            Csr::try_new(
                100,
                90,
                one_dense,
                (0..90).collect(),
                (0..90).map(|j| 1.0 + j as f64 / 8.0).collect(),
            )
            .unwrap(),
        ),
        ("ragged-wide", sparse_rows(301, 517, 6, |r| r % 17 == 0)),
        ("ragged-tall", sparse_rows(261, 70, 7, |r| r >= 250)),
        ("banded-ragged", suite::banded(517, 9, 0.5, 3)),
    ];
    for (name, m) in &matrices {
        let x = random_x(m.ncols(), 11);
        for cfg in MethodConfig::catalog() {
            let prep = cfg.prepare(m);
            let mut scalar = None;
            if let Prepared::Pack(pack, sched) = &prep {
                let pack = (**pack).clone().with_simd(1);
                let want = bits(&zero_then_add_replay(&pack, &x));
                for nthreads in [1, 2, 3, 7] {
                    let mut y = vec![f64::NAN; m.nrows()];
                    pack.spmv(&x, &mut y, nthreads, *sched, &mut SpmvWorkspace::default());
                    assert_eq!(bits(&y), want, "{name} {} scalar t={nthreads}", cfg.label());
                }
                scalar = Some(pack);
            }
            let mut first: Option<Vec<u64>> = None;
            for junk in [f64::NAN, 1e300] {
                for nthreads in [1, 2, 3, 7] {
                    let mut y = vec![junk; m.nrows()];
                    prep.spmv(&x, &mut y, nthreads, &mut SpmvWorkspace::default());
                    let got = bits(&y);
                    let want = first.get_or_insert_with(|| got.clone());
                    assert_eq!(&got, want, "{name} {} y={junk} t={nthreads}", cfg.label());
                }
            }
            if scalar.is_none() {
                let mut want = vec![0.0; m.nrows()];
                m.spmv_reference(&x, &mut want);
                assert_eq!(first.unwrap(), bits(&want), "{name} {}", cfg.label());
            }
        }
    }
}

/// CSR-Dyn, CSR-St and CSR-StCont produce bit-identical `y` at 1 and 2
/// threads on six families shaped like the request benchmark's (skewed,
/// uniform and diagonal RMAT, banded, 3D stencil, random geometric
/// graph) at 2^12–2^14 rows, so a prepared CSR matrix may switch
/// schedule or thread count between calls without changing a result.
#[test]
fn csr_schedules_and_thread_counts_agree_bitwise() {
    type Generate = fn(u32, u32) -> Csr;
    let families: [(&str, Generate); 6] = [
        ("rmat-skew", |s, d| Recipe::HighSkew.generate(s, d, 41)),
        ("rmat-uniform", |s, d| Recipe::LowLoc.generate(s, d, 42)),
        ("rmat-diag", |s, d| Recipe::HighLoc.generate(s, d, 43)),
        ("banded", |s, d| suite::banded(1 << s, d as usize / 2, 0.8, 44)),
        ("stencil3d", |s, _| suite::stencil_3d(16, 16, 1 << (s - 8))),
        ("rgg", |s, d| Recipe::Rgg.generate(s, d, 45)),
    ];
    for (name, generate) in families {
        for (scale, deg) in [(12, 4), (13, 16), (14, 8)] {
            let m = generate(scale, deg);
            let x = random_x(m.ncols(), 13);
            let mut want: Option<Vec<u64>> = None;
            for sched in Schedule::ALL {
                let prep = MethodConfig::csr(sched).prepare(&m);
                for nthreads in [1, 2] {
                    let mut y = vec![f64::NAN; m.nrows()];
                    prep.spmv(&x, &mut y, nthreads, &mut SpmvWorkspace::default());
                    let got = bits(&y);
                    let want = want.get_or_insert_with(|| got.clone());
                    assert_eq!(&got, want, "{name} 2^{scale} CSR-{} t={nthreads}", sched.name());
                }
            }
        }
    }
}

fn spmv_bits(cfg: &MethodConfig, m: &Csr, x: &[f64]) -> Vec<u64> {
    let mut y = vec![f64::NAN; m.nrows()];
    cfg.prepare(m).spmv(x, &mut y, 4, &mut SpmvWorkspace::default());
    y.iter().map(|v| v.to_bits()).collect()
}

/// (d) Parallel calls made from inside a pool worker — the conversions
/// and kernels a labeling loop runs per matrix — execute inline on that
/// worker: its worker index never changes, and every catalog
/// conversion and SpMV is bit-identical to a top-level call.
#[test]
fn nested_calls_run_inline_on_the_worker() {
    let m = RmatParams::HIGH_SKEW.generate(9, 8, 42);
    let x = random_x(m.ncols(), 7);
    let catalog = MethodConfig::catalog();
    let want: Vec<Vec<u64>> = catalog.iter().map(|cfg| spmv_bits(cfg, &m, &x)).collect();
    let want_pack = SrvPack::sell_c_r(&m, 8);

    let got = Mutex::new(vec![Vec::new(); catalog.len()]);
    let index_drift = AtomicUsize::new(0);
    let packs_differ = AtomicUsize::new(0);
    parallel_for_chunks(catalog.len(), 3, Schedule::Dyn, 1, |i| {
        let outer = pool::current_worker_index();
        assert!(outer.is_some(), "the outer job runs on pool threads");
        parallel_for_chunks(64, 4, Schedule::Dyn, 1, |_| {
            if pool::current_worker_index() != outer {
                index_drift.fetch_add(1, Ordering::SeqCst);
            }
        });
        if SrvPack::sell_c_r(&m, 8) != want_pack {
            packs_differ.fetch_add(1, Ordering::SeqCst);
        }
        let bits = spmv_bits(&catalog[i], &m, &x);
        if pool::current_worker_index() != outer {
            index_drift.fetch_add(1, Ordering::SeqCst);
        }
        got.lock().unwrap()[i] = bits;
    });
    assert_eq!(index_drift.load(Ordering::SeqCst), 0, "a nested call changed the worker index");
    assert_eq!(packs_differ.load(Ordering::SeqCst), 0, "nested conversion diverged");
    for (cfg, (g, w)) in catalog.iter().zip(got.into_inner().unwrap().iter().zip(&want)) {
        assert_eq!(g, w, "{}: nested SpMV diverged", cfg.label());
    }
}

/// (c) A panicking job body must propagate to the dispatcher but leave
/// the global pool serving subsequent dispatches.
#[test]
fn pool_survives_panicking_chunk_bodies() {
    // StCont with 4 threads over 16 chunks: chunk 9 belongs to a pool
    // worker (thread 2), chunk 0 to the dispatching thread (thread 0).
    for (round, bad) in [9usize, 9, 9, 0].into_iter().enumerate() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            parallel_for_chunks(16, 4, Schedule::StCont, 1, |i| {
                if i == bad {
                    panic!("injected chunk panic, round {round}");
                }
            });
        }));
        assert!(err.is_err(), "chunk panic must reach the caller");
        // A panic in the caller's own share must not leave it marked as
        // a pool thread (every later call would run inline).
        assert_eq!(pool::current_worker_index(), None, "round {round}");
        // The very next dispatch must work.
        let hits: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_chunks(32, 4, Schedule::Dyn, 2, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1), "pool wedged after panic");
    }
}

/// The pool resizes upward on demand and keeps old workers; the
/// dispatcher runs logical thread 0, so an n-thread job needs n − 1.
#[test]
fn local_pool_resizes_and_shuts_down() {
    let pool = WorkerPool::new();
    for &n in &[2usize, 3, 7, 16, 5] {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, &|t| {
            hits[t].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }
    assert_eq!(pool.size(), 15, "grows to the high-water mark, never shrinks");
    drop(pool); // joins workers; hanging here fails the test by timeout
}
