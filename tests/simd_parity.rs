//! SIMD-vs-scalar parity: the runtime-dispatched vector kernels must
//! agree with the bit-exact scalar oracles within the documented ulp
//! contract (`wise_kernels::simd::SPMV_MAX_ULPS` /
//! `SPMV_ABS_FLOOR`), across the full 29-configuration catalog, every
//! scheduling policy, and several thread counts — and forcing the
//! scalar path (`WISE_SIMD=0`, here via `simd::set_active`) must
//! restore bit-exact agreement with the reference loop.
//!
//! Tests that touch the process-global active-ISA state serialize on a
//! shared mutex and restore the previous value on drop, so the suite is
//! order- and parallelism-independent.

use std::sync::{Mutex, MutexGuard};
use wise_gen::{suite, RmatParams, SplitMix64};
use wise_kernels::method::MethodConfig;
use wise_kernels::simd::{self, SPMV_ABS_FLOOR, SPMV_MAX_ULPS};
use wise_kernels::srvpack::SpmvWorkspace;
use wise_kernels::{Schedule, SimdIsa};
use wise_matrix::coo::DupPolicy;
use wise_matrix::{Coo, Csr};

static ACTIVE_ISA_LOCK: Mutex<()> = Mutex::new(());

fn lock_active_isa() -> MutexGuard<'static, ()> {
    // A poisoned lock only means another parity test panicked; the
    // guard below restored the ISA state, so continuing is safe.
    ACTIVE_ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the saved active ISA when dropped (even on panic).
struct RestoreIsa(SimdIsa);

impl Drop for RestoreIsa {
    fn drop(&mut self) {
        simd::set_active(self.0);
    }
}

/// Restores the saved `WISE_PREFETCH` override when dropped.
struct RestorePrefetch(Option<usize>);

impl Drop for RestorePrefetch {
    fn drop(&mut self) {
        simd::set_prefetch(self.0);
    }
}

/// The matrix zoo: ragged skew, short rows (pure scalar tails), empty
/// rows, all-zero, one dense row, and a regular stencil.
fn zoo() -> Vec<(&'static str, Csr)> {
    let mut sparse_rect = Coo::new(12, 300);
    sparse_rect.push(0, 299, 3.0).unwrap();
    sparse_rect.push(3, 0, -1.0).unwrap();
    sparse_rect.push(3, 150, 4.0).unwrap();
    vec![
        ("rmat-ragged", RmatParams::HIGH_SKEW.generate(9, 8, 1)),
        ("rmat-short-rows", RmatParams::LOW_LOC.generate(8, 2, 2)),
        ("empty-rows-rect", sparse_rect.to_csr(DupPolicy::Sum)),
        ("zero", Csr::zero(17, 9)),
        (
            "one-dense-row",
            Csr::try_new(1, 40, vec![0, 40], (0..40).collect(), vec![1.5; 40]).unwrap(),
        ),
        ("stencil2d", suite::stencil_2d(23, 29)),
    ]
}

fn dense_x(ncols: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..ncols).map(|_| rng.range_f64(-2.0, 2.0)).collect()
}

fn run(cfg: &MethodConfig, m: &Csr, x: &[f64], nthreads: usize) -> Vec<f64> {
    let prep = cfg.prepare(m);
    let mut ws = SpmvWorkspace::default();
    let mut y = vec![f64::NAN; m.nrows()];
    prep.spmv(x, &mut y, nthreads, &mut ws);
    y
}

#[test]
fn catalog_auto_simd_matches_scalar_oracle_within_ulp_bound() {
    let _g = lock_active_isa();
    for (tag, m) in zoo() {
        let x = dense_x(m.ncols(), 0xC0FFEE);
        for cfg in MethodConfig::catalog() {
            for nthreads in [1usize, 2, 7] {
                let want = run(&cfg.with_simd(1), &m, &x, nthreads);
                let got = run(&cfg, &m, &x, nthreads);
                let ctx = format!("{tag}: {} at {nthreads} threads", cfg.label());
                simd::assert_ulp_close(&got, &want, SPMV_MAX_ULPS, SPMV_ABS_FLOOR, &ctx);
            }
        }
    }
}

#[test]
fn explicit_widths_match_scalar_oracle_within_ulp_bound() {
    let _g = lock_active_isa();
    let m = RmatParams::HIGH_SKEW.generate(9, 8, 1);
    let x = dense_x(m.ncols(), 0xBEEF);
    for cfg in MethodConfig::catalog() {
        let want = run(&cfg.with_simd(1), &m, &x, 2);
        for v in [2usize, 4, 8] {
            let got = run(&cfg.with_simd(v), &m, &x, 2);
            let ctx = format!("{} at v={v}", cfg.label());
            simd::assert_ulp_close(&got, &want, SPMV_MAX_ULPS, SPMV_ABS_FLOOR, &ctx);
        }
    }
}

#[test]
fn forcing_scalar_isa_restores_bitwise_parity() {
    // The WISE_SIMD=0 contract: with the active ISA pinned to Scalar,
    // the default (v = 0) catalog is bit-for-bit the pre-SIMD repo.
    let _g = lock_active_isa();
    let _restore = RestoreIsa(simd::active());
    simd::set_active(SimdIsa::Scalar);
    for (tag, m) in zoo() {
        let x = dense_x(m.ncols(), 0xF00D);
        for cfg in MethodConfig::catalog() {
            let want = run(&cfg.with_simd(1), &m, &x, 2);
            let got = run(&cfg, &m, &x, 2);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{tag}: {} row {i}: {g} vs {w}", cfg.label());
            }
        }
    }
}

#[test]
fn pre_simd_labels_still_parse_and_new_ones_round_trip() {
    // Labels written by earlier versions of the repo (no -v suffix)
    // must keep parsing to v = 0 configs with unchanged labels.
    let pre_simd = [
        "CSR-Dyn",
        "SELLPACK-c8-Dyn",
        "Sell-c-s-c4-s4096-StCont",
        "Sell-c-R-c8",
        "LAV-1Seg-c4",
        "LAV-c8-T80",
    ];
    for old in pre_simd {
        let cfg = MethodConfig::parse(old)
            .unwrap_or_else(|| panic!("pre-SIMD label {old} no longer parses"));
        assert_eq!(cfg.v, 0, "{old}");
        assert_eq!(cfg.label(), old);
    }
    // And every catalog entry round-trips at every explicit width.
    for v in [0usize, 1, 2, 4, 8] {
        for cfg in MethodConfig::catalog_with_simd(v) {
            let label = cfg.label();
            assert_eq!(MethodConfig::parse(&label), Some(cfg), "{label}");
        }
    }
    assert_eq!(MethodConfig::parse("CSR-v8-Dyn").map(|c| c.v), Some(8));
}

#[test]
fn mlp_knobs_never_change_results_bitwise() {
    // The MLP contract from DESIGN.md §17: prefetch is a pure hint and
    // interleaving only overlaps *independent* accumulator chains —
    // each row's (or chunk's) own op order is identical to the solo
    // kernel. Every explicit (D, R) setting must therefore be
    // bit-for-bit the auto config, at every thread count.
    let _g = lock_active_isa();
    let picks = [
        MethodConfig::csr(Schedule::Dyn),
        MethodConfig::csr(Schedule::St),
        // Auto-width CSR runs the scalar loop; v8 keeps the gather
        // kernels' prefetch/interleave paths under test.
        MethodConfig::csr(Schedule::Dyn).with_simd(8),
        MethodConfig::sellpack(8, Schedule::Dyn),
        MethodConfig::sell_c_r(8),
        MethodConfig::sell_c_sigma(4, 4096, Schedule::StCont),
        MethodConfig::lav(8, 0.8),
    ];
    for (tag, m) in zoo() {
        let x = dense_x(m.ncols(), 0xD15C0);
        for cfg in picks {
            for nthreads in [1usize, 2, 7] {
                let base = run(&cfg, &m, &x, nthreads);
                for pf in [1usize, 4, simd::MAX_PREFETCH] {
                    for il in [1usize, 2, 5] {
                        let knobbed = cfg.with_prefetch(pf).with_interleave(il);
                        let got = run(&knobbed, &m, &x, nthreads);
                        for (i, (g, w)) in got.iter().zip(&base).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{tag}: {} row {i} at {nthreads} threads: {g} vs {w}",
                                knobbed.label()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn masked_chunk_heights_stay_within_ulp_contract() {
    // Chunk heights outside {4, 8} resolve to the AVX-512 masked-lane
    // kernel where the host supports it; its FMA rounds once where the
    // scalar oracle rounds twice, so the contract here is ulp
    // closeness, not bit equality.
    let _g = lock_active_isa();
    for (tag, m) in zoo() {
        let x = dense_x(m.ncols(), 0xAB1E);
        for c in [2usize, 3, 5, 6, 7] {
            let cfg = MethodConfig::sell_c_sigma(c, 1024, Schedule::Dyn);
            for nthreads in [1usize, 3] {
                let want = run(&cfg.with_simd(1), &m, &x, nthreads);
                let got = run(&cfg, &m, &x, nthreads);
                let ctx = format!("{tag}: {} at {nthreads} threads (masked height)", cfg.label());
                simd::assert_ulp_close(&got, &want, SPMV_MAX_ULPS, SPMV_ABS_FLOOR, &ctx);
            }
        }
    }
}

#[test]
fn prefetch_off_plus_scalar_isa_is_bitwise_pre_pr() {
    // The `WISE_PREFETCH=0 WISE_SIMD=scalar` contract, exercised via
    // the process-wide setters those variables feed (so the suite
    // needs no subprocess): with both pinned, the default catalog is
    // bit-for-bit the v = 1 scalar reference loop.
    let _g = lock_active_isa();
    let _risa = RestoreIsa(simd::active());
    let _rpf = RestorePrefetch(simd::prefetch_override());
    simd::set_active(SimdIsa::Scalar);
    simd::set_prefetch(Some(0));
    for (tag, m) in zoo() {
        let x = dense_x(m.ncols(), 0x5EED);
        for cfg in MethodConfig::catalog() {
            let want = run(&cfg.with_simd(1), &m, &x, 2);
            let got = run(&cfg, &m, &x, 2);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{tag}: {} row {i}: {g} vs {w}", cfg.label());
            }
        }
    }
}

#[test]
fn prefetch_override_sweep_never_changes_numerics() {
    // Every `WISE_PREFETCH` override value — off, short, the auto
    // default, the clamp ceiling, and back to auto — leaves results
    // bit-identical: the distance only changes *when* x lines arrive,
    // never what is computed from them.
    let _g = lock_active_isa();
    let _rpf = RestorePrefetch(simd::prefetch_override());
    let m = RmatParams::HIGH_SKEW.generate(9, 8, 1);
    let x = dense_x(m.ncols(), 0x0DD5);
    for cfg in [
        MethodConfig::csr(Schedule::Dyn),
        MethodConfig::csr(Schedule::Dyn).with_simd(8),
        MethodConfig::sell_c_r(8),
        MethodConfig::sellpack(4, Schedule::St),
    ] {
        simd::set_prefetch(None);
        let base = run(&cfg, &m, &x, 2);
        for ov in [Some(0), Some(1), Some(8), Some(simd::MAX_PREFETCH), None] {
            simd::set_prefetch(ov);
            let got = run(&cfg, &m, &x, 2);
            for (i, (g, w)) in got.iter().zip(&base).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{}: override {ov:?} row {i}: {g} vs {w}",
                    cfg.label()
                );
            }
        }
    }
}

#[test]
fn wise_prefetch_grammar_accepts_distances_and_rejects_noise() {
    // The parse path behind the `WISE_PREFETCH` knob: unset/`auto` →
    // policy, `0` → off, big values clamp, and malformed input is an
    // error (the runtime warns once and falls back to auto — it never
    // silently changes numerics, per the sweep test above).
    use wise_kernels::simd::{parse_wise_prefetch, MAX_PREFETCH};
    use wise_trace::env_knob::KnobError;
    assert_eq!(parse_wise_prefetch(None), Ok(None));
    assert_eq!(parse_wise_prefetch(Some("auto")), Ok(None));
    assert_eq!(parse_wise_prefetch(Some("AUTO")), Ok(None));
    assert_eq!(parse_wise_prefetch(Some("0")), Ok(Some(0)));
    assert_eq!(parse_wise_prefetch(Some(" 8 ")), Ok(Some(8)));
    assert_eq!(parse_wise_prefetch(Some("4096")), Ok(Some(MAX_PREFETCH)));
    assert_eq!(parse_wise_prefetch(Some("")), Err(KnobError::Empty { knob: "WISE_PREFETCH" }));
    assert_eq!(parse_wise_prefetch(Some("   ")), Err(KnobError::Empty { knob: "WISE_PREFETCH" }));
    for junk in ["-2", "fast", "8x", "0.5", "p4"] {
        assert!(
            matches!(
                parse_wise_prefetch(Some(junk)),
                Err(KnobError::Invalid { knob: "WISE_PREFETCH", .. })
            ),
            "{junk:?} should be rejected"
        );
    }
}

/// The scalar tail of the vectorized CSR row kernel handles every
/// `nnz % lanes` residue on every ISA the host can run.
#[test]
fn csr_row_tail_handles_every_residue() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(case);
        let len = rng.below(64);
        let ncols = 97usize;
        let x: Vec<f64> = (0..ncols).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let vals: Vec<f64> = (0..len).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let cols: Vec<u32> = (0..len).map(|_| rng.below(ncols) as u32).collect();
        let want = simd::csr_row_scalar(&vals, &cols, &x);
        for isa in [SimdIsa::Scalar, SimdIsa::Sse2, SimdIsa::Avx2, SimdIsa::Avx512] {
            if isa > simd::detected() {
                continue;
            }
            // SAFETY: every entry of `cols` is < x.len().
            let got = unsafe { simd::csr_row(isa, &vals, &cols, &x) };
            assert!(
                simd::ulp_close(got, want, SPMV_MAX_ULPS, SPMV_ABS_FLOOR),
                "case {case} {}: {} vs {} ({} ulps apart)",
                isa.name(),
                got,
                want,
                simd::ulp_distance(got, want)
            );
        }
    }
}
