//! SIMD-vs-scalar parity: the runtime-dispatched vector kernels must
//! agree with the bit-exact scalar oracles within the documented ulp
//! contract (`wise_kernels::simd::SPMV_MAX_ULPS` /
//! `SPMV_ABS_FLOOR`), across the full 29-configuration catalog, every
//! scheduling policy, and several thread counts — and forcing the
//! scalar path (`SrvPack::with_simd(1)`, or
//! `simd::set_active(SimdIsa::Scalar)`) must restore bit-exact
//! agreement with the reference loop.
//!
//! Tests that touch the process-global active-ISA state serialize on a
//! shared mutex and restore the previous value on drop, so the suite is
//! order- and parallelism-independent.

use std::sync::{Mutex, MutexGuard};
use wise_gen::{suite, RmatParams, SplitMix64};
use wise_kernels::method::{MethodConfig, Prepared, C_VALUES};
use wise_kernels::simd::{self, SPMV_ABS_FLOOR, SPMV_MAX_ULPS};
use wise_kernels::srvpack::SpmvWorkspace;
use wise_kernels::{Method, Schedule, SimdIsa, SrvPack};
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

/// `cfg`'s SpMV of `x`, with a packed config's kernel forced to SIMD
/// width `v` (0 = the pack's own pick; see `SrvPack::with_simd`).
fn run(cfg: &MethodConfig, v: usize, m: &Csr, x: &[f64], nthreads: usize) -> Vec<f64> {
    let prep = match cfg.prepare(m) {
        Prepared::Pack(pack, schedule) => Prepared::Pack(Box::new(pack.with_simd(v)), schedule),
        csr => csr,
    };
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
                let want = run(&cfg, 1, &m, &x, nthreads);
                let got = run(&cfg, 0, &m, &x, nthreads);
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
        let want = run(&cfg, 1, &m, &x, 2);
        for v in [2usize, 4, 8] {
            let got = run(&cfg, v, &m, &x, 2);
            let ctx = format!("{} at v={v}", cfg.label());
            simd::assert_ulp_close(&got, &want, SPMV_MAX_ULPS, SPMV_ABS_FLOOR, &ctx);
        }
    }
}

#[test]
fn forcing_scalar_isa_restores_bitwise_parity() {
    // The forced-scalar contract: with the active ISA pinned to Scalar,
    // every pack's own pick is bit-for-bit the scalar loop.
    let _g = lock_active_isa();
    let _restore = RestoreIsa(simd::active());
    simd::set_active(SimdIsa::Scalar);
    for (tag, m) in zoo() {
        let x = dense_x(m.ncols(), 0xF00D);
        for cfg in MethodConfig::catalog() {
            let want = run(&cfg, 1, &m, &x, 2);
            let got = run(&cfg, 0, &m, &x, 2);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{tag}: {} row {i}: {g} vs {w}", cfg.label());
            }
        }
    }
}

#[test]
fn pre_simd_labels_still_parse_and_new_ones_round_trip() {
    // Labels written by earlier versions of the repo keep parsing to
    // the same configs with unchanged labels; the SIMD-width tags
    // (`-v{n}`) that no catalog entry ever carried are gone.
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
        assert_eq!(cfg.label(), old);
    }
    // And every catalog entry round-trips.
    for cfg in MethodConfig::catalog() {
        let label = cfg.label();
        assert_eq!(MethodConfig::parse(&label), Some(cfg), "{label}");
    }
    for tagged in ["SELLPACK-c8-v8-Dyn", "LAV-c8-T80-v4", "CSR-v8-Dyn"] {
        assert_eq!(MethodConfig::parse(tagged), None, "{tagged}");
    }
}

#[test]
fn chunk_heights_vectorize_where_the_cost_model_prices_a_vector_kernel() {
    // The cost model prices every packed config with one vector step
    // per column step, and the catalog packs only c ∈ C_VALUES = {4, 8}:
    // exactly the heights the pack runs a vector kernel for. Every
    // other height runs the scalar loop, and all of them still match
    // the reference SpMV under the ulp contract.
    let _g = lock_active_isa();
    assert_eq!(C_VALUES, [4, 8]);
    for cfg in MethodConfig::catalog().iter().filter(|c| c.method != Method::Csr) {
        assert!(C_VALUES.contains(&cfg.c), "{}", cfg.label());
    }
    for (tag, m) in zoo() {
        let x = dense_x(m.ncols(), 0xAB1E);
        let mut want = vec![0.0; m.nrows()];
        m.spmv_reference(&x, &mut want);
        for c in 1..=8usize {
            let pack = SrvPack::sell_c_sigma(&m, c, 1024);
            let vector = if C_VALUES.contains(&c) { simd::active() } else { SimdIsa::Scalar };
            assert_eq!(pack.resolved_isa(), vector, "{tag}: c={c}");
            let cfg = MethodConfig::sell_c_sigma(c, 1024, Schedule::Dyn);
            for nthreads in [1usize, 3] {
                let got = run(&cfg, 0, &m, &x, nthreads);
                let ctx = format!("{tag}: {} at {nthreads} threads", cfg.label());
                simd::assert_ulp_close(&got, &want, SPMV_MAX_ULPS, SPMV_ABS_FLOOR, &ctx);
            }
        }
    }
}

#[test]
fn masked_chunk_heights_stay_within_ulp_contract() {
    // Chunk heights outside {4, 8} run the scalar chunk loop at every
    // level, so the auto-resolved pack and one forced to scalar run the
    // same code: within the ulp contract, and in fact bit for bit.
    let _g = lock_active_isa();
    for (tag, m) in zoo() {
        let x = dense_x(m.ncols(), 0xAB1E);
        for c in [2usize, 3, 5, 6, 7] {
            let cfg = MethodConfig::sell_c_sigma(c, 1024, Schedule::Dyn);
            for nthreads in [1usize, 3] {
                let want = run(&cfg, 1, &m, &x, nthreads);
                let got = run(&cfg, 0, &m, &x, nthreads);
                let ctx =
                    format!("{tag}: {} at {nthreads} threads (non-vector height)", cfg.label());
                simd::assert_ulp_close(&got, &want, SPMV_MAX_ULPS, SPMV_ABS_FLOOR, &ctx);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{ctx}");
            }
        }
    }
}

#[test]
fn ledger_fingerprint_names_the_detected_kernel_level() {
    // `wise-trace` cannot depend on `wise-kernels`, so the ledger keeps
    // its own copy of the capability probe; the two must agree.
    let isa = simd::detected();
    let host = wise_trace::ledger::HostFingerprint::detect();
    assert_eq!(host.simd, Some(format!("{}:{}", isa.name(), isa.lanes())));
}
