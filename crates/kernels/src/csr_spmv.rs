//! Parallel CSR SpMV under the three scheduling policies
//! (paper Section 2.1).
//!
//! Rows are grouped into chunks of [`CsrSpmv::rows_per_chunk`] rows;
//! chunks are assigned to threads per [`Schedule`]. Each chunk writes a
//! disjoint row range of `y`, which is what makes the shared-output
//! parallelism sound.
//!
//! Auto width (`v = 0`) runs the scalar row loop, which beats the
//! gather row kernels on the measured hosts (DESIGN.md §14). On the
//! explicit vector levels the row loop additionally exploits memory-level
//! parallelism (DESIGN.md §17): rows are processed in blocks of
//! [`CsrSpmv::resolved_interleave`] rows with independent accumulator
//! chains (bit-identical to the solo-row kernels — pure scheduling),
//! and gathers are software-prefetched [`CsrSpmv::resolved_prefetch`]
//! steps ahead. In auto mode the interleave skips ragged blocks whose
//! shortest row has fewer than [`simd::INTERLEAVE_MIN_ROW_NNZ`]
//! nonzeros — those rows run the solo kernel instead.

use crate::sched::{parallel_for_chunks, DisjointWriter, Schedule};
use crate::simd::{self, SimdIsa};
use wise_matrix::Csr;

/// Default rows per scheduling chunk (the paper's "K rows at a time").
pub const DEFAULT_ROWS_PER_CHUNK: usize = 256;

/// A CSR matrix prepared for scheduled parallel SpMV.
///
/// CSR needs no format conversion — this type only records the
/// scheduling configuration, mirroring "CSR is the format the matrix
/// already arrives in" (zero preprocessing cost in Section 4.4).
#[derive(Debug, Clone)]
pub struct CsrSpmv<'a> {
    matrix: &'a Csr,
    schedule: Schedule,
    rows_per_chunk: usize,
    simd: usize,
    prefetch: Option<usize>,
    interleave: usize,
}

impl<'a> CsrSpmv<'a> {
    pub fn new(matrix: &'a Csr, schedule: Schedule) -> Self {
        CsrSpmv {
            matrix,
            schedule,
            rows_per_chunk: DEFAULT_ROWS_PER_CHUNK,
            simd: 0,
            prefetch: None,
            interleave: 0,
        }
    }

    /// Overrides the chunk granularity.
    pub fn with_rows_per_chunk(mut self, rows: usize) -> Self {
        self.rows_per_chunk = rows.max(1);
        self
    }

    /// Requests a SIMD width for the row kernel: 0 = auto, which for
    /// CSR is the original scalar row loop (bit-exact; the gather row
    /// kernels lose to it on the measured hosts, DESIGN.md §14), 1 =
    /// that same scalar loop forced, else the gather kernel capped at
    /// the host's [`simd::active`] level.
    pub fn with_simd(mut self, v: usize) -> Self {
        self.simd = v;
        self
    }

    /// The requested SIMD width (see [`CsrSpmv::with_simd`]).
    pub fn simd(&self) -> usize {
        self.simd
    }

    /// Requests a software prefetch distance in vector steps:
    /// `Some(0)` disables prefetch, `Some(d)` forces `d` (clamped at
    /// [`simd::MAX_PREFETCH`]), `None` (default) defers to the
    /// `WISE_PREFETCH` override / auto policy. Never changes results —
    /// prefetch is scheduling only.
    pub fn with_prefetch(mut self, d: Option<usize>) -> Self {
        self.prefetch = d;
        self
    }

    /// The requested prefetch distance (see [`CsrSpmv::with_prefetch`]).
    pub fn prefetch(&self) -> Option<usize> {
        self.prefetch
    }

    /// Requests a row-interleave factor (rows processed concurrently
    /// with independent accumulator chains): 0 = auto policy, 1 = off,
    /// 2 or 4 = force that block height (3 rounds down to 2, ≥ 4
    /// clamps to 4). An explicit factor bypasses the auto policy's
    /// short-row gate. Results are bit-identical across all factors.
    pub fn with_interleave(mut self, r: usize) -> Self {
        self.interleave = r;
        self
    }

    /// The requested interleave factor (see [`CsrSpmv::with_interleave`]).
    pub fn interleave(&self) -> usize {
        self.interleave
    }

    /// The level this kernel will actually execute at: scalar for
    /// auto (`v = 0`) and forced (`v = 1`) widths, else
    /// [`simd::resolve`].
    pub fn resolved_isa(&self) -> SimdIsa {
        if self.simd == 0 {
            return SimdIsa::Scalar;
        }
        simd::resolve(self.simd, self.matrix.ncols())
    }

    /// The effective prefetch distance at `isa` for this matrix: the
    /// config override when set, else the `WISE_PREFETCH` / auto
    /// policy chain. Scalar never prefetches.
    pub fn resolved_prefetch(&self, isa: SimdIsa) -> usize {
        if isa.lanes() <= 1 {
            return 0;
        }
        match self.prefetch {
            Some(d) => d.min(simd::MAX_PREFETCH),
            None => simd::prefetch_distance(isa, self.matrix.ncols()),
        }
    }

    /// The effective row-block height at `isa`: the config override
    /// (clamped to {1, 2, 4}) or the auto policy.
    pub fn resolved_interleave(&self, isa: SimdIsa) -> usize {
        if isa == SimdIsa::Scalar {
            return 1;
        }
        match self.interleave {
            0 => simd::auto_csr_interleave(isa, self.matrix.ncols()),
            1 => 1,
            2 | 3 => 2,
            _ => 4,
        }
    }

    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    pub fn rows_per_chunk(&self) -> usize {
        self.rows_per_chunk
    }

    /// Number of scheduling chunks.
    pub fn nchunks(&self) -> usize {
        self.matrix.nrows().div_ceil(self.rows_per_chunk)
    }

    /// Stored nonzeros (CSR stores no padding).
    pub fn nnz(&self) -> usize {
        self.matrix.nnz()
    }

    /// `y = A x` with `nthreads` workers.
    pub fn spmv(&self, x: &[f64], y: &mut [f64], nthreads: usize) {
        let m = self.matrix;
        assert_eq!(x.len(), m.ncols(), "x length must equal ncols");
        assert_eq!(y.len(), m.nrows(), "y length must equal nrows");
        let rows_per_chunk = self.rows_per_chunk;
        let nchunks = self.nchunks();
        let row_ptr = m.row_ptr();
        let col_idx = m.col_idx();
        let vals = m.vals();
        let writer = DisjointWriter::new(y);
        let isa = self.resolved_isa();
        let pf = self.resolved_prefetch(isa);
        let block = self.resolved_interleave(isa);
        // Auto mode gates ragged/short blocks; an explicit interleave
        // request runs every block.
        let gate_short = self.interleave == 0;
        // For CSR the scheduling chunk IS the work grain, so grain = 1.
        parallel_for_chunks(nchunks, nthreads, self.schedule, 1, |chunk| {
            let row_lo = chunk * rows_per_chunk;
            let row_hi = (row_lo + rows_per_chunk).min(m.nrows());
            // SAFETY (all unchecked accesses below): r < nrows and
            // row_ptr has nrows + 1 entries, monotone with
            // row_ptr[nrows] == nnz == vals.len() == col_idx.len(),
            // and every col_idx < ncols == x.len() — the Csr
            // invariants validated by `Csr::try_new`. The
            // indexing-free gather is what lets these loops keep the
            // memory pipeline full; the checked form re-tests x's
            // bound per nonzero because the optimizer cannot prove the
            // data-dependent column index in range.
            let row_range =
                |r: usize| unsafe { (*row_ptr.get_unchecked(r), *row_ptr.get_unchecked(r + 1)) };
            if isa == SimdIsa::Scalar {
                // The original unchecked scalar loop, bit-for-bit.
                for r in row_lo..row_hi {
                    let (k0, k1) = row_range(r);
                    debug_assert!(k0 <= k1 && k1 <= vals.len());
                    let mut acc = 0.0f64;
                    for k in k0..k1 {
                        unsafe {
                            let c = *col_idx.get_unchecked(k) as usize;
                            debug_assert!(c < x.len());
                            acc += *vals.get_unchecked(k) * *x.get_unchecked(c);
                        }
                    }
                    // SAFETY: chunk row ranges are disjoint by construction.
                    unsafe { writer.write(r, acc) };
                }
                return;
            }
            let long_enough = |ranges: &[(usize, usize)]| {
                !gate_short || ranges.iter().all(|&(a, b)| b - a >= simd::INTERLEAVE_MIN_ROW_NNZ)
            };
            let mut r = row_lo;
            while r < row_hi {
                // Row-block interleave: R rows, R independent
                // accumulator chains (bit-identical to solo rows).
                if block >= 4 && r + 4 <= row_hi {
                    let ranges =
                        [row_range(r), row_range(r + 1), row_range(r + 2), row_range(r + 3)];
                    if long_enough(&ranges) {
                        let out =
                            unsafe { simd::csr_rows_pf::<4>(isa, &ranges, vals, col_idx, x, pf) };
                        for (i, v) in out.into_iter().enumerate() {
                            // SAFETY: disjoint chunk row ranges.
                            unsafe { writer.write(r + i, v) };
                        }
                        r += 4;
                        continue;
                    }
                } else if block >= 2 && r + 2 <= row_hi {
                    let ranges = [row_range(r), row_range(r + 1)];
                    if long_enough(&ranges) {
                        let out =
                            unsafe { simd::csr_rows_pf::<2>(isa, &ranges, vals, col_idx, x, pf) };
                        for (i, v) in out.into_iter().enumerate() {
                            // SAFETY: disjoint chunk row ranges.
                            unsafe { writer.write(r + i, v) };
                        }
                        r += 2;
                        continue;
                    }
                }
                // Solo cleanup: short/ragged blocks and chunk tails.
                let (k0, k1) = row_range(r);
                debug_assert!(k0 <= k1 && k1 <= vals.len());
                // SAFETY: the row's vals/cols slices are equal-length
                // and every column index < ncols == x.len() (same Csr
                // invariants as above).
                let acc = unsafe { simd::csr_row_pf(isa, &vals[k0..k1], &col_idx[k0..k1], x, pf) };
                // SAFETY: chunk row ranges are disjoint by construction.
                unsafe { writer.write(r, acc) };
                r += 1;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_gen::{RmatParams, SplitMix64};

    fn random_x(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
    }

    fn check_against_reference(m: &Csr, nthreads: usize) {
        let x = random_x(m.ncols(), 99);
        let mut want = vec![0.0; m.nrows()];
        m.spmv_reference(&x, &mut want);
        for sched in Schedule::ALL {
            let mut got = vec![0.0; m.nrows()];
            CsrSpmv::new(m, sched).with_rows_per_chunk(7).spmv(&x, &mut got, nthreads);
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
                    "{sched:?} nthreads={nthreads}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_single_thread() {
        let m = RmatParams::MED_SKEW.generate(9, 8, 5);
        check_against_reference(&m, 1);
    }

    #[test]
    fn matches_reference_multi_thread() {
        let m = RmatParams::HIGH_SKEW.generate(10, 8, 6);
        check_against_reference(&m, 4);
        check_against_reference(&m, 13);
    }

    #[test]
    fn empty_rows_produce_zeros() {
        // Matrix with many empty rows.
        let m = Csr::try_new(4, 4, vec![0, 0, 2, 2, 2], vec![0, 3], vec![2.0, 4.0]).unwrap();
        let x = vec![1.0, 1.0, 1.0, 1.0];
        let mut y = vec![9.9; 4];
        CsrSpmv::new(&m, Schedule::Dyn).spmv(&x, &mut y, 2);
        assert_eq!(y, vec![0.0, 6.0, 0.0, 0.0]);
    }

    #[test]
    fn rectangular_matrix() {
        let m = Csr::try_new(2, 5, vec![0, 2, 3], vec![0, 4, 2], vec![1.0, 2.0, 3.0]).unwrap();
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut y = vec![0.0; 2];
        CsrSpmv::new(&m, Schedule::StCont).spmv(&x, &mut y, 3);
        assert_eq!(y, vec![1.0 + 10.0, 9.0]);
    }

    #[test]
    fn simd_widths_match_scalar_within_ulp_bound() {
        use crate::simd;
        let m = RmatParams::MED_SKEW.generate(9, 8, 11);
        let x = random_x(m.ncols(), 3);
        let mut want = vec![0.0; m.nrows()];
        CsrSpmv::new(&m, Schedule::Dyn).with_simd(1).spmv(&x, &mut want, 2);
        for v in [0usize, 2, 4, 8] {
            let k = CsrSpmv::new(&m, Schedule::Dyn).with_simd(v);
            assert!(k.resolved_isa().lanes() <= v.max(simd::active().lanes()));
            let mut got = vec![0.0; m.nrows()];
            k.spmv(&x, &mut got, 2);
            simd::assert_ulp_close(
                &got,
                &want,
                simd::SPMV_MAX_ULPS,
                simd::SPMV_ABS_FLOOR,
                &format!("csr v={v}"),
            );
        }
    }

    #[test]
    fn forced_scalar_width_matches_reference_bitwise() {
        // v=1 must run the original unchecked loop: same order of
        // operations as `spmv_reference`, so bit-for-bit equal. Auto
        // width (v=0) runs the same loop on CSR.
        let m = RmatParams::LOW_LOC.generate(8, 4, 12);
        let x = random_x(m.ncols(), 5);
        let mut want = vec![0.0; m.nrows()];
        m.spmv_reference(&x, &mut want);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let k = CsrSpmv::new(&m, Schedule::St).with_simd(1);
        assert_eq!(k.resolved_isa(), crate::simd::SimdIsa::Scalar);
        let mut got = vec![0.0; m.nrows()];
        k.spmv(&x, &mut got, 3);
        assert_eq!(bits(&got), bits(&want));
        let auto = CsrSpmv::new(&m, Schedule::St).with_simd(0);
        assert_eq!(auto.resolved_isa(), crate::simd::SimdIsa::Scalar);
        for nthreads in [1, 2, 7] {
            let mut got = vec![f64::NAN; m.nrows()];
            auto.spmv(&x, &mut got, nthreads);
            assert_eq!(bits(&got), bits(&want), "v=0 nthreads={nthreads}");
        }
    }

    #[test]
    fn prefetch_and_interleave_never_change_results() {
        // Prefetch distance and row-block interleave are scheduling
        // knobs: for a fixed resolved level the output must be
        // bit-identical across every (D, R) combination, including the
        // auto policies.
        let m = RmatParams::MED_SKEW.generate(9, 8, 21);
        let x = random_x(m.ncols(), 17);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        // v=8 (capped at the host's level): auto width runs the
        // scalar loop, which neither prefetches nor interleaves.
        let mut base = vec![0.0; m.nrows()];
        CsrSpmv::new(&m, Schedule::Dyn)
            .with_simd(8)
            .with_prefetch(Some(0))
            .with_interleave(1)
            .spmv(&x, &mut base, 2);
        for pf in [None, Some(0), Some(2), Some(8), Some(simd::MAX_PREFETCH + 99)] {
            for il in [0usize, 1, 2, 3, 4, 16] {
                let k = CsrSpmv::new(&m, Schedule::Dyn)
                    .with_simd(8)
                    .with_prefetch(pf)
                    .with_interleave(il);
                let mut got = vec![0.0; m.nrows()];
                k.spmv(&x, &mut got, 2);
                assert_eq!(bits(&got), bits(&base), "pf={pf:?} il={il}");
            }
        }
    }

    #[test]
    fn resolved_knobs_follow_policy() {
        let m = RmatParams::MED_SKEW.generate(8, 6, 2);
        let k = CsrSpmv::new(&m, Schedule::Dyn);
        // Scalar never prefetches or interleaves.
        assert_eq!(k.resolved_prefetch(SimdIsa::Scalar), 0);
        assert_eq!(k.resolved_interleave(SimdIsa::Scalar), 1);
        // Explicit overrides clamp into range.
        let k = k.with_prefetch(Some(simd::MAX_PREFETCH + 5)).with_interleave(3);
        assert_eq!(k.resolved_prefetch(SimdIsa::Avx512), simd::MAX_PREFETCH);
        assert_eq!(k.resolved_interleave(SimdIsa::Avx512), 2);
        let k = k.with_interleave(9);
        assert_eq!(k.resolved_interleave(SimdIsa::Avx512), 4);
        assert_eq!(k.prefetch(), Some(simd::MAX_PREFETCH + 5));
        assert_eq!(k.interleave(), 9);
        // Auto mode: small x on AVX-512 interleaves. (The auto
        // prefetch chain reads the process-wide WISE_PREFETCH override
        // and is asserted in `simd::tests` under its own lock.)
        let auto = CsrSpmv::new(&m, Schedule::Dyn);
        assert_eq!(auto.resolved_interleave(SimdIsa::Avx512), 2);
    }

    #[test]
    fn nchunks_rounds_up() {
        let m = Csr::zero(10, 10);
        let k = CsrSpmv::new(&m, Schedule::St).with_rows_per_chunk(3);
        assert_eq!(k.nchunks(), 4);
    }
}
