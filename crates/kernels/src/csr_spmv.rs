//! Parallel CSR SpMV under the three scheduling policies
//! (paper Section 2.1).
//!
//! Rows are grouped into chunks of [`CsrSpmv::rows_per_chunk`] rows;
//! chunks are assigned to threads per [`Schedule`]. Each chunk writes a
//! disjoint row range of `y`, which is what makes the shared-output
//! parallelism sound.
//!
//! CSR has one kernel: the unchecked scalar row loop. The gather row
//! kernels it once dispatched to lost to this loop below 32 nnz/row on
//! every measured ISA (DESIGN.md §14), which covers the catalog's
//! matrices, so no SIMD width, prefetch or interleave setting applies.

use crate::sched::{parallel_for_chunks, DisjointWriter, Schedule};
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
}

impl<'a> CsrSpmv<'a> {
    pub fn new(matrix: &'a Csr, schedule: Schedule) -> Self {
        CsrSpmv { matrix, schedule, rows_per_chunk: DEFAULT_ROWS_PER_CHUNK }
    }

    /// Overrides the chunk granularity.
    pub fn with_rows_per_chunk(mut self, rows: usize) -> Self {
        self.rows_per_chunk = rows.max(1);
        self
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
        // For CSR the scheduling chunk IS the work grain, so grain = 1.
        parallel_for_chunks(nchunks, nthreads, self.schedule, 1, |chunk| {
            let row_lo = chunk * rows_per_chunk;
            let row_hi = (row_lo + rows_per_chunk).min(m.nrows());
            for r in row_lo..row_hi {
                // SAFETY (all unchecked accesses below): r < nrows and
                // row_ptr has nrows + 1 entries, monotone with
                // row_ptr[nrows] == nnz == vals.len() == col_idx.len(),
                // and every col_idx < ncols == x.len() — the Csr
                // invariants validated by `Csr::try_new`. The
                // indexing-free gather is what lets this loop keep the
                // memory pipeline full; the checked form re-tests x's
                // bound per nonzero because the optimizer cannot prove
                // the data-dependent column index in range.
                let (k0, k1) =
                    unsafe { (*row_ptr.get_unchecked(r), *row_ptr.get_unchecked(r + 1)) };
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
        // CSR has one kernel, the scalar loop: every CSR config prepares
        // it at width 1, so results are bit-identical to the reference
        // — well inside the ulp bound.
        use crate::method::MethodConfig;
        let m = RmatParams::MED_SKEW.generate(9, 8, 11);
        let x = random_x(m.ncols(), 3);
        let mut ws = crate::srvpack::SpmvWorkspace::default();
        let mut want = vec![0.0; m.nrows()];
        m.spmv_reference(&x, &mut want);
        for sched in Schedule::ALL {
            let prep = MethodConfig::csr(sched).prepare(&m);
            assert_eq!(prep.simd_lanes(), 1, "{sched:?}");
            let mut got = vec![0.0; m.nrows()];
            prep.spmv(&x, &mut got, 2, &mut ws);
            assert_eq!(got, want, "csr {sched:?}");
        }
    }

    #[test]
    fn forced_scalar_width_matches_reference_bitwise() {
        // The one CSR loop runs in `spmv_reference`'s order of
        // operations, so it is bit-for-bit equal at every thread count.
        let m = RmatParams::LOW_LOC.generate(8, 4, 12);
        let x = random_x(m.ncols(), 5);
        let mut want = vec![0.0; m.nrows()];
        m.spmv_reference(&x, &mut want);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let k = CsrSpmv::new(&m, Schedule::St);
        for nthreads in [1, 2, 7] {
            let mut got = vec![f64::NAN; m.nrows()];
            k.spmv(&x, &mut got, nthreads);
            assert_eq!(bits(&got), bits(&want), "nthreads={nthreads}");
        }
    }

    #[test]
    fn nchunks_rounds_up() {
        let m = Csr::zero(10, 10);
        let k = CsrSpmv::new(&m, Schedule::St).with_rows_per_chunk(3);
        assert_eq!(k.nchunks(), 4);
    }
}
