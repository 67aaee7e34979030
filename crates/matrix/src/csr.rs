//! Compressed Sparse Row storage (paper Section 2.1).
//!
//! CSR stores a sparse `nrows x ncols` matrix as three arrays:
//! `vals` (nonzero values, row-major), `col_idx` (the column of each
//! value), and `row_ptr` (`nrows + 1` offsets; row `i` occupies
//! `vals[row_ptr[i]..row_ptr[i+1]]`).

use crate::{MatrixError, Result};

/// A sparse matrix in Compressed Sparse Row format.
///
/// ```
/// use wise_matrix::Csr;
/// // [[1, 0, 2],
/// //  [0, 0, 0],
/// //  [0, 3, 0]]
/// let m = Csr::try_new(3, 3, vec![0, 2, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap();
/// let mut y = vec![0.0; 3];
/// m.spmv_reference(&[1.0, 10.0, 100.0], &mut y);
/// assert_eq!(y, vec![201.0, 0.0, 30.0]);
/// ```
///
/// Invariants (checked by [`Csr::try_new`], preserved by every method):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[nrows] == vals.len() == col_idx.len()`,
/// * `row_ptr` is non-decreasing,
/// * column indices within each row are strictly increasing and
///   `< ncols`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix, validating every invariant.
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != nrows + 1 {
            return Err(MatrixError::MalformedRowPtr(format!(
                "row_ptr.len()={} but nrows+1={}",
                row_ptr.len(),
                nrows + 1
            )));
        }
        if row_ptr[0] != 0 {
            return Err(MatrixError::MalformedRowPtr("row_ptr[0] != 0".into()));
        }
        if *row_ptr.last().unwrap() != col_idx.len() || col_idx.len() != vals.len() {
            return Err(MatrixError::MalformedRowPtr(format!(
                "row_ptr[-1]={} col_idx.len()={} vals.len()={}",
                row_ptr.last().unwrap(),
                col_idx.len(),
                vals.len()
            )));
        }
        for r in 0..nrows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(MatrixError::MalformedRowPtr(format!("row_ptr decreases at row {r}")));
            }
            let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(MatrixError::UnsortedRow { row: r });
                }
            }
            if let Some(&last) = cols.last() {
                if last as usize >= ncols {
                    return Err(MatrixError::ColumnOutOfBounds { row: r, col: last, ncols });
                }
            }
        }
        Ok(Csr { nrows, ncols, row_ptr, col_idx, vals })
    }

    /// Builds a CSR matrix without validation.
    ///
    /// Callers must uphold the invariants documented on [`Csr`]; this is
    /// used on hot construction paths (generators, format converters)
    /// that produce rows in sorted order by construction. Debug builds
    /// still validate.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        #[cfg(debug_assertions)]
        {
            Csr::try_new(nrows, ncols, row_ptr, col_idx, vals).expect("invalid CSR parts")
        }
        #[cfg(not(debug_assertions))]
        {
            Csr { nrows, ncols, row_ptr, col_idx, vals }
        }
    }

    /// An `nrows x ncols` matrix with no nonzeros.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        Csr { nrows, ncols, row_ptr: vec![0; nrows + 1], col_idx: Vec::new(), vals: Vec::new() }
    }

    /// The identity matrix of dimension `n` (all diagonal values 1.0).
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Builds from a dense row-major slice; entries with value 0.0 are dropped.
    pub fn from_dense(nrows: usize, ncols: usize, dense: &[f64]) -> Self {
        assert_eq!(dense.len(), nrows * ncols, "dense slice has wrong length");
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for r in 0..nrows {
            for c in 0..ncols {
                let v = dense[r * ncols + c];
                if v != 0.0 {
                    col_idx.push(c as u32);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr { nrows, ncols, row_ptr, col_idx, vals }
    }

    /// Renders to a dense row-major vector (test/debug helper; O(nrows*ncols)).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows * self.ncols];
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                d[r * self.ncols + c as usize] = v;
            }
        }
        d
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Number of nonzeros in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Iterator over `(col, value)` pairs of row `r`, in increasing column order.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi].iter().copied().zip(self.vals[lo..hi].iter().copied())
    }

    /// Column indices of row `r` as a slice.
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Values of row `r` as a slice.
    #[inline]
    pub fn row_vals(&self, r: usize) -> &[f64] {
        &self.vals[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Nonzero counts of every row (the paper's R distribution).
    pub fn nnz_per_row(&self) -> Vec<usize> {
        (0..self.nrows).map(|r| self.row_nnz(r)).collect()
    }

    /// Nonzero counts of every column (the paper's C distribution).
    pub fn nnz_per_col(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.col_idx {
            counts[c as usize] += 1;
        }
        counts
    }

    /// Transpose (also usable as a CSC view of `self`).
    ///
    /// Runs in O(nnz + nrows + ncols) with a counting pass and a scatter
    /// pass; output rows are sorted because input rows are scanned in
    /// order.
    pub fn transpose(&self) -> Csr {
        let _span = wise_trace::span("matrix.transpose");
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![0.0f64; self.nnz()];
        let mut next = counts;
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                let dst = next[c as usize];
                col_idx[dst] = r as u32;
                vals[dst] = v;
                next[c as usize] += 1;
            }
        }
        Csr { nrows: self.ncols, ncols: self.nrows, row_ptr, col_idx, vals }
    }

    /// Values-free transpose of the sparsity pattern, written into
    /// caller-owned buffers (counting sort, O(nnz + nrows + ncols)).
    ///
    /// After the call `row_ptr` has `ncols + 1` entries and `col_idx`
    /// holds the row indices of every nonzero grouped by column, each
    /// group sorted ascending — exactly the `row_ptr`/`col_idx` pair of
    /// [`Csr::transpose`], without materializing the values array.
    /// Analysis passes that only need the transposed *pattern* (e.g.
    /// column-side feature extraction) use this to halve the transpose
    /// memory traffic; reusing the buffers across matrices makes
    /// repeated calls allocation-free once capacity is reached.
    pub fn transpose_pattern_into(&self, row_ptr: &mut Vec<usize>, col_idx: &mut Vec<u32>) {
        let _span = wise_trace::span("matrix.transpose_pattern");
        row_ptr.clear();
        row_ptr.resize(self.ncols + 1, 0);
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            row_ptr[i + 1] += row_ptr[i];
        }
        col_idx.clear();
        col_idx.resize(self.nnz(), 0);
        // Scatter using `row_ptr[c]` itself as the write cursor for
        // column c (scanning rows in order keeps each group sorted);
        // afterwards `row_ptr[c]` holds the *end* of column c, i.e. the
        // array shifted left by one, which the backward pass undoes.
        for r in 0..self.nrows {
            for &c in self.row_cols(r) {
                col_idx[row_ptr[c as usize]] = r as u32;
                row_ptr[c as usize] += 1;
            }
        }
        for i in (1..=self.ncols).rev() {
            row_ptr[i] = row_ptr[i - 1];
        }
        row_ptr[0] = 0;
    }

    /// Values-free pattern transpose into freshly allocated buffers.
    /// See [`Csr::transpose_pattern_into`].
    pub fn transpose_pattern(&self) -> (Vec<usize>, Vec<u32>) {
        let mut row_ptr = Vec::new();
        let mut col_idx = Vec::new();
        self.transpose_pattern_into(&mut row_ptr, &mut col_idx);
        (row_ptr, col_idx)
    }

    /// Reference sequential SpMV: `y = A x`. The ground truth every
    /// optimized kernel is tested against.
    pub fn spmv_reference(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.row(r) {
                acc += v * x[c as usize];
            }
            *out = acc;
        }
    }

    /// Approximate heap footprint in bytes (vals + col_idx + row_ptr).
    pub fn footprint_bytes(&self) -> usize {
        self.vals.len() * std::mem::size_of::<f64>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
            + self.row_ptr.len() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example matrix of Figure 1a of the paper (8x8, letters a..u
    /// replaced by 1.0..=14.0 in reading order).
    pub(crate) fn fig1a() -> Csr {
        // r0: c0,c3 ; r1: c1,c2,c4 ; r2: c2,c3 ; r3: c3,c4 ; r4: c0 ;
        // r5: c2,c3 ; r6: c0,c1,c2 ; r7: c3,c7
        let rows: Vec<Vec<u32>> = vec![
            vec![0, 3],
            vec![1, 2, 4],
            vec![2, 3],
            vec![3, 4],
            vec![0],
            vec![2, 3],
            vec![0, 1, 2],
            vec![3, 7],
        ];
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        let mut v = 1.0;
        for r in rows {
            for c in r {
                col_idx.push(c);
                vals.push(v);
                v += 1.0;
            }
            row_ptr.push(col_idx.len());
        }
        Csr::try_new(8, 8, row_ptr, col_idx, vals).unwrap()
    }

    #[test]
    fn try_new_valid() {
        let m = fig1a();
        assert_eq!(m.nrows(), 8);
        assert_eq!(m.ncols(), 8);
        assert_eq!(m.nnz(), 17);
        assert_eq!(m.row_nnz(1), 3);
        assert_eq!(m.row_cols(6), &[0, 1, 2]);
    }

    #[test]
    fn try_new_rejects_bad_row_ptr_len() {
        let e = Csr::try_new(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(e, Err(MatrixError::MalformedRowPtr(_))));
    }

    #[test]
    fn try_new_rejects_nonzero_start() {
        let e = Csr::try_new(1, 2, vec![1, 1], vec![], vec![]);
        assert!(matches!(e, Err(MatrixError::MalformedRowPtr(_))));
    }

    #[test]
    fn try_new_rejects_decreasing_row_ptr() {
        let e = Csr::try_new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(MatrixError::MalformedRowPtr(_))));
    }

    #[test]
    fn try_new_rejects_unsorted_row() {
        let e = Csr::try_new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert_eq!(e, Err(MatrixError::UnsortedRow { row: 0 }));
    }

    #[test]
    fn try_new_rejects_duplicate_col() {
        let e = Csr::try_new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
        assert_eq!(e, Err(MatrixError::UnsortedRow { row: 0 }));
    }

    #[test]
    fn try_new_rejects_col_out_of_bounds() {
        let e = Csr::try_new(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(e, Err(MatrixError::ColumnOutOfBounds { .. })));
    }

    #[test]
    fn zero_and_identity() {
        let z = Csr::zero(3, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.nrows(), 3);
        let i = Csr::identity(4);
        assert_eq!(i.nnz(), 4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 4];
        i.spmv_reference(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn dense_roundtrip() {
        let dense = vec![
            1.0, 0.0, 2.0, //
            0.0, 0.0, 0.0, //
            3.0, 4.0, 0.0,
        ];
        let m = Csr::from_dense(3, 3, &dense);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.to_dense(), dense);
    }

    #[test]
    fn nnz_per_row_and_col() {
        let m = fig1a();
        assert_eq!(m.nnz_per_row(), vec![2, 3, 2, 2, 1, 2, 3, 2]);
        let cols = m.nnz_per_col();
        assert_eq!(cols, vec![3, 2, 4, 5, 2, 0, 0, 1]);
        assert_eq!(cols.iter().sum::<usize>(), m.nnz());
    }

    #[test]
    fn transpose_involution() {
        let m = fig1a();
        let t = m.transpose();
        assert_eq!(t.nrows(), m.ncols());
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_matches_dense() {
        let m = fig1a();
        let t = m.transpose();
        let d = m.to_dense();
        let td = t.to_dense();
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(d[r * 8 + c], td[c * 8 + r]);
            }
        }
    }

    #[test]
    fn transpose_pattern_matches_transpose() {
        for m in [fig1a(), Csr::identity(7), Csr::zero(4, 9)] {
            let t = m.transpose();
            let (rp, ci) = m.transpose_pattern();
            assert_eq!(rp, t.row_ptr());
            assert_eq!(ci, t.col_idx());
        }
        // Rectangular, including an empty column and an empty row.
        let wide = Csr::try_new(2, 100, vec![0, 1, 3], vec![5, 0, 99], vec![1.0; 3]).unwrap();
        let t = wide.transpose();
        let (rp, ci) = wide.transpose_pattern();
        assert_eq!(rp, t.row_ptr());
        assert_eq!(ci, t.col_idx());
    }

    #[test]
    fn transpose_pattern_into_reuses_buffers() {
        let m = fig1a();
        let mut rp = Vec::new();
        let mut ci = Vec::new();
        m.transpose_pattern_into(&mut rp, &mut ci);
        let (rp0, ci0) = (rp.clone(), ci.clone());
        // Second call over the same matrix must not change the result
        // (buffers are fully re-initialized, not appended to).
        m.transpose_pattern_into(&mut rp, &mut ci);
        assert_eq!(rp, rp0);
        assert_eq!(ci, ci0);
        // And a smaller matrix shrinks the logical contents.
        Csr::identity(3).transpose_pattern_into(&mut rp, &mut ci);
        assert_eq!(rp, vec![0, 1, 2, 3]);
        assert_eq!(ci, vec![0, 1, 2]);
    }

    #[test]
    fn spmv_reference_dense_check() {
        let m = fig1a();
        let d = m.to_dense();
        let x: Vec<f64> = (0..8).map(|i| (i as f64) * 0.5 + 1.0).collect();
        let mut y = vec![0.0; 8];
        m.spmv_reference(&x, &mut y);
        for r in 0..8 {
            let expect: f64 = (0..8).map(|c| d[r * 8 + c] * x[c]).sum();
            assert!((y[r] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn footprint_counts_all_arrays() {
        let m = fig1a();
        assert_eq!(m.footprint_bytes(), 17 * 8 + 17 * 4 + 9 * 8);
    }
}
