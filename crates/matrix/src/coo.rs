//! Coordinate (triplet) storage.
//!
//! The matrix generators emit `(row, col, value)` triplets in arbitrary
//! order, possibly with duplicates (RMAT frequently samples the same
//! edge twice). [`Coo`] collects them and converts to [`Csr`], summing
//! or deduplicating as requested.

use crate::{Csr, MatrixError, Result};

/// How duplicate `(row, col)` entries are combined when converting to CSR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DupPolicy {
    /// Values of duplicates are summed (Matrix Market convention).
    Sum,
    /// Only the last-inserted duplicate is kept. RMAT graph generators
    /// use this: an edge sampled twice is still one edge.
    KeepLast,
}

/// One past the largest index a `u32` triplet can store.
const INDEX_LIMIT: usize = u32::MAX as usize + 1;

/// A growable triplet matrix.
#[derive(Debug, Clone, Default)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl Coo {
    /// An empty `nrows x ncols` triplet collection.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo { nrows, ncols, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Pre-allocates space for `cap` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Coo {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (duplicates included).
    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Appends one triplet. Bounds are checked.
    pub fn push(&mut self, row: usize, col: usize, val: f64) -> Result<()> {
        // Indices are stored as u32: a larger declared dimension still
        // bounds them at the u32 range.
        let nrows = self.nrows.min(INDEX_LIMIT);
        let ncols = self.ncols.min(INDEX_LIMIT);
        if row >= nrows {
            return Err(MatrixError::RowOutOfBounds { row, nrows });
        }
        if col >= ncols {
            let col = u32::try_from(col).unwrap_or(u32::MAX);
            return Err(MatrixError::ColumnOutOfBounds { row, col, ncols });
        }
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        self.vals.push(val);
        Ok(())
    }

    /// Appends one triplet without bounds checks (generator hot path;
    /// checked in debug builds).
    #[inline]
    pub fn push_unchecked(&mut self, row: u32, col: u32, val: f64) {
        debug_assert!((row as usize) < self.nrows && (col as usize) < self.ncols);
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Converts to CSR, combining duplicates per `policy`.
    ///
    /// Two counting-sort passes (row-major, then per-row column sort)
    /// give O(nnz log nnz_row) overall; duplicates are merged after the
    /// sort so the result always satisfies the CSR invariants.
    pub fn to_csr(&self, policy: DupPolicy) -> Csr {
        // Counting sort by row.
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            counts[r as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let mut order: Vec<u32> = vec![0; self.len()];
        {
            let mut next = counts.clone();
            for (i, &r) in self.rows.iter().enumerate() {
                order[next[r as usize]] = i as u32;
                next[r as usize] += 1;
            }
        }
        // Per-row: sort by column (stable on insertion order so KeepLast
        // semantics can use the later entry), then merge duplicates.
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::with_capacity(self.len());
        let mut vals = Vec::with_capacity(self.len());
        row_ptr.push(0usize);
        let mut scratch: Vec<(u32, u32)> = Vec::new(); // (col, triplet idx)
        for r in 0..self.nrows {
            scratch.clear();
            for &t in &order[counts[r]..counts[r + 1]] {
                scratch.push((self.cols[t as usize], t));
            }
            // Stable so equal columns keep insertion order (idx order).
            scratch.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut j = i;
                while j + 1 < scratch.len() && scratch[j + 1].0 == c {
                    j += 1;
                }
                let v = match policy {
                    DupPolicy::Sum => {
                        scratch[i..=j].iter().map(|&(_, t)| self.vals[t as usize]).sum()
                    }
                    DupPolicy::KeepLast => {
                        let t = scratch[i..=j].iter().map(|&(_, t)| t).max().unwrap();
                        self.vals[t as usize]
                    }
                };
                col_idx.push(c);
                vals.push(v);
                i = j + 1;
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts_unchecked(self.nrows, self.ncols, row_ptr, col_idx, vals)
    }

    /// Iterator over stored triplets.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.rows.iter().zip(self.cols.iter()).zip(self.vals.iter()).map(|((&r, &c), &v)| (r, c, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_bounds_checked() {
        let mut m = Coo::new(2, 2);
        assert!(m.push(0, 0, 1.0).is_ok());
        assert!(matches!(m.push(2, 0, 1.0), Err(MatrixError::RowOutOfBounds { .. })));
        assert!(matches!(m.push(0, 2, 1.0), Err(MatrixError::ColumnOutOfBounds { .. })));
    }

    #[test]
    fn push_rejects_indices_beyond_u32() {
        // Indices beyond u32 are rejected even when the declared size
        // admits them, instead of being truncated on store.
        let mut wide = Coo::new(1 << 33, 1 << 33);
        let e = wide.push(1 << 32, 0, 1.0).unwrap_err();
        assert_eq!(e, MatrixError::RowOutOfBounds { row: 1 << 32, nrows: 1 << 32 });
        let e = wide.push(0, 1 << 32, 1.0).unwrap_err();
        assert_eq!(e, MatrixError::ColumnOutOfBounds { row: 0, col: u32::MAX, ncols: 1 << 32 });
        assert!(wide.push((1 << 32) - 1, (1 << 32) - 1, 1.0).is_ok());
    }

    #[test]
    fn to_csr_sorts_rows_and_cols() {
        let mut m = Coo::new(3, 3);
        m.push(2, 1, 5.0).unwrap();
        m.push(0, 2, 1.0).unwrap();
        m.push(0, 0, 2.0).unwrap();
        m.push(2, 0, 3.0).unwrap();
        let c = m.to_csr(DupPolicy::Sum);
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.row_cols(0), &[0, 2]);
        assert_eq!(c.row_vals(0), &[2.0, 1.0]);
        assert_eq!(c.row_nnz(1), 0);
        assert_eq!(c.row_cols(2), &[0, 1]);
    }

    #[test]
    fn duplicates_summed() {
        let mut m = Coo::new(1, 2);
        m.push(0, 1, 1.0).unwrap();
        m.push(0, 1, 2.5).unwrap();
        let c = m.to_csr(DupPolicy::Sum);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.row_vals(0), &[3.5]);
    }

    #[test]
    fn duplicates_keep_last() {
        let mut m = Coo::new(1, 2);
        m.push(0, 1, 1.0).unwrap();
        m.push(0, 0, 9.0).unwrap();
        m.push(0, 1, 2.5).unwrap();
        let c = m.to_csr(DupPolicy::KeepLast);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.row_vals(0), &[9.0, 2.5]);
    }

    #[test]
    fn empty_matrix() {
        let m = Coo::new(4, 4);
        let c = m.to_csr(DupPolicy::Sum);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.nrows(), 4);
    }

    #[test]
    fn iter_yields_all() {
        let mut m = Coo::new(2, 2);
        m.push(0, 0, 1.0).unwrap();
        m.push(1, 1, 2.0).unwrap();
        let got: Vec<_> = m.iter().collect();
        assert_eq!(got, vec![(0, 0, 1.0), (1, 1, 2.0)]);
    }
}

#[cfg(test)]
mod property_loops {
    //! Seeded property loops: every case is reproducible from its index.
    use super::*;
    use crate::test_rng_next as next;

    /// Up to `max_len - 1` random `(row, col, value)` entries inside an
    /// `nr x nc` grid with values in `[0, scale)` shifted by `offset`.
    fn entries(
        case: u64,
        min_len: usize,
        max_len: usize,
        nr: usize,
        nc: usize,
        scale: f64,
        offset: f64,
    ) -> Vec<(usize, usize, f64)> {
        let mut rng = case;
        let len = min_len + next(&mut rng) as usize % (max_len - min_len);
        (0..len)
            .map(|_| {
                let (r, c) = (next(&mut rng) as usize % nr, next(&mut rng) as usize % nc);
                let u = (next(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
                (r, c, offset + u * scale)
            })
            .collect()
    }

    /// COO->CSR with Sum policy equals naive dense accumulation.
    #[test]
    fn to_csr_matches_dense_accumulation() {
        for case in 0..256 {
            let (nr, nc) = (12usize, 15usize);
            let mut coo = Coo::new(nr, nc);
            let mut dense = vec![0.0f64; nr * nc];
            for (r, c, v) in entries(case, 0, 120, nr, nc, 8.0, -4.0) {
                coo.push(r, c, v).unwrap();
                dense[r * nc + c] += v;
            }
            let m = coo.to_csr(DupPolicy::Sum);
            let got = m.to_dense();
            for i in 0..nr * nc {
                assert!((got[i] - dense[i]).abs() < 1e-12, "case {case}");
            }
        }
    }

    /// KeepLast keeps exactly the last-pushed value per coordinate.
    #[test]
    fn keep_last_matches_map_semantics() {
        for case in 0..256 {
            let mut coo = Coo::new(6, 6);
            let mut map = std::collections::HashMap::new();
            for (r, c, v) in entries(case, 1, 60, 6, 6, 9.0, 0.0) {
                coo.push(r, c, v).unwrap();
                map.insert((r, c), v);
            }
            let m = coo.to_csr(DupPolicy::KeepLast);
            assert_eq!(m.nnz(), map.len(), "case {case}");
            for r in 0..6 {
                for (c, v) in m.row(r) {
                    assert_eq!(map[&(r, c as usize)], v, "case {case}");
                }
            }
        }
    }
}
