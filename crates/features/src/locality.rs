//! Within-tile layout and cross-tile reuse metrics (paper Section 4.2).
//!
//! For each tile the paper counts the unique rows (`uniqR_i`) and
//! columns (`uniqC_i`) holding nonzeros, and the unique *groups of X
//! adjacent* rows/columns (`GrX_uniqR_i`, `GrX_uniqC_i`, X ∈ {4, 8, 16,
//! 32, 64} — cache-line granularities). Sums across tiles are
//! normalized by nnz. It also counts, per row (column, group), the
//! number of tiles it touches — `potReuse*`, averaged over rows
//! (columns, groups) — which measures cross-tile LLC reuse potential.
//!
//! All metrics reduce to counting distinct `(group, tile)` incidence
//! pairs, because
//! `Σ_tiles GrX_uniqR_i = #distinct (row-group, tile) pairs
//!  = Σ_groups GrX_potReuseR_g`.
//! One CSR pass per orientation with a last-seen marker per column
//! block computes every X level simultaneously in O(nnz · |X|) time and
//! O(K · |X|) memory; markers work because row groups appear in
//! non-decreasing order during a row-major scan.

use crate::tiling::TileGrid;
use wise_matrix::Csr;

/// Group sizes used for `GrX_*` features (cache-line granularities for
/// 128-bit to 512-byte lines; paper Section 4.2).
pub const GROUP_XS: [usize; 5] = [4, 8, 16, 32, 64];

/// The 24 locality features of Table 2's last block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityMetrics {
    /// Σ_i uniqR_i / nnz.
    pub uniq_r: f64,
    /// Σ_i uniqC_i / nnz.
    pub uniq_c: f64,
    /// Σ_i GrX_uniqR_i / nnz, per X in [`GROUP_XS`].
    pub gr_uniq_r: [f64; 5],
    /// Σ_i GrX_uniqC_i / nnz, per X.
    pub gr_uniq_c: [f64; 5],
    /// Mean tiles-touched per row.
    pub pot_reuse_r: f64,
    /// Mean tiles-touched per column.
    pub pot_reuse_c: f64,
    /// Mean tiles-touched per group of X rows, per X.
    pub gr_pot_reuse_r: [f64; 5],
    /// Mean tiles-touched per group of X columns, per X.
    pub gr_pot_reuse_c: [f64; 5],
}

/// Distinct `(group, tile)` incidence counts for one matrix orientation:
/// index 0 is group size 1 (individual rows), indices 1.. follow
/// [`GROUP_XS`].
fn incidence_counts(m: &Csr, tile_h: usize, tile_w: usize, k: usize) -> [usize; 6] {
    let levels: [usize; 6] = [1, GROUP_XS[0], GROUP_XS[1], GROUP_XS[2], GROUP_XS[3], GROUP_XS[4]];
    let mut counts = [0usize; 6];
    // last[level][cb] = encoded (group, row-block) last seen touching cb.
    let mut last: Vec<Vec<u64>> = (0..6).map(|_| vec![u64::MAX; k]).collect();
    for r in 0..m.nrows() {
        let rb = (r / tile_h) as u64;
        for &c in m.row_cols(r) {
            let cb = c as usize / tile_w;
            for (li, &x) in levels.iter().enumerate() {
                let key = (r / x) as u64 * k as u64 + rb;
                // Safe marker: keys for a fixed cb are non-decreasing in r.
                if last[li][cb] != key {
                    last[li][cb] = key;
                    counts[li] += 1;
                }
            }
        }
    }
    counts
}

/// One orientation's 12 locality metrics (the row or the column half
/// of [`LocalityMetrics`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SideLocality {
    pub uniq: f64,
    pub gr_uniq: [f64; 5],
    pub pot_reuse: f64,
    pub gr_pot_reuse: [f64; 5],
}

/// One orientation's metrics from its distinct-`(group, tile)`
/// incidence array (index 0 = single rows/columns, indices 1.. follow
/// [`GROUP_XS`]); `n` is the number of rows (columns) in that
/// orientation. The single formula behind both the reference path and
/// the fused engine, so equal counts give bit-identical features.
pub(crate) fn side_metrics(inc: [usize; 6], n: usize, nnz: usize) -> SideLocality {
    let nnz = nnz as f64;
    let per_nnz = |a: usize| if nnz > 0.0 { a as f64 / nnz } else { 0.0 };
    let mut gr_uniq = [0.0; 5];
    let mut gr_pot_reuse = [0.0; 5];
    for (i, &x) in GROUP_XS.iter().enumerate() {
        gr_uniq[i] = per_nnz(inc[i + 1]);
        gr_pot_reuse[i] = inc[i + 1] as f64 / n.div_ceil(x).max(1) as f64;
    }
    SideLocality {
        uniq: per_nnz(inc[0]),
        gr_uniq,
        pot_reuse: inc[0] as f64 / n.max(1) as f64,
        gr_pot_reuse,
    }
}

impl LocalityMetrics {
    /// Assembles the 24 metrics from one distinct-`(group, tile)`
    /// incidence array per orientation (see [`side_metrics`]).
    pub fn from_incidence(
        row_side: [usize; 6],
        col_side: [usize; 6],
        nrows: usize,
        ncols: usize,
        nnz: usize,
    ) -> LocalityMetrics {
        let r = side_metrics(row_side, nrows, nnz);
        let c = side_metrics(col_side, ncols, nnz);
        LocalityMetrics {
            uniq_r: r.uniq,
            uniq_c: c.uniq,
            gr_uniq_r: r.gr_uniq,
            gr_uniq_c: c.gr_uniq,
            pot_reuse_r: r.pot_reuse,
            pot_reuse_c: c.pot_reuse,
            gr_pot_reuse_r: r.gr_pot_reuse,
            gr_pot_reuse_c: c.gr_pot_reuse,
        }
    }

    /// The row (`0`) or column (`1`) half.
    pub(crate) fn side(&self, side: usize) -> SideLocality {
        if side == 0 {
            SideLocality {
                uniq: self.uniq_r,
                gr_uniq: self.gr_uniq_r,
                pot_reuse: self.pot_reuse_r,
                gr_pot_reuse: self.gr_pot_reuse_r,
            }
        } else {
            SideLocality {
                uniq: self.uniq_c,
                gr_uniq: self.gr_uniq_c,
                pot_reuse: self.pot_reuse_c,
                gr_pot_reuse: self.gr_pot_reuse_c,
            }
        }
    }
}

/// Computes all locality metrics with the serial reference sweeps.
/// `mt` must be the transpose of `m` (callers typically already have it
/// for the C distribution). The production extraction path computes the
/// same incidence counts inside its fused sweep; this function is the
/// independently-testable oracle.
pub fn locality_metrics(m: &Csr, mt: &Csr, grid: &TileGrid) -> LocalityMetrics {
    debug_assert_eq!(mt.nrows(), m.ncols());
    debug_assert_eq!(mt.nnz(), m.nnz());
    let k = grid.k();
    let row_side = incidence_counts(m, grid.tile_h(), grid.tile_w(), k);
    // Column orientation: scan the transpose; its "rows" are original
    // columns, so tile height/width swap.
    let col_side = incidence_counts(mt, grid.tile_w(), grid.tile_h(), k);
    LocalityMetrics::from_incidence(row_side, col_side, m.nrows(), m.ncols(), m.nnz())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_gen::{suite, RmatParams};

    fn metrics(m: &Csr, k: usize) -> (LocalityMetrics, TileGrid) {
        let grid = TileGrid::new(m, k);
        let mt = m.transpose();
        (locality_metrics(m, &mt, &grid), grid)
    }

    /// Brute-force reference: count distinct (group, tile) pairs with
    /// hash sets.
    fn brute_incidence(m: &Csr, tile_h: usize, tile_w: usize, k: usize, x: usize) -> usize {
        let mut set = std::collections::HashSet::new();
        for r in 0..m.nrows() {
            for &c in m.row_cols(r) {
                set.insert((r / x, r / tile_h, (c as usize / tile_w).min(k - 1)));
            }
        }
        set.len()
    }

    #[test]
    fn identity_matrix_metrics() {
        let m = Csr::identity(64);
        let (l, g) = metrics(&m, 8);
        assert_eq!(g.tile_h(), 8);
        // Each row touches exactly 1 tile; every nonzero is a unique row
        // in its tile.
        assert_eq!(l.pot_reuse_r, 1.0);
        assert_eq!(l.pot_reuse_c, 1.0);
        assert_eq!(l.uniq_r, 1.0);
        assert_eq!(l.uniq_c, 1.0);
        // Groups of 4 rows touch 1 tile each (diagonal alignment).
        assert_eq!(l.gr_pot_reuse_r[0], 1.0);
        // Gr4_uniqR = 16 groups-in-tiles / 64 nnz = 0.25.
        assert!((l.gr_uniq_r[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn dense_row_touches_every_column_block() {
        // One row filled, k=4 blocks.
        let n = 16usize;
        let m = Csr::try_new(
            n,
            n,
            {
                let mut rp = vec![0usize; n + 1];
                for v in rp.iter_mut().skip(1) {
                    *v = n;
                }
                rp
            },
            (0..n as u32).collect(),
            vec![1.0; n],
        )
        .unwrap();
        let (l, _) = metrics(&m, 4);
        // The single non-empty row touches all 4 column blocks.
        assert!((l.pot_reuse_r - 4.0 / 16.0).abs() < 1e-12);
        // Each column has one nonzero -> touches 1 tile.
        assert_eq!(l.pot_reuse_c, 1.0);
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        for (seed, gen) in [(1u64, RmatParams::HIGH_SKEW), (2, RmatParams::LOW_LOC)] {
            let m = gen.generate(8, 6, seed);
            let grid = TileGrid::new(&m, 16);
            let counts = incidence_counts(&m, grid.tile_h(), grid.tile_w(), grid.k());
            for (li, &x) in [1usize, 4, 8, 16, 32, 64].iter().enumerate() {
                let want = brute_incidence(&m, grid.tile_h(), grid.tile_w(), grid.k(), x);
                assert_eq!(counts[li], want, "seed={seed} X={x}");
            }
        }
    }

    #[test]
    fn grouped_counts_are_monotone_in_x() {
        // Bigger groups can only merge, never split: counts decrease.
        let m = RmatParams::MED_SKEW.generate(9, 8, 4);
        let grid = TileGrid::new(&m, 32);
        let counts = incidence_counts(&m, grid.tile_h(), grid.tile_w(), grid.k());
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "{counts:?}");
        }
    }

    #[test]
    fn high_loc_has_lower_uniq_c_than_low_loc() {
        // Diagonal matrices keep column accesses clustered: grouped
        // unique-column counts per nonzero should be lower.
        let hl = RmatParams::HIGH_LOC.generate(11, 8, 9);
        let ll = RmatParams::LOW_LOC.generate(11, 8, 9);
        let (mhl, _) = metrics(&hl, 64);
        let (mll, _) = metrics(&ll, 64);
        assert!(
            mhl.gr_uniq_c[2] < mll.gr_uniq_c[2],
            "HighLoc {} vs LowLoc {}",
            mhl.gr_uniq_c[2],
            mll.gr_uniq_c[2]
        );
    }

    #[test]
    fn banded_rows_touch_few_tiles() {
        let m = suite::banded(512, 4, 1.0, 0);
        let (l, _) = metrics(&m, 16);
        // Bandwidth 4 << tile width 32: almost every row stays in 1-2 tiles.
        assert!(l.pot_reuse_r < 2.0, "pot_reuse_r={}", l.pot_reuse_r);
    }

    #[test]
    fn empty_matrix_is_all_zero() {
        let m = Csr::zero(8, 8);
        let (l, _) = metrics(&m, 4);
        assert_eq!(l.uniq_r, 0.0);
        assert_eq!(l.pot_reuse_c, 0.0);
        assert_eq!(l.gr_uniq_r, [0.0; 5]);
    }
}
