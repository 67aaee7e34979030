//! The fused, parallel, allocation-lean sweep behind
//! [`FeatureVector::extract`](crate::FeatureVector::extract).
//!
//! One row-major pass over a CSR pattern produces, simultaneously:
//!
//! * nonzeros per row block (RB) and per column block (CB);
//! * nonzeros per non-empty tile (T), via a per-row-block *last-seen*
//!   marker over column blocks — O(nnz + K) instead of the reference
//!   path's O(nnz log nnz) tile-id sort, with no nnz-sized allocation;
//! * all six row-side `(group, tile)` incidence levels (group sizes 1
//!   and [`GROUP_XS`]) with one marker array per level. Levels nest
//!   (1 | 4 | 8 | 16 | 32 | 64), so the per-nonzero level loop breaks
//!   at the first unchanged marker: if the group-of-X key matches, every
//!   coarser key matches too. The common case does one compare.
//!
//! The mirrored sweep over the values-free pattern transpose (built by
//! [`wise_matrix::Csr::transpose_pattern_into`]) yields the column-side
//! incidence levels. Either half of the row sweep (tiles, incidence)
//! can be switched off when its feature group is not wanted (see
//! [`crate::groups`]).
//!
//! The R and C distributions come from `row_col_stats`: `row_ptr`
//! differences and an O(nnz) column histogram, no transpose.
//!
//! # Parallel decomposition — why merged results are exact
//!
//! The sweep is parallelized over contiguous row ranges whose
//! boundaries are multiples of `lcm(tile_h, 64)`. Every group size X
//! divides 64 and every row block spans `tile_h` rows, so no group and
//! no row block — hence no `(group, tile)` incidence pair and no tile —
//! straddles a boundary. Each worker therefore observes *complete*
//! groups, row blocks, and tiles: per-worker incidence counts and
//! block counts add exactly, and per-worker tile-count lists
//! concatenate exactly. The merged result is identical to the serial
//! sweep's for every thread count (the counts are integers; no
//! floating-point reassociation is involved).

use crate::locality::GROUP_XS;
use crate::stats::SummaryStats;
use crate::tiling::TileGeometry;
use std::sync::Mutex;
use wise_kernels::sched::{parallel_for_chunks, Schedule};
use wise_matrix::Csr;

/// Incidence levels of one sweep: individual rows, then [`GROUP_XS`].
const LEVELS: [usize; 6] = [1, GROUP_XS[0], GROUP_XS[1], GROUP_XS[2], GROUP_XS[3], GROUP_XS[4]];

/// Which halves of the row sweep to run: the tile and block
/// distributions, the incidence levels, or both.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Parts {
    pub tiles: bool,
    pub incidence: bool,
}

/// Per-worker sweep state and partial outputs. Buffers persist across
/// sweeps (inside [`FeatureScratch`]) so repeated extractions are
/// allocation-free once capacities are reached.
#[derive(Debug, Default)]
pub(crate) struct Worker {
    /// Per-level last-seen `(group, row-block)` key per column block,
    /// flattened as `last[level * k + cb]`.
    last: Vec<u64>,
    /// Row block last seen touching each column block (tile detection).
    tile_last_rb: Vec<u64>,
    /// Nonzeros of the current row block in each touched column block.
    tile_acc: Vec<usize>,
    /// Column blocks touched by the current row block, first-touch order.
    touched: Vec<u32>,
    /// Distinct `(group, tile)` pairs seen, per level.
    incidence: [usize; 6],
    /// Nonzero count of every completed non-empty tile.
    tile_counts: Vec<usize>,
    /// Nonzeros per row block (dense, length k).
    row_block_counts: Vec<usize>,
    /// Nonzeros per column block (dense, length k).
    col_block_counts: Vec<usize>,
}

impl Worker {
    fn reset(&mut self, k: usize, parts: Parts) {
        if parts.incidence {
            self.last.clear();
            self.last.resize(LEVELS.len() * k, u64::MAX);
        }
        self.incidence = [0; 6];
        self.tile_counts.clear();
        if parts.tiles {
            self.tile_last_rb.clear();
            self.tile_last_rb.resize(k, u64::MAX);
            self.tile_acc.clear();
            self.tile_acc.resize(k, 0);
            self.touched.clear();
            self.row_block_counts.clear();
            self.row_block_counts.resize(k, 0);
            self.col_block_counts.clear();
            self.col_block_counts.resize(k, 0);
        }
    }

    /// Emits the tile counts of the row block just finished.
    fn flush_tiles(&mut self) {
        for &cb in &self.touched {
            self.tile_counts.push(self.tile_acc[cb as usize]);
        }
        self.touched.clear();
    }

    /// Sweeps rows `r0..r1` of the pattern `(row_ptr, col_idx)`,
    /// running the requested [`Parts`].
    ///
    /// Correctness of the markers relies only on rows being scanned in
    /// ascending order within the range: for a fixed column block, the
    /// `(group, row-block)` keys are then non-decreasing, so equality
    /// with the last-seen key exactly detects repeats.
    fn sweep(
        &mut self,
        row_ptr: &[usize],
        col_idx: &[u32],
        r0: usize,
        r1: usize,
        geo: TileGeometry,
        parts: Parts,
    ) {
        let TileGeometry { k, tile_h, tile_w } = geo;
        self.reset(k, parts);
        let Parts { tiles: want_tiles, incidence: want_incidence } = parts;
        let k64 = k as u64;
        let mut cur_rb = u64::MAX;
        for r in r0..r1 {
            let rb = (r / tile_h) as u64;
            let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            if want_tiles {
                if rb != cur_rb {
                    self.flush_tiles();
                    cur_rb = rb;
                }
                self.row_block_counts[rb as usize] += cols.len();
            }
            for &c in cols {
                let cb = c as usize / tile_w;
                if want_tiles {
                    self.col_block_counts[cb] += 1;
                    if self.tile_last_rb[cb] != rb {
                        self.tile_last_rb[cb] = rb;
                        self.tile_acc[cb] = 0;
                        self.touched.push(cb as u32);
                    }
                    self.tile_acc[cb] += 1;
                }
                if !want_incidence {
                    continue;
                }
                for (li, &x) in LEVELS.iter().enumerate() {
                    let key = (r / x) as u64 * k64 + rb;
                    let slot = &mut self.last[li * k + cb];
                    if *slot == key {
                        // Levels nest: every coarser level matches too.
                        break;
                    }
                    *slot = key;
                    self.incidence[li] += 1;
                }
            }
        }
        if want_tiles {
            self.flush_tiles();
        }
    }
}

/// Merged outputs of one fused sweep, borrowed from the worker pool.
/// `tile_counts`/`row_block_counts`/`col_block_counts` are only
/// meaningful when the sweep ran with `parts.tiles`, `incidence` only
/// with `parts.incidence`.
pub(crate) struct SideCounts<'a> {
    pub incidence: [usize; 6],
    pub tile_counts: &'a [usize],
    pub row_block_counts: &'a [usize],
    pub col_block_counts: &'a [usize],
}

fn gcd(a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Rows per parallel chunk: `ceil(nrows / threads)` rounded up to a
/// multiple of `lcm(tile_h, 64)` so no row block and no row group
/// straddles a chunk boundary (see the module docs for why this makes
/// the parallel merge exact).
fn aligned_chunk_rows(nrows: usize, tile_h: usize, threads: usize) -> usize {
    let max_x = LEVELS[LEVELS.len() - 1];
    let align = tile_h / gcd(tile_h, max_x) * max_x;
    let per_thread = nrows.div_ceil(threads.max(1)).max(1);
    per_thread.div_ceil(align) * align
}

/// Runs the fused sweep over the whole pattern with up to `threads`
/// workers and merges the per-worker partial counts (see module docs
/// for the exactness argument). `geo.tile_h` is the tile extent along
/// the scanned (row) dimension — callers sweeping a transpose pass a
/// mirrored geometry.
pub(crate) fn fused_sweep<'w>(
    workers: &'w mut Vec<Worker>,
    row_ptr: &[usize],
    col_idx: &[u32],
    nrows: usize,
    geo: TileGeometry,
    parts: Parts,
    threads: usize,
) -> SideCounts<'w> {
    debug_assert_eq!(row_ptr.len(), nrows + 1);
    let chunk_rows = aligned_chunk_rows(nrows, geo.tile_h, threads);
    let n_chunks = nrows.div_ceil(chunk_rows);
    if workers.len() < n_chunks.max(1) {
        workers.resize_with(n_chunks.max(1), Worker::default);
    }
    if n_chunks <= 1 {
        let _chunk = wise_trace::span("features.chunk_sweep");
        workers[0].sweep(row_ptr, col_idx, 0, nrows, geo, parts);
    } else {
        // Chunk `t` locks worker `t` once, to get its `&mut`.
        let active: Vec<Mutex<&mut Worker>> =
            workers[..n_chunks].iter_mut().map(Mutex::new).collect();
        parallel_for_chunks(n_chunks, threads, Schedule::Dyn, 1, |t| {
            let (lo, hi) = (t * chunk_rows, ((t + 1) * chunk_rows).min(nrows));
            let _chunk = wise_trace::span("features.chunk_sweep");
            let mut w = active[t].lock().expect("each worker is locked by its one chunk");
            w.sweep(row_ptr, col_idx, lo, hi, geo, parts)
        });
        drop(active);
        let _merge = wise_trace::span("features.chunk_merge");
        let (head, rest) = workers.split_at_mut(1);
        let w0 = &mut head[0];
        for w in &rest[..n_chunks - 1] {
            for (a, b) in w0.incidence.iter_mut().zip(&w.incidence) {
                *a += *b;
            }
            w0.tile_counts.extend_from_slice(&w.tile_counts);
            if parts.tiles {
                for (a, b) in w0.row_block_counts.iter_mut().zip(&w.row_block_counts) {
                    *a += *b;
                }
                for (a, b) in w0.col_block_counts.iter_mut().zip(&w.col_block_counts) {
                    *a += *b;
                }
            }
        }
    }
    let w = &workers[0];
    SideCounts {
        incidence: w.incidence,
        tile_counts: &w.tile_counts,
        row_block_counts: &w.row_block_counts,
        col_block_counts: &w.col_block_counts,
    }
}

/// The one R/C counting path: the R distribution straight from
/// `row_ptr` differences, the C distribution from an O(nnz) column
/// histogram (no pattern transpose). Both reach the same
/// [`SummaryStats`] body as the reference extractor's materialized
/// counts, so these statistics equal its bit for bit. Each is `None`
/// unless asked for.
pub(crate) fn row_col_stats(
    m: &Csr,
    scratch: &mut FeatureScratch,
    want_r: bool,
    want_c: bool,
) -> (Option<SummaryStats>, Option<SummaryStats>) {
    let r = want_r.then(|| {
        let lens = m.row_ptr().windows(2).map(|w| w[1] - w[0]);
        SummaryStats::from_values(lens, m.nrows(), &mut scratch.stat_buf)
    });
    let c = want_c.then(|| {
        scratch.col_counts.clear();
        scratch.col_counts.resize(m.ncols(), 0usize);
        for &c in m.col_idx() {
            scratch.col_counts[c as usize] += 1;
        }
        SummaryStats::from_counts_with(&scratch.col_counts, &mut scratch.stat_buf)
    });
    (r, c)
}

/// Reusable workspace for
/// [`FeatureVector::extract_subset_with`](crate::FeatureVector::extract_subset_with):
/// the pattern-transpose buffers, the per-thread sweep workers, the
/// column histogram and the statistics buffer.
/// Repeated extractions over a corpus reuse every buffer, so the hot
/// labeling loop performs no per-matrix allocations once capacities
/// have grown to the largest matrix seen.
#[derive(Debug, Default)]
pub struct FeatureScratch {
    /// Pattern-transpose row pointers (`ncols + 1` entries).
    pub(crate) t_row_ptr: Vec<usize>,
    /// Pattern-transpose row indices (`nnz` entries).
    pub(crate) t_col_idx: Vec<u32>,
    /// Per-thread sweep workers (grown on demand).
    pub(crate) workers: Vec<Worker>,
    /// Value histogram (or, for wide value ranges, sorted values)
    /// behind [`SummaryStats`](crate::SummaryStats).
    pub(crate) stat_buf: Vec<usize>,
    /// Column histogram behind the C distribution (no transpose needed).
    pub(crate) col_counts: Vec<usize>,
}

impl FeatureScratch {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> FeatureScratch {
        FeatureScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::locality_metrics;
    use crate::tiling::TileGrid;
    use wise_matrix::Csr;

    fn side(m: &Csr, k_max: usize, threads: usize) -> (SideCounts<'_>, TileGeometry) {
        // Leak a worker pool per call; fine for tests.
        let workers = Box::leak(Box::new(Vec::new()));
        let geo = TileGeometry::for_matrix(m.nrows(), m.ncols(), k_max);
        let both = Parts { tiles: true, incidence: true };
        let s = fused_sweep(workers, m.row_ptr(), m.col_idx(), m.nrows(), geo, both, threads);
        (s, geo)
    }

    #[test]
    fn matches_reference_tile_grid() {
        for threads in [1usize, 2, 7] {
            for (m, k_max) in [
                (wise_gen::RmatParams::MED_SKEW.generate(9, 8, 3), 16),
                (wise_gen::suite::banded(300, 7, 0.6, 9), 16),
                (Csr::identity(64), 8),
                (Csr::zero(10, 10), 4),
            ] {
                let grid = TileGrid::new(&m, k_max);
                let (s, _) = side(&m, k_max, threads);
                assert_eq!(s.row_block_counts, grid.row_block_counts());
                assert_eq!(s.col_block_counts, grid.col_block_counts());
                let mut got = s.tile_counts.to_vec();
                let mut want = grid.tile_counts().to_vec();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "threads={threads}");
            }
        }
    }

    #[test]
    fn incidence_matches_reference() {
        for threads in [1usize, 2, 7] {
            let m = wise_gen::RmatParams::LOW_LOC.generate(9, 6, 5);
            let mt = m.transpose();
            let grid = TileGrid::new(&m, 16);
            let want = locality_metrics(&m, &mt, &grid);
            let geo = TileGeometry::for_matrix(m.nrows(), m.ncols(), 16);
            let (row, _) = side(&m, 16, threads);
            let workers = Box::leak(Box::new(Vec::new()));
            let (t_rp, t_ci) = m.transpose_pattern();
            let mirrored = TileGeometry { k: geo.k, tile_h: geo.tile_w, tile_w: geo.tile_h };
            let inc = Parts { tiles: false, incidence: true };
            let col = fused_sweep(workers, &t_rp, &t_ci, m.ncols(), mirrored, inc, threads);
            let got = crate::locality::LocalityMetrics::from_incidence(
                row.incidence,
                col.incidence,
                m.nrows(),
                m.ncols(),
                m.nnz(),
            );
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn chunk_alignment_respects_groups_and_tiles() {
        for (nrows, tile_h, threads) in
            [(1000usize, 3usize, 4usize), (64, 64, 8), (1, 1, 2), (0, 5, 3)]
        {
            let chunk = aligned_chunk_rows(nrows, tile_h, threads);
            assert_eq!(chunk % tile_h, 0);
            assert_eq!(chunk % 64, 0);
            assert!(chunk >= 1);
        }
    }
}
