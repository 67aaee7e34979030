//! Segmented Reordered Vector Packing — the paper's unified matrix
//! format (Appendix A) from which all five vectorized SpMV methods are
//! executed by a single kernel.
//!
//! The format composes three orthogonal transformations:
//!
//! * **Column Frequency Sorting (CFS)** — relabel columns by descending
//!   nonzero count so hot input-vector entries cluster in cache lines;
//! * **Segmentation** — split the (CFS-ordered) columns into a *dense*
//!   segment holding a fraction `T` of the nonzeros and a *sparse*
//!   remainder, so each segment's slice of the input vector fits in the
//!   LLC;
//! * **Row reordering + chunk packing** — within each segment, order
//!   rows (identity for SELLPACK, σ-window sort for Sell-c-σ, global
//!   Row Frequency Sorting for Sell-c-R/LAV), group `c` consecutive
//!   rows into a chunk, and pad every row of a chunk to the chunk's
//!   maximum length so one vector instruction processes `c` rows.
//!
//! | Method     | CFS | Segments | Row order      |
//! |------------|-----|----------|----------------|
//! | SELLPACK   | no  | 1        | original       |
//! | Sell-c-σ   | no  | 1        | σ-window sort  |
//! | Sell-c-R   | no  | 1        | global (RFS)   |
//! | LAV-1Seg   | yes | 1        | global (RFS)   |
//! | LAV        | yes | 2 (T)    | global (RFS)   |

use crate::sched::{parallel_for_chunks, DisjointWriter, Schedule};
use crate::simd::{self, SimdIsa};
use wise_matrix::perm::counting_sort_desc;
use wise_matrix::{Csr, Permutation};

/// Row-reordering policy applied within each segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigmaSpec {
    /// Keep original row order (SELLPACK).
    None,
    /// Stable sort by descending row length within windows of σ rows
    /// (Sell-c-σ).
    Window(usize),
    /// Stable global sort by descending row length — Row Frequency
    /// Sorting (Sell-c-R and the LAV family). Rows with no nonzeros in
    /// the segment are dropped.
    Full,
}

/// Column segmentation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegmentSpec {
    /// A single segment spanning all columns.
    One,
    /// Two segments: the dense one holds the smallest prefix of
    /// (CFS-ordered) columns covering at least fraction `T` of the
    /// nonzeros; the sparse one holds the rest.
    DenseFraction(f64),
}

/// Largest chunk height [`SrvPack::build`] accepts: one `[f64; MAX_C]`
/// accumulator then serves every chunk kernel.
pub const MAX_C: usize = 8;

/// Full packing configuration (one per method; see module table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackConfig {
    /// Chunk height = vector width (the paper uses 4 and 8), in
    /// `1..=`[`MAX_C`].
    pub c: usize,
    pub sigma: SigmaSpec,
    /// Apply Column Frequency Sorting first.
    pub cfs: bool,
    pub segments: SegmentSpec,
}

/// One packed column segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Original row ids in pack order (chunk-major). Rows dropped by
    /// RFS (zero nonzeros in this segment) are absent.
    row_order: Vec<u32>,
    /// Per-chunk offsets in *column steps*: chunk `k` spans
    /// `offsets[k]..offsets[k+1]` steps, each step holding `c` lanes.
    offsets: Vec<usize>,
    /// Column ids, `c` lanes per step; padding lanes hold column 0.
    col_ids: Vec<u32>,
    /// Values, `c` lanes per step; padding lanes hold 0.0.
    vals: Vec<f64>,
    /// Real (unpadded) nonzeros in this segment.
    nnz_real: usize,
    /// Half-open range of (post-CFS) column ids this segment covers.
    col_range: (usize, usize),
}

impl Segment {
    #[inline]
    pub fn nchunks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Width (in column steps) of chunk `k`.
    #[inline]
    pub fn chunk_width(&self, k: usize) -> usize {
        self.offsets[k + 1] - self.offsets[k]
    }

    /// Rows (original ids) written by chunk `k`.
    #[inline]
    pub fn chunk_rows(&self, k: usize, c: usize) -> &[u32] {
        let lo = k * c;
        let hi = ((k + 1) * c).min(self.row_order.len());
        &self.row_order[lo..hi]
    }

    /// Chunk `k`'s values and column ids, `c` lanes per step.
    #[inline(always)]
    fn chunk(&self, k: usize, c: usize) -> (&[f64], &[u32]) {
        let span = self.offsets[k] * c..self.offsets[k + 1] * c;
        (&self.vals[span.clone()], &self.col_ids[span])
    }

    pub fn row_order(&self) -> &[u32] {
        &self.row_order
    }

    pub fn nnz_real(&self) -> usize {
        self.nnz_real
    }

    /// Total stored entries including padding.
    pub fn nnz_padded(&self, c: usize) -> usize {
        self.offsets.last().copied().unwrap_or(0) * c
    }

    pub fn col_range(&self) -> (usize, usize) {
        self.col_range
    }

    pub fn col_ids(&self) -> &[u32] {
        &self.col_ids
    }

    /// Values, `c` lanes per step; padding lanes hold 0.0.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }
}

/// A matrix packed in SRVPack form, ready for vectorized SpMV.
///
/// ```
/// use wise_kernels::{SrvPack, Schedule};
/// use wise_kernels::srvpack::SpmvWorkspace;
/// let m = wise_matrix::Csr::identity(16);
/// let pack = SrvPack::lav(&m, 4, 0.8);
/// let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
/// let mut y = vec![0.0; 16];
/// pack.spmv(&x, &mut y, 2, Schedule::Dyn, &mut SpmvWorkspace::default());
/// assert_eq!(y, x); // identity matrix
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SrvPack {
    nrows: usize,
    ncols: usize,
    config: PackConfig,
    /// CFS permutation (`new -> old`), if CFS was applied. The kernel
    /// gathers the input vector through it per call.
    col_perm: Option<Permutation>,
    segments: Vec<Segment>,
    /// Requested SIMD width (0 = auto, 1 = scalar; see
    /// [`SrvPack::with_simd`]); 0 unless a test or benchmark forces it.
    simd: usize,
}

/// Reusable scratch buffers for [`SrvPack::spmv`] so iterative callers
/// (the dominant SpMV use case) pay no per-call allocation.
#[derive(Debug, Default)]
pub struct SpmvWorkspace {
    xperm: Vec<f64>,
}

impl SrvPack {
    // ---- Method constructors (Table 1) ------------------------------

    /// Sliced ELLPACK: chunks of `c` consecutive rows, no reordering.
    pub fn sellpack(m: &Csr, c: usize) -> SrvPack {
        Self::build(
            m,
            PackConfig { c, sigma: SigmaSpec::None, cfs: false, segments: SegmentSpec::One },
        )
    }

    /// Sell-c-σ: rows sorted by length within σ-row windows.
    pub fn sell_c_sigma(m: &Csr, c: usize, sigma: usize) -> SrvPack {
        Self::build(
            m,
            PackConfig {
                c,
                sigma: SigmaSpec::Window(sigma),
                cfs: false,
                segments: SegmentSpec::One,
            },
        )
    }

    /// Sell-c-R: global Row Frequency Sorting (σ = number of rows).
    pub fn sell_c_r(m: &Csr, c: usize) -> SrvPack {
        Self::build(
            m,
            PackConfig { c, sigma: SigmaSpec::Full, cfs: false, segments: SegmentSpec::One },
        )
    }

    /// LAV with a single segment: CFS then RFS.
    pub fn lav_1seg(m: &Csr, c: usize) -> SrvPack {
        Self::build(
            m,
            PackConfig { c, sigma: SigmaSpec::Full, cfs: true, segments: SegmentSpec::One },
        )
    }

    /// Full LAV: CFS, dense/sparse segmentation at fraction `t`, RFS per
    /// segment.
    pub fn lav(m: &Csr, c: usize, t: f64) -> SrvPack {
        Self::build(
            m,
            PackConfig {
                c,
                sigma: SigmaSpec::Full,
                cfs: true,
                segments: SegmentSpec::DenseFraction(t),
            },
        )
    }

    // ---- Generic builder ---------------------------------------------

    /// Packs `m` per `config` in O(nrows + ncols + nnz); this is the
    /// preprocessing the selection heuristic charges for (DESIGN.md
    /// §21). Chunk filling runs on the worker pool
    /// ([`crate::sched::default_threads`] workers); the output is
    /// bit-identical for every thread count because each chunk owns a
    /// disjoint `offsets`-delimited range of the buffers.
    pub fn build(m: &Csr, config: PackConfig) -> SrvPack {
        Self::build_with_threads(m, config, crate::sched::default_threads())
    }

    /// [`SrvPack::build`] with an explicit worker count (1 = fill
    /// chunks on the calling thread, no pool dispatch).
    pub fn build_with_threads(m: &Csr, config: PackConfig, nthreads: usize) -> SrvPack {
        assert!((1..=MAX_C).contains(&config.c), "chunk height c must be in 1..={MAX_C}");
        if let SegmentSpec::DenseFraction(t) = config.segments {
            assert!((0.0..=1.0).contains(&t), "T must be a fraction, got {t}");
            assert!(config.cfs, "segmentation requires CFS (LAV applies CFS first)");
        }
        let nrows = m.nrows();
        let ncols = m.ncols();
        let row_ptr = m.row_ptr();

        // 1. CFS: relabel columns by descending count, then split the
        // relabeled space into the dense prefix holding fraction T.
        let mut split = ncols;
        let col_perm = config.cfs.then(|| {
            let counts = m.nnz_per_col();
            let perm = Permutation::sort_desc_by_key(&counts);
            if let SegmentSpec::DenseFraction(t) = config.segments {
                split = dense_split(&counts, &perm, m.nnz(), t);
            }
            perm
        });

        // 2. One remap pass through `old_to_new` (see `remap`); the
        // temporaries are dropped when `build` returns.
        let mut lens: Vec<usize> = row_ptr.windows(2).map(|w| w[1] - w[0]).collect();
        let remapped = col_perm.as_ref().map(|perm| remap(m, &perm.inverse(), split, &mut lens));
        let (cols, src_vals) = match &remapped {
            Some((cols, vals)) => (&cols[..], vals.as_deref().unwrap_or(m.vals())),
            None => (m.col_idx(), m.vals()),
        };
        let boundaries: &[usize] = if split < ncols { &[0, split, ncols] } else { &[0, ncols] };

        // 3. Build each segment. `lens` holds the segment's row lengths:
        // the dense counts first, then `row_nnz - dense` for the sparse
        // remainder.
        let nseg = boundaries.len() - 1;
        let mut segments = Vec::with_capacity(nseg);
        let mut sort_counts = Vec::new();
        for s in 0..nseg {
            let (lo, hi) = (boundaries[s], boundaries[s + 1]);
            if s == 1 {
                for (r, len) in lens.iter_mut().enumerate() {
                    *len = row_ptr[r + 1] - row_ptr[r] - *len;
                }
            }
            let row_order = row_order(config.sigma, &lens, &mut sort_counts);

            // Pack chunk-major. Widths and offsets come first (one max
            // over `lens` per chunk), which lets the fill run one chunk
            // per work item over the worker pool: chunk `k` owns the
            // disjoint buffer range `offsets[k] * c .. offsets[k + 1] *
            // c`, so the parallel fill writes exactly the bytes the
            // serial loop would (padding slots keep their zero
            // initialization either way) and the prepared buffers are
            // bit-identical for every thread count.
            let c = config.c;
            let nchunks = row_order.len().div_ceil(c);
            let mut offsets = Vec::with_capacity(nchunks + 1);
            offsets.push(0usize);
            for chunk_rows in row_order.chunks(c) {
                let width = chunk_rows.iter().map(|&r| lens[r as usize]).max().unwrap_or(0);
                offsets.push(offsets.last().unwrap() + width);
            }
            let total = *offsets.last().unwrap() * c;
            let mut col_ids = vec![0u32; total];
            let mut vals = vec![0.0f64; total];
            {
                let cols_w = DisjointWriter::new(&mut col_ids);
                let vals_w = DisjointWriter::new(&mut vals);
                let (offsets, row_order, lens) = (&offsets, &row_order, &lens);
                // The dense segment reads the first `lens[r]` entries of
                // each (partitioned) row, the sparse one the last.
                let from_end = s == 1;
                let fill = |k: usize| {
                    let base = offsets[k] * c;
                    let chunk_rows = &row_order[k * c..((k + 1) * c).min(row_order.len())];
                    for (lane, &r) in chunk_rows.iter().enumerate() {
                        let (r, len) = (r as usize, lens[r as usize]);
                        let a = if from_end { row_ptr[r + 1] - len } else { row_ptr[r] };
                        let entries = cols[a..a + len].iter().zip(&src_vals[a..a + len]);
                        for (j, (&nc, &v)) in entries.enumerate() {
                            // SAFETY: j < lens[r] <= chunk k's width and
                            // lane < c, so `base + j·c + lane` stays inside
                            // chunk k's range; chunk ranges are disjoint by
                            // the offsets prefix sum and k is unique per
                            // call.
                            unsafe {
                                cols_w.write(base + j * c + lane, nc);
                                vals_w.write(base + j * c + lane, v);
                            }
                        }
                    }
                };
                if nthreads <= 1 {
                    (0..nchunks).for_each(fill);
                } else {
                    let grain = (crate::csr_spmv::DEFAULT_ROWS_PER_CHUNK / c).max(1);
                    parallel_for_chunks(nchunks, nthreads, Schedule::Dyn, grain, fill);
                }
            }
            segments.push(Segment {
                row_order,
                offsets,
                col_ids,
                vals,
                nnz_real: lens.iter().sum(),
                col_range: (lo, hi),
            });
        }

        SrvPack { nrows, ncols, config, col_perm, segments, simd: 0 }
    }

    /// Overrides the SIMD width the chunk kernel runs at — the one
    /// override of the pack's own choice, for tests and for the
    /// benchmark's scalar rung: 0 = auto (the default), 1 = the scalar
    /// loop (bit-exact), else capped at the host's [`simd::active`]
    /// level.
    pub fn with_simd(mut self, v: usize) -> SrvPack {
        self.simd = v;
        self
    }

    /// The level the chunk kernel will actually execute at, decided
    /// here and nowhere else: the active ISA (see [`simd::resolve`])
    /// for the catalog heights `c ∈ {4, 8}`, which have vector paths,
    /// and scalar for every other height.
    pub fn resolved_isa(&self) -> SimdIsa {
        match self.config.c {
            4 | 8 => simd::resolve(self.simd, self.ncols),
            _ => SimdIsa::Scalar,
        }
    }

    /// The prefetch distance the chunk kernel runs at `isa`: the auto
    /// policy, which engages only once x outgrows the caches
    /// ([`simd::auto_prefetch_distance`]).
    pub(crate) fn resolved_prefetch(&self, isa: SimdIsa) -> usize {
        simd::auto_prefetch_distance(isa, self.ncols)
    }

    /// The chunk-interleave factor at `isa`: 2 (chunk pairs) on the
    /// AVX-512 c=8 path, else 1 ([`simd::auto_sell_interleave`]).
    pub(crate) fn resolved_interleave(&self, isa: SimdIsa) -> usize {
        simd::auto_sell_interleave(isa, self.config.c)
    }

    // ---- Accessors ----------------------------------------------------

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn config(&self) -> &PackConfig {
        &self.config
    }

    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    pub fn col_perm(&self) -> Option<&Permutation> {
        self.col_perm.as_ref()
    }

    /// Real nonzeros across segments (equals the source matrix's nnz).
    pub fn nnz_real(&self) -> usize {
        self.segments.iter().map(|s| s.nnz_real).sum()
    }

    /// Stored entries including padding — the vectorization overhead the
    /// paper's zero-padding-minimization methods fight.
    pub fn nnz_padded(&self) -> usize {
        self.segments.iter().map(|s| s.nnz_padded(self.config.c)).sum()
    }

    /// Padding ratio `padded / real` (1.0 = no padding). Returns 1.0 for
    /// empty matrices.
    pub fn padding_ratio(&self) -> f64 {
        let real = self.nnz_real();
        if real == 0 {
            1.0
        } else {
            self.nnz_padded() as f64 / real as f64
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|s| {
                s.vals.len() * 8 + s.col_ids.len() * 4 + s.row_order.len() * 4 + s.offsets.len() * 8
            })
            .sum::<usize>()
            + self.col_perm.as_ref().map_or(0, |p| p.len() * 4)
    }

    // ---- Kernel --------------------------------------------------------

    /// `y = A x` with `nthreads` workers under `schedule`.
    ///
    /// Segments run sequentially (dense first, as in LAV, so its slice
    /// of the input vector is LLC-resident while processed); chunks
    /// within a segment run in parallel. `ws` carries the CFS-gathered
    /// input vector between calls.
    pub fn spmv(
        &self,
        x: &[f64],
        y: &mut [f64],
        nthreads: usize,
        schedule: Schedule,
        ws: &mut SpmvWorkspace,
    ) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        let xeff: &[f64] = match &self.col_perm {
            Some(perm) => {
                ws.xperm.resize(self.ncols, 0.0);
                // Parallel gather: the permutation pass is bandwidth-
                // bound and LAV performs it every iteration, so it must
                // scale with the kernel itself.
                const GATHER_CHUNK: usize = 4096;
                let nchunks = self.ncols.div_ceil(GATHER_CHUNK);
                let writer = DisjointWriter::new(&mut ws.xperm);
                let map = perm.as_slice();
                parallel_for_chunks(nchunks, nthreads, Schedule::StCont, 1, |chunk| {
                    let lo = chunk * GATHER_CHUNK;
                    let hi = (lo + GATHER_CHUNK).min(map.len());
                    for i in lo..hi {
                        // SAFETY: i < map.len() by the loop bound, and a
                        // Permutation's entries are a bijection on
                        // 0..ncols (validated at construction), so
                        // map[i] < ncols == x.len(). Chunk index ranges
                        // are disjoint, satisfying the writer contract.
                        unsafe {
                            let src = *map.get_unchecked(i) as usize;
                            debug_assert!(src < x.len());
                            writer.write(i, *x.get_unchecked(src));
                        }
                    }
                });
                &ws.xperm
            }
            None => x,
        };
        y.fill(0.0);
        let c = self.config.c;
        // Every policy grabs CSR's 256-row unit, Dyn included: a
        // per-chunk grab costs one shared atomic per c rows, and the
        // counter's line bouncing between threads costs more than the
        // finer balance buys (measured in DESIGN.md §12).
        let grain = (crate::csr_spmv::DEFAULT_ROWS_PER_CHUNK / c).max(1);
        let isa = self.resolved_isa();
        let pf = self.resolved_prefetch(isa);
        let pair = self.resolved_interleave(isa) >= 2;
        // Each path gets a closure of its own: one closure holding the
        // scalar loop beside the vector kernels' accumulators spilled
        // its sums and ran 3–10% slower per chunk (2-vCPU AVX-512 VM).
        for seg in &self.segments {
            let writer = DisjointWriter::new(&mut *y);
            let nchunks = seg.nchunks();
            if isa == SimdIsa::Scalar {
                parallel_for_chunks(nchunks, nthreads, schedule, grain, |k| {
                    let (vals, cols) = seg.chunk(k, c);
                    // SAFETY: see `solo_item`. The sums come back by
                    // value and stay in registers.
                    let sums = unsafe { simd::sell_chunk_scalar(vals, cols, c, xeff) };
                    Self::scatter(seg, c, &writer, k, &sums);
                });
            } else if pair {
                // Chunk-pair interleave: one work item covers chunks
                // (2p, 2p + 1) so their gathers share the load ports
                // (two independent accumulator chains — bit-identical
                // to sequential chunks, see `simd::sell_chunk_pair`).
                parallel_for_chunks(
                    nchunks.div_ceil(2),
                    nthreads,
                    schedule,
                    grain.div_ceil(2),
                    |p| {
                        if 2 * p + 1 < nchunks {
                            Self::pair_item(seg, c, isa, xeff, &writer, 2 * p, pf);
                        } else {
                            Self::solo_item(seg, c, isa, xeff, &writer, 2 * p, pf);
                        }
                    },
                );
            } else {
                parallel_for_chunks(nchunks, nthreads, schedule, grain, |k| {
                    Self::solo_item(seg, c, isa, xeff, &writer, k, pf);
                });
            }
        }
    }

    /// Chunk `k` through the vector kernel at `isa`: its `c` rows map
    /// 1:1 onto the lanes, so every column step is one gather + one FMA
    /// with no horizontal reduction; `pf` steps of software prefetch.
    fn solo_item(
        seg: &Segment,
        c: usize,
        isa: SimdIsa,
        x: &[f64],
        writer: &DisjointWriter<f64>,
        k: usize,
        pf: usize,
    ) {
        let (vals, cols) = seg.chunk(k, c);
        let mut acc = [0.0f64; MAX_C];
        // SAFETY (every kernel call in `spmv`): `build` stores each
        // chunk as equal-length value and column runs of whole c-lane
        // steps, with c in 1..=MAX_C, and every stored column id is a
        // real (post-CFS) column or padding column 0, both < ncols ==
        // x.len(); each accumulator slice has exactly c lanes.
        unsafe { simd::sell_chunk_pf(isa, vals, cols, c, x, &mut acc[..c], pf) };
        Self::scatter(seg, c, writer, k, &acc);
    }

    /// Chunks `k0` and `k0 + 1` through the interleaved pair kernel:
    /// both chunks' gathers stay in flight together.
    fn pair_item(
        seg: &Segment,
        c: usize,
        isa: SimdIsa,
        x: &[f64],
        writer: &DisjointWriter<f64>,
        k0: usize,
        pf: usize,
    ) {
        let ((vals0, cols0), (vals1, cols1)) = (seg.chunk(k0, c), seg.chunk(k0 + 1, c));
        let (mut acc0, mut acc1) = ([0.0f64; MAX_C], [0.0f64; MAX_C]);
        // SAFETY: see `solo_item`, for both chunks against the same x.
        unsafe {
            simd::sell_chunk_pair(
                isa,
                vals0,
                cols0,
                &mut acc0[..c],
                vals1,
                cols1,
                &mut acc1[..c],
                c,
                x,
                pf,
            )
        };
        Self::scatter(seg, c, writer, k0, &acc0);
        Self::scatter(seg, c, writer, k0 + 1, &acc1);
    }

    /// Adds chunk `k`'s lane sums into its rows of y.
    #[inline(always)]
    fn scatter(seg: &Segment, c: usize, writer: &DisjointWriter<f64>, k: usize, sums: &[f64]) {
        for (l, &r) in seg.chunk_rows(k, c).iter().enumerate() {
            // SAFETY: rows are unique within a segment, the chunks of
            // one work item cover disjoint row sets, and segments are
            // processed sequentially.
            unsafe { writer.add(r as usize, sums[l]) };
        }
    }
}

/// The dense segment's end in CFS order: the smallest column prefix
/// holding at least `ceil(t · nnz)` nonzeros, or `ncols` when that
/// prefix is every column (or the matrix is empty) — one segment then.
fn dense_split(counts: &[usize], perm: &Permutation, nnz: usize, t: f64) -> usize {
    let ncols = counts.len();
    if nnz == 0 {
        return ncols;
    }
    let target = (t * nnz as f64).ceil() as usize;
    let mut cum = 0usize;
    for (new_c, &old) in perm.as_slice().iter().enumerate() {
        cum += counts[old as usize];
        if cum >= target {
            return new_c + 1;
        }
    }
    ncols
}

/// Maps every column id of `m` through `old_to_new` (CFS). With a dense
/// split (`split < ncols`) each row is also stored stably partitioned —
/// its entries in columns `< split` first, both halves in CSR order —
/// with its values alongside, and `lens[r]` becomes the row's dense
/// count: each segment's fill then copies one contiguous run per row.
fn remap(
    m: &Csr,
    old_to_new: &Permutation,
    split: usize,
    lens: &mut [usize],
) -> (Vec<u32>, Option<Vec<f64>>) {
    let old_to_new = old_to_new.as_slice();
    let new_col = |c: u32| old_to_new[c as usize];
    if split == m.ncols() {
        return (m.col_idx().iter().map(|&c| new_col(c)).collect(), None);
    }
    let (row_ptr, src_cols, src_vals) = (m.row_ptr(), m.col_idx(), m.vals());
    let mut cols = vec![0u32; m.nnz()];
    let mut vals = vec![0.0f64; m.nnz()];
    for (r, len) in lens.iter_mut().enumerate() {
        let (a, b) = (row_ptr[r], row_ptr[r + 1]);
        let dense = src_cols[a..b].iter().filter(|&&c| (new_col(c) as usize) < split).count();
        let (mut d, mut s) = (a, a + dense);
        for (&c, &v) in src_cols[a..b].iter().zip(&src_vals[a..b]) {
            let nc = new_col(c);
            let is_dense = (nc as usize) < split;
            let at = if is_dense { d } else { s };
            cols[at] = nc;
            vals[at] = v;
            d += is_dense as usize;
            s += !is_dense as usize;
        }
        *len = dense;
    }
    (cols, Some(vals))
}

/// Pack order of the rows under `sigma`, by stable counting sort on the
/// segment lengths `lens` (descending, ties in row order). `counts` is
/// the sort's scratch, shared across windows and segments. `Full` drops
/// the trailing zero-length rows: they produce no output in the segment.
fn row_order(sigma: SigmaSpec, lens: &[usize], counts: &mut Vec<usize>) -> Vec<u32> {
    let mut order: Vec<u32> = (0..lens.len() as u32).collect();
    match sigma {
        SigmaSpec::None => {}
        SigmaSpec::Window(w) => {
            let w = w.max(1);
            for (k, (win, dst)) in lens.chunks(w).zip(order.chunks_mut(w)).enumerate() {
                counting_sort_desc(win, (k * w) as u32, counts, dst);
            }
        }
        SigmaSpec::Full => {
            counting_sort_desc(lens, 0, counts, &mut order);
            let kept = order.partition_point(|&r| lens[r as usize] > 0);
            order.truncate(kept);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_gen::{suite, RmatParams, SplitMix64};

    fn random_x(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
    }

    fn assert_matches_reference(m: &Csr, pack: &SrvPack, nthreads: usize, tag: &str) {
        let x = random_x(m.ncols(), 7);
        let mut want = vec![0.0; m.nrows()];
        m.spmv_reference(&x, &mut want);
        let mut ws = SpmvWorkspace::default();
        for sched in Schedule::ALL {
            let mut got = vec![1e9; m.nrows()];
            pack.spmv(&x, &mut got, nthreads, sched, &mut ws);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
                    "{tag} {sched:?} row {i}: {g} vs {w}"
                );
            }
        }
    }

    fn fig1a() -> Csr {
        // Same example as the paper's Figure 1a (see wise-matrix tests).
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
    fn sellpack_fig1_layout() {
        // Figure 1b: c=2 chunks of consecutive rows padded to the
        // longer row of each pair.
        let m = fig1a();
        let p = SrvPack::sellpack(&m, 2);
        assert_eq!(p.segments().len(), 1);
        let seg = &p.segments()[0];
        assert_eq!(seg.nchunks(), 4);
        // Chunk widths: max(2,3)=3, max(2,2)=2, max(1,2)=2, max(3,2)=3.
        let widths: Vec<_> = (0..4).map(|k| seg.chunk_width(k)).collect();
        assert_eq!(widths, vec![3, 2, 2, 3]);
        assert_eq!(p.nnz_real(), 17);
        assert_eq!(p.nnz_padded(), (3 + 2 + 2 + 3) * 2);
    }

    #[test]
    fn sell_c_sigma_reduces_padding() {
        // Skewed matrix: σ-sorting must not increase padding.
        let m = RmatParams::HIGH_SKEW.generate(10, 8, 3);
        let plain = SrvPack::sellpack(&m, 8);
        let sorted = SrvPack::sell_c_sigma(&m, 8, 512);
        let full = SrvPack::sell_c_r(&m, 8);
        assert!(sorted.nnz_padded() <= plain.nnz_padded());
        assert!(full.nnz_padded() <= sorted.nnz_padded());
        assert_eq!(full.nnz_real(), m.nnz());
    }

    #[test]
    fn lav_fig1_dense_segment() {
        // Figure 1f: T=0.7 puts CFS columns {0,3,2} in the dense segment.
        // Column nnz of fig1a: c0:3 c1:2 c2:4 c3:5 c4:2 c7:1 -> CFS
        // order c3,c2,c0,... cum 5,9,12 of 17; target ceil(0.7*17)=12 ->
        // split after 3 columns.
        let m = fig1a();
        let p = SrvPack::lav(&m, 2, 0.7);
        assert_eq!(p.segments().len(), 2);
        let dense = &p.segments()[0];
        assert_eq!(dense.col_range(), (0, 3));
        assert_eq!(dense.nnz_real(), 12);
        let sparse = &p.segments()[1];
        assert_eq!(sparse.nnz_real(), 5);
        // CFS perm maps new 0,1,2 to old 3,2,0.
        let perm = p.col_perm().unwrap();
        assert_eq!(perm.apply(0), 3);
        assert_eq!(perm.apply(1), 2);
        assert_eq!(perm.apply(2), 0);
    }

    #[test]
    fn all_methods_match_reference_on_random_matrices() {
        for (i, m) in [
            RmatParams::HIGH_SKEW.generate(9, 8, 1),
            RmatParams::LOW_LOC.generate(9, 4, 2),
            suite::stencil_2d(23, 23),
            suite::banded(517, 9, 0.5, 3),
        ]
        .iter()
        .enumerate()
        {
            for c in [4usize, 8] {
                assert_matches_reference(m, &SrvPack::sellpack(m, c), 3, &format!("sellpack{i}"));
                assert_matches_reference(
                    m,
                    &SrvPack::sell_c_sigma(m, c, 64),
                    3,
                    &format!("sigma{i}"),
                );
                assert_matches_reference(m, &SrvPack::sell_c_r(m, c), 3, &format!("scr{i}"));
                assert_matches_reference(m, &SrvPack::lav_1seg(m, c), 3, &format!("lav1{i}"));
                assert_matches_reference(m, &SrvPack::lav(m, c, 0.7), 3, &format!("lav{i}"));
            }
        }
    }

    #[test]
    fn odd_chunk_height_works() {
        let m = RmatParams::MED_SKEW.generate(8, 6, 9);
        assert_matches_reference(&m, &SrvPack::sellpack(&m, 3), 2, "c3");
        assert_matches_reference(&m, &SrvPack::lav(&m, 5, 0.8), 2, "c5");
    }

    #[test]
    fn rfs_orders_rows_descending() {
        let m = RmatParams::HIGH_SKEW.generate(9, 8, 4);
        let p = SrvPack::sell_c_r(&m, 8);
        let seg = &p.segments()[0];
        let lens: Vec<usize> = seg.row_order().iter().map(|&r| m.row_nnz(r as usize)).collect();
        for w in lens.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // Dropped rows are exactly the empty ones.
        let nonempty = (0..m.nrows()).filter(|&r| m.row_nnz(r) > 0).count();
        assert_eq!(seg.row_order().len(), nonempty);
    }

    #[test]
    fn lav_segments_partition_nonzeros() {
        let m = RmatParams::HIGH_SKEW.generate(10, 16, 5);
        for t in [0.7, 0.8, 0.9] {
            let p = SrvPack::lav(&m, 8, t);
            assert_eq!(p.nnz_real(), m.nnz(), "T={t}");
            if p.segments().len() == 2 {
                let dense_frac = p.segments()[0].nnz_real() as f64 / m.nnz() as f64;
                assert!(dense_frac >= t, "dense fraction {dense_frac} < {t}");
                // Minimality: removing the last dense column must drop below T.
                let (lo, hi) = p.segments()[0].col_range();
                assert!(lo == 0 && hi >= 1);
            }
        }
    }

    #[test]
    fn empty_matrix() {
        let m = Csr::zero(6, 6);
        let p = SrvPack::lav(&m, 4, 0.7);
        let x = vec![1.0; 6];
        let mut y = vec![5.0; 6];
        p.spmv(&x, &mut y, 2, Schedule::Dyn, &mut SpmvWorkspace::default());
        assert_eq!(y, vec![0.0; 6]);
        assert_eq!(p.padding_ratio(), 1.0);
    }

    #[test]
    fn single_row_matrix() {
        let m = Csr::try_new(1, 3, vec![0, 2], vec![0, 2], vec![2.0, 3.0]).unwrap();
        assert_matches_reference(&m, &SrvPack::sellpack(&m, 8), 2, "1row");
    }

    #[test]
    fn workspace_reuse_is_correct() {
        let m = RmatParams::HIGH_SKEW.generate(8, 8, 11);
        let p = SrvPack::lav(&m, 8, 0.8);
        let mut ws = SpmvWorkspace::default();
        let x1 = random_x(m.ncols(), 1);
        let x2 = random_x(m.ncols(), 2);
        let mut y1 = vec![0.0; m.nrows()];
        let mut y2 = vec![0.0; m.nrows()];
        p.spmv(&x1, &mut y1, 2, Schedule::Dyn, &mut ws);
        p.spmv(&x2, &mut y2, 2, Schedule::Dyn, &mut ws); // reuses xperm
        let mut want = vec![0.0; m.nrows()];
        m.spmv_reference(&x2, &mut want);
        for (g, w) in y2.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn simd_widths_match_scalar_within_ulp_bound() {
        let m = RmatParams::HIGH_SKEW.generate(9, 8, 21);
        let x = random_x(m.ncols(), 17);
        let mut ws = SpmvWorkspace::default();
        for c in [4usize, 8] {
            let pack = SrvPack::sell_c_sigma(&m, c, 64);
            let mut want = vec![0.0; m.nrows()];
            pack.clone().with_simd(1).spmv(&x, &mut want, 2, Schedule::StCont, &mut ws);
            for v in [0usize, 2, 4, 8] {
                let p = pack.clone().with_simd(v);
                assert!(p.resolved_isa() <= simd::active());
                let mut got = vec![0.0; m.nrows()];
                p.spmv(&x, &mut got, 2, Schedule::StCont, &mut ws);
                simd::assert_ulp_close(
                    &got,
                    &want,
                    simd::SPMV_MAX_ULPS,
                    simd::SPMV_ABS_FLOOR,
                    &format!("sell c={c} v={v}"),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk height c must be in 1..=8")]
    fn build_rejects_chunk_heights_above_max_c() {
        SrvPack::sellpack(&Csr::identity(16), MAX_C + 1);
    }

    #[test]
    fn non_catalog_chunk_heights_resolve_masked_or_scalar() {
        // No masked-lane kernel remains: every height outside {4, 8}
        // resolves scalar, on every host and under any width request.
        let m = RmatParams::MED_SKEW.generate(8, 6, 9);
        for c in [1usize, 2, 3, 5, 6, 7] {
            assert_eq!(SrvPack::sellpack(&m, c).resolved_isa(), SimdIsa::Scalar, "c={c}");
            for v in [4usize, 8] {
                assert_eq!(
                    SrvPack::sellpack(&m, c).with_simd(v).resolved_isa(),
                    SimdIsa::Scalar,
                    "c={c} under a v={v} request"
                );
            }
        }
    }

    #[test]
    fn masked_chunk_heights_match_reference() {
        // End-to-end SpMV at the heights the removed masked kernel once
        // served: the scalar chunk loop must match the reference.
        let m = RmatParams::MED_SKEW.generate(9, 8, 31);
        for c in [2usize, 3, 5, 6, 7] {
            assert_matches_reference(&m, &SrvPack::sell_c_sigma(&m, c, 64), 3, &format!("mc{c}"));
        }
    }

    #[test]
    fn prefetch_and_interleave_never_change_results() {
        // An x past PREFETCH_MIN_X_BYTES engages the auto prefetch
        // (D = 8) on every vector level, and c = 8 on AVX-512 also
        // pairs chunks. Both are scheduling only: the packed SpMV must
        // equal solo `sell_chunk_pf` calls at D = 0 bit-for-bit, and
        // stay ulp-close to the reference.
        let ncols = simd::PREFETCH_MIN_X_BYTES / 8 + 1000;
        let mut rng = SplitMix64::seed_from_u64(61);
        let (mut row_ptr, mut col_idx, mut vals) = (vec![0usize], Vec::new(), Vec::new());
        for _ in 0..600 {
            let len = 8 + rng.below(40);
            let mut cols: Vec<u32> = (0..len).map(|_| rng.below(ncols) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            vals.extend(cols.iter().map(|_| rng.range_f64(-1.0, 1.0)));
            col_idx.extend(cols);
            row_ptr.push(col_idx.len());
        }
        let m = Csr::try_new(600, ncols, row_ptr, col_idx, vals).unwrap();
        let x = random_x(ncols, 19);
        let mut want = vec![0.0; m.nrows()];
        m.spmv_reference(&x, &mut want);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut ws = SpmvWorkspace::default();
        for pack in
            [SrvPack::sellpack(&m, 8), SrvPack::sell_c_sigma(&m, 8, 64), SrvPack::sellpack(&m, 4)]
        {
            let c = pack.config().c;
            let isa = pack.resolved_isa();
            if isa > SimdIsa::Scalar {
                assert_eq!(pack.resolved_prefetch(isa), 8, "c={c} {isa:?}");
            }
            // Solo chunks, no prefetch, in pack order.
            let mut solo = vec![0.0; m.nrows()];
            let seg = &pack.segments()[0];
            for k in 0..seg.nchunks() {
                let (vals, cols) = seg.chunk(k, c);
                let mut acc = vec![0.0; c];
                // SAFETY: the `SrvPack::build` invariants (see
                // `SrvPack::solo_item`).
                unsafe { simd::sell_chunk_pf(isa, vals, cols, c, &x, &mut acc, 0) };
                for (l, &r) in seg.chunk_rows(k, c).iter().enumerate() {
                    solo[r as usize] += acc[l];
                }
            }
            for sched in Schedule::ALL {
                let mut got = vec![f64::NAN; m.nrows()];
                pack.spmv(&x, &mut got, 2, sched, &mut ws);
                assert_eq!(bits(&got), bits(&solo), "c={c} {sched:?}");
                simd::assert_ulp_close(
                    &got,
                    &want,
                    simd::SPMV_MAX_ULPS,
                    simd::SPMV_ABS_FLOOR,
                    &format!("c={c} {sched:?} vs reference"),
                );
            }
        }
    }

    #[test]
    fn resolved_knobs_follow_policy() {
        let m = RmatParams::MED_SKEW.generate(8, 6, 2);
        let p = SrvPack::sellpack(&m, 8);
        assert_eq!(p.resolved_prefetch(SimdIsa::Scalar), 0);
        assert_eq!(p.resolved_interleave(SimdIsa::Scalar), 1);
        assert_eq!(p.resolved_prefetch(SimdIsa::Avx512), 0, "cache-resident x never prefetches");
        assert_eq!(p.resolved_interleave(SimdIsa::Avx512), 2, "auto pairs on AVX-512 c=8");
        assert_eq!(p.resolved_interleave(SimdIsa::Avx2), 1);
        let q = SrvPack::sellpack(&m, 4);
        assert_eq!(q.resolved_interleave(SimdIsa::Avx512), 1, "auto never pairs c=4");
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        // The pool-parallel chunk fill must produce byte-identical
        // prepared buffers for every method and thread count (the
        // 1-thread build is the baseline).
        for (i, m) in [RmatParams::HIGH_SKEW.generate(9, 8, 51), suite::banded(300, 5, 0.8, 7)]
            .iter()
            .enumerate()
        {
            for cfg in [
                PackConfig { c: 8, sigma: SigmaSpec::None, cfs: false, segments: SegmentSpec::One },
                PackConfig {
                    c: 4,
                    sigma: SigmaSpec::Window(64),
                    cfs: false,
                    segments: SegmentSpec::One,
                },
                PackConfig {
                    c: 8,
                    sigma: SigmaSpec::Full,
                    cfs: true,
                    segments: SegmentSpec::DenseFraction(0.7),
                },
                PackConfig { c: 3, sigma: SigmaSpec::Full, cfs: false, segments: SegmentSpec::One },
            ] {
                let serial = SrvPack::build_with_threads(m, cfg, 1);
                for t in [2usize, 3, 7] {
                    let par = SrvPack::build_with_threads(m, cfg, t);
                    assert_eq!(par, serial, "matrix {i} cfg {cfg:?} t={t}");
                }
                assert_eq!(SrvPack::build(m, cfg), serial, "matrix {i} cfg {cfg:?} default");
            }
        }
    }

    #[test]
    fn padding_ratio_exact_for_uniform_rows() {
        // All rows same length -> no padding regardless of method.
        let m = suite::banded(128, 2, 1.0, 0); // interior rows length 5
        let p = SrvPack::sell_c_r(&m, 4);
        // Only boundary rows differ; ratio stays close to 1.
        assert!(p.padding_ratio() < 1.05, "ratio={}", p.padding_ratio());
    }
}
