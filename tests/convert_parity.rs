//! Conversion parity: `SrvPack::build` (counting-sort row and column
//! orders, one remap pass, pool-parallel chunk fill) must produce packs
//! **bit-identical** to the comparison-sort build it replaced, kept
//! below verbatim and serial as [`reference_build`] — same row order,
//! same offsets, same padded lanes, same value bits, same CFS
//! permutation — for every packing policy and any thread count.
//! Packing is pure data movement (no floating-point arithmetic), so the
//! contract is exact equality, not an ulp bound.

use wise_gen::{suite, RmatParams, SplitMix64};
use wise_kernels::srvpack::{PackConfig, SegmentSpec, SigmaSpec, SrvPack};
use wise_matrix::coo::DupPolicy;
use wise_matrix::{Coo, Csr, Permutation};

const THREADS: [usize; 5] = [1, 2, 3, 7, 16];

fn from_rows(nrows: usize, ncols: usize, rows: impl Fn(usize) -> Vec<u32>) -> Csr {
    let mut coo = Coo::new(nrows, ncols);
    for r in 0..nrows {
        for (k, c) in rows(r).into_iter().enumerate() {
            coo.push(r, c as usize, 1.0 + (r * 31 + k) as f64 * 0.25).unwrap();
        }
    }
    coo.to_csr(DupPolicy::Sum)
}

fn zoo() -> Vec<(&'static str, Csr)> {
    let mut sparse_rect = Coo::new(12, 300);
    sparse_rect.push(0, 299, 3.0).unwrap();
    sparse_rect.push(3, 0, -1.0).unwrap();
    sparse_rect.push(3, 150, 4.0).unwrap();
    let mut rng = SplitMix64::seed_from_u64(43);
    let ragged: Vec<Vec<u32>> = (0..43)
        .map(|_| {
            let mut cols: Vec<u32> = (0..rng.below(12)).map(|_| rng.below(60) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect();
    vec![
        ("rmat-ragged", RmatParams::HIGH_SKEW.generate(9, 8, 1)),
        ("rmat-short-rows", RmatParams::LOW_LOC.generate(8, 2, 2)),
        ("empty-rows-rect", sparse_rect.to_csr(DupPolicy::Sum)),
        ("zero", Csr::zero(17, 9)),
        ("stencil2d", suite::stencil_2d(23, 29)),
        // One row spans all 4096 columns: its length dwarfs every σ
        // window and sets the count buffer's size on its own.
        (
            "one-full-row",
            from_rows(4096, 4096, |r| match r {
                17 => (0..4096).collect(),
                _ if r % 9 == 0 => vec![(r % 4096) as u32, ((r * 7 + 1) % 4096) as u32],
                _ => vec![],
            }),
        ),
        // Every row and every column holds 6 nonzeros: all keys tie.
        ("equal-rows", from_rows(300, 300, |r| (0..6).map(|k| (k * 50 + r % 50) as u32).collect())),
        // `Full` drops all rows but the last.
        ("last-row-only", from_rows(37, 20, |r| if r == 36 { vec![1, 4, 9, 19] } else { vec![] })),
        // 43 rows: 43 % c = 3 for c = 4, 5 and 8, so every config ends
        // on a partial chunk.
        ("ragged-43", from_rows(43, 60, |r| ragged[r].clone())),
        // Column 3 alone holds 200 of 220 nonzeros (> 0.9): the dense
        // segment is one column for every T.
        (
            "lav-one-hot-column",
            from_rows(
                200,
                100,
                |r| if r % 10 == 0 { vec![3, (r % 97) as u32 + 4] } else { vec![3] },
            ),
        ),
        // Three columns of equal count: T ∈ {0.7, 0.8, 0.9} is reached
        // only at the last column, so the dense segment takes them all.
        (
            "lav-last-column",
            from_rows(60, 3, |r| if r % 4 == 0 { vec![0, 1, 2] } else { vec![(r % 3) as u32] }),
        ),
    ]
}

/// Every packing policy the catalog reaches, a masked chunk height
/// (c = 5) the catalog does not, and the σ and T extremes.
fn configs(nrows: usize) -> Vec<PackConfig> {
    let lav = |c, t| PackConfig {
        c,
        sigma: SigmaSpec::Full,
        cfs: true,
        segments: SegmentSpec::DenseFraction(t),
    };
    let one = |c, sigma, cfs| PackConfig { c, sigma, cfs, segments: SegmentSpec::One };
    vec![
        one(4, SigmaSpec::None, false),
        one(8, SigmaSpec::None, false),
        one(8, SigmaSpec::Window(64), false),
        one(4, SigmaSpec::Full, false),
        one(8, SigmaSpec::Full, true),
        lav(8, 0.8),
        one(5, SigmaSpec::Window(32), false),
        one(4, SigmaSpec::Window(1), false),
        one(8, SigmaSpec::Window(nrows + 1), false),
        lav(4, 0.7),
        lav(8, 0.9),
    ]
}

/// One packed segment as the reference build lays it out.
struct RefSegment {
    row_order: Vec<u32>,
    offsets: Vec<usize>,
    col_ids: Vec<u32>,
    vals: Vec<f64>,
    nnz_real: usize,
    col_range: (usize, usize),
}

/// The comparison sort CFS and RFS used before the counting sort.
fn sort_desc_by_key_reference(keys: &[usize]) -> Permutation {
    let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
    idx.sort_by(|&a, &b| keys[b as usize].cmp(&keys[a as usize]).then(a.cmp(&b)));
    Permutation::try_new(idx).unwrap()
}

/// The comparison-sort pack build, serial: O(nnz + rows·log σ-window).
fn reference_build(m: &Csr, config: PackConfig) -> (Option<Permutation>, Vec<RefSegment>) {
    let nrows = m.nrows();
    let ncols = m.ncols();

    // 1. CFS: old -> new column relabeling.
    let (col_perm, old_to_new) = if config.cfs {
        let perm = sort_desc_by_key_reference(&m.nnz_per_col());
        let inv = perm.inverse();
        (Some(perm), Some(inv))
    } else {
        (None, None)
    };

    // 2. Segment boundaries in the (possibly relabeled) column space.
    let boundaries: Vec<usize> = match config.segments {
        SegmentSpec::One => vec![0, ncols],
        SegmentSpec::DenseFraction(t) => {
            let counts = m.nnz_per_col();
            let perm = col_perm.as_ref().expect("segmentation requires CFS");
            let total = m.nnz();
            let target = (t * total as f64).ceil() as usize;
            let mut cum = 0usize;
            let mut split = ncols;
            for new_c in 0..ncols {
                cum += counts[perm.apply(new_c)];
                if cum >= target {
                    split = new_c + 1;
                    break;
                }
            }
            if split >= ncols || total == 0 {
                vec![0, ncols] // dense segment swallowed everything
            } else {
                vec![0, split, ncols]
            }
        }
    };

    // 3. Build each segment.
    let nseg = boundaries.len() - 1;
    let mut segments = Vec::with_capacity(nseg);
    for s in 0..nseg {
        let (lo, hi) = (boundaries[s], boundaries[s + 1]);

        // Row lengths within this segment.
        let mut lens = vec![0usize; nrows];
        if nseg == 1 && old_to_new.is_none() {
            for (r, len) in lens.iter_mut().enumerate() {
                *len = m.row_nnz(r);
            }
        } else {
            #[allow(clippy::needless_range_loop)]
            for r in 0..nrows {
                for &c in m.row_cols(r) {
                    let nc = match &old_to_new {
                        Some(p) => p.apply(c as usize),
                        None => c as usize,
                    };
                    if nc >= lo && nc < hi {
                        lens[r] += 1;
                    }
                }
            }
        }

        // Row order.
        let row_order: Vec<u32> = match config.sigma {
            SigmaSpec::None => (0..nrows as u32).collect(),
            SigmaSpec::Window(w) => {
                let w = w.max(1);
                let mut order: Vec<u32> = (0..nrows as u32).collect();
                for win in order.chunks_mut(w) {
                    win.sort_by(|&a, &b| lens[b as usize].cmp(&lens[a as usize]).then(a.cmp(&b)));
                }
                order
            }
            SigmaSpec::Full => {
                let mut order: Vec<u32> = (0..nrows as u32).collect();
                order.sort_by(|&a, &b| lens[b as usize].cmp(&lens[a as usize]).then(a.cmp(&b)));
                // Drop trailing zero-length rows: they produce no
                // output in this segment.
                while let Some(&last) = order.last() {
                    if lens[last as usize] == 0 {
                        order.pop();
                    } else {
                        break;
                    }
                }
                order
            }
        };

        // Pack chunk-major.
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
        let mut nnz_real = 0usize;
        for k in 0..nchunks {
            let base = offsets[k] * c;
            let chunk_rows = &row_order[k * c..((k + 1) * c).min(row_order.len())];
            let mut seg_cols: Vec<(u32, f64)> = Vec::new(); // scratch
            for (lane, &r) in chunk_rows.iter().enumerate() {
                seg_cols.clear();
                for (cc, v) in m.row(r as usize) {
                    let nc = match &old_to_new {
                        Some(p) => p.apply(cc as usize),
                        None => cc as usize,
                    };
                    if nc >= lo && nc < hi {
                        seg_cols.push((nc as u32, v));
                    }
                }
                nnz_real += seg_cols.len();
                for (j, &(nc, v)) in seg_cols.iter().enumerate() {
                    col_ids[base + j * c + lane] = nc;
                    vals[base + j * c + lane] = v;
                }
            }
        }
        segments.push(RefSegment {
            row_order,
            offsets,
            col_ids,
            vals,
            nnz_real,
            col_range: (lo, hi),
        });
    }
    (col_perm, segments)
}

/// Compares every buffer of `got` with the reference through the
/// public accessors; values compare by bit pattern.
fn assert_matches_reference(
    got: &SrvPack,
    want: &(Option<Permutation>, Vec<RefSegment>),
    m: &Csr,
    config: PackConfig,
    ctx: &str,
) {
    let (want_perm, want_segs) = want;
    assert_eq!((got.nrows(), got.ncols()), (m.nrows(), m.ncols()), "{ctx}: shape");
    assert_eq!(*got.config(), config, "{ctx}: config");
    assert_eq!(got.col_perm(), want_perm.as_ref(), "{ctx}: col_perm");
    assert_eq!(got.segments().len(), want_segs.len(), "{ctx}: segment count");
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    for (s, (seg, want)) in got.segments().iter().zip(want_segs).enumerate() {
        let offsets: Vec<usize> = std::iter::once(0)
            .chain((0..seg.nchunks()).scan(0, |end, k| {
                *end += seg.chunk_width(k);
                Some(*end)
            }))
            .collect();
        assert_eq!(seg.row_order(), &want.row_order[..], "{ctx}: seg {s} row_order");
        assert_eq!(offsets, want.offsets, "{ctx}: seg {s} offsets");
        assert_eq!(seg.col_ids(), &want.col_ids[..], "{ctx}: seg {s} col_ids");
        assert_eq!(bits(seg.vals()), bits(&want.vals), "{ctx}: seg {s} vals");
        assert_eq!(seg.nnz_real(), want.nnz_real, "{ctx}: seg {s} nnz_real");
        assert_eq!(seg.col_range(), want.col_range, "{ctx}: seg {s} col_range");
    }
}

#[test]
fn parallel_build_is_bit_identical_to_serial_for_every_policy() {
    for (tag, m) in zoo() {
        for config in configs(m.nrows()) {
            let want = reference_build(&m, config);
            for nthreads in THREADS {
                let got = SrvPack::build_with_threads(&m, config, nthreads);
                let ctx = format!("{tag}: {config:?} at {nthreads} threads");
                assert_matches_reference(&got, &want, &m, config, &ctx);
            }
        }
    }
}

#[test]
fn default_build_uses_pool_and_matches_serial() {
    // `build` (the path `MethodConfig::prepare` takes) routes through
    // the pool at `default_threads()`; it must equal the reference, and
    // so must the pack at every explicit thread count.
    for (tag, m) in zoo() {
        for config in configs(m.nrows()) {
            let want = reference_build(&m, config);
            let default = SrvPack::build(&m, config);
            assert_matches_reference(&default, &want, &m, config, &format!("{tag}: {config:?}"));
            for nthreads in THREADS {
                let got = SrvPack::build_with_threads(&m, config, nthreads);
                assert_eq!(got, default, "{tag}: {config:?} at {nthreads} threads vs default");
            }
        }
    }
}
