//! Runtime-dispatched SIMD kernels for the packed (SELL/SRVPack) SpMV
//! inner loop.
//!
//! The capability probe ([`detect_raw`]) classifies the host into one
//! of three [`SimdIsa`] levels at startup: `Avx512`, `Avx2` (which
//! requires FMA), or `Scalar` — every non-x86-64 host, and x86-64
//! without AVX2 + FMA. Kernels dispatch through `#[target_feature]`
//! functions so a single binary runs the widest safe path everywhere.
//!
//! Only the SELL/SRVPack chunk is vectorized ([`sell_chunk_pf`],
//! [`sell_chunk_pair`]): the column-major padded chunk layout maps the
//! chunk's `c` rows 1:1 onto vector lanes, so each column step is one
//! gather + one FMA with no horizontal reduction. The catalog heights
//! `c ∈ {4, 8}` run vectorized, every other height runs the scalar
//! loop, and [`sell_chunk_pair`] interleaves two c=8 chunks (two
//! independent accumulator chains) to hide gather latency. Which level
//! a packed matrix runs is decided in one place,
//! `SrvPack::resolved_isa`. CSR rows stay scalar:
//! the gather row kernels lost to the scalar loop at the row lengths
//! the catalog sees (DESIGN.md §14).
//!
//! Gather-bound SpMV serializes on `vgatherdpd` latency, not FLOPs, so
//! the chunk kernels also take a software **prefetch distance**: `D`
//! steps ahead of the current one, the kernel issues `_mm_prefetch` on
//! the x-lines named by `cols[k + D·lanes ..]`. Callers take `D` from
//! [`auto_prefetch_distance`], which only engages when x cannot be
//! cache-resident ([`PREFETCH_MIN_X_BYTES`]) — prefetch measurably
//! *hurts* when x already lives in L2.
//!
//! Vectorization reassociates the per-row sums, so bit-exactness with
//! the scalar oracle is forfeited by design. The replacement contract
//! is ulp-tolerance: [`assert_ulp_close`] with a per-kernel bound
//! ([`SPMV_MAX_ULPS`], plus [`SPMV_ABS_FLOOR`] for catastrophic-
//! cancellation results near zero, where relative ulp distance is
//! meaningless). Prefetching and chunk pairing are pure *scheduling*
//! changes: for a fixed level they never alter the sequence of
//! operations feeding any accumulator, so results are bit-identical
//! across every setting. A pack forced to width 1
//! (`SrvPack::with_simd(1)`, or [`set_active`]`(Scalar)` in tests)
//! restores the scalar path bit-exactly.
//!
//! All gathers index with *signed 32-bit* lanes, so [`resolve`] — and,
//! per kernel call, [`clamp_isa`] — fall back to scalar when the x
//! vector could exceed `i32::MAX` entries.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A SIMD capability level, ordered narrowest to widest.
///
/// `Avx512` is only ever detected/activated when AVX2 and FMA are also
/// present (true on every shipping AVX-512 part), so a kernel running
/// at one level may safely call helpers of any lower level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdIsa {
    /// No explicit vectorization: the scalar kernels.
    Scalar,
    /// 4 × f64 lanes, `vgatherdpd` + FMA.
    Avx2,
    /// 8 × f64 lanes, `vgatherdpd` + FMA.
    Avx512,
}

impl SimdIsa {
    /// f64 lanes per vector register at this level.
    pub const fn lanes(self) -> usize {
        match self {
            SimdIsa::Scalar => 1,
            SimdIsa::Avx2 => 4,
            SimdIsa::Avx512 => 8,
        }
    }

    /// Stable lowercase name (used in fingerprints and reports).
    pub const fn name(self) -> &'static str {
        match self {
            SimdIsa::Scalar => "scalar",
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Avx512 => "avx512f",
        }
    }

    /// The widest level whose lane count is `<= lanes` (0–3 clamp to
    /// scalar). Inverse of [`SimdIsa::lanes`].
    pub const fn widest_for_lanes(lanes: usize) -> SimdIsa {
        match lanes {
            0..=3 => SimdIsa::Scalar,
            4..=7 => SimdIsa::Avx2,
            _ => SimdIsa::Avx512,
        }
    }

    const fn to_u8(self) -> u8 {
        self as u8
    }

    const fn from_u8(v: u8) -> SimdIsa {
        match v {
            1 => SimdIsa::Avx2,
            2 => SimdIsa::Avx512,
            _ => SimdIsa::Scalar,
        }
    }
}

/// Probes the host CPU: `is_x86_feature_detected!` on x86-64 (cached
/// by std after the first cpuid), `Scalar` everywhere else.
///
/// `Avx2` requires FMA, and `Avx512` additionally requires AVX2 + FMA,
/// so higher levels strictly superset lower ones (see [`SimdIsa`]).
pub fn detect_raw() -> SimdIsa {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        return if is_x86_feature_detected!("avx512f") { SimdIsa::Avx512 } else { SimdIsa::Avx2 };
    }
    SimdIsa::Scalar
}

/// [`detect_raw`] memoized (one atomic load after the first call).
pub fn detected() -> SimdIsa {
    static DETECTED: OnceLock<SimdIsa> = OnceLock::new();
    *DETECTED.get_or_init(detect_raw)
}

/// [`set_active`]'s override; `NO_OVERRIDE` means [`detected`].
const NO_OVERRIDE: u8 = u8::MAX;
static OVERRIDE: AtomicU8 = AtomicU8::new(NO_OVERRIDE);

/// The process-wide active SIMD level: [`detected`] unless
/// [`set_active`] overrode it.
pub fn active() -> SimdIsa {
    match OVERRIDE.load(Ordering::Relaxed) {
        NO_OVERRIDE => detected(),
        v => SimdIsa::from_u8(v),
    }
}

/// Overrides the active level (tests). The request is capped at
/// [`detected`] so an unsupported level can never be forced into the
/// dispatchers.
pub fn set_active(isa: SimdIsa) {
    OVERRIDE.store(isa.min(detected()).to_u8(), Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Auto policies
// ---------------------------------------------------------------------

/// Largest prefetch distance (in vector steps) the chunk kernels are
/// specified for. Distances beyond this are past every useful horizon
/// — the lines would be evicted again before use.
pub const MAX_PREFETCH: usize = 64;

/// Auto-prefetch engages only when the x vector is bigger than this
/// (bytes): below it x is L2/L3-resident and prefetch instructions are
/// pure overhead (measured 0.92× at D=2 on an L2-resident probe);
/// above it the gathers miss to DRAM and prefetch hides that latency
/// (measured 1.21× at D=8 on a 32 MB x).
pub const PREFETCH_MIN_X_BYTES: usize = 4 << 20;

/// [`auto_csr_interleave`] reports 2 only while x fits this many bytes:
/// interleaving R rows multiplies the live gather footprint by R,
/// which thrashes once x spills the private caches.
pub const INTERLEAVE_MAX_X_BYTES: usize = 256 << 10;

/// The packed kernels' prefetch policy: distance 8 on the gather
/// levels when x cannot be cache-resident (see
/// [`PREFETCH_MIN_X_BYTES`]), else 0. Scalar never prefetches.
pub fn auto_prefetch_distance(isa: SimdIsa, ncols: usize) -> usize {
    match isa {
        SimdIsa::Avx512 | SimdIsa::Avx2
            if ncols.saturating_mul(std::mem::size_of::<f64>()) > PREFETCH_MIN_X_BYTES =>
        {
            8
        }
        _ => 0,
    }
}

/// The CSR row-interleave factor the AVX-512 gather row kernel would
/// use: 2 when x stays cache-resident under the doubled gather
/// footprint (see [`INTERLEAVE_MAX_X_BYTES`]), else 1. No kernel and
/// no feature reads it — CSR runs the scalar loop. It is kept only
/// because the request-level benchmark prints it in its host line.
pub fn auto_csr_interleave(isa: SimdIsa, ncols: usize) -> usize {
    if isa == SimdIsa::Avx512
        && ncols.saturating_mul(std::mem::size_of::<f64>()) <= INTERLEAVE_MAX_X_BYTES
    {
        2
    } else {
        1
    }
}

/// The packed kernels' chunk-interleave policy: pair chunks on the
/// AVX-512 c=8 path (two independent accumulator chains — measured the
/// one MLP transform that never lost on a Skylake-SP AVX-512 host), else 1.
pub fn auto_sell_interleave(isa: SimdIsa, c: usize) -> usize {
    if isa == SimdIsa::Avx512 && c == 8 {
        2
    } else {
        1
    }
}

/// Per-kernel-call ISA clamp: the requested level capped at
/// [`detected`], forced to scalar when column indices would not fit
/// the signed 32-bit gather lanes for this x. [`resolve`] applies the
/// same rule at catalog-resolution time, but the kernel entry points
/// re-check against the *actual* x so a config resolved against one
/// matrix can never mis-gather on a wider one.
pub fn clamp_isa(isa: SimdIsa, xlen: usize) -> SimdIsa {
    if xlen > i32::MAX as usize {
        SimdIsa::Scalar
    } else {
        isa.min(detected())
    }
}

/// Resolves a pack's requested SIMD width `v` (see
/// `SrvPack::with_simd`) against the active level for a matrix with
/// `ncols` columns: `0` = auto (widest active), `1` =
/// forced scalar, otherwise the widest level with at most `v` lanes,
/// capped by [`active`]. Falls back to scalar when column indices
/// would not fit the signed 32-bit gather lanes.
pub fn resolve(v: usize, ncols: usize) -> SimdIsa {
    if v == 1 || ncols > i32::MAX as usize {
        return SimdIsa::Scalar;
    }
    let cap = active();
    if v == 0 {
        cap
    } else {
        SimdIsa::widest_for_lanes(v).min(cap)
    }
}

// ---------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------

/// One SELL/SRVPack chunk: accumulates `width` column-major steps of
/// `c` lanes into `acc` (the chunk's per-row partial sums), issuing
/// software prefetches `pf` steps ahead (0 = none). `c ∈ {4, 8}` run
/// vectorized at `isa`, accumulating into `acc` step by step; every
/// other height, and [`SimdIsa::Scalar`], adds the
/// [`sell_chunk_scalar`] sums to `acc`. The prefetch distance never
/// changes the result — only the schedule.
///
/// # Safety
///
/// `1 <= c <= 8`, `vals.len() == cols.len()`, both a multiple of `c`,
/// `acc.len() == c`, `pf <= MAX_PREFETCH`, and every `cols[k] as usize
/// < x.len()` (padding entries store column 0 with value 0.0 — the
/// `SrvPack` build invariant). The level is clamped per call via
/// [`clamp_isa`].
pub unsafe fn sell_chunk_pf(
    isa: SimdIsa,
    vals: &[f64],
    cols: &[u32],
    c: usize,
    x: &[f64],
    acc: &mut [f64],
    pf: usize,
) {
    debug_assert_eq!(vals.len(), cols.len());
    debug_assert!((1..=8).contains(&c));
    debug_assert!(vals.len().is_multiple_of(c) && acc.len() == c);
    debug_assert!(pf <= MAX_PREFETCH);
    #[cfg(target_arch = "x86_64")]
    match (clamp_isa(isa, x.len()), c) {
        (SimdIsa::Avx512, 8) => return x86::sell_chunk_avx512(vals, cols, x, acc, pf),
        (SimdIsa::Avx512 | SimdIsa::Avx2, 4 | 8) => {
            return x86::sell_chunk_avx2(vals, cols, c, x, acc)
        }
        _ => {}
    }
    let _ = (isa, pf);
    for (a, sum) in acc.iter_mut().zip(sell_chunk_scalar(vals, cols, c, x)) {
        *a += sum;
    }
}

/// Two SELL/SRVPack chunks interleaved: the AVX-512 c=8 path runs both
/// chunks' steps in lockstep with two independent accumulator chains
/// (the measured-robust MLP transform), every other level runs the two
/// chunks sequentially. Each chunk's accumulator sees exactly the
/// operation sequence of a solo [`sell_chunk_pf`] call, so results are
/// **bit-identical** to two sequential calls.
///
/// # Safety
///
/// Both chunk triples must satisfy the [`sell_chunk_pf`] invariants
/// for the same `c`, `x` and `pf`.
// Inlined so the packed SpMV's pair work item reaches the pair kernel
// in one call; called out of line it ran ~5% slower.
#[allow(clippy::too_many_arguments)]
#[inline]
pub unsafe fn sell_chunk_pair(
    isa: SimdIsa,
    vals0: &[f64],
    cols0: &[u32],
    acc0: &mut [f64],
    vals1: &[f64],
    cols1: &[u32],
    acc1: &mut [f64],
    c: usize,
    x: &[f64],
    pf: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if clamp_isa(isa, x.len()) == SimdIsa::Avx512 && c == 8 {
        debug_assert!(pf <= MAX_PREFETCH);
        return x86::sell_chunk_pair_avx512(vals0, cols0, vals1, cols1, x, acc0, acc1, pf);
    }
    sell_chunk_pf(isa, vals0, cols0, c, x, acc0, pf);
    sell_chunk_pf(isa, vals1, cols1, c, x, acc1, pf);
}

/// The scalar SELL chunk loop: each lane's sum over the chunk's
/// steps, added in strict step order from zero (one rounded multiply
/// and one rounded add per entry); lanes past `c` hold 0. The catalog
/// heights `c ∈ {4, 8}` get their own fixed-width copies of the loop.
/// The sums come back by value so a caller that inlines this keeps
/// them in registers.
///
/// # Safety
///
/// The [`sell_chunk_pf`] invariants on `vals`, `cols`, `c` and `x`.
#[inline(always)]
pub unsafe fn sell_chunk_scalar(vals: &[f64], cols: &[u32], c: usize, x: &[f64]) -> [f64; 8] {
    match c {
        4 => lane_sums(vals, cols, 4, x),
        8 => lane_sums(vals, cols, 8, x),
        _ => lane_sums(vals, cols, c, x),
    }
}

/// [`sell_chunk_scalar`]'s body, inlined so a literal `c` unrolls the
/// lane loop.
///
/// # Safety
///
/// As [`sell_chunk_scalar`].
#[inline(always)]
unsafe fn lane_sums(vals: &[f64], cols: &[u32], c: usize, x: &[f64]) -> [f64; 8] {
    let mut sums = [0.0f64; 8];
    for (vrow, crow) in vals.chunks_exact(c).zip(cols.chunks_exact(c)) {
        // Lane-indexed on purpose: one index drives three unchecked
        // loads and the accumulator, keeping the loop a pure gather.
        #[allow(clippy::needless_range_loop)]
        for l in 0..c {
            // SAFETY: `l < c == vrow.len() == crow.len()` by
            // `chunks_exact`, and every stored column id is `< x.len()`
            // by the caller's contract. Eliding the data-dependent
            // x-bound check is what keeps the lane loop a pure gather +
            // multiply-add.
            let col = *crow.get_unchecked(l) as usize;
            debug_assert!(col < x.len());
            sums[l] += *vrow.get_unchecked(l) * *x.get_unchecked(col);
        }
    }
    sums
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! `#[target_feature]` kernel bodies. Callers must guarantee the
    //! feature is present (the public dispatchers clamp to `detected`)
    //! and the slice/index invariants documented on them. All prefetch
    //! distances (`pf`) are in vector steps and only ever change the
    //! instruction schedule, never the arithmetic.
    use std::arch::x86_64::*;

    /// AVX2 SELL chunk, `c ∈ {4, 8}`: one (c=4) or two (c=8) 4-lane
    /// accumulators — the two-accumulator shape hides gather latency
    /// and measured fastest for c=8 on AVX2-only parts.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sell_chunk_avx2(
        vals: &[f64],
        cols: &[u32],
        c: usize,
        x: &[f64],
        acc: &mut [f64],
    ) {
        debug_assert!((c == 4 || c == 8) && acc.len() == c);
        let steps = vals.len() / c;
        if c == 4 {
            let mut a0 = _mm256_loadu_pd(acc.as_ptr());
            for s in 0..steps {
                let base = s * c;
                let idx = _mm_loadu_si128(cols.as_ptr().add(base) as *const __m128i);
                let xv = _mm256_i32gather_pd::<8>(x.as_ptr(), idx);
                let vv = _mm256_loadu_pd(vals.as_ptr().add(base));
                a0 = _mm256_fmadd_pd(vv, xv, a0);
            }
            _mm256_storeu_pd(acc.as_mut_ptr(), a0);
        } else {
            let mut a0 = _mm256_loadu_pd(acc.as_ptr());
            let mut a1 = _mm256_loadu_pd(acc.as_ptr().add(4));
            for s in 0..steps {
                let base = s * c;
                let i0 = _mm_loadu_si128(cols.as_ptr().add(base) as *const __m128i);
                let i1 = _mm_loadu_si128(cols.as_ptr().add(base + 4) as *const __m128i);
                let x0 = _mm256_i32gather_pd::<8>(x.as_ptr(), i0);
                let x1 = _mm256_i32gather_pd::<8>(x.as_ptr(), i1);
                let v0 = _mm256_loadu_pd(vals.as_ptr().add(base));
                let v1 = _mm256_loadu_pd(vals.as_ptr().add(base + 4));
                a0 = _mm256_fmadd_pd(v0, x0, a0);
                a1 = _mm256_fmadd_pd(v1, x1, a1);
            }
            _mm256_storeu_pd(acc.as_mut_ptr(), a0);
            _mm256_storeu_pd(acc.as_mut_ptr().add(4), a1);
        }
    }

    /// AVX-512 SELL chunk, `c == 8`: the chunk's 8 rows map 1:1 onto
    /// the zmm lanes; no horizontal reduction anywhere. `pf` steps of
    /// lookahead prefetch on the gathered x-lines.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn sell_chunk_avx512(
        vals: &[f64],
        cols: &[u32],
        x: &[f64],
        acc: &mut [f64],
        pf: usize,
    ) {
        debug_assert!(acc.len() == 8);
        let steps = vals.len() / 8;
        let dist = pf * 8;
        let mut a = _mm512_loadu_pd(acc.as_ptr());
        for s in 0..steps {
            let base = s * 8;
            if dist > 0 && base + dist + 8 <= vals.len() {
                for j in 0..8 {
                    _mm_prefetch::<_MM_HINT_T0>(
                        x.as_ptr().add(*cols.get_unchecked(base + dist + j) as usize) as *const i8,
                    );
                }
            }
            let idx = _mm256_loadu_si256(cols.as_ptr().add(base) as *const __m256i);
            let xv = _mm512_i32gather_pd::<8>(idx, x.as_ptr());
            let vv = _mm512_loadu_pd(vals.as_ptr().add(base));
            a = _mm512_fmadd_pd(vv, xv, a);
        }
        _mm512_storeu_pd(acc.as_mut_ptr(), a);
    }

    /// Two AVX-512 c=8 SELL chunks in lockstep with two independent
    /// accumulator chains, so the second chunk's gather issues while
    /// the first's is still in flight. Chunks may have different
    /// widths: the joint loop covers the shorter one, then the longer
    /// chunk finishes alone. Per-chain operation order matches the
    /// solo kernel exactly (bit-identical results).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn sell_chunk_pair_avx512(
        v0: &[f64],
        c0: &[u32],
        v1: &[f64],
        c1: &[u32],
        x: &[f64],
        a0: &mut [f64],
        a1: &mut [f64],
        pf: usize,
    ) {
        debug_assert!(a0.len() == 8 && a1.len() == 8);
        let dist = pf * 8;
        let s0 = v0.len() / 8;
        let s1 = v1.len() / 8;
        let joint = s0.min(s1);
        let mut acc0 = _mm512_loadu_pd(a0.as_ptr());
        let mut acc1 = _mm512_loadu_pd(a1.as_ptr());
        for s in 0..joint {
            let b = s * 8;
            if dist > 0 {
                if b + dist + 8 <= v0.len() {
                    for j in 0..8 {
                        _mm_prefetch::<_MM_HINT_T0>(
                            x.as_ptr().add(*c0.get_unchecked(b + dist + j) as usize) as *const i8,
                        );
                    }
                }
                if b + dist + 8 <= v1.len() {
                    for j in 0..8 {
                        _mm_prefetch::<_MM_HINT_T0>(
                            x.as_ptr().add(*c1.get_unchecked(b + dist + j) as usize) as *const i8,
                        );
                    }
                }
            }
            let i0 = _mm256_loadu_si256(c0.as_ptr().add(b) as *const __m256i);
            let i1 = _mm256_loadu_si256(c1.as_ptr().add(b) as *const __m256i);
            let x0 = _mm512_i32gather_pd::<8>(i0, x.as_ptr());
            let x1 = _mm512_i32gather_pd::<8>(i1, x.as_ptr());
            acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(v0.as_ptr().add(b)), x0, acc0);
            acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(v1.as_ptr().add(b)), x1, acc1);
        }
        for s in joint..s0 {
            let b = s * 8;
            if dist > 0 && b + dist + 8 <= v0.len() {
                for j in 0..8 {
                    _mm_prefetch::<_MM_HINT_T0>(
                        x.as_ptr().add(*c0.get_unchecked(b + dist + j) as usize) as *const i8,
                    );
                }
            }
            let i0 = _mm256_loadu_si256(c0.as_ptr().add(b) as *const __m256i);
            let x0 = _mm512_i32gather_pd::<8>(i0, x.as_ptr());
            acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(v0.as_ptr().add(b)), x0, acc0);
        }
        for s in joint..s1 {
            let b = s * 8;
            if dist > 0 && b + dist + 8 <= v1.len() {
                for j in 0..8 {
                    _mm_prefetch::<_MM_HINT_T0>(
                        x.as_ptr().add(*c1.get_unchecked(b + dist + j) as usize) as *const i8,
                    );
                }
            }
            let i1 = _mm256_loadu_si256(c1.as_ptr().add(b) as *const __m256i);
            let x1 = _mm512_i32gather_pd::<8>(i1, x.as_ptr());
            acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(v1.as_ptr().add(b)), x1, acc1);
        }
        _mm512_storeu_pd(a0.as_mut_ptr(), acc0);
        _mm512_storeu_pd(a1.as_mut_ptr(), acc1);
    }
}

// ---------------------------------------------------------------------
// Ulp-tolerance contract
// ---------------------------------------------------------------------

/// Ulp distance between two doubles: the number of representable f64
/// values strictly between them (0 for equal values, including
/// `+0 == -0`; `u64::MAX` if either is NaN). Works across the zero
/// sign boundary by mapping bit patterns onto a monotone integer line.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    // Sign-magnitude -> offset binary, monotone in the real ordering.
    fn key(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_add(bits.wrapping_neg())
        } else {
            bits
        }
    }
    key(a).abs_diff(key(b))
}

/// Per-kernel ulp bound for SpMV results. Reassociating a k-term dot
/// product perturbs the result by O(k) ulps of the running sum; the
/// catalog's widest kernels were measured at < 450 ulps on 10^4-term
/// rows, so 1024 gives ~2× headroom without masking real bugs (a wrong
/// gather or dropped tail lands orders of magnitude outside it).
pub const SPMV_MAX_ULPS: u64 = 1024;

/// Absolute floor accompanying [`SPMV_MAX_ULPS`]: when two results
/// differ by less than this, they pass regardless of ulp distance.
/// Near-total cancellation leaves results of magnitude ~1e-13 whose
/// ulp spacing is ~1e-29 — relative comparison is meaningless there.
pub const SPMV_ABS_FLOOR: f64 = 1e-9;

/// True when `got` is within `max_ulps` ulps of `want` *or* within the
/// absolute floor (see [`SPMV_ABS_FLOOR`] for why both are needed).
pub fn ulp_close(got: f64, want: f64, max_ulps: u64, abs_floor: f64) -> bool {
    ulp_distance(got, want) <= max_ulps || (got - want).abs() <= abs_floor
}

/// Asserts element-wise ulp-tolerance between a kernel result and its
/// scalar oracle, with a diagnostic naming the worst element.
///
/// # Panics
///
/// On length mismatch or any element outside both the ulp bound and
/// the absolute floor.
pub fn assert_ulp_close(got: &[f64], want: &[f64], max_ulps: u64, abs_floor: f64, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            ulp_close(g, w, max_ulps, abs_floor),
            "{ctx}: element {i}: got {g:e}, want {w:e} ({} ulps apart, bound {max_ulps}, \
             abs floor {abs_floor:e})",
            ulp_distance(g, w)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_gen::SplitMix64;

    fn rand_problem(n: usize, ncols: usize, seed: u64) -> (Vec<f64>, Vec<u32>, Vec<f64>) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let vals = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let cols = (0..n).map(|_| rng.below(ncols) as u32).collect();
        let x = (0..ncols).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        (vals, cols, x)
    }

    const ALL: [SimdIsa; 3] = [SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512];

    /// Prefetch distances every chunk check runs: off, the shortest,
    /// a mid value, and the ceiling.
    const PFS: [usize; 4] = [0, 1, 4, MAX_PREFETCH];

    /// Chunk widths (column steps) every chunk check runs: each width
    /// 0..=17 covers every residue of the 8-step lane groups; 66 and 73
    /// exceed the `MAX_PREFETCH` lookahead so the prefetching loop body
    /// runs.
    fn widths() -> impl Iterator<Item = usize> {
        (0..=17).chain([66, 73])
    }

    /// Levels the running CPU supports (always includes Scalar).
    fn runnable() -> Vec<SimdIsa> {
        ALL.into_iter().filter(|&isa| isa <= detected()).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// The scalar chunk loop with every index checked: each lane's sum
    /// in step order from zero, added to `init`.
    fn checked_scalar(vals: &[f64], cols: &[u32], c: usize, x: &[f64], init: f64) -> Vec<f64> {
        let mut sums = vec![0.0; c];
        for (vrow, crow) in vals.chunks_exact(c).zip(cols.chunks_exact(c)) {
            for l in 0..c {
                sums[l] += vrow[l] * x[crow[l] as usize];
            }
        }
        sums.iter().map(|s| init + s).collect()
    }

    /// Runs `sell_chunk_pf` at `isa` for every distance in [`PFS`]:
    /// each result is ulp-close to a checked copy of the scalar loop
    /// and bit-identical to the `pf = 0` result. The accumulator starts
    /// nonzero because the kernel contract accumulates.
    fn check_chunk(isa: SimdIsa, c: usize, width: usize, seed: u64) {
        let (vals, cols, x) = rand_problem(width * c, 512, seed);
        let want = checked_scalar(&vals, &cols, c, &x, 0.25);
        let mut base = vec![0.25f64; c];
        unsafe { sell_chunk_pf(isa, &vals, &cols, c, &x, &mut base, 0) };
        let ctx = format!("{isa:?} c={c} width={width}");
        assert_ulp_close(&base, &want, SPMV_MAX_ULPS, SPMV_ABS_FLOOR, &ctx);
        for pf in PFS {
            let mut got = vec![0.25f64; c];
            unsafe { sell_chunk_pf(isa, &vals, &cols, c, &x, &mut got, pf) };
            assert_eq!(bits(&got), bits(&base), "{ctx} pf={pf}");
        }
    }

    #[test]
    fn lanes_names_and_ordering() {
        assert!(SimdIsa::Scalar < SimdIsa::Avx2 && SimdIsa::Avx2 < SimdIsa::Avx512);
        for isa in ALL {
            assert_eq!(SimdIsa::from_u8(isa.to_u8()), isa);
            assert_eq!(SimdIsa::widest_for_lanes(isa.lanes()), isa);
        }
        assert_eq!(SimdIsa::Avx512.lanes(), 8);
        assert_eq!(SimdIsa::Avx2.name(), "avx2");
        assert_eq!(SimdIsa::widest_for_lanes(0), SimdIsa::Scalar);
        assert_eq!(SimdIsa::widest_for_lanes(2), SimdIsa::Scalar);
        assert_eq!(SimdIsa::widest_for_lanes(6), SimdIsa::Avx2);
        assert_eq!(SimdIsa::widest_for_lanes(64), SimdIsa::Avx512);
    }

    #[test]
    fn auto_policies_follow_isa_and_x_size() {
        let small = (INTERLEAVE_MAX_X_BYTES / 8) / 2;
        let big = PREFETCH_MIN_X_BYTES / 8 + 1;
        assert_eq!(auto_prefetch_distance(SimdIsa::Avx512, small), 0);
        assert_eq!(auto_prefetch_distance(SimdIsa::Avx512, PREFETCH_MIN_X_BYTES / 8), 0);
        assert_eq!(auto_prefetch_distance(SimdIsa::Avx512, big), 8);
        assert_eq!(auto_prefetch_distance(SimdIsa::Avx2, big), 8);
        assert_eq!(auto_prefetch_distance(SimdIsa::Scalar, big), 0);
        assert_eq!(auto_csr_interleave(SimdIsa::Avx512, small), 2);
        assert_eq!(auto_csr_interleave(SimdIsa::Avx512, big), 1);
        assert_eq!(auto_csr_interleave(SimdIsa::Avx2, small), 1);
        assert_eq!(auto_sell_interleave(SimdIsa::Avx512, 8), 2);
        assert_eq!(auto_sell_interleave(SimdIsa::Avx512, 4), 1);
        assert_eq!(auto_sell_interleave(SimdIsa::Avx2, 8), 1);
    }

    #[test]
    fn detect_is_stable_and_active_is_runnable() {
        assert_eq!(detected(), detect_raw());
        assert!(active() <= detected());
    }

    #[test]
    fn resolve_respects_width_requests() {
        let cap = active();
        assert_eq!(resolve(0, 100), cap);
        assert_eq!(resolve(1, 100), SimdIsa::Scalar);
        assert_eq!(resolve(2, 100), SimdIsa::Scalar);
        assert_eq!(resolve(4, 100), SimdIsa::Avx2.min(cap));
        assert_eq!(resolve(8, 100), SimdIsa::Avx512.min(cap));
        // Signed 32-bit gather indices cannot address a wider x —
        // including under an explicit width request.
        assert_eq!(resolve(0, i32::MAX as usize + 1), SimdIsa::Scalar);
        assert_eq!(resolve(8, i32::MAX as usize + 1), SimdIsa::Scalar);
        // And the per-kernel-call clamp applies the same rule.
        assert_eq!(clamp_isa(SimdIsa::Avx512, i32::MAX as usize + 1), SimdIsa::Scalar);
        assert_eq!(clamp_isa(SimdIsa::Avx512, 100), SimdIsa::Avx512.min(detected()));
    }

    #[test]
    fn sell_chunk_matches_scalar_for_both_widths() {
        // AVX2 runs the c ∈ {4, 8} kernel; AVX-512 runs its own c = 8
        // kernel and the AVX2 one for c = 4.
        for c in [4usize, 8] {
            for width in widths() {
                for isa in runnable() {
                    check_chunk(isa, c, width, width as u64 * 31 + c as u64);
                }
            }
        }
    }

    #[test]
    fn sell_chunk_pair_is_bit_identical_to_sequential_chunks() {
        let c = 8usize;
        // Different widths so the joint loop + solo-tail path runs on
        // either side, past the prefetch lookahead on the long ones.
        let pairs = widths().flat_map(|w0| [(w0, 0usize), (w0, 5), (w0, 73), (0, w0), (9, w0)]);
        for (w0, w1) in pairs {
            let (v0, c0, x) = rand_problem(w0 * c, 512, 71 + w0 as u64);
            let (v1, c1, _) = rand_problem(w1 * c, 512, 171 + w1 as u64);
            for isa in runnable() {
                for pf in PFS {
                    let mut s0 = vec![0.5f64; c];
                    let mut s1 = vec![-0.5f64; c];
                    unsafe {
                        sell_chunk_pf(isa, &v0, &c0, c, &x, &mut s0, pf);
                        sell_chunk_pf(isa, &v1, &c1, c, &x, &mut s1, pf);
                    }
                    let mut p0 = vec![0.5f64; c];
                    let mut p1 = vec![-0.5f64; c];
                    unsafe {
                        sell_chunk_pair(isa, &v0, &c0, &mut p0, &v1, &c1, &mut p1, c, &x, pf)
                    };
                    assert_eq!(bits(&s0), bits(&p0), "{isa:?} pf={pf} w=({w0},{w1}) chunk0");
                    assert_eq!(bits(&s1), bits(&p1), "{isa:?} pf={pf} w=({w0},{w1}) chunk1");
                    // The pair's prefetch distance is scheduling only.
                    let mut q0 = vec![0.5f64; c];
                    let mut q1 = vec![-0.5f64; c];
                    unsafe { sell_chunk_pair(isa, &v0, &c0, &mut q0, &v1, &c1, &mut q1, c, &x, 0) };
                    assert_eq!(bits(&q0), bits(&p0), "{isa:?} pf={pf} vs 0 chunk0");
                    assert_eq!(bits(&q1), bits(&p1), "{isa:?} pf={pf} vs 0 chunk1");
                }
            }
        }
    }

    #[test]
    fn sell_chunk_other_heights_run_the_exact_scalar_loop() {
        // Only c ∈ {4, 8} have vector paths: every other height runs
        // the scalar loop bit-exactly at every level, and so does every
        // height at `Scalar`.
        for c in 1..=8usize {
            for width in widths() {
                let (vals, cols, x) = rand_problem(width * c, 128, width as u64 * 13 + c as u64);
                let sums = unsafe { sell_chunk_scalar(&vals, &cols, c, &x) };
                let mut zero_padded = checked_scalar(&vals, &cols, c, &x, 0.0);
                zero_padded.resize(8, 0.0);
                assert_eq!(bits(&sums), bits(&zero_padded), "sell_chunk_scalar c={c} w={width}");
                let want = checked_scalar(&vals, &cols, c, &x, 0.5);
                for isa in ALL {
                    if isa > SimdIsa::Scalar && (c == 4 || c == 8) {
                        continue;
                    }
                    let mut got = vec![0.5f64; c];
                    unsafe { sell_chunk_pf(isa, &vals, &cols, c, &x, &mut got, 0) };
                    assert_eq!(bits(&got), bits(&want), "{isa:?} c={c} width={width}");
                }
            }
        }
    }

    #[test]
    fn ulp_distance_properties() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(1.0, f64::NAN), u64::MAX);
        // Straddling zero: distance counts representable values between.
        let tiny = f64::from_bits(1); // smallest positive subnormal
        assert_eq!(ulp_distance(tiny, -tiny), 2);
        assert!(ulp_distance(1.0, 2.0) == 1u64 << 52);
    }

    #[test]
    fn ulp_close_uses_absolute_floor_near_zero() {
        // 1e-13 vs -1e-13: astronomically many ulps apart, but within
        // any reasonable cancellation floor.
        assert!(!ulp_close(1e-13, -1e-13, SPMV_MAX_ULPS, 0.0));
        assert!(ulp_close(1e-13, -1e-13, SPMV_MAX_ULPS, SPMV_ABS_FLOOR));
        assert!(!ulp_close(1.0, 1.5, SPMV_MAX_ULPS, SPMV_ABS_FLOOR));
    }

    #[test]
    #[should_panic(expected = "ulps apart")]
    fn assert_ulp_close_panics_outside_bound() {
        assert_ulp_close(&[1.0], &[1.0 + 1e-6], 16, 1e-12, "unit");
    }
}
