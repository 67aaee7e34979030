//! The SpMV cost model: from a `{matrix, method-config}` pair to an
//! estimated execution time on the modeled machine.
//!
//! Per-chunk cost = compute cycles (scalar per-nonzero for CSR, vector
//! per-column-step for packed methods, padding included) + the chunk's
//! share of DRAM/LLC traffic at the per-thread bandwidth. Traffic has
//! three components:
//!
//! * matrix streaming (values + indices; LLC-resident in steady state
//!   if the whole working set fits);
//! * output writes (with a scatter penalty for RFS-reordered methods
//!   whose output exceeds the LLC);
//! * input-vector reads, classified by LRU reuse-distance simulation of
//!   the method's *actual* access stream — so CFS clustering,
//!   segmentation and row reordering genuinely move the estimate.
//!
//! Chunk costs are folded into a parallel makespan per the scheduling
//! policy ([`crate::sched_sim`]). Everything is deterministic. Labels
//! and catalog estimates replay every access; the amortized pick's CSR
//! baseline ([`estimate_csr_baseline`]) replays fixed windows of long
//! CSR streams.

use crate::lru::{footprint_level, AccessCounts, SampledLru, MAX_SAMPLE_SHIFT};
use crate::machine::MachineModel;
use crate::sched_sim::makespan;
use wise_kernels::method::{Method, MethodConfig, Prepared};
use wise_kernels::srvpack::{SigmaSpec, SrvPack};
use wise_matrix::Csr;

/// Detailed output of the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// Estimated wall-clock seconds of one SpMV.
    pub seconds: f64,
    /// Total DRAM bytes (all threads).
    pub dram_bytes: f64,
    /// Total LLC-served bytes.
    pub llc_bytes: f64,
    /// Total compute seconds (sum over chunks, single-thread units).
    pub compute_seconds: f64,
    /// Input-vector access classification (line granularity, scaled).
    pub x_counts: AccessCounts,
    /// Stored entries including padding.
    pub nnz_padded: usize,
    /// Per-segment critical-path makespan (diagnostics).
    pub segment_critical: Vec<f64>,
    /// Per-segment aggregate-bandwidth floor (diagnostics).
    pub segment_floor: Vec<f64>,
}

/// Scheduling granularity used by the model: the kernel's default
/// 256-row chunks at paper scale, shrunk for small matrices so the
/// modeled machine still sees several chunks per thread (a 2^20-row
/// paper matrix has 4096 chunks; a 2^12-row quick-scale one would have
/// 16, hiding all load-imbalance effects at the modeled 24 threads).
pub fn model_rows_per_chunk(nrows: usize, threads: usize) -> usize {
    let target_chunks = threads.max(1) * 8;
    (nrows / target_chunks.max(1)).clamp(8, wise_kernels::csr_spmv::DEFAULT_ROWS_PER_CHUNK)
}

/// Picks a set-sampling shift appropriate for the stream length: exact
/// below 128 K accesses, then one extra bit per doubling, capped at
/// [`MAX_SAMPLE_SHIFT`] (1-in-64 sampling).
pub fn auto_sample_shift(nnz: usize) -> u32 {
    let mut shift = 0u32;
    let mut budget = 128 * 1024;
    while nnz > budget && shift < MAX_SAMPLE_SHIFT {
        shift += 1;
        budget *= 2;
    }
    shift
}

/// Estimates one *steady-state* SpMV execution of `cfg` on `m` under
/// `machine` (iterative use, working set warm).
///
/// `sample_shift` controls reuse-distance sampling (see
/// [`auto_sample_shift`]); pass 0 for the exact simulation.
pub fn estimate_spmv_seconds(
    m: &Csr,
    cfg: &MethodConfig,
    machine: &MachineModel,
    sample_shift: u32,
) -> CostBreakdown {
    let prepared = cfg.prepare(m);
    estimate_prepared(m, cfg, &prepared, machine, sample_shift)
}

/// Cost model over an already-prepared representation (lets callers
/// amortize the format conversion across estimates).
pub fn estimate_prepared(
    m: &Csr,
    cfg: &MethodConfig,
    prepared: &Prepared<'_>,
    machine: &MachineModel,
    sample_shift: u32,
) -> CostBreakdown {
    let x_counts = x_stream_counts(m, prepared, machine, sample_shift);
    estimate_layout(m, cfg, prepared, machine, x_counts).0
}

/// `(steady-state, cold first-iteration)` estimates for `cfgs`, in
/// order; cold = what a trial-executing inspector-executor measures
/// (matrix from DRAM, cold x lines miss). Configs with the same layout
/// key `(method, c, σ, T)` share one conversion and one x-stream pass
/// (19 for the 29-entry catalog), bit-identical to per-config estimates.
pub fn estimate_catalog(
    m: &Csr,
    cfgs: &[MethodConfig],
    machine: &MachineModel,
    sample_shift: u32,
) -> Vec<(CostBreakdown, CostBreakdown)> {
    let layout = |c: &MethodConfig| (c.method, c.c, c.sigma, c.t.to_bits());
    let mut out: Vec<Option<(CostBreakdown, CostBreakdown)>> = vec![None; cfgs.len()];
    for (i, cfg) in cfgs.iter().enumerate() {
        if out[i].is_some() {
            continue;
        }
        let prepared = cfg.prepare(m);
        let x_counts = x_stream_counts(m, &prepared, machine, sample_shift);
        for (j, other) in cfgs.iter().enumerate().skip(i) {
            if layout(other) == layout(cfg) {
                out[j] = Some(estimate_layout(m, other, &prepared, machine, x_counts));
            }
        }
    }
    out.into_iter().flatten().collect()
}

/// Best steady-state seconds over the CSR configs `csr_cfgs`
/// (`f64::MAX` when there are none): the baseline the amortized pick
/// turns conversion seconds into iterations with (DESIGN.md §22).
/// Streams longer than [`BASELINE_FULL_REPLAY`] go through a windowed
/// replay, unless the machine's LLC holds more lines than
/// [`BASELINE_WARMUP`], where a warm-up cannot reach its capacity
/// misses. Every other stream is replayed in full at `sample_shift`,
/// bit-identical to the best CSR of [`estimate_catalog`]. The chunk
/// arrays are built once and only the steady-state tail runs per
/// schedule.
///
/// # Panics
/// If a config in `csr_cfgs` is not CSR.
pub fn estimate_csr_baseline(
    m: &Csr,
    csr_cfgs: &[MethodConfig],
    machine: &MachineModel,
    sample_shift: u32,
) -> f64 {
    assert!(csr_cfgs.iter().all(|c| c.method == Method::Csr), "baseline configs must be CSR");
    let x_counts = if m.nnz() <= BASELINE_FULL_REPLAY || machine.llc_lines() > BASELINE_WARMUP {
        let mut sim = x_lru(m, machine, sample_shift);
        replay(&mut sim, m.col_idx());
        sim.finish_both().0
    } else {
        csr_x_counts_windowed(m, machine)
    };
    let work = LayoutWork::csr(m, machine);
    csr_cfgs
        .iter()
        .map(|cfg| work.assemble(m, cfg, machine, x_counts, false).seconds)
        .fold(f64::MAX, f64::min)
}

/// Windows the CSR baseline replays (DESIGN.md §22).
pub const BASELINE_WINDOWS: usize = 8;
/// Accesses per window whose levels are counted.
pub const BASELINE_WINDOW_LEN: usize = 128;
/// Uncounted accesses replayed just before each window, so every line
/// a window re-touches within them has its exact reuse distance. Above
/// the LLC capacity of machines scaled for corpora up to 2^14 rows (512
/// lines); machines with larger LLCs replay in full.
pub const BASELINE_WARMUP: usize = 640;
/// Column streams up to this length are replayed in full: the windows
/// would cover them anyway.
pub const BASELINE_FULL_REPLAY: usize = BASELINE_WINDOWS * (BASELINE_WARMUP + BASELINE_WINDOW_LEN);

/// Steady-state x line-access counts of the CSR stream (`col_idx`),
/// estimated from [`BASELINE_WINDOWS`] windows of
/// [`BASELINE_WINDOW_LEN`] accesses spaced evenly across it, each
/// preceded by [`BASELINE_WARMUP`] uncounted accesses, all through one
/// exact (shift 0) [`SampledLru`]. A window access is classified
/// exactly whenever its previous touch, or at least an LLC's worth of
/// distinct lines, falls inside its warm-up and window. The window
/// counts are scaled by `nnz / (windows · len)`.
///
/// A line the replay meets for the first time was either first touched
/// there or last touched before the warm-up. The stream has exactly `F`
/// first touches for its `F` distinct lines: up to `F` of the scaled
/// new-line count take the footprint rule at `F`, like the full
/// replay's first touches, and the rest the longest reuse distance a
/// re-touch can have, `F - 1` lines.
///
/// # Panics
/// If the stream is not longer than [`BASELINE_FULL_REPLAY`].
fn csr_x_counts_windowed(m: &Csr, machine: &MachineModel) -> AccessCounts {
    const SPAN: usize = BASELINE_WARMUP + BASELINE_WINDOW_LEN;
    let cols = m.col_idx();
    assert!(cols.len() > BASELINE_FULL_REPLAY, "short streams replay in full");
    let mut sim = x_lru(m, machine, 0).defer_cold();
    // L1, L2, LLC, DRAM, then lines new to the replay.
    let mut levels = [0u64; 5];
    for w in 0..BASELINE_WINDOWS {
        let end = (w + 1) * cols.len() / BASELINE_WINDOWS;
        let (warm, window) = cols[end - SPAN..end].split_at(BASELINE_WARMUP);
        replay(&mut sim, warm);
        for &c in window {
            levels[sim.access(x_line(c)).map_or(4, |l| l as usize)] += 1;
        }
    }
    let scale = cols.len() as f64 / (BASELINE_WINDOWS * BASELINE_WINDOW_LEN) as f64;
    let mut counts = levels.map(|n| n as f64 * scale);
    let caps = [machine.l1_lines(), machine.l2_lines(), machine.llc_lines()];
    let footprint = csr_footprint(m, caps[1].max(caps[2]) + 1);
    let first = counts[4].min(footprint as f64);
    counts[footprint_level(footprint, caps) as usize] += first;
    counts[footprint_level(footprint - 1, caps) as usize] += counts[4] - first;
    AccessCounts { l1: counts[0], l2: counts[1], llc: counts[2], dram: counts[3] }
}

/// Distinct x lines `col_idx` touches, counted up to `enough`.
fn csr_footprint(m: &Csr, enough: usize) -> usize {
    let lines = m.ncols().div_ceil(ELTS_PER_LINE as usize);
    let enough = enough.min(lines);
    let mut seen = vec![0u64; lines.div_ceil(64)];
    let mut distinct = 0;
    for &c in m.col_idx() {
        let line = x_line(c) as usize;
        let (word, bit) = (line / 64, 1u64 << (line % 64));
        distinct += usize::from(seen[word] & bit == 0);
        seen[word] |= bit;
        if distinct == enough {
            break;
        }
    }
    distinct
}

/// f64 elements per 64-byte line.
const ELTS_PER_LINE: u32 = 8;

/// The x line column `c` reads.
fn x_line(c: u32) -> u64 {
    u64::from(c / ELTS_PER_LINE)
}

/// A classifier for `m`'s x lines against `machine`'s hierarchy.
fn x_lru(m: &Csr, machine: &MachineModel, sample_shift: u32) -> SampledLru {
    let caps = [machine.l1_lines(), machine.l2_lines(), machine.llc_lines()];
    SampledLru::new(caps, sample_shift, m.ncols().div_ceil(ELTS_PER_LINE as usize))
}

/// Feeds the x lines of columns `cols` to `sim`.
fn replay(sim: &mut SampledLru, cols: &[u32]) {
    for &c in cols {
        sim.access(x_line(c));
    }
}

/// `(steady-state, cold)` x line-access counts from one replay of the
/// layout's input-vector stream ([`SampledLru::finish_both`]).
fn x_stream_counts(
    m: &Csr,
    prepared: &Prepared<'_>,
    machine: &MachineModel,
    sample_shift: u32,
) -> (AccessCounts, AccessCounts) {
    let mut x_sim = x_lru(m, machine, sample_shift);
    match prepared {
        Prepared::Csr(_) => replay(&mut x_sim, m.col_idx()),
        // The packed order, segment by segment.
        Prepared::Pack(p, _) => {
            p.segments().iter().for_each(|seg| replay(&mut x_sim, seg.col_ids()))
        }
    }
    x_sim.finish_both()
}

/// `cfg`'s `(steady-state, cold)` breakdowns on its prepared layout;
/// only the x counts and the matrix residency differ between the two.
fn estimate_layout(
    m: &Csr,
    cfg: &MethodConfig,
    prepared: &Prepared<'_>,
    machine: &MachineModel,
    (steady_x, cold_x): (AccessCounts, AccessCounts),
) -> (CostBreakdown, CostBreakdown) {
    let work = match prepared {
        Prepared::Csr(_) => LayoutWork::csr(m, machine),
        Prepared::Pack(p, _) => LayoutWork::pack(m, cfg, p, machine),
    };
    (work.assemble(m, cfg, machine, steady_x, false), work.assemble(m, cfg, machine, cold_x, true))
}

/// A layout's per-chunk work: everything the cost tail reads besides
/// the x counts, the residency and the schedule.
struct LayoutWork {
    /// Per-chunk compute cycles, matrix + y bytes and x accesses.
    chunk_compute: Vec<f64>,
    chunk_stream_bytes: Vec<f64>,
    chunk_x_accesses: Vec<f64>,
    /// Chunks per segment (segment boundaries).
    per_segment_chunks: Vec<usize>,
    grain: usize,
    /// Bytes of the stored matrix.
    matrix_bytes: usize,
    /// CFS layouts gather x through their column permutation per call.
    gathers_x: bool,
    nnz_padded: usize,
}

impl LayoutWork {
    fn csr(m: &Csr, machine: &MachineModel) -> LayoutWork {
        // CSR has one kernel, the scalar row loop, so every CSR config
        // is priced with the calibrated per-nonzero formula.
        let rows_per_chunk = model_rows_per_chunk(m.nrows(), machine.threads);
        let nchunks = m.nrows().div_ceil(rows_per_chunk);
        let (mut chunk_compute, mut chunk_stream_bytes, mut chunk_x_accesses) =
            (Vec::with_capacity(nchunks), Vec::with_capacity(nchunks), Vec::with_capacity(nchunks));
        let row_ptr = m.row_ptr();
        for chunk in 0..nchunks {
            let lo = chunk * rows_per_chunk;
            let hi = (lo + rows_per_chunk).min(m.nrows());
            let nnz_chunk = row_ptr[hi] - row_ptr[lo];
            chunk_compute.push(nnz_chunk as f64 * machine.scalar_cycles_per_nnz);
            // vals 8B + col_idx 4B per nnz, row_ptr 8B + y 8B per row.
            chunk_stream_bytes.push(nnz_chunk as f64 * 12.0 + (hi - lo) as f64 * 16.0);
            chunk_x_accesses.push(nnz_chunk as f64);
        }
        LayoutWork {
            chunk_compute,
            chunk_stream_bytes,
            chunk_x_accesses,
            per_segment_chunks: vec![nchunks],
            grain: 1,
            matrix_bytes: m.footprint_bytes(),
            gathers_x: false,
            nnz_padded: 0,
        }
    }

    fn pack(m: &Csr, cfg: &MethodConfig, p: &SrvPack, machine: &MachineModel) -> LayoutWork {
        let c = p.config().c;
        // The runtime dispatcher only vectorizes catalog chunk heights
        // (c = 4 or 8); other heights always run scalar, so the model
        // must not credit them with SIMD throughput.
        let lanes = if c == 4 || c == 8 { machine.modeled_lanes(cfg.v) } else { 0 };
        // Cycles per packed column step: legacy calibrated constant for
        // v = 0, pure scalar for a forced v = 1, and one vector op per
        // `lanes` rows of the chunk otherwise.
        let step_cycles = match lanes {
            0 => machine.vector_cycles_per_step,
            1 => c as f64 * machine.scalar_cycles_per_nnz,
            l => (c as f64 / l as f64).ceil() * machine.simd_cycles_per_step,
        };
        // Deliberately not the kernel's grain: the model keeps the
        // paper's per-chunk dynamic grabs on its modelled machine
        // (labels stay comparable); the kernel hands every policy
        // 256-row blocks (DESIGN.md §12).
        let grain = match cfg.schedule {
            wise_kernels::Schedule::Dyn => 1,
            _ => (model_rows_per_chunk(m.nrows(), machine.threads) / c).max(1),
        };
        // Scattered-output penalty: RFS randomizes the y rows a chunk
        // writes; if y exceeds the LLC each write allocates a full line.
        let scattered =
            matches!(p.config().sigma, SigmaSpec::Full) && m.nrows() * 8 > machine.llc_bytes;
        let y_write_bytes = if scattered { 8.0 * machine.scatter_write_factor } else { 8.0 };
        let (mut chunk_compute, mut chunk_stream_bytes, mut chunk_x_accesses) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut per_segment_chunks = Vec::new();
        for seg in p.segments() {
            for chunk in 0..seg.nchunks() {
                let w = seg.chunk_width(chunk);
                let rows = seg.chunk_rows(chunk, c).len();
                chunk_compute.push(w as f64 * step_cycles);
                chunk_stream_bytes.push((w * c) as f64 * 12.0 + rows as f64 * y_write_bytes);
                chunk_x_accesses.push((w * c) as f64);
            }
            per_segment_chunks.push(seg.nchunks());
        }
        LayoutWork {
            chunk_compute,
            chunk_stream_bytes,
            chunk_x_accesses,
            per_segment_chunks,
            grain,
            matrix_bytes: p.footprint_bytes(),
            gathers_x: p.col_perm().is_some(),
            nnz_padded: p.nnz_padded(),
        }
    }

    /// `cfg`'s breakdown from `x_counts`: steady state keeps the matrix
    /// LLC-resident when the working set fits, `cold` streams it from
    /// DRAM.
    fn assemble(
        &self,
        m: &Csr,
        cfg: &MethodConfig,
        machine: &MachineModel,
        x_counts: AccessCounts,
        cold: bool,
    ) -> CostBreakdown {
        let nthreads = machine.threads;
        let line = machine.cache_line as f64;
        let total_x_accesses: f64 = self.chunk_x_accesses.iter().sum::<f64>().max(1.0);
        // ---- Working-set residency: steady-state iterative SpMV keeps
        // the matrix + vectors in LLC when they fit.
        let working_set = self.matrix_bytes + m.ncols() * 8 + m.nrows() * 8;
        let matrix_from_llc = !cold && working_set <= machine.llc_bytes;

        // Line-granularity misses -> bytes.
        let x_dram_bytes = x_counts.dram * line;
        let x_llc_bytes = x_counts.llc * line;

        // ---- Assemble per-chunk seconds. A chunk runs on one thread, so
        // its memory time uses single-thread bandwidth; the machine-wide
        // bandwidth cap is applied per segment below (roofline + critical
        // path).
        let mut dram_total = 0.0f64;
        let mut llc_total = 0.0f64;
        let mut compute_total = 0.0f64;
        let nchunks = self.chunk_compute.len();
        let mut chunk_seconds: Vec<f64> = Vec::with_capacity(nchunks);
        let mut chunk_dram: Vec<f64> = Vec::with_capacity(nchunks);
        let mut chunk_llc: Vec<f64> = Vec::with_capacity(nchunks);
        for i in 0..nchunks {
            let share = self.chunk_x_accesses[i] / total_x_accesses;
            let (stream_dram, stream_llc) = if matrix_from_llc {
                (0.0, self.chunk_stream_bytes[i])
            } else {
                (self.chunk_stream_bytes[i], 0.0)
            };
            let dram = stream_dram + x_dram_bytes * share;
            let llc = stream_llc + x_llc_bytes * share;
            dram_total += dram;
            llc_total += llc;
            chunk_dram.push(dram);
            chunk_llc.push(llc);
            let compute = machine.cycles_to_seconds(self.chunk_compute[i]);
            compute_total += compute;
            chunk_seconds.push(
                compute + machine.dram_seconds_single(dram) + machine.llc_seconds_single(llc),
            );
        }

        // ---- Parallel makespan, segment by segment (segments of LAV run
        // sequentially so the dense segment's x slice stays LLC-resident).
        // Segment time = max(critical-path makespan under the scheduling
        // policy, aggregate-bandwidth floor).
        let dyn_grab = machine.dyn_grab_ns * 1e-9;
        let mut seconds = 0.0f64;
        let mut offset = 0usize;
        let mut segment_critical = Vec::with_capacity(self.per_segment_chunks.len());
        let mut segment_floor = Vec::with_capacity(self.per_segment_chunks.len());
        for &seg_chunks in &self.per_segment_chunks {
            let range = offset..offset + seg_chunks;
            let critical = makespan(
                &chunk_seconds[range.clone()],
                nthreads,
                cfg.schedule,
                self.grain,
                dyn_grab,
            );
            let floor = machine.bandwidth_floor_seconds(
                chunk_dram[range.clone()].iter().sum(),
                chunk_llc[range].iter().sum(),
            );
            segment_critical.push(critical);
            segment_floor.push(floor);
            seconds += critical.max(floor);
            offset += seg_chunks;
        }

        // ---- CFS input-vector gather (done per call, single traversal).
        if self.gathers_x {
            let bytes = 2.0 * m.ncols() as f64 * 8.0;
            seconds += machine
                .bandwidth_floor_seconds(bytes, 0.0)
                .max(machine.cycles_to_seconds(m.ncols() as f64));
            dram_total += bytes;
        }

        CostBreakdown {
            seconds,
            dram_bytes: dram_total,
            llc_bytes: llc_total,
            compute_seconds: compute_total,
            x_counts,
            nnz_padded: self.nnz_padded,
            segment_critical,
            segment_floor,
        }
    }
}

/// Estimated preprocessing seconds to convert a CSR matrix into `cfg`'s
/// format (Section 4.4 charges this when breaking ties; Fig. 13c
/// reports it). Modeled as streaming conversion traffic plus sorting
/// work, parallelized across the machine.
pub fn estimate_preprocessing_seconds(m: &Csr, cfg: &MethodConfig, machine: &MachineModel) -> f64 {
    if cfg.method == Method::Csr {
        return 0.0;
    }
    let nnz = m.nnz() as f64;
    let nrows = m.nrows() as f64;
    let ncols = m.ncols() as f64;
    let threads = machine.threads as f64;
    // Read CSR once, write packed data once (padding grows writes; use
    // an upper-bound 1.3x without building the pack).
    let traffic = nnz * 12.0 + nnz * 12.0 * 1.3 + nrows * 16.0;
    let mut seconds = traffic / (machine.dram_bw_gbs * 1e9);
    let sort_cycles_per_key = 6.0;
    let mut cycles = 0.0;
    match cfg.method {
        Method::SellPack => {}
        Method::SellCSigma => {
            let sigma = cfg.sigma.max(2) as f64;
            cycles += nrows * sigma.log2() * sort_cycles_per_key;
        }
        Method::SellCR => {
            cycles += nrows * nrows.max(2.0).log2() * sort_cycles_per_key;
        }
        Method::Lav1Seg | Method::Lav => {
            // CFS column sort + per-nonzero remap + RFS.
            cycles += ncols * ncols.max(2.0).log2() * sort_cycles_per_key;
            cycles += nnz * 2.0;
            cycles += nrows * nrows.max(2.0).log2() * sort_cycles_per_key;
            if cfg.method == Method::Lav {
                // Segment-splitting pass (per-segment row lengths).
                cycles += nnz * 2.0;
            }
        }
        Method::Csr => unreachable!("handled above"),
    }
    seconds += machine.cycles_to_seconds(cycles / threads);
    seconds
}

/// Estimated seconds to extract the WISE feature vector from `m`
/// (the other half of WISE's preprocessing overhead): a few streaming
/// passes (row/col counts, transpose, tiling) plus the tile sort.
pub fn estimate_feature_extraction_seconds(m: &Csr, machine: &MachineModel) -> f64 {
    let nnz = m.nnz() as f64;
    let passes = 4.0; // counts, transpose scatter, tiling, locality scan
    let traffic = passes * nnz * 12.0;
    let sort_cycles = nnz * nnz.max(2.0).log2() * 2.0;
    traffic / (machine.dram_bw_gbs * 1e9)
        + machine.cycles_to_seconds(sort_cycles / machine.threads as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::HitLevel;
    use wise_gen::{suite, RmatParams};
    use wise_kernels::Schedule;

    fn machine() -> MachineModel {
        MachineModel::scaled_for_rows(1 << 14)
    }

    #[test]
    fn estimates_are_positive_and_deterministic() {
        let m = RmatParams::MED_SKEW.generate(10, 8, 1);
        let mach = machine();
        let a = estimate_spmv_seconds(&m, &MethodConfig::csr(Schedule::Dyn), &mach, 0);
        let b = estimate_spmv_seconds(&m, &MethodConfig::csr(Schedule::Dyn), &mach, 0);
        assert!(a.seconds > 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn more_nonzeros_cost_more() {
        let mach = machine();
        let small = RmatParams::LOW_LOC.generate(10, 4, 2);
        let big = RmatParams::LOW_LOC.generate(10, 32, 2);
        let cfg = MethodConfig::csr(Schedule::StCont);
        let ts = estimate_spmv_seconds(&small, &cfg, &mach, 0).seconds;
        let tb = estimate_spmv_seconds(&big, &cfg, &mach, 0).seconds;
        assert!(tb > 2.0 * ts, "{tb} vs {ts}");
    }

    #[test]
    fn skew_punishes_static_contiguous_csr() {
        // The paper's Fig. 3 effect: under skew, StCont loses to Dyn.
        let m = RmatParams::HIGH_SKEW.generate(12, 16, 3);
        let mach = machine();
        let dynamic =
            estimate_spmv_seconds(&m, &MethodConfig::csr(Schedule::Dyn), &mach, 0).seconds;
        let stcont =
            estimate_spmv_seconds(&m, &MethodConfig::csr(Schedule::StCont), &mach, 0).seconds;
        assert!(stcont > dynamic * 1.2, "StCont {stcont} should trail Dyn {dynamic} under skew");
    }

    #[test]
    fn balanced_matrix_schedules_are_close() {
        let m = suite::stencil_2d(64, 64);
        let mach = machine();
        let times: Vec<f64> = Schedule::ALL
            .iter()
            .map(|&s| estimate_spmv_seconds(&m, &MethodConfig::csr(s), &mach, 0).seconds)
            .collect();
        let max = times.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = times.iter().fold(f64::MAX, |a, &b| a.min(b));
        assert!(max / min < 1.5, "{times:?}");
    }

    #[test]
    fn padding_shows_up_for_skewed_sellpack() {
        let m = RmatParams::HIGH_SKEW.generate(11, 8, 5);
        let mach = machine();
        let sp = estimate_spmv_seconds(&m, &MethodConfig::sellpack(8, Schedule::Dyn), &mach, 0);
        let scr = estimate_spmv_seconds(&m, &MethodConfig::sell_c_r(8), &mach, 0);
        assert!(sp.nnz_padded > 2 * m.nnz(), "padding {} nnz {}", sp.nnz_padded, m.nnz());
        assert!(scr.nnz_padded < sp.nnz_padded);
    }

    #[test]
    fn segmentation_reduces_x_dram_traffic_on_large_skewed_matrices() {
        // The LAV premise: when x exceeds the LLC, splitting into
        // segments cuts DRAM misses on x.
        let m = RmatParams::HIGH_SKEW.generate(13, 16, 7);
        let mach = MachineModel::scaled_for_rows(1 << 13); // x >> LLC
        let one = estimate_spmv_seconds(&m, &MethodConfig::lav_1seg(8), &mach, 0);
        let seg = estimate_spmv_seconds(&m, &MethodConfig::lav(8, 0.7), &mach, 0);
        assert!(
            seg.x_counts.dram < one.x_counts.dram,
            "segmented {} vs single {}",
            seg.x_counts.dram,
            one.x_counts.dram
        );
    }

    #[test]
    fn cfs_improves_x_locality_under_skew() {
        let m = RmatParams::HIGH_SKEW.generate(12, 16, 9);
        let mach = MachineModel::scaled_for_rows(1 << 12);
        let plain = estimate_spmv_seconds(&m, &MethodConfig::sell_c_r(8), &mach, 0);
        let cfs = estimate_spmv_seconds(&m, &MethodConfig::lav_1seg(8), &mach, 0);
        assert!(
            cfs.x_counts.dram <= plain.x_counts.dram,
            "CFS {} vs plain {}",
            cfs.x_counts.dram,
            plain.x_counts.dram
        );
    }

    #[test]
    fn preprocessing_costs_are_ordered() {
        let m = RmatParams::MED_SKEW.generate(11, 8, 11);
        let mach = machine();
        let cost = |cfg: MethodConfig| estimate_preprocessing_seconds(&m, &cfg, &mach);
        let csr = cost(MethodConfig::csr(Schedule::Dyn));
        let sp = cost(MethodConfig::sellpack(8, Schedule::Dyn));
        let lav = cost(MethodConfig::lav(8, 0.7));
        assert_eq!(csr, 0.0);
        assert!(sp > 0.0);
        assert!(lav > sp, "LAV {lav} should cost more than SELLPACK {sp}");
    }

    #[test]
    fn sampling_tracks_exact_estimate() {
        let m = RmatParams::LOW_SKEW.generate(12, 8, 13);
        let mach = machine();
        let cfg = MethodConfig::lav(8, 0.8);
        let exact = estimate_spmv_seconds(&m, &cfg, &mach, 0).seconds;
        let sampled = estimate_spmv_seconds(&m, &cfg, &mach, 3).seconds;
        let ratio = sampled / exact;
        assert!((0.7..1.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn auto_shift_scales() {
        assert_eq!(auto_sample_shift(1000), 0);
        assert_eq!(auto_sample_shift(200_000), 1);
        assert!(auto_sample_shift(100_000_000) == 6);
    }

    #[test]
    fn explicit_widths_move_modeled_packed_compute() {
        let m = RmatParams::MED_SKEW.generate(11, 16, 19);
        let mach = machine();
        let base = MethodConfig::sell_c_sigma(8, 4096, Schedule::StCont);
        let auto = estimate_spmv_seconds(&m, &base, &mach, 0);
        let scalar = estimate_spmv_seconds(&m, &base.with_simd(1), &mach, 0);
        let wide = estimate_spmv_seconds(&m, &base.with_simd(8), &mach, 0);
        // Forcing the scalar kernel (v = 1) must cost more compute than
        // both the legacy vector model and an explicit 8-lane width.
        assert!(scalar.compute_seconds > auto.compute_seconds, "{scalar:?} vs {auto:?}");
        assert!(wide.compute_seconds <= scalar.compute_seconds);
        // The width only changes compute; traffic and padding are the
        // same packed layout regardless of v.
        assert_eq!(auto.dram_bytes, scalar.dram_bytes);
        assert_eq!(auto.nnz_padded, wide.nnz_padded);
    }

    #[test]
    fn windowed_counts_cover_the_stream() {
        let mach = machine();
        for m in [
            suite::stencil_2d(128, 96),
            suite::banded(8192, 6, 0.9, 1),
            RmatParams::HIGH_SKEW.generate(13, 8, 3),
        ] {
            let win = csr_x_counts_windowed(&m, &mach);
            assert_eq!(win.total(), m.nnz() as f64);
        }
    }

    #[test]
    fn windowed_counts_are_exact_where_the_warmup_reaches_the_llc() {
        // Scattered columns over 2048 lines: each warm-up touches more
        // than the LLC's 512 lines, so every window access is classified
        // as the full replay classifies it, and replay-new lines are
        // DRAM on both sides.
        let m = RmatParams::LOW_LOC.generate(14, 4, 5);
        let mach = machine();
        let mut full = x_lru(&m, &mach, 0).defer_cold();
        let levels: Vec<Option<HitLevel>> =
            m.col_idx().iter().map(|&c| full.access(x_line(c))).collect();
        let mut hits = [0u64; 3];
        for w in 0..BASELINE_WINDOWS {
            let end = (w + 1) * levels.len() / BASELINE_WINDOWS;
            let window = end - BASELINE_WINDOW_LEN;
            let mut warm: Vec<u64> =
                m.col_idx()[window - BASELINE_WARMUP..window].iter().map(|&c| x_line(c)).collect();
            warm.sort_unstable();
            warm.dedup();
            assert!(warm.len() > mach.llc_lines(), "window {w}: {} lines", warm.len());
            for level in levels[window..end].iter().flatten() {
                if let Some(h) = hits.get_mut(*level as usize) {
                    *h += 1;
                }
            }
        }
        let scale = m.nnz() as f64 / (BASELINE_WINDOWS * BASELINE_WINDOW_LEN) as f64;
        let win = csr_x_counts_windowed(&m, &mach);
        assert_eq!([win.l1, win.l2, win.llc], hits.map(|h| h as f64 * scale));
        assert_eq!(win.dram, m.nnz() as f64 - win.l1 - win.l2 - win.llc);
    }

    #[test]
    fn all_29_configs_estimate() {
        let m = RmatParams::MED_LOC.generate(9, 8, 17);
        let mach = machine();
        let catalog = MethodConfig::catalog();
        let all = estimate_catalog(&m, &catalog, &mach, 0);
        assert_eq!(all.len(), 29);
        for (cfg, (b, _)) in catalog.iter().zip(&all) {
            assert!(b.seconds > 0.0, "{}", cfg.label());
            assert!(b.seconds < 1.0, "{} absurd time {}", cfg.label(), b.seconds);
        }
    }
}
