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
//! policy ([`crate::sched_sim`]). Everything is deterministic.

use crate::lru::{AccessCounts, SampledLru, MAX_SAMPLE_SHIFT};
use crate::machine::MachineModel;
use crate::sched_sim::makespan;
use wise_kernels::method::{Method, MethodConfig, Prepared};
use wise_kernels::srvpack::SigmaSpec;
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

/// `(steady-state, cold)` x line-access counts from one replay of the
/// layout's input-vector stream ([`SampledLru::finish_both`]).
fn x_stream_counts(
    m: &Csr,
    prepared: &Prepared<'_>,
    machine: &MachineModel,
    sample_shift: u32,
) -> (AccessCounts, AccessCounts) {
    const ELTS_PER_LINE: u32 = 8; // f64 elements per 64-byte line
    let caps = [machine.l1_lines(), machine.l2_lines(), machine.llc_lines()];
    let lines = m.ncols().div_ceil(ELTS_PER_LINE as usize);
    let mut x_sim = SampledLru::new(caps, sample_shift, lines);
    let mut feed = |cols: &[u32]| {
        for &c in cols {
            x_sim.access(u64::from(c / ELTS_PER_LINE));
        }
    };
    match prepared {
        Prepared::Csr(_) => feed(m.col_idx()),
        // The packed order, segment by segment.
        Prepared::Pack(p, _) => p.segments().iter().for_each(|seg| feed(seg.col_ids())),
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
    let nthreads = machine.threads;
    let line = machine.cache_line as f64;

    // ---- Per-chunk compute cycles, matrix/y bytes and x accesses.
    let mut chunk_compute: Vec<f64> = Vec::new(); // cycles
    let mut chunk_stream_bytes: Vec<f64> = Vec::new(); // matrix + y
    let mut chunk_x_accesses: Vec<f64> = Vec::new();
    let mut grain = 1usize;
    let mut per_segment_chunks: Vec<usize> = Vec::new(); // segment boundaries

    match prepared {
        Prepared::Csr(_) => {
            // CSR has one kernel, the scalar row loop, so every CSR
            // config is priced with the calibrated per-nonzero formula.
            let rows_per_chunk = model_rows_per_chunk(m.nrows(), nthreads);
            let nchunks = m.nrows().div_ceil(rows_per_chunk);
            for chunk in 0..nchunks {
                let lo = chunk * rows_per_chunk;
                let hi = (lo + rows_per_chunk).min(m.nrows());
                let nnz_chunk: usize = (lo..hi).map(|r| m.row_nnz(r)).sum();
                chunk_compute.push(nnz_chunk as f64 * machine.scalar_cycles_per_nnz);
                // vals 8B + col_idx 4B per nnz, row_ptr 8B + y 8B per row.
                chunk_stream_bytes.push(nnz_chunk as f64 * 12.0 + (hi - lo) as f64 * 16.0);
                chunk_x_accesses.push(nnz_chunk as f64);
            }
            per_segment_chunks.push(nchunks);
        }
        Prepared::Pack(p, _) => {
            let c = p.config().c;
            // The runtime dispatcher only vectorizes catalog chunk
            // heights (c = 4 or 8); other heights always run scalar, so
            // the model must not credit them with SIMD throughput.
            let lanes = if c == 4 || c == 8 { machine.modeled_lanes(cfg.v) } else { 0 };
            // Cycles per packed column step: legacy calibrated constant
            // for v = 0, pure scalar for a forced v = 1, and one vector
            // op per `lanes` rows of the chunk otherwise.
            let step_cycles = match lanes {
                0 => machine.vector_cycles_per_step,
                1 => c as f64 * machine.scalar_cycles_per_nnz,
                l => (c as f64 / l as f64).ceil() * machine.simd_cycles_per_step,
            };
            // Deliberately not the kernel's grain: the model keeps the
            // paper's per-chunk dynamic grabs on its modelled machine
            // (labels stay comparable); the kernel hands every policy
            // 256-row blocks (DESIGN.md §12).
            grain = match cfg.schedule {
                wise_kernels::Schedule::Dyn => 1,
                _ => (model_rows_per_chunk(m.nrows(), nthreads) / c).max(1),
            };
            // Scattered-output penalty: RFS randomizes the y rows a
            // chunk writes; if y exceeds the LLC each write allocates a
            // full line.
            let scattered =
                matches!(p.config().sigma, SigmaSpec::Full) && m.nrows() * 8 > machine.llc_bytes;
            let y_write_bytes = if scattered { 8.0 * machine.scatter_write_factor } else { 8.0 };
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
        }
    }

    let total_x_accesses: f64 = chunk_x_accesses.iter().sum::<f64>().max(1.0);
    // ---- Working-set residency: steady-state iterative SpMV keeps the
    // matrix + vectors in LLC when they fit.
    let matrix_bytes = match prepared {
        Prepared::Csr(_) => m.footprint_bytes(),
        Prepared::Pack(p, _) => p.footprint_bytes(),
    };
    let working_set = matrix_bytes + m.ncols() * 8 + m.nrows() * 8;

    let assemble = |x_counts: AccessCounts, cold: bool| {
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
        let nchunks = chunk_compute.len();
        let mut chunk_seconds: Vec<f64> = Vec::with_capacity(nchunks);
        let mut chunk_dram: Vec<f64> = Vec::with_capacity(nchunks);
        let mut chunk_llc: Vec<f64> = Vec::with_capacity(nchunks);
        for i in 0..nchunks {
            let share = chunk_x_accesses[i] / total_x_accesses;
            let (stream_dram, stream_llc) = if matrix_from_llc {
                (0.0, chunk_stream_bytes[i])
            } else {
                (chunk_stream_bytes[i], 0.0)
            };
            let dram = stream_dram + x_dram_bytes * share;
            let llc = stream_llc + x_llc_bytes * share;
            dram_total += dram;
            llc_total += llc;
            chunk_dram.push(dram);
            chunk_llc.push(llc);
            let compute = machine.cycles_to_seconds(chunk_compute[i]);
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
        let mut segment_critical = Vec::with_capacity(per_segment_chunks.len());
        let mut segment_floor = Vec::with_capacity(per_segment_chunks.len());
        for &seg_chunks in &per_segment_chunks {
            let range = offset..offset + seg_chunks;
            let critical =
                makespan(&chunk_seconds[range.clone()], nthreads, cfg.schedule, grain, dyn_grab);
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
        if let Prepared::Pack(p, _) = prepared {
            if p.col_perm().is_some() {
                let bytes = 2.0 * m.ncols() as f64 * 8.0;
                seconds += machine
                    .bandwidth_floor_seconds(bytes, 0.0)
                    .max(machine.cycles_to_seconds(m.ncols() as f64));
                dram_total += bytes;
            }
        }

        CostBreakdown {
            seconds,
            dram_bytes: dram_total,
            llc_bytes: llc_total,
            compute_seconds: compute_total,
            x_counts,
            nnz_padded: prepared.nnz_padded(),
            segment_critical,
            segment_floor,
        }
    };
    (assemble(steady_x, false), assemble(cold_x, true))
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

/// Estimates all 29 catalog configurations on `m`, in catalog order.
pub fn time_all_configs(
    m: &Csr,
    machine: &MachineModel,
    sample_shift: u32,
) -> Vec<(MethodConfig, CostBreakdown)> {
    let catalog = MethodConfig::catalog();
    let estimates = estimate_catalog(m, &catalog, machine, sample_shift);
    catalog.into_iter().zip(estimates).map(|(cfg, (steady, _))| (cfg, steady)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn all_29_configs_estimate() {
        let m = RmatParams::MED_LOC.generate(9, 8, 17);
        let mach = machine();
        let all = time_all_configs(&m, &mach, 0);
        assert_eq!(all.len(), 29);
        for (cfg, b) in &all {
            assert!(b.seconds > 0.0, "{}", cfg.label());
            assert!(b.seconds < 1.0, "{} absurd time {}", cfg.label(), b.seconds);
        }
    }
}
