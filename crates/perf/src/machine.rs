//! Machine descriptions for the cost model.

/// Parameters of the modeled shared-memory machine.
///
/// Bandwidths are aggregate (whole machine); the cost model divides
/// them across active threads. Cache capacities drive the reuse-
/// distance classification of input-vector accesses.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    pub name: String,
    /// Worker threads modeled (the paper pins 24).
    pub threads: usize,
    /// Clock in GHz.
    pub freq_ghz: f64,
    /// Per-core L1D bytes.
    pub l1_bytes: usize,
    /// Per-core L2 bytes.
    pub l2_bytes: usize,
    /// Total last-level cache bytes (both sockets).
    pub llc_bytes: usize,
    /// Aggregate DRAM bandwidth, GB/s.
    pub dram_bw_gbs: f64,
    /// Aggregate LLC bandwidth, GB/s.
    pub llc_bw_gbs: f64,
    /// Cache line bytes.
    pub cache_line: usize,
    /// Cycles for one scalar multiply-add over a CSR element
    /// (load val + load idx + indexed load + FMA, issue-bound).
    pub scalar_cycles_per_nnz: f64,
    /// Cycles for one c-wide packed column step (vector FMA + gather);
    /// gathers dominate, roughly independent of width on Skylake.
    pub vector_cycles_per_step: f64,
    /// Cycles for one explicit-SIMD gather+FMA step of the runtime-
    /// dispatched kernels (one vector register of lanes). Only engaged
    /// when a config requests an explicit width (`v > 1`); the legacy
    /// constants above stay in force for `v = 0` so pre-SIMD model
    /// outputs are unchanged. Defaults to `vector_cycles_per_step` for
    /// files serialized before this field existed.
    pub simd_cycles_per_step: f64,
    /// f64 lanes of the modeled machine's vector units (AVX-512: 8).
    /// Caps the lane count an explicit `v` can model. Defaults match
    /// the Skylake preset for files missing the field.
    pub simd_lanes: usize,
    /// Overhead of one dynamic-scheduling work grab, nanoseconds
    /// (shared-counter fetch_add plus its coherence traffic).
    pub dyn_grab_ns: f64,
    /// Fraction of the aggregate DRAM bandwidth one core can sustain
    /// alone (Skylake: one core reaches ~1/8 of the two-socket total).
    pub single_thread_dram_fraction: f64,
    /// Fraction of the aggregate LLC bandwidth one core can sustain.
    pub single_thread_llc_fraction: f64,
    /// Penalty factor for scattered (RFS-reordered) output writes that
    /// miss the LLC: each row write touches a whole line.
    pub scatter_write_factor: f64,
}

wise_trace::json_struct!(MachineModel {
    name, threads, freq_ghz, l1_bytes, l2_bytes, llc_bytes, dram_bw_gbs, llc_bw_gbs, cache_line,
    scalar_cycles_per_nnz, vector_cycles_per_step,
    simd_cycles_per_step = default_simd_cycles_per_step(),
    simd_lanes = default_simd_lanes(),
    dyn_grab_ns, single_thread_dram_fraction, single_thread_llc_fraction, scatter_write_factor,
});

fn default_simd_cycles_per_step() -> f64 {
    MachineModel::skylake_6126().vector_cycles_per_step
}

fn default_simd_lanes() -> usize {
    8
}

impl MachineModel {
    /// The paper's testbed: 2 × 12-core Xeon Gold 6126 @ 2.6 GHz,
    /// 32 KB L1D + 1 MB L2 per core, 19.25 MB LLC per socket,
    /// AVX-512, ~115 GB/s aggregate DRAM bandwidth.
    pub fn skylake_6126() -> MachineModel {
        MachineModel {
            name: "skylake-6126-2s".into(),
            threads: 24,
            freq_ghz: 2.6,
            l1_bytes: 32 << 10,
            l2_bytes: 1 << 20,
            llc_bytes: 2 * 19 * (1 << 20),
            dram_bw_gbs: 115.0,
            llc_bw_gbs: 600.0,
            cache_line: 64,
            scalar_cycles_per_nnz: 2.0,
            vector_cycles_per_step: 6.0,
            simd_cycles_per_step: 6.0,
            simd_lanes: 8,
            dyn_grab_ns: 40.0,
            single_thread_dram_fraction: 0.125,
            single_thread_llc_fraction: 0.1,
            scatter_write_factor: 4.0,
        }
    }

    /// The Skylake model with caches scaled so that the LLC-residency
    /// crossover of the input vector lands mid-sweep for a corpus whose
    /// largest matrices have `max_rows` rows — mirroring the paper,
    /// where the crossover sits at ~2^23 rows inside a 2^20–2^26 sweep.
    ///
    /// Scaling: the paper's LLC holds the input vector of a 2^22-row
    /// matrix comfortably (38.5 MB / 8 B ≈ 2^22.3); we preserve that
    /// ratio, i.e. `llc = max_rows/16 * 8` bytes, and scale L1/L2 by
    /// the same factor. Bandwidths and latencies are unchanged.
    pub fn scaled_for_rows(max_rows: usize) -> MachineModel {
        let paper = Self::skylake_6126();
        // Anchor the LLC so the input vector of a (max_rows / 4)-row
        // matrix just fits — the same relative crossover position as the
        // paper's 2^23 rows within its 2^20..2^26 sweep. L2/L1 keep a
        // sane hierarchy below it.
        let llc = (max_rows * 2).min(paper.llc_bytes).max(32 << 10);
        let l2 = (llc / 16).max(2 << 10).min(paper.l2_bytes);
        let l1 = (l2 / 8).max(512).min(paper.l1_bytes);
        MachineModel {
            name: format!("skylake-6126-scaled-{max_rows}rows"),
            l1_bytes: l1,
            l2_bytes: l2,
            llc_bytes: llc,
            ..paper
        }
    }

    /// Lines in the LLC (capacity used by the reuse-distance model).
    pub fn llc_lines(&self) -> usize {
        (self.llc_bytes / self.cache_line).max(1)
    }

    /// Lines in one core's L2.
    pub fn l2_lines(&self) -> usize {
        (self.l2_bytes / self.cache_line).max(1)
    }

    /// Lines in one core's L1D.
    pub fn l1_lines(&self) -> usize {
        (self.l1_bytes / self.cache_line).max(1)
    }

    /// Seconds for `cycles` on one core.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.freq_ghz * 1e9)
    }

    /// Seconds for *one thread* to move `bytes` from DRAM (used for
    /// per-chunk critical-path costs; the machine-wide bandwidth cap is
    /// applied separately).
    pub fn dram_seconds_single(&self, bytes: f64) -> f64 {
        bytes / (self.dram_bw_gbs * 1e9 * self.single_thread_dram_fraction)
    }

    /// Seconds for one thread to move `bytes` from the LLC.
    pub fn llc_seconds_single(&self, bytes: f64) -> f64 {
        bytes / (self.llc_bw_gbs * 1e9 * self.single_thread_llc_fraction)
    }

    /// Machine-wide lower bound: seconds to move `dram_bytes` +
    /// `llc_bytes` at full aggregate bandwidth (the roofline cap that
    /// binds when work is balanced).
    pub fn bandwidth_floor_seconds(&self, dram_bytes: f64, llc_bytes: f64) -> f64 {
        dram_bytes / (self.dram_bw_gbs * 1e9) + llc_bytes / (self.llc_bw_gbs * 1e9)
    }

    /// Lanes an explicit catalog width `v` models on this machine
    /// (0 = legacy auto-vectorized model, reported as 0 so callers can
    /// keep the calibrated pre-SIMD constants; otherwise clamped to the
    /// machine's vector width).
    pub fn modeled_lanes(&self, v: usize) -> usize {
        match v {
            0 => 0,
            _ => v.min(self.simd_lanes.max(1)),
        }
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        Self::skylake_6126()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_trace::export::json::{FromJson, ToJson};

    #[test]
    fn skylake_preset_sane() {
        let m = MachineModel::skylake_6126();
        assert_eq!(m.threads, 24);
        assert_eq!(m.llc_lines(), 2 * 19 * (1 << 20) / 64);
        assert!(m.cycles_to_seconds(2.6e9) - 1.0 < 1e-9);
    }

    #[test]
    fn scaling_preserves_crossover_ratio() {
        let m = MachineModel::scaled_for_rows(1 << 16);
        // LLC should hold the x of a 2^12-row matrix but not 2^16.
        assert!(m.llc_bytes >= (1 << 12) * 8, "llc={}", m.llc_bytes);
        assert!(m.llc_bytes < (1 << 16) * 8, "llc={}", m.llc_bytes);
        // Hierarchy ordering survives scaling.
        assert!(m.l1_bytes <= m.l2_bytes && m.l2_bytes <= m.llc_bytes);
    }

    #[test]
    fn scaling_at_paper_size_is_identity_like() {
        let m = MachineModel::scaled_for_rows(1 << 26);
        let p = MachineModel::skylake_6126();
        assert_eq!(m.llc_bytes, p.llc_bytes);
        assert_eq!(m.l2_bytes, p.l2_bytes);
    }

    #[test]
    fn simd_fields_default_for_pre_simd_json() {
        // Model files serialized before the simd fields existed must
        // deserialize to the preset values (parsing old JSON is how
        // saved experiments reload their machine description).
        let m = MachineModel::skylake_6126();
        let json = m.to_json();
        let stripped =
            json.replace(",\"simd_cycles_per_step\":6.0", "").replace(",\"simd_lanes\":8", "");
        assert_ne!(stripped, json, "test must actually strip the fields");
        assert_eq!(MachineModel::from_json_str(&stripped), Ok(m.clone()));
        // Files that still carry the removed `simd_gather_mlp` member
        // decode with it ignored.
        let old = json.replace("\"simd_lanes\":8", "\"simd_lanes\":8,\"simd_gather_mlp\":0.2");
        assert_ne!(old, json);
        assert_eq!(MachineModel::from_json_str(&old), Ok(m));
    }

    #[test]
    fn modeled_lanes_clamp_to_machine_width() {
        let m = MachineModel::skylake_6126();
        assert_eq!(m.modeled_lanes(0), 0, "0 = legacy model, not widest");
        assert_eq!(m.modeled_lanes(1), 1);
        assert_eq!(m.modeled_lanes(4), 4);
        assert_eq!(m.modeled_lanes(8), 8);
        assert_eq!(m.modeled_lanes(16), 8, "capped at simd_lanes");
    }

    #[test]
    fn single_thread_bandwidth_between_fair_share_and_full() {
        let m = MachineModel::skylake_6126();
        let single = m.dram_seconds_single(1e9);
        let full = m.bandwidth_floor_seconds(1e9, 0.0);
        // One core is slower than the whole machine but much faster
        // than a 1/24 fair share.
        assert!(single > full);
        assert!(single < full * m.threads as f64);
        // LLC floor adds on top of DRAM floor.
        assert!(m.bandwidth_floor_seconds(1e9, 1e9) > full);
    }
}
