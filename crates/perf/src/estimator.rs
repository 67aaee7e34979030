//! The label backend: modeled or measured execution times behind one
//! interface.
//!
//! Everything downstream (training labels, figure harnesses, the WISE
//! selection pipeline) asks an [`Estimator`] for seconds. The default
//! is the deterministic machine model; setting `WISE_MEASURED=1`
//! switches to wall-clock measurement on the host (useful on real
//! multicore hardware to validate the model's orderings).

use crate::cost::{
    auto_sample_shift, estimate_catalog, estimate_csr_baseline,
    estimate_feature_extraction_seconds, estimate_preprocessing_seconds, estimate_spmv_seconds,
};
use crate::machine::MachineModel;
use wise_features::ProbeFeatures;
use wise_kernels::method::MethodConfig;
use wise_kernels::srvpack::SpmvWorkspace;
use wise_kernels::timing::{measure_median, measure_once};
use wise_matrix::Csr;

/// Closed-form roofline bounds computed from the stage-1 probe alone —
/// no format conversion, no LRU reuse simulation; O(1) given the
/// probe. Used by `wise_core::cascade` as a sanity veto: a stage-1
/// class whose representative speedup exceeds `max_plausible_speedup`
/// is physically implausible on the modeled machine, so the cascade
/// falls through to the full pipeline instead of trusting it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuickBounds {
    /// Pessimistic-reuse CSR estimate: issue-bound compute vs DRAM
    /// traffic with input-vector reuse discounted by the probe's
    /// bandwidth proxy (scattered columns ⇒ near one load per nnz).
    pub csr_seconds: f64,
    /// Compulsory-traffic lower bound for *any* catalog method: vector
    /// compute vs matrix + output + one-pass input traffic.
    pub best_seconds: f64,
    /// Largest speedup over CSR any method could plausibly reach,
    /// `csr_seconds / best_seconds` with 25% slack, clamped ≥ 1 (CSR
    /// itself is always available).
    pub max_plausible_speedup: f64,
}

/// Execution-time backend.
#[derive(Debug, Clone)]
pub enum Estimator {
    /// Deterministic cost model of a target machine.
    Model {
        machine: MachineModel,
        /// Reuse-distance sampling shift; `None` = auto per matrix.
        sample_shift: Option<u32>,
    },
    /// Wall-clock measurement on the host.
    Measured { nthreads: usize, warmup: usize, iters: usize },
}

impl Estimator {
    /// The default model backend scaled for a corpus whose largest
    /// matrices have `max_rows` rows.
    pub fn model_for_rows(max_rows: usize) -> Estimator {
        Estimator::Model { machine: MachineModel::scaled_for_rows(max_rows), sample_shift: None }
    }

    /// Chooses the backend from the environment: `WISE_MEASURED=1`
    /// selects wall-clock measurement, anything else the model.
    pub fn from_env(max_rows: usize) -> Estimator {
        if std::env::var("WISE_MEASURED").map(|v| v == "1").unwrap_or(false) {
            Estimator::Measured {
                nthreads: wise_kernels::sched::default_threads(),
                warmup: 2,
                iters: 5,
            }
        } else {
            Estimator::model_for_rows(max_rows)
        }
    }

    /// The machine being modeled, if any.
    pub fn machine(&self) -> Option<&MachineModel> {
        match self {
            Estimator::Model { machine, .. } => Some(machine),
            Estimator::Measured { .. } => None,
        }
    }

    /// Roofline bounds from a stage-1 probe — model backend only
    /// (`None` for the measured backend, which has no machine to
    /// reason about, and for empty matrices, where any bound is
    /// vacuous).
    pub fn quick_bounds(&self, probe: &ProbeFeatures) -> Option<QuickBounds> {
        let Estimator::Model { machine, .. } = self else { return None };
        if probe.nnz == 0 {
            return None;
        }
        let (nnz, nrows, ncols) = (probe.nnz as f64, probe.n_rows as f64, probe.n_cols as f64);
        let cycles_per_sec = machine.threads as f64 * machine.freq_ghz * 1e9;
        let t_scalar = nnz * machine.scalar_cycles_per_nnz / cycles_per_sec;
        let lanes = machine.simd_lanes.max(1) as f64;
        let t_vector = nnz / lanes * machine.simd_cycles_per_step / cycles_per_sec;

        // CSR traffic: 8B value + 4B index per nonzero, row pointers,
        // output writes, and input-vector loads. Compulsory x traffic
        // is one pass (ncols · 8B); the pessimistic CSR estimate moves
        // toward one load per nonzero as the bandwidth proxy says
        // columns scatter away from the diagonal.
        let mat_bytes = nnz * 12.0 + (nrows + 1.0) * 8.0;
        let y_bytes = nrows * 8.0;
        let x_once = ncols * 8.0;
        let reuse_penalty = probe.bandwidth_frac.clamp(0.0, 1.0);
        let x_pessimistic = x_once + (nnz * 8.0 - x_once).max(0.0) * reuse_penalty;
        let bw = machine.dram_bw_gbs * 1e9;

        let csr_seconds = t_scalar.max((mat_bytes + y_bytes + x_pessimistic) / bw);
        let best_seconds = t_vector.max((mat_bytes + y_bytes + x_once) / bw).max(1e-15);
        let max_plausible_speedup = (csr_seconds / best_seconds * 1.25).max(1.0);
        Some(QuickBounds { csr_seconds, best_seconds, max_plausible_speedup })
    }

    /// Seconds for one SpMV of `cfg` on `m`.
    pub fn spmv_seconds(&self, m: &Csr, cfg: &MethodConfig) -> f64 {
        let _span = wise_trace::span("estimate.spmv");
        match self {
            Estimator::Model { machine, sample_shift } => {
                let shift = sample_shift.unwrap_or_else(|| auto_sample_shift(m.nnz()));
                estimate_spmv_seconds(m, cfg, machine, shift).seconds
            }
            Estimator::Measured { nthreads, warmup, iters } => {
                measure_spmv(m, cfg, *nthreads, *warmup, *iters)
            }
        }
    }

    /// `(steady-state, cold first-iteration)` seconds for every config
    /// in `cfgs`, in order — the one way to estimate many configs. The
    /// cold half is what a trial-executing inspector-executor measures.
    /// The model shares one conversion and one reuse pass per packed
    /// layout ([`estimate_catalog`]); the measured backend times each
    /// config warm, then once cold on a fresh conversion.
    pub fn catalog_costs(&self, m: &Csr, cfgs: &[MethodConfig]) -> Vec<(f64, f64)> {
        let _span = wise_trace::span("estimate.catalog");
        match self {
            Estimator::Model { machine, sample_shift } => {
                let shift = sample_shift.unwrap_or_else(|| auto_sample_shift(m.nnz()));
                estimate_catalog(m, cfgs, machine, shift)
                    .into_iter()
                    .map(|(steady, cold)| (steady.seconds, cold.seconds))
                    .collect()
            }
            // Cold: no warmup, a genuinely cold-ish single run.
            Estimator::Measured { nthreads, .. } => cfgs
                .iter()
                .map(|cfg| (self.spmv_seconds(m, cfg), measure_spmv(m, cfg, *nthreads, 0, 1)))
                .collect(),
        }
    }

    /// Best steady-state seconds over the CSR configs `csr_cfgs`: the
    /// baseline [`crate::cost::estimate_csr_baseline`] prices for the
    /// amortized pick. The model replays the column stream in full up
    /// to [`crate::cost::BASELINE_FULL_REPLAY`] accesses (bit-identical
    /// to the best CSR steady state of [`Self::catalog_costs`]) and
    /// through fixed windows beyond; the measured backend times every
    /// config as [`Self::catalog_costs`] does.
    pub fn csr_baseline_seconds(&self, m: &Csr, csr_cfgs: &[MethodConfig]) -> f64 {
        match self {
            Estimator::Model { machine, sample_shift } => {
                let shift = sample_shift.unwrap_or_else(|| auto_sample_shift(m.nnz()));
                estimate_csr_baseline(m, csr_cfgs, machine, shift)
            }
            Estimator::Measured { .. } => self
                .catalog_costs(m, csr_cfgs)
                .into_iter()
                .map(|(steady, _)| steady)
                .fold(f64::MAX, f64::min),
        }
    }

    /// Seconds to extract the WISE feature vector from `m`.
    pub fn feature_extraction_seconds(&self, m: &Csr) -> f64 {
        let _span = wise_trace::span("estimate.features");
        match self {
            Estimator::Model { machine, .. } => estimate_feature_extraction_seconds(m, machine),
            Estimator::Measured { .. } => {
                let cfg = wise_features::FeatureConfig::default();
                let (_f, d) = measure_once(|| wise_features::FeatureVector::extract(m, &cfg));
                d.as_secs_f64()
            }
        }
    }

    /// Seconds of preprocessing (format conversion) for `cfg` on `m`.
    pub fn preprocessing_seconds(&self, m: &Csr, cfg: &MethodConfig) -> f64 {
        let _span = wise_trace::span("estimate.preproc");
        match self {
            Estimator::Model { machine, .. } => estimate_preprocessing_seconds(m, cfg, machine),
            Estimator::Measured { .. } => {
                let (_prep, d) = measure_once(|| cfg.prepare(m));
                d.as_secs_f64()
            }
        }
    }

    /// Seconds per `{config}` for the whole catalog, in catalog order.
    pub fn time_catalog(&self, m: &Csr) -> Vec<(MethodConfig, f64)> {
        let catalog = MethodConfig::catalog();
        let costs = self.catalog_costs(m, &catalog);
        catalog.into_iter().zip(costs).map(|(cfg, (steady, _))| (cfg, steady)).collect()
    }
}

/// Median wall-clock seconds of `cfg`'s SpMV on a fresh conversion.
fn measure_spmv(m: &Csr, cfg: &MethodConfig, nthreads: usize, warmup: usize, iters: usize) -> f64 {
    let prep = cfg.prepare(m);
    let x = vec![1.0f64; m.ncols()];
    let mut y = vec![0.0f64; m.nrows()];
    let mut ws = SpmvWorkspace::default();
    measure_median(|| prep.spmv(&x, &mut y, nthreads, &mut ws), warmup, iters).median.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_gen::RmatParams;
    use wise_kernels::Schedule;

    #[test]
    fn model_backend_is_deterministic() {
        let m = RmatParams::LOW_LOC.generate(9, 8, 3);
        let e = Estimator::model_for_rows(1 << 9);
        let cfg = MethodConfig::sellpack(8, Schedule::Dyn);
        assert_eq!(e.spmv_seconds(&m, &cfg), e.spmv_seconds(&m, &cfg));
    }

    #[test]
    fn measured_backend_runs() {
        let m = RmatParams::LOW_LOC.generate(8, 4, 3);
        let e = Estimator::Measured { nthreads: 1, warmup: 0, iters: 1 };
        let t = e.spmv_seconds(&m, &MethodConfig::csr(Schedule::StCont));
        assert!(t > 0.0);
        let p = e.preprocessing_seconds(&m, &MethodConfig::lav(8, 0.7));
        assert!(p > 0.0);
    }

    #[test]
    fn catalog_timing_covers_all() {
        let m = RmatParams::MED_SKEW.generate(8, 4, 5);
        let e = Estimator::model_for_rows(1 << 8);
        let all = e.time_catalog(&m);
        assert_eq!(all.len(), 29);
        assert!(all.iter().all(|(_, t)| *t > 0.0));
    }

    #[test]
    fn csr_preprocessing_is_free_in_model() {
        let m = RmatParams::MED_SKEW.generate(8, 4, 5);
        let e = Estimator::model_for_rows(1 << 8);
        assert_eq!(e.preprocessing_seconds(&m, &MethodConfig::csr(Schedule::Dyn)), 0.0);
    }

    #[test]
    fn quick_bounds_sane_and_deterministic() {
        use wise_features::ProbeFeatures;
        let m = RmatParams::MED_SKEW.generate(9, 8, 5);
        let e = Estimator::model_for_rows(1 << 9);
        let probe = ProbeFeatures::extract(&m);
        let b = e.quick_bounds(&probe).unwrap();
        assert!(b.csr_seconds > 0.0 && b.best_seconds > 0.0);
        assert!(b.csr_seconds >= b.best_seconds * 0.999, "{b:?}");
        assert!(b.max_plausible_speedup >= 1.0);
        assert_eq!(e.quick_bounds(&probe), Some(b));
    }

    #[test]
    fn quick_bounds_rewards_diagonal_locality() {
        use wise_features::ProbeFeatures;
        let e = Estimator::model_for_rows(1 << 10);
        let banded = ProbeFeatures::extract(&wise_gen::suite::banded(1024, 4, 1.0, 0));
        let scattered = ProbeFeatures::extract(&RmatParams::LOW_LOC.generate(10, 4, 2));
        let bb = e.quick_bounds(&banded).unwrap();
        let bs = e.quick_bounds(&scattered).unwrap();
        // Scattered columns pay more pessimistic x traffic relative to
        // their compulsory bound, so more headroom is plausible there.
        assert!(bs.max_plausible_speedup >= bb.max_plausible_speedup, "{bs:?} vs {bb:?}");
    }

    #[test]
    fn quick_bounds_absent_for_measured_and_empty() {
        use wise_features::ProbeFeatures;
        let m = RmatParams::LOW_LOC.generate(8, 4, 3);
        let probe = ProbeFeatures::extract(&m);
        let measured = Estimator::Measured { nthreads: 1, warmup: 0, iters: 1 };
        assert_eq!(measured.quick_bounds(&probe), None);
        let empty = ProbeFeatures::extract(&wise_matrix::Csr::zero(16, 16));
        let model = Estimator::model_for_rows(1 << 8);
        assert_eq!(model.quick_bounds(&empty), None);
    }
}
