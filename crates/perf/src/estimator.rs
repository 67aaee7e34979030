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
use wise_kernels::method::MethodConfig;
use wise_kernels::srvpack::SpmvWorkspace;
use wise_kernels::timing::{measure_median, measure_once};
use wise_matrix::Csr;

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
}
