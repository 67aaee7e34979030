//! Calibration of the machine model against host measurements.
//!
//! The cost model's *relative* structure (who wins, by what factor) is
//! what the WISE experiments need, but users running on real hardware
//! may also want absolute predictions. Calibration measures a probe set
//! of `{matrix, config}` pairs on the host and fits a single time-scale
//! factor `α` minimizing the squared error between `α · modeled` and
//! measured seconds — preserving every relative relationship while
//! anchoring the absolute scale. (A full per-parameter fit would risk
//! overfitting the handful of probes; one global factor cannot.)

use crate::cost::{auto_sample_shift, estimate_spmv_seconds};
use crate::machine::MachineModel;
use wise_kernels::method::MethodConfig;
use wise_kernels::srvpack::SpmvWorkspace;
use wise_kernels::timing::measure_median;
use wise_matrix::Csr;

/// Outcome of a calibration run.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Fitted time-scale factor (measured ≈ α · modeled).
    pub alpha: f64,
    /// `(modeled, measured)` seconds per probe.
    pub probes: Vec<(f64, f64)>,
    /// Root-mean-square relative error after scaling.
    pub rms_rel_error: f64,
}

/// Least-squares fit of `measured ≈ α · modeled`:
/// `α = Σ m·t / Σ m²`. Panics on an empty or all-zero input.
pub fn fit_time_scale(pairs: &[(f64, f64)]) -> f64 {
    let num: f64 = pairs.iter().map(|&(m, t)| m * t).sum();
    let den: f64 = pairs.iter().map(|&(m, _)| m * m).sum();
    assert!(den > 0.0, "calibration needs non-zero modeled times");
    num / den
}

/// Applies a time-scale factor to a machine: all times produced by the
/// model scale by `alpha` (frequency and bandwidths divide by it).
pub fn scale_machine_time(machine: &MachineModel, alpha: f64) -> MachineModel {
    assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive, got {alpha}");
    MachineModel {
        name: format!("{}-calibrated", machine.name),
        freq_ghz: machine.freq_ghz / alpha,
        dram_bw_gbs: machine.dram_bw_gbs / alpha,
        llc_bw_gbs: machine.llc_bw_gbs / alpha,
        dyn_grab_ns: machine.dyn_grab_ns * alpha,
        ..machine.clone()
    }
}

/// Measures each probe on the host (`nthreads` workers, median of
/// `iters` timed runs) and returns the calibrated machine plus the fit
/// report.
pub fn calibrate_to_host(
    machine: &MachineModel,
    probes: &[(&Csr, MethodConfig)],
    nthreads: usize,
    iters: usize,
) -> (MachineModel, CalibrationReport) {
    assert!(!probes.is_empty(), "calibration needs at least one probe");
    let mut pairs = Vec::with_capacity(probes.len());
    for (m, cfg) in probes {
        let shift = auto_sample_shift(m.nnz());
        let modeled = estimate_spmv_seconds(m, cfg, machine, shift).seconds;
        let prep = cfg.prepare(m);
        let x = vec![1.0f64; m.ncols()];
        let mut y = vec![0.0f64; m.nrows()];
        let mut ws = SpmvWorkspace::default();
        let measured = measure_median(|| prep.spmv(&x, &mut y, nthreads, &mut ws), 1, iters)
            .median
            .as_secs_f64();
        pairs.push((modeled, measured));
    }
    let alpha = fit_time_scale(&pairs);
    let rms_rel_error = (pairs
        .iter()
        .map(|&(m, t)| {
            let e = (alpha * m - t) / t.max(1e-12);
            e * e
        })
        .sum::<f64>()
        / pairs.len() as f64)
        .sqrt();
    (scale_machine_time(machine, alpha), CalibrationReport { alpha, probes: pairs, rms_rel_error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_gen::RmatParams;
    use wise_kernels::Schedule;

    #[test]
    fn fit_recovers_known_scale() {
        let pairs: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((fit_time_scale(&pairs) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fit_is_least_squares_not_mean_of_ratios() {
        // One noisy point should be weighted by magnitude.
        let pairs = vec![(1.0, 2.0), (10.0, 20.0), (0.001, 1.0)];
        let alpha = fit_time_scale(&pairs);
        assert!((alpha - 2.0).abs() < 0.02, "alpha {alpha}");
    }

    #[test]
    #[should_panic(expected = "non-zero modeled")]
    fn fit_rejects_degenerate_input() {
        fit_time_scale(&[(0.0, 1.0)]);
    }

    #[test]
    fn scaling_machine_scales_model_output_linearly() {
        let m = RmatParams::MED_SKEW.generate(9, 8, 1);
        let machine = MachineModel::scaled_for_rows(1 << 9);
        let cfg = MethodConfig::csr(Schedule::Dyn);
        let base = estimate_spmv_seconds(&m, &cfg, &machine, 0).seconds;
        let scaled = scale_machine_time(&machine, 2.5);
        let doubled = estimate_spmv_seconds(&m, &cfg, &scaled, 0).seconds;
        let ratio = doubled / base;
        assert!((ratio - 2.5).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn calibrate_to_host_runs_and_reduces_scale_error() {
        let m1 = RmatParams::MED_SKEW.generate(10, 8, 2);
        let m2 = RmatParams::LOW_LOC.generate(10, 4, 3);
        let machine = MachineModel::scaled_for_rows(1 << 10);
        let probes = vec![
            (&m1, MethodConfig::csr(Schedule::StCont)),
            (&m2, MethodConfig::sellpack(8, Schedule::Dyn)),
        ];
        let (calibrated, report) = calibrate_to_host(&machine, &probes, 1, 3);
        assert!(report.alpha > 0.0 && report.alpha.is_finite());
        assert_eq!(report.probes.len(), 2);
        // After calibration the modeled times match measurements at
        // least in aggregate scale.
        let total_modeled: f64 = report.probes.iter().map(|&(m, _)| m * report.alpha).sum();
        let total_measured: f64 = report.probes.iter().map(|&(_, t)| t).sum();
        assert!(
            (total_modeled / total_measured - 1.0).abs() < 0.5,
            "aggregate scale off: {total_modeled} vs {total_measured}"
        );
        assert!(calibrated.freq_ghz > 0.0);
    }
}

/// Spearman rank correlation between two equal-length samples —
/// the model-validation metric: we claim the model orders
/// configurations like the hardware does, not that it predicts
/// absolute times.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "samples must align");
    assert!(a.len() >= 2, "need at least two points");
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&x, &y| v[x].total_cmp(&v[y]));
        let mut ranks = vec![0.0; v.len()];
        let mut i = 0;
        while i < idx.len() {
            // Average ranks over ties.
            let mut j = i;
            while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0;
            for &k in &idx[i..=j] {
                ranks[k] = avg;
            }
            i = j + 1;
        }
        ranks
    };
    let ra = rank(a);
    let rb = rank(b);
    let n = a.len() as f64;
    let mean = (n - 1.0) / 2.0;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - mean) * (y - mean);
        va += (x - mean) * (x - mean);
        vb += (y - mean) * (y - mean);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod spearman_tests {
    use super::*;

    #[test]
    fn perfect_monotone_is_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 300.0, 4000.0]; // nonlinear but monotone
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversed_is_minus_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [9.0, 5.0, 1.0];
        assert!((spearman(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ties_are_averaged() {
        let a = [1.0, 1.0, 2.0];
        let b = [5.0, 5.0, 9.0];
        let r = spearman(&a, &b);
        assert!(r > 0.99, "tied monotone data: {r}");
    }

    #[test]
    fn constant_series_is_zero() {
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }
}
