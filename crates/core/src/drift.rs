//! Prediction-drift monitor: windowed EWMAs over the cascade's
//! execution feedback that classify the deployed model's health into an
//! explicit [`DriftStatus`] (ISSUE 10's third tentpole leg).
//!
//! Two signals are tracked, both fed by
//! [`observe_execution`](crate::cascade::observe_execution):
//!
//! * **Regret** — the measured/predicted per-iteration time ratio of
//!   stage-1 answers. A healthy roofline prediction hovers near 1.0;
//!   a sustained climb means the machine model (and therefore the
//!   gate's veto and the training labels) no longer describes the
//!   hardware or the workload.
//! * **Fallthrough** — the fraction of cascaded selections that fell
//!   through to stage 2. The gate was calibrated to accept a known
//!   fraction of the *training* distribution; a collapse toward
//!   all-fallthrough means the incoming matrices look nothing like
//!   what the gate was calibrated on (feature drift), even when every
//!   answer is still correct.
//!
//! Both are exponentially-weighted moving averages over the last
//! [`DRIFT_WINDOW`] observations (α = 2/(window+1)), so the status
//! recovers once the workload normalizes — this is a *drift* monitor,
//! not a lifetime average. Nothing leaves [`DriftStatus::Stable`]
//! before [`DRIFT_MIN_OBSERVATIONS`] samples.
//!
//! Every observation is mirrored into the trace stream
//! (`drift.regret` permille samples, `drift.fallthrough` counter) and
//! into [`wise_trace::telemetry::set_drift_gauge`], which is how the
//! run report, `metrics_snapshot.json` and the benchmark ledger see
//! the current status without depending on this crate.

use crate::cascade::CascadeStage;
use crate::pipeline::Choice;
use std::sync::Mutex;
use wise_trace::telemetry::{self, DriftRecord};

/// EWMA window, in observations.
pub const DRIFT_WINDOW: u64 = 64;

/// Observations before the monitor may leave [`DriftStatus::Stable`].
pub const DRIFT_MIN_OBSERVATIONS: u64 = 16;

/// Regret-EWMA level that raises [`DriftStatus::Warning`]: stage-1
/// predictions running 1.5× slow on average.
pub const REGRET_WARNING: f64 = 1.5;

/// Regret-EWMA level that suggests retraining.
pub const REGRET_RETRAIN: f64 = 2.5;

/// Fallthrough-rate EWMA that raises [`DriftStatus::Warning`].
pub const FALLTHROUGH_WARNING: f64 = 0.5;

/// Fallthrough-rate EWMA that suggests retraining: the calibrated gate
/// has effectively stopped firing.
pub const FALLTHROUGH_RETRAIN: f64 = 0.8;

/// The monitor's verdict on the deployed model: the trace crate's
/// drift level, whose labels (`stable`, `warning`, `retrain-suggested`)
/// are its encoding in every export.
pub use wise_trace::telemetry::DriftLevel as DriftStatus;

/// A point-in-time copy of the monitor's state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftStats {
    pub status: DriftStatus,
    /// EWMA of measured/predicted stage-1 time (1.0 = exact); `None`
    /// before the first stage-1 observation with a prediction.
    pub regret_ewma: Option<f64>,
    /// EWMA of the stage-2 fallthrough indicator over cascaded
    /// selections; `None` before the first cascaded observation.
    pub fallthrough_ewma: Option<f64>,
    /// Total executions observed (cascaded or not).
    pub observed: u64,
}

#[derive(Default)]
struct DriftState {
    regret: Option<f64>,
    fallthrough: Option<f64>,
    observed: u64,
}

impl DriftState {
    fn status(&self) -> DriftStatus {
        if self.observed < DRIFT_MIN_OBSERVATIONS {
            return DriftStatus::Stable;
        }
        let mut status = DriftStatus::Stable;
        if let Some(r) = self.regret {
            if r >= REGRET_RETRAIN {
                status = status.max(DriftStatus::RetrainSuggested);
            } else if r >= REGRET_WARNING {
                status = status.max(DriftStatus::Warning);
            }
        }
        if let Some(f) = self.fallthrough {
            if f >= FALLTHROUGH_RETRAIN {
                status = status.max(DriftStatus::RetrainSuggested);
            } else if f >= FALLTHROUGH_WARNING {
                status = status.max(DriftStatus::Warning);
            }
        }
        status
    }

    fn snapshot(&self) -> DriftRecord {
        DriftRecord {
            status: self.status(),
            regret_permille: self
                .regret
                .map_or(0, |r| (r * 1000.0).round().clamp(0.0, 1e12) as u64),
            fallthrough_permille: self
                .fallthrough
                .map_or(0, |f| (f * 1000.0).round().clamp(0.0, 1000.0) as u64),
            observed: self.observed,
        }
    }
}

static STATE: Mutex<DriftState> =
    Mutex::new(DriftState { regret: None, fallthrough: None, observed: 0 });

fn lock() -> std::sync::MutexGuard<'static, DriftState> {
    STATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn ewma(prev: Option<f64>, sample: f64) -> f64 {
    const ALPHA: f64 = 2.0 / (DRIFT_WINDOW as f64 + 1.0);
    match prev {
        Some(p) => p + ALPHA * (sample - p),
        None => sample,
    }
}

/// Feeds one measured execution into the monitor. Called by
/// [`crate::cascade::observe_execution`]; callers integrating the
/// pipeline by hand can also call it directly.
pub fn observe_choice(choice: &Choice, measured_seconds: f64) {
    let mut st = lock();
    st.observed += 1;
    if let Some(info) = &choice.cascade {
        let fell_through = info.stage == CascadeStage::Stage2;
        st.fallthrough = Some(ewma(st.fallthrough, fell_through as u64 as f64));
        if fell_through {
            wise_trace::counter("drift.fallthrough", 1);
        }
        if info.stage == CascadeStage::Stage1 {
            if let Some(predicted) = info.predicted_seconds {
                if measured_seconds > 0.0 && predicted > 0.0 {
                    let ratio = measured_seconds / predicted;
                    st.regret = Some(ewma(st.regret, ratio));
                    let permille = (ratio * 1000.0).round().clamp(0.0, 1e12) as u64;
                    wise_trace::observe("drift.regret", permille);
                }
            }
        }
    }
    telemetry::set_drift_gauge(st.snapshot());
}

/// The monitor's current verdict.
pub fn status() -> DriftStatus {
    lock().status()
}

/// A copy of the full monitor state.
pub fn stats() -> DriftStats {
    let st = lock();
    DriftStats {
        status: st.status(),
        regret_ewma: st.regret,
        fallthrough_ewma: st.fallthrough,
        observed: st.observed,
    }
}

/// Clears the monitor (tests, benchmark stages) and resets the
/// telemetry gauge to match.
pub fn reset() {
    let mut st = lock();
    *st = DriftState::default();
    telemetry::set_drift_gauge(st.snapshot());
}

/// Serializes unit tests (in this crate) that touch the process-global
/// monitor state; `observe_execution` feeds it from any test that runs
/// the selection loop.
#[cfg(test)]
pub(crate) fn monitor_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::{CascadeInfo, FallthroughReason};
    use crate::classes::SpeedupClass;

    fn lock_tests() -> std::sync::MutexGuard<'static, ()> {
        monitor_test_lock()
    }

    fn choice_with(cascade: Option<CascadeInfo>) -> Choice {
        let catalog = wise_kernels::method::MethodConfig::catalog();
        Choice {
            config: catalog[0],
            index: 0,
            predictions: vec![SpeedupClass::C1; catalog.len()],
            features: wise_features::FeatureVector::from_values(vec![
                0.0;
                wise_features::N_FEATURES
            ]),
            timing: Default::default(),
            decision_paths: Vec::new(),
            cascade,
            request_id: 0,
        }
    }

    fn stage1(predicted: f64) -> Choice {
        choice_with(Some(CascadeInfo {
            stage: CascadeStage::Stage1,
            margin: 2.0,
            threshold: Some(0.5),
            fallthrough: None,
            predicted_seconds: Some(predicted),
        }))
    }

    fn stage2() -> Choice {
        choice_with(Some(CascadeInfo {
            stage: CascadeStage::Stage2,
            margin: 0.1,
            threshold: Some(0.5),
            fallthrough: Some(FallthroughReason::LowMargin),
            predicted_seconds: None,
        }))
    }

    #[test]
    fn stays_stable_below_min_observations_then_flags_regret() {
        let _g = lock_tests();
        reset();
        // Wildly slow executions, but fewer than the arming minimum.
        for _ in 0..DRIFT_MIN_OBSERVATIONS - 1 {
            observe_choice(&stage1(1e-3), 10e-3);
        }
        assert_eq!(status(), DriftStatus::Stable);
        // Crossing the minimum with a 10x regret EWMA suggests retrain.
        observe_choice(&stage1(1e-3), 10e-3);
        assert_eq!(status(), DriftStatus::RetrainSuggested);
        let s = stats();
        assert!(s.regret_ewma.unwrap() > REGRET_RETRAIN, "{s:?}");
        assert_eq!(s.observed, DRIFT_MIN_OBSERVATIONS);
        reset();
    }

    #[test]
    fn accurate_predictions_stay_stable_and_recover() {
        let _g = lock_tests();
        reset();
        for _ in 0..DRIFT_MIN_OBSERVATIONS {
            observe_choice(&stage1(1e-3), 1e-3);
        }
        assert_eq!(status(), DriftStatus::Stable);
        // A burst of 2x-slow samples lifts the EWMA into warning...
        for _ in 0..DRIFT_WINDOW {
            observe_choice(&stage1(1e-3), 2e-3);
        }
        assert_eq!(status(), DriftStatus::Warning);
        // ...and a long accurate stretch decays it back to stable.
        for _ in 0..4 * DRIFT_WINDOW {
            observe_choice(&stage1(1e-3), 1e-3);
        }
        assert_eq!(status(), DriftStatus::Stable);
        reset();
    }

    #[test]
    fn all_fallthrough_suggests_retraining_and_feeds_the_gauge() {
        let _g = lock_tests();
        reset();
        for _ in 0..2 * DRIFT_WINDOW {
            observe_choice(&stage2(), 1e-3);
        }
        assert_eq!(status(), DriftStatus::RetrainSuggested);
        let s = stats();
        assert!(s.fallthrough_ewma.unwrap() > FALLTHROUGH_RETRAIN, "{s:?}");
        assert_eq!(s.regret_ewma, None);
        // The trace-side gauge mirrors the monitor.
        let gauge = telemetry::drift_gauge();
        assert_eq!(gauge.status, DriftStatus::RetrainSuggested);
        assert_eq!(gauge.observed, s.observed);
        assert!(gauge.fallthrough_permille > 800, "{gauge:?}");
        reset();
        assert_eq!(telemetry::drift_gauge().observed, 0);
    }

    #[test]
    fn non_cascaded_choices_count_but_move_no_signal() {
        let _g = lock_tests();
        reset();
        for _ in 0..2 * DRIFT_MIN_OBSERVATIONS {
            observe_choice(&choice_with(None), 1e-3);
        }
        let s = stats();
        assert_eq!(s.status, DriftStatus::Stable);
        assert_eq!(s.regret_ewma, None);
        assert_eq!(s.fallthrough_ewma, None);
        assert_eq!(s.observed, 2 * DRIFT_MIN_OBSERVATIONS);
        reset();
    }
}
