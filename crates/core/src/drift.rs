//! Execution feedback: [`observe_execution`] hands one measured
//! execution of a [`Choice`] to the request monitor in
//! [`wise_trace::telemetry`] — one call under one lock. The monitor
//! fills in the request's flight record and folds the sample into its
//! regret and fallthrough EWMAs. [`telemetry::drift_gauge`] reads them
//! as a [`telemetry::DriftLevel`] plus permille levels; the run report,
//! `metrics_snapshot.json` and the benchmark ledger carry that reading.

use crate::pipeline::Choice;
use wise_trace::telemetry;

/// Feeds one measured execution of `choice` back into the request
/// monitor: its flight record (by `choice.request_id`) and the drift
/// EWMAs. Callers integrating the pipeline by hand call it after
/// timing the chosen kernel.
pub fn observe_execution(choice: &Choice, measured_seconds: f64) {
    telemetry::record_execution(
        choice.request_id,
        choice.stage_label(),
        choice.cascade.and_then(|info| info.predicted_seconds),
        measured_seconds,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::{CascadeInfo, CascadeStage, FallthroughReason};
    use crate::classes::SpeedupClass;
    use std::sync::Mutex;
    use telemetry::{drift_gauge, flight_reset, DriftLevel, DRIFT_MIN_OBSERVATIONS, DRIFT_WINDOW};

    /// Serializes the tests that reset and fill the process-global
    /// monitor.
    fn lock_tests() -> std::sync::MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
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
        flight_reset();
        // Wildly slow executions, but fewer than the arming minimum.
        for _ in 0..DRIFT_MIN_OBSERVATIONS - 1 {
            observe_execution(&stage1(1e-3), 10e-3);
        }
        assert_eq!(drift_gauge().status, DriftLevel::Stable);
        // Crossing the minimum with a 10x regret EWMA suggests retrain.
        observe_execution(&stage1(1e-3), 10e-3);
        assert_eq!(drift_gauge().status, DriftLevel::RetrainSuggested);
        let s = drift_gauge();
        assert!(s.regret_permille > 2500, "{s:?}");
        assert_eq!(s.observed, DRIFT_MIN_OBSERVATIONS);
        flight_reset();
    }

    #[test]
    fn accurate_predictions_stay_stable_and_recover() {
        let _g = lock_tests();
        flight_reset();
        for _ in 0..DRIFT_MIN_OBSERVATIONS {
            observe_execution(&stage1(1e-3), 1e-3);
        }
        assert_eq!(drift_gauge().status, DriftLevel::Stable);
        // A burst of 2x-slow samples lifts the EWMA into warning...
        for _ in 0..DRIFT_WINDOW {
            observe_execution(&stage1(1e-3), 2e-3);
        }
        assert_eq!(drift_gauge().status, DriftLevel::Warning);
        // ...and a long accurate stretch decays it back to stable.
        for _ in 0..4 * DRIFT_WINDOW {
            observe_execution(&stage1(1e-3), 1e-3);
        }
        assert_eq!(drift_gauge().status, DriftLevel::Stable);
        flight_reset();
    }

    #[test]
    fn all_fallthrough_suggests_retraining_and_feeds_the_gauge() {
        let _g = lock_tests();
        flight_reset();
        for _ in 0..2 * DRIFT_WINDOW {
            observe_execution(&stage2(), 1e-3);
        }
        assert_eq!(drift_gauge().status, DriftLevel::RetrainSuggested);
        let s = drift_gauge();
        assert!(s.fallthrough_permille > 800, "{s:?}");
        assert_eq!(s.regret_permille, 0);
        assert_eq!(s.observed, 2 * DRIFT_WINDOW);
        // A reset clears the whole monitor.
        flight_reset();
        assert_eq!(drift_gauge().observed, 0);
    }

    #[test]
    fn non_cascaded_choices_count_but_move_no_signal() {
        let _g = lock_tests();
        flight_reset();
        for _ in 0..2 * DRIFT_MIN_OBSERVATIONS {
            observe_execution(&choice_with(None), 1e-3);
        }
        let s = drift_gauge();
        assert_eq!(s.status, DriftLevel::Stable);
        assert_eq!(s.regret_permille, 0);
        assert_eq!(s.fallthrough_permille, 0);
        assert_eq!(s.observed, 2 * DRIFT_MIN_OBSERVATIONS);
        flight_reset();
    }
}
