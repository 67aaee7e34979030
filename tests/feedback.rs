//! The execution-feedback loop, pinned end to end: a fixed sequence of
//! measured executions fed through `wise_core::observe_execution` must
//! leave the drift reading (status, regret and fallthrough permille,
//! observed count) at exact values after each phase, and a top-level
//! selection's flight-recorder record must get its measured seconds
//! back.
//!
//! Everything runs in one test: the drift monitor is process-global and
//! this binary starts it cold, so the readings are absolute.

use wise_core::cascade::{CascadeInfo, CascadeStage, FallthroughReason};
use wise_core::pipeline::{Choice, TrainOptions, Wise};
use wise_core::{observe_execution, SpeedupClass};
use wise_features::{FeatureConfig, FeatureVector, N_FEATURES};
use wise_gen::{Corpus, CorpusScale, RmatParams};
use wise_kernels::MethodConfig;
use wise_ml::TreeParams;
use wise_perf::Estimator;
use wise_trace::telemetry::{self, DriftLevel, DriftRecord};

fn choice(cascade: Option<CascadeInfo>) -> Choice {
    let catalog = MethodConfig::catalog();
    Choice {
        config: catalog[0],
        index: 0,
        predictions: vec![SpeedupClass::C1; catalog.len()],
        features: FeatureVector::from_values(vec![0.0; N_FEATURES]),
        timing: Default::default(),
        decision_paths: Vec::new(),
        cascade,
        request_id: 0,
    }
}

fn stage1(predicted_seconds: f64) -> Choice {
    choice(Some(CascadeInfo {
        stage: CascadeStage::Stage1,
        margin: 2.0,
        threshold: Some(0.5),
        fallthrough: None,
        predicted_seconds: Some(predicted_seconds),
    }))
}

fn stage2() -> Choice {
    choice(Some(CascadeInfo {
        stage: CascadeStage::Stage2,
        margin: 0.1,
        threshold: Some(0.5),
        fallthrough: Some(FallthroughReason::LowMargin),
        predicted_seconds: None,
    }))
}

fn reading(
    status: DriftLevel,
    regret_permille: u64,
    fallthrough_permille: u64,
    observed: u64,
) -> DriftRecord {
    DriftRecord { status, regret_permille, fallthrough_permille, observed }
}

#[test]
fn a_fixed_feedback_sequence_pins_the_drift_reading_and_backfills_the_ring() {
    assert_eq!(telemetry::drift_gauge(), reading(DriftLevel::Stable, 0, 0, 0), "starts cold");

    // 20 stage-1 answers running at 2x their roofline prediction: the
    // regret EWMA sits at exactly 2.0, past the warning level.
    for _ in 0..20 {
        observe_execution(&stage1(1e-3), 2e-3);
    }
    assert_eq!(telemetry::drift_gauge(), reading(DriftLevel::Warning, 2000, 0, 20));

    // 70 fallthroughs lift the fallthrough EWMA to 1 - (63/65)^70 and
    // leave regret untouched.
    for _ in 0..70 {
        observe_execution(&stage2(), 1e-3);
    }
    assert_eq!(telemetry::drift_gauge(), reading(DriftLevel::RetrainSuggested, 2000, 888, 90));

    // Choices without cascade provenance count and move nothing.
    for _ in 0..10 {
        observe_execution(&choice(None), 1e-3);
    }
    assert_eq!(telemetry::drift_gauge(), reading(DriftLevel::RetrainSuggested, 2000, 888, 100));

    // Stage-1 answers with unusable timings still count and still feed
    // the fallthrough EWMA (with a 0), but add no regret sample: the
    // fallthrough decays below its retrain level to (63/65)^6 of 0.888.
    for (predicted, measured) in
        [(1e-3, f64::NAN), (1e-3, 0.0), (0.0, 1e-3), (f64::NAN, 1e-3), (1e-3, -1e-3)]
    {
        observe_execution(&stage1(predicted), measured);
    }
    let mut no_prediction = stage1(1e-3);
    no_prediction.cascade.as_mut().unwrap().predicted_seconds = None;
    observe_execution(&no_prediction, 1e-3);
    assert_eq!(telemetry::drift_gauge(), reading(DriftLevel::Warning, 2000, 736, 106));

    // A top-level selection is one flight request; feeding its measured
    // execution back fills the ring record in by id.
    let opts = TrainOptions {
        estimator: Estimator::model_for_rows(1 << 10),
        feature_config: FeatureConfig::default(),
        tree_params: TreeParams::default(),
    };
    let wise = Wise::train(&Corpus::random(&CorpusScale::tiny(), 11), &opts);
    let picked = wise.select(&RmatParams::MED_SKEW.generate(9, 8, 13));
    assert_ne!(picked.request_id, 0, "a top-level select carries its request id");
    let record = |id| telemetry::flight_ring().into_iter().find(|r| r.id == id);
    assert_eq!(record(picked.request_id).expect("recorded").measured_s, None);
    observe_execution(&picked, 1.25e-3);
    assert_eq!(record(picked.request_id).expect("still in the ring").measured_s, Some(1.25e-3));
    assert_eq!(telemetry::drift_gauge().observed, 107);
}
