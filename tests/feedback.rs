//! The execution-feedback loop, pinned end to end: a top-level
//! selection is one flight-recorder request, and feeding its measured
//! execution back through `telemetry::record_execution` fills that
//! request's record in by id. Unusable measurements and id 0 change
//! nothing.
//!
//! Everything runs in one test: the flight recorder is process-global
//! and this binary starts it cold.

use wise_core::pipeline::{TrainOptions, Wise};
use wise_features::FeatureConfig;
use wise_gen::{Corpus, CorpusScale, RmatParams};
use wise_ml::TreeParams;
use wise_perf::Estimator;
use wise_trace::telemetry;

#[test]
fn a_fixed_feedback_sequence_backfills_the_ring() {
    assert!(telemetry::flight_ring().is_empty(), "starts cold");
    let opts = TrainOptions {
        estimator: Estimator::model_for_rows(1 << 10),
        feature_config: FeatureConfig::default(),
        tree_params: TreeParams::default(),
    };
    let wise = Wise::train(&Corpus::random(&CorpusScale::tiny(), 11), &opts);
    let picked = wise.select(&RmatParams::MED_SKEW.generate(9, 8, 13));
    assert_ne!(picked.request_id, 0, "a top-level select carries its request id");
    let record = |id| telemetry::flight_ring().into_iter().find(|r| r.id == id);
    assert_eq!(record(picked.request_id).expect("recorded").method, picked.config.label());

    // Unusable timings and the "no request" id leave the record alone.
    for measured in [f64::NAN, 0.0, -1e-3] {
        telemetry::record_execution(picked.request_id, measured);
    }
    telemetry::record_execution(0, 1e-3);
    assert_eq!(record(picked.request_id).expect("recorded").measured_s, None);

    telemetry::record_execution(picked.request_id, 1.25e-3);
    assert_eq!(record(picked.request_id).expect("still in the ring").measured_s, Some(1.25e-3));
    assert_eq!(telemetry::flight_stats().requests, telemetry::flight_ring().len() as u64);
}
