//! Cascade parity: the two-stage selection fast path must never change
//! what WISE answers, only how fast it answers.
//!
//! Three contracts from DESIGN.md §16:
//!
//! 1. a stage-2 *fallthrough* [`Choice`] is field-identical (modulo the
//!    `cascade` provenance and measured timing) to a full
//!    [`Wise::select`];
//! 2. the cascade switched off (`with_cascade_gate(None)`) is bit-exact
//!    with the pre-cascade pipeline — serialized choices carry no
//!    `cascade` key at all;
//! 3. stage-1 answers respect the calibrated P-ratio bound on the
//!    labeled quick corpus ([`cascade::P_RATIO_REL_FLOOR`]).

use wise_core::cascade::{self, P_RATIO_REL_FLOOR};
use wise_core::labels::{label_corpus, CorpusLabels};
use wise_core::pipeline::{Choice, ChoiceTiming, TrainOptions, Wise};
use wise_core::{CascadeGate, CascadeStage, FallthroughReason};
use wise_features::{FeatureConfig, FeatureVector, ProbeFeatures};
use wise_gen::{Corpus, CorpusScale, RggParams, RmatParams};
use wise_kernels::MethodConfig;
use wise_matrix::Csr;
use wise_ml::TreeParams;
use wise_perf::Estimator;

fn train_opts() -> TrainOptions {
    TrainOptions {
        // Deterministic backend: parity must not depend on wall clocks.
        estimator: Estimator::model_for_rows(1 << 10),
        feature_config: FeatureConfig::default(),
        tree_params: TreeParams::default(),
    }
}

fn labeled() -> (Wise, CorpusLabels, TrainOptions) {
    let opts = train_opts();
    let corpus = Corpus::random(&CorpusScale::tiny(), 11);
    let labels = label_corpus(&corpus, &opts.estimator, &opts.feature_config);
    let wise = Wise::from_labels(&labels, &opts);
    (wise, labels, opts)
}

/// The RMAT/RGG zoo the parity contracts are checked across.
fn zoo() -> Vec<(&'static str, Csr)> {
    vec![
        ("rmat-high-skew", RmatParams::HIGH_SKEW.generate(9, 16, 77)),
        ("rmat-med-skew", RmatParams::MED_SKEW.generate(9, 8, 13)),
        ("rmat-low-skew", RmatParams::LOW_SKEW.generate(8, 8, 2)),
        ("rmat-low-loc", RmatParams::LOW_LOC.generate(8, 4, 5)),
        ("rmat-med-loc", RmatParams::MED_LOC.generate(9, 8, 21)),
        ("rgg-n400-d6", RggParams { n: 400, avg_degree: 6.0 }.generate(3)),
    ]
}

/// Field equality modulo `cascade` and measured `timing`.
fn assert_same_answer(tag: &str, got: &Choice, want: &Choice) {
    assert_eq!(got.index, want.index, "{tag}: index");
    assert_eq!(got.config.label(), want.config.label(), "{tag}: config");
    assert_eq!(got.predictions, want.predictions, "{tag}: predictions");
    assert_eq!(got.features, want.features, "{tag}: features");
    assert_eq!(got.decision_paths, want.decision_paths, "{tag}: decision paths");
}

#[test]
fn fallthrough_choice_is_field_identical_to_full_select() {
    let (wise, _, _) = labeled();
    // A threshold-less gate falls through on every matrix, exercising
    // the stage-2 path end to end.
    let through_wise = wise.clone().with_cascade_gate(Some(CascadeGate {
        threshold: None,
        machine: None,
        calibration_p_ratio: 1.0,
        full_p_ratio: 1.0,
        calibration_accept_rate: 0.0,
    }));
    let full_wise = wise.with_cascade_gate(None);
    for (tag, m) in zoo() {
        let through = through_wise.select(&m);
        let info = through.cascade.as_ref().expect("fallthrough records provenance");
        assert_eq!(info.stage, CascadeStage::Stage2, "{tag}");
        assert_eq!(info.fallthrough, Some(FallthroughReason::NoThreshold), "{tag}");
        let full = full_wise.select(&m);
        assert!(full.cascade.is_none(), "{tag}: gateless select must not cascade");
        assert_same_answer(tag, &through, &full);
    }
}

#[test]
fn natural_gate_fallthroughs_also_match_full_select() {
    // Same contract under the *calibrated* gate: wherever the real
    // cascade declines, the answer must equal the full pipeline's.
    let (wise, _, _) = labeled();
    let full_wise = wise.clone().with_cascade_gate(None);
    for (tag, m) in zoo() {
        let choice = wise.select(&m);
        let info = choice.cascade.as_ref().expect("gated select records provenance");
        if info.stage == CascadeStage::Stage2 {
            assert_same_answer(tag, &choice, &full_wise.select(&m));
        } else {
            // Accepted answers still come from the catalog, and an
            // all-leaves vote must equal the full pipeline exactly.
            assert_eq!(choice.predictions.len(), 29, "{tag}");
            if info.margin == f64::MAX {
                let full = full_wise.select(&m);
                assert_eq!(choice.index, full.index, "{tag}: exact stage-1 answer");
                assert_eq!(choice.predictions, full.predictions, "{tag}");
            }
        }
    }
}

#[test]
fn cascade_off_is_bit_exact_with_pre_cascade_pipeline() {
    let (wise, _, _) = labeled();
    assert!(wise.cascade_gate().is_some(), "trained instance carries a gate");
    let off_wise = wise.clone().with_cascade_gate(None);
    for (tag, m) in zoo() {
        let mut off = off_wise.select(&m);
        // The pre-cascade pipeline: extract every feature, then predict
        // and pick.
        let mut want = wise.select_from_features(FeatureVector::extract(&m, wise.feature_config()));
        assert!(off.cascade.is_none(), "{tag}: a gateless select must not cascade");
        // Timing is wall-clock and request ids are per-process
        // provenance; zero both sides, then demand identical choices —
        // the pre-cascade contract.
        off.timing = ChoiceTiming::default();
        want.timing = ChoiceTiming::default();
        off.request_id = 0;
        want.request_id = 0;
        assert_eq!(off, want, "{tag}");
    }
}

#[test]
fn stage_one_answers_respect_calibrated_p_ratio_bound() {
    let (wise, labels, _) = labeled();
    let gate = wise.cascade_gate().expect("calibrated gate");
    let catalog = wise.registry().catalog();
    assert_eq!(catalog.len(), labels.catalog.len());
    let (mut cascade_sum, mut full_sum, mut accepted) = (0.0, 0.0, 0usize);
    for m in &labels.matrices {
        let oracle = m.seconds.iter().copied().fold(f64::MAX, f64::min);
        let full_idx = wise.select_from_features(m.features.clone()).index;
        let p_full = oracle / m.seconds[full_idx];
        full_sum += p_full;
        let known = ProbeFeatures::mask_full(&m.features);
        let vote = cascade::stage_one_vote(wise.registry(), &known);
        let fast = gate.threshold.map(|t| vote.margin >= t).unwrap_or(false);
        cascade_sum += if fast { oracle / m.seconds[vote.index] } else { p_full };
        accepted += fast as usize;
    }
    let n = labels.matrices.len() as f64;
    let (cascade_p, full_p) = (cascade_sum / n, full_sum / n);
    assert!(
        cascade_p >= P_RATIO_REL_FLOOR * full_p - 1e-9,
        "cascade P-ratio {cascade_p:.4} below floor ({:.4} of full {full_p:.4})",
        P_RATIO_REL_FLOOR
    );
    // The accounting above is exactly what calibration stored.
    assert!((cascade_p - gate.calibration_p_ratio).abs() < 1e-9);
    assert!((full_p - gate.full_p_ratio).abs() < 1e-9);
    assert!((accepted as f64 / n - gate.calibration_accept_rate).abs() < 1e-9);
}

#[test]
fn stage_one_choice_round_trips_and_config_labels_parse() {
    let (wise, _, _) = labeled();
    // Forced-accept gate: every zoo matrix is answered in stage 1.
    let wise = wise.with_cascade_gate(Some(CascadeGate {
        threshold: Some(0.0),
        machine: None,
        calibration_p_ratio: 1.0,
        full_p_ratio: 1.0,
        calibration_accept_rate: 1.0,
    }));
    for (tag, m) in zoo() {
        let choice = wise.select(&m);
        let info = choice.cascade.expect("provenance");
        assert_eq!(info.stage, CascadeStage::Stage1, "{tag}");
        // The chosen config's label must round-trip through the parser
        // (labels are how choices land in ledgers and saved reports).
        let label = choice.config.label();
        assert_eq!(MethodConfig::parse(&label), Some(choice.config), "{tag}: {label}");
    }
}

#[test]
fn probe_features_match_full_extractor_on_the_zoo() {
    // The cascade's safety argument rests on the probe being
    // bit-identical to the full extractor on the 22 shared features —
    // re-checked here on the parity zoo (unit tests cover the rest).
    let config = FeatureConfig::default();
    for (tag, m) in zoo() {
        let full = FeatureVector::extract(&m, &config);
        let known = ProbeFeatures::extract(&m).known_values();
        let mut checked = 0;
        for (i, v) in known.iter().enumerate() {
            if let Some(v) = v {
                assert_eq!(v.to_bits(), full.values()[i].to_bits(), "{tag}: feature {i}");
                checked += 1;
            }
        }
        assert_eq!(checked, ProbeFeatures::known_indices().len(), "{tag}");
    }
}
