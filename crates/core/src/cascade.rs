//! Cascaded two-stage selection: an O(nnz) fast path that answers
//! easy matrices in microseconds (ROADMAP item 2; cf. Elafrou et
//! al.'s lightweight selection and the cascaded-prediction line of
//! work in PAPERS.md).
//!
//! **Stage 1** extracts the cheap probe
//! ([`wise_features::ProbeFeatures`]: sizes + full R/C statistics, one
//! O(nnz) pass, no tiling/locality sweeps), walks every registry tree
//! over the 22 probe-known features
//! ([`DecisionTree::predict_partial_explained`](wise_ml::DecisionTree::predict_partial_explained)),
//! and computes a *vote margin*. If the margin clears a threshold
//! calibrated on the training labels — and the roofline veto
//! ([`wise_perf::QuickBounds`]) finds the winning class physically
//! plausible — the selection is answered immediately. **Stage 2**
//! falls through to the full pipeline, bit-identical to a plain
//! [`Wise::select`](crate::pipeline::Wise::select).
//!
//! Because the probe's feature values are *bit-identical* to the full
//! extractor's, a partial tree walk that reaches a leaf provably
//! equals the full walk; such unanimous-leaf votes get margin
//! `f64::MAX` and are always safe to accept. Early-stopped walks carry
//! training-frequency confidence instead, and the calibrated threshold
//! ([`wise_perf::calibrate_margin_threshold`]) admits exactly the
//! margin range whose training-set cascade P-ratio stays within
//! [`P_RATIO_REL_FLOOR`] of full WISE.
//!
//! Measured execution seconds of stage-1 answers feed the drift
//! monitor's regret EWMA ([`crate::observe_execution`]). A
//! [`Wise`](crate::pipeline::Wise) without a gate
//! (`with_cascade_gate(None)`) never takes the fast path and is
//! bit-exact with the pre-cascade pipeline.

use crate::classes::SpeedupClass;
use crate::labels::CorpusLabels;
use crate::registry::ModelRegistry;
use crate::select::select_index;
use wise_ml::{DecisionPath, PartialPrediction};
use wise_perf::{calibrate_margin_threshold, Estimator, MachineModel, MarginSample};

/// The cascade's training-set quality contract: the calibrated gate
/// must keep the cascade P-ratio at ≥ 98% of full WISE's.
pub const P_RATIO_REL_FLOOR: f64 = 0.98;

// ---------------------------------------------------------------------
// Gate: calibrated acceptance threshold + roofline veto
// ---------------------------------------------------------------------

/// The distilled stage-1 confidence gate, calibrated at training time
/// and serialized inside [`Wise`](crate::pipeline::Wise). Models saved
/// before the cascade existed deserialize without one and simply never
/// take the fast path.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeGate {
    /// Accept stage-1 votes with `margin >= threshold`. `None` means
    /// calibration found no acceptable margin range: the gate never
    /// fires (every selection falls through).
    pub threshold: Option<f64>,
    /// Machine model for the roofline veto; `None` (measured-backend
    /// training) disables the veto.
    pub machine: Option<MachineModel>,
    /// Training-set cascade P-ratio at the chosen threshold.
    pub calibration_p_ratio: f64,
    /// Full-WISE P-ratio on the same training set.
    pub full_p_ratio: f64,
    /// Fraction of training matrices the gate accepted at calibration.
    pub calibration_accept_rate: f64,
}

wise_trace::json_struct!(CascadeGate {
    threshold,
    machine,
    calibration_p_ratio,
    full_p_ratio,
    calibration_accept_rate,
});

/// Which stage of the cascade produced a [`Choice`](crate::pipeline::Choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CascadeStage {
    /// Answered by the O(nnz) probe + partial tree walk.
    Stage1,
    /// Fell through to the full pipeline.
    Stage2,
}

/// Why stage 1 declined to answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallthroughReason {
    /// Calibration admitted no margin range; the gate never fires.
    NoThreshold,
    /// The vote margin fell below the calibrated threshold.
    LowMargin,
    /// The roofline veto: the winning class' representative speedup
    /// exceeds what the machine model deems physically plausible.
    EstimatorVeto,
}

/// Cascade provenance attached to a [`Choice`](crate::pipeline::Choice)
/// (absent entirely when the model has no gate, keeping gateless
/// serializations byte-identical to pre-cascade ones).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeInfo {
    /// Stage that produced the answer.
    pub stage: CascadeStage,
    /// The stage-1 vote margin (`f64::MAX` when every tree walk
    /// reached a leaf — the answer then provably equals full WISE's).
    pub margin: f64,
    /// Calibrated acceptance threshold in force.
    pub threshold: Option<f64>,
    /// Why stage 1 declined (stage 2 only).
    pub fallthrough: Option<FallthroughReason>,
    /// Stage 1 only: quick roofline estimate of the chosen
    /// configuration's per-iteration seconds — the baseline the drift
    /// monitor's regret compares measured samples against.
    pub predicted_seconds: Option<f64>,
}

// ---------------------------------------------------------------------
// Stage-1 vote
// ---------------------------------------------------------------------

/// The outcome of one stage-1 partial vote across all registry heads.
#[derive(Debug, Clone, PartialEq)]
pub struct StageOneVote {
    /// Per-head predicted class, catalog order.
    pub predictions: Vec<SpeedupClass>,
    /// Catalog index [`select_index`] picks from those classes.
    pub index: usize,
    /// Acceptance margin: `min_confidence × (1 + speedup gap)` between
    /// the winner and the best differently-classed head, or `f64::MAX`
    /// when every walk reached a leaf.
    pub margin: f64,
    /// Whether every head's partial walk reached a true leaf (the vote
    /// then equals the full pipeline's exactly).
    pub all_leaves: bool,
    /// Smallest per-head confidence in the vote.
    pub min_confidence: f64,
}

/// Folds per-head partial predictions into a [`StageOneVote`].
///
/// The margin multiplies the weakest head's confidence by one plus the
/// representative-speedup gap between the winning class and the best
/// head that predicted a *different* class (a unanimous vote has no
/// challenger; its gap is the winner's own representative speedup).
/// Any head stopped at an impure node can be wrong toward a faster
/// class, so the minimum over *all* heads is the honest choice.
pub fn fold_stage_one(
    catalog: &[wise_kernels::method::MethodConfig],
    partials: &[PartialPrediction],
) -> StageOneVote {
    assert_eq!(catalog.len(), partials.len(), "catalog/head count mismatch");
    let predictions: Vec<SpeedupClass> =
        partials.iter().map(|p| SpeedupClass::from_index(p.class)).collect();
    let index = select_index(catalog, &predictions);
    let winner = predictions[index];
    let top1 = winner.representative_speedup();
    let runner_up = predictions
        .iter()
        .filter(|&&c| c != winner)
        .map(|c| c.representative_speedup())
        .fold(f64::NAN, f64::max);
    let gap = if runner_up.is_nan() { top1 } else { (top1 - runner_up).max(0.0) };
    let min_confidence = partials.iter().map(|p| p.confidence).fold(1.0, f64::min);
    let all_leaves = partials.iter().all(|p| p.reached_leaf);
    let margin = if all_leaves { f64::MAX } else { min_confidence * (1.0 + gap) };
    StageOneVote { predictions, index, margin, all_leaves, min_confidence }
}

/// Runs the full stage-1 vote for a probe-known partial feature row:
/// every head's partial walk, folded by [`fold_stage_one`]. Returns the
/// vote with the per-head paths (catalog order).
pub fn stage_one_vote(
    registry: &ModelRegistry,
    known: &[Option<f64>],
) -> (StageOneVote, Vec<DecisionPath>) {
    let (partials, paths) = registry.predict_partial_explained(known);
    (fold_stage_one(registry.catalog(), &partials), paths)
}

// ---------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------

/// Distills the confidence gate from a trained registry and its
/// training labels: every labeled matrix's *full* feature vector is
/// masked down to the probe-known subset (bit-identical to what the
/// runtime probe would produce), voted on, and scored against the
/// oracle; [`calibrate_margin_threshold`] then picks the most
/// permissive threshold whose training-set cascade P-ratio stays
/// within [`P_RATIO_REL_FLOOR`] of full WISE's.
pub fn calibrate_gate(
    registry: &ModelRegistry,
    labels: &CorpusLabels,
    estimator: &Estimator,
) -> CascadeGate {
    let _span = wise_trace::span("select.cascade.calibrate");
    assert_eq!(
        registry.catalog().len(),
        labels.catalog.len(),
        "registry and labels must share a catalog"
    );
    let catalog = registry.catalog();
    let mut samples = Vec::with_capacity(labels.matrices.len());
    for m in &labels.matrices {
        let oracle = m.seconds.iter().copied().fold(f64::MAX, f64::min);
        let full_idx = select_index(catalog, &registry.predict(&m.features));
        let p_full = oracle / m.seconds[full_idx];
        let known = wise_features::ProbeFeatures::mask_full(&m.features);
        let (vote, _) = stage_one_vote(registry, &known);
        let p_stage1 = oracle / m.seconds[vote.index];
        samples.push(MarginSample { margin: vote.margin, p_stage1, p_full });
    }
    let threshold = calibrate_margin_threshold(&samples, P_RATIO_REL_FLOOR);

    let n = samples.len() as f64;
    let full_p_ratio = samples.iter().map(|s| s.p_full).sum::<f64>() / n.max(1.0);
    let (mut cascade_sum, mut accepted) = (0.0, 0usize);
    for s in &samples {
        let fast = threshold.map(|t| s.margin >= t).unwrap_or(false);
        cascade_sum += if fast { s.p_stage1 } else { s.p_full };
        accepted += fast as usize;
    }
    CascadeGate {
        threshold,
        machine: estimator.machine().cloned(),
        calibration_p_ratio: cascade_sum / n.max(1.0),
        full_p_ratio,
        calibration_accept_rate: accepted as f64 / n.max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(class: u32, confidence: f64, reached_leaf: bool) -> PartialPrediction {
        PartialPrediction { class, confidence, reached_leaf, depth: 1 }
    }

    #[test]
    fn unanimous_leaf_vote_gets_max_margin() {
        let catalog = wise_kernels::method::MethodConfig::catalog();
        let partials: Vec<PartialPrediction> = catalog.iter().map(|_| head(1, 1.0, true)).collect();
        let vote = fold_stage_one(&catalog, &partials);
        assert!(vote.all_leaves);
        assert_eq!(vote.margin, f64::MAX);
        assert_eq!(vote.predictions[vote.index], SpeedupClass::C1);
    }

    #[test]
    fn weakest_head_bounds_the_margin() {
        let catalog = wise_kernels::method::MethodConfig::catalog();
        let mut partials: Vec<PartialPrediction> =
            catalog.iter().map(|_| head(1, 1.0, true)).collect();
        partials[3] = head(4, 0.6, false); // C4 head, shaky
        let vote = fold_stage_one(&catalog, &partials);
        assert!(!vote.all_leaves);
        assert_eq!(vote.predictions[vote.index], SpeedupClass::C4);
        assert!((vote.min_confidence - 0.6).abs() < 1e-12);
        // gap = rep(C4) - rep(C1) = 1/0.7 - 1.0
        let gap = SpeedupClass::C4.representative_speedup() - 1.0;
        assert!((vote.margin - 0.6 * (1.0 + gap)).abs() < 1e-12, "margin {}", vote.margin);
    }

    #[test]
    fn confident_vote_outranks_shaky_vote() {
        let catalog = wise_kernels::method::MethodConfig::catalog();
        let confident: Vec<PartialPrediction> =
            catalog.iter().map(|_| head(2, 0.95, false)).collect();
        let shaky: Vec<PartialPrediction> = catalog.iter().map(|_| head(2, 0.55, false)).collect();
        let mc = fold_stage_one(&catalog, &confident).margin;
        let ms = fold_stage_one(&catalog, &shaky).margin;
        assert!(mc > ms, "{mc} vs {ms}");
    }
}
