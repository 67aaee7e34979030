//! Cross-validated end-to-end evaluation of WISE — the machinery behind
//! the paper's Sections 6.2–6.5 (Figures 10 and 13, Table 4, and the
//! MKL-IE comparison).
//!
//! Evaluation is strictly out-of-fold: every matrix's class predictions
//! come from models trained without it (10-fold CV as in Section 5),
//! and WISE's selection for that matrix uses only those held-out
//! predictions.

use crate::classes::SpeedupClass;
use crate::labels::CorpusLabels;
use crate::registry::ModelRegistry;
use crate::select::select_index;
use std::sync::Arc;
use wise_kernels::baseline::mkl_like_config;
use wise_kernels::sched::par_map;
use wise_ml::grid::{cross_val_confusion_planned, GridCell, CCP_GRID, DEPTH_GRID};
use wise_ml::{ConfusionMatrix, FeatureMatrix, FoldPlan, TreeParams};

/// Per-matrix outcome of the end-to-end evaluation.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    pub name: String,
    /// Catalog indices of each selector's choice.
    pub wise_index: usize,
    pub oracle_index: usize,
    pub ie_index: usize,
    /// Steady-state seconds of each selection, plus references.
    pub wise_seconds: f64,
    pub oracle_seconds: f64,
    pub ie_seconds: f64,
    pub mkl_seconds: f64,
    pub best_csr_seconds: f64,
    /// WISE preprocessing: feature extraction + conversion of the
    /// chosen format.
    pub wise_preproc_seconds: f64,
    /// IE preprocessing: every conversion + every cold trial.
    pub ie_preproc_seconds: f64,
}

impl EvalOutcome {
    /// Speedup of WISE's choice over the MKL baseline.
    pub fn wise_speedup_over_mkl(&self) -> f64 {
        self.mkl_seconds / self.wise_seconds
    }

    /// Speedup of the oracle over the MKL baseline.
    pub fn oracle_speedup_over_mkl(&self) -> f64 {
        self.mkl_seconds / self.oracle_seconds
    }

    /// Speedup of the inspector-executor choice over MKL.
    pub fn ie_speedup_over_mkl(&self) -> f64 {
        self.mkl_seconds / self.ie_seconds
    }

    /// WISE preprocessing expressed in MKL SpMV iterations (the paper's
    /// Fig. 13c unit).
    pub fn wise_overhead_mkl_iters(&self) -> f64 {
        self.wise_preproc_seconds / self.mkl_seconds
    }

    /// IE preprocessing in MKL iterations.
    pub fn ie_overhead_mkl_iters(&self) -> f64 {
        self.ie_preproc_seconds / self.mkl_seconds
    }
}

/// Full result of a cross-validated evaluation.
#[derive(Debug, Clone)]
pub struct CvEvaluation {
    /// Per-matrix outcomes, corpus order.
    pub outcomes: Vec<EvalOutcome>,
    /// Combined 10-fold confusion matrix per catalog configuration.
    pub confusions: Vec<ConfusionMatrix>,
    /// Out-of-fold predicted class per matrix (outer) per configuration
    /// (inner, catalog order).
    pub predictions: Vec<Vec<SpeedupClass>>,
}

impl CvEvaluation {
    /// Scores per-matrix class predictions (outer: corpus order, inner:
    /// catalog order) as picks: WISE's [`select_index`] choice, the
    /// oracle, the inspector-executor and the MKL baseline, per matrix.
    /// `confusions` is carried through as given.
    pub fn from_predictions(
        labels: &CorpusLabels,
        predictions: Vec<Vec<SpeedupClass>>,
        confusions: Vec<ConfusionMatrix>,
    ) -> CvEvaluation {
        assert_eq!(predictions.len(), labels.len(), "one prediction vector per matrix");
        let mkl_index = labels.config_index(&mkl_like_config().label());
        let outcomes = labels
            .matrices
            .iter()
            .zip(&predictions)
            .map(|(ml, preds)| {
                let wise_index = select_index(&labels.catalog, preds);
                let oracle_index = ml.oracle_index();
                // IE picks by its cold trials, then runs steady state.
                let ie_index = ml
                    .cold_seconds
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .expect("non-empty catalog");
                let ie_preproc_seconds = ml.preprocessing_seconds.iter().sum::<f64>()
                    + ml.cold_seconds.iter().sum::<f64>();
                EvalOutcome {
                    name: ml.name.clone(),
                    wise_index,
                    oracle_index,
                    ie_index,
                    wise_seconds: ml.seconds[wise_index],
                    oracle_seconds: ml.seconds[oracle_index],
                    ie_seconds: ml.seconds[ie_index],
                    mkl_seconds: ml.seconds[mkl_index],
                    best_csr_seconds: ml.best_csr_seconds,
                    wise_preproc_seconds: ml.feature_extraction_seconds
                        + ml.preprocessing_seconds[wise_index],
                    ie_preproc_seconds,
                }
            })
            .collect();
        CvEvaluation { outcomes, confusions, predictions }
    }

    /// Arithmetic mean of WISE's speedup over MKL (the paper's headline
    /// 2.4x).
    pub fn mean_wise_speedup(&self) -> f64 {
        mean(self.outcomes.iter().map(|o| o.wise_speedup_over_mkl()))
    }

    /// Mean oracle speedup over MKL (the paper's 2.5x ceiling).
    pub fn mean_oracle_speedup(&self) -> f64 {
        mean(self.outcomes.iter().map(|o| o.oracle_speedup_over_mkl()))
    }

    /// Mean IE speedup over MKL (the paper measures 2.11x).
    pub fn mean_ie_speedup(&self) -> f64 {
        mean(self.outcomes.iter().map(|o| o.ie_speedup_over_mkl()))
    }

    /// Mean WISE preprocessing overhead in MKL iterations (paper: 8.33).
    pub fn mean_wise_overhead_iters(&self) -> f64 {
        mean(self.outcomes.iter().map(|o| o.wise_overhead_mkl_iters()))
    }

    /// Mean IE preprocessing overhead in MKL iterations (paper: 17.43).
    pub fn mean_ie_overhead_iters(&self) -> f64 {
        mean(self.outcomes.iter().map(|o| o.ie_overhead_mkl_iters()))
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let mut n = 0usize;
    let mut acc = 0.0;
    for v in it {
        acc += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        acc / n as f64
    }
}

/// The reusable, label-independent half of a cross-validated
/// evaluation: the corpus feature matrix plus the [`FoldPlan`] (fold
/// split + per-fold presorted columnar layer). Build once per
/// `(corpus, k, seed)` and evaluate any number of tree configurations
/// against it — the Table 4 sweep reuses one plan for all 24 cells, so
/// each fold's feature columns are sorted exactly once for the whole
/// grid.
#[derive(Debug, Clone)]
pub struct CvPlan {
    matrix: Arc<FeatureMatrix>,
    plan: FoldPlan,
}

impl CvPlan {
    /// Builds the matrix and fold presorts for `labels`.
    pub fn build(labels: &CorpusLabels, k: usize, seed: u64) -> CvPlan {
        CvPlan::over(ModelRegistry::feature_matrix(labels), k, seed)
    }

    /// The fold presorts over a given feature matrix (one row per
    /// labeled matrix, corpus order), e.g. a feature-group subset of
    /// [`ModelRegistry::feature_matrix`].
    pub fn over(matrix: Arc<FeatureMatrix>, k: usize, seed: u64) -> CvPlan {
        assert!(matrix.n_rows() >= k, "need at least k matrices for k-fold CV");
        let base_rows: Vec<u32> = (0..matrix.n_rows() as u32).collect();
        let plan = FoldPlan::build(&matrix, &base_rows, k, seed);
        CvPlan { matrix, plan }
    }
}

/// Runs `eval` for every `(depth, ccp)` cell of Table 4 on the worker
/// pool and returns the grid row-major (depth-major, ccp-minor).
pub fn sweep_table4(eval: impl Fn(TreeParams) -> f64 + Sync) -> Vec<GridCell> {
    let n_ccp = CCP_GRID.len();
    par_map(DEPTH_GRID.len() * n_ccp, |i| {
        let (max_depth, ccp_alpha) = (DEPTH_GRID[i / n_ccp], CCP_GRID[i % n_ccp]);
        let params = TreeParams { max_depth, ccp_alpha, ..Default::default() };
        GridCell { max_depth, ccp_alpha, score: eval(params) }
    })
}

/// Runs the full cross-validated evaluation on a labeled corpus.
/// Builds a fresh [`CvPlan`]; when sweeping tree configurations (e.g.
/// Table 4), build the plan once and call [`evaluate_cv_planned`].
pub fn evaluate_cv(
    labels: &CorpusLabels,
    tree_params: TreeParams,
    k: usize,
    seed: u64,
) -> CvEvaluation {
    evaluate_cv_planned(labels, &CvPlan::build(labels, k, seed), tree_params)
}

/// [`evaluate_cv`] against a prebuilt [`CvPlan`] (shared matrix and
/// fold presorts; no per-call sorting).
pub fn evaluate_cv_planned(
    labels: &CorpusLabels,
    plan: &CvPlan,
    tree_params: TreeParams,
) -> CvEvaluation {
    let n_cfg = labels.catalog.len();

    // Out-of-fold predictions + confusion per configuration.
    let per_cfg: Vec<(Vec<(u32, u32)>, ConfusionMatrix)> = par_map(n_cfg, |cfg_idx| {
        let ds = ModelRegistry::dataset_for_matrix(&plan.matrix, labels, cfg_idx);
        cross_val_confusion_planned(&plan.plan, &ds, tree_params)
    });
    let confusions: Vec<ConfusionMatrix> = per_cfg.iter().map(|(_, c)| c.clone()).collect();

    // Transpose to per-matrix prediction vectors.
    let predictions: Vec<Vec<SpeedupClass>> = (0..labels.len())
        .map(|mi| (0..n_cfg).map(|ci| SpeedupClass::from_index(per_cfg[ci].0[mi].1)).collect())
        .collect();
    CvEvaluation::from_predictions(labels, predictions, confusions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::N_CLASSES;
    use crate::labels::label_corpus;
    use wise_features::FeatureConfig;
    use wise_gen::{Corpus, CorpusScale};
    use wise_perf::Estimator;

    #[test]
    fn table4_grid_shape() {
        let cells = sweep_table4(|p| p.max_depth as f64 + p.ccp_alpha);
        assert_eq!(cells.len(), 24);
        assert_eq!(cells[0].max_depth, 5);
        assert_eq!(cells[0].ccp_alpha, 0.0);
        assert_eq!(cells[23].max_depth, 20);
        assert!((cells[23].ccp_alpha - 0.1).abs() < 1e-12);
    }

    #[test]
    fn table4_parallel_order_is_row_major() {
        // Deterministic row-major output order whatever the thread
        // interleaving: cell i covers (DEPTH_GRID[i/6], CCP_GRID[i%6]).
        let cells = sweep_table4(|p| p.max_depth as f64 * 1000.0 + p.ccp_alpha);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.max_depth, DEPTH_GRID[i / CCP_GRID.len()]);
            assert_eq!(c.ccp_alpha, CCP_GRID[i % CCP_GRID.len()]);
            assert_eq!(c.score, c.max_depth as f64 * 1000.0 + c.ccp_alpha);
        }
    }

    fn labeled() -> CorpusLabels {
        let corpus = Corpus::full(&CorpusScale::tiny(), 21);
        // `threads: 0` lets extraction resolve its own worker count, but
        // the labeling loop overrides it to 1 (outer-parallel /
        // inner-serial — see `label_corpus_with`); evaluation results
        // are identical for any setting.
        let cfg = FeatureConfig { threads: 0, ..FeatureConfig::default() };
        label_corpus(&corpus, &Estimator::model_for_rows(1 << 10), &cfg)
    }

    #[test]
    fn cv_evaluation_is_complete() {
        let labels = labeled();
        let ev = evaluate_cv(&labels, TreeParams::default(), 5, 3);
        assert_eq!(ev.outcomes.len(), labels.len());
        assert_eq!(ev.confusions.len(), 29);
        for c in &ev.confusions {
            assert_eq!(c.total(), labels.len() as u64);
        }
        for o in &ev.outcomes {
            assert!(o.wise_seconds > 0.0);
            assert!(o.oracle_seconds <= o.wise_seconds + 1e-15);
            assert!(o.oracle_seconds <= o.mkl_seconds + 1e-15);
        }
    }

    #[test]
    fn oracle_dominates_wise_and_ie() {
        let labels = labeled();
        let ev = evaluate_cv(&labels, TreeParams::default(), 5, 3);
        assert!(ev.mean_oracle_speedup() >= ev.mean_wise_speedup() - 1e-12);
        assert!(ev.mean_oracle_speedup() >= ev.mean_ie_speedup() - 1e-12);
        assert!(ev.mean_oracle_speedup() >= 1.0);
    }

    #[test]
    fn ie_overhead_exceeds_wise_overhead() {
        // The paper's core efficiency claim: trial-everything costs far
        // more preprocessing than predict-then-convert.
        let labels = labeled();
        let ev = evaluate_cv(&labels, TreeParams::default(), 5, 3);
        assert!(
            ev.mean_ie_overhead_iters() > ev.mean_wise_overhead_iters(),
            "IE {} vs WISE {}",
            ev.mean_ie_overhead_iters(),
            ev.mean_wise_overhead_iters()
        );
    }

    #[test]
    fn perfect_predictions_upper_bound_cv() {
        let labels = labeled();
        let perfect_confusion = |ci: usize| {
            ConfusionMatrix::from_pairs(
                N_CLASSES,
                labels.matrices.iter().map(|m| (m.classes[ci].index(), m.classes[ci].index())),
            )
        };
        let perfect = CvEvaluation::from_predictions(
            &labels,
            labels.matrices.iter().map(|m| m.classes.clone()).collect(),
            (0..labels.catalog.len()).map(perfect_confusion).collect(),
        );
        let cv = evaluate_cv(&labels, TreeParams::default(), 5, 3);
        // Perfect class knowledge can't be slower on average than CV
        // predictions under the same selection rule... modulo the
        // coarseness of classes; allow small slack.
        assert!(perfect.mean_wise_speedup() >= cv.mean_wise_speedup() * 0.95);
        // And every confusion matrix is diagonal.
        for c in &perfect.confusions {
            assert_eq!(c.accuracy(), 1.0);
        }
    }

    #[test]
    fn planned_evaluation_matches_unplanned_across_params() {
        // One CvPlan reused for several grid cells must reproduce the
        // from-scratch evaluation exactly — the Table 4 fast path.
        let labels = labeled();
        let plan = CvPlan::build(&labels, 5, 3);
        for params in [
            TreeParams::default(),
            TreeParams { max_depth: 5, ccp_alpha: 0.0, ..Default::default() },
            TreeParams { max_depth: 20, ccp_alpha: 0.05, ..Default::default() },
        ] {
            let fresh = evaluate_cv(&labels, params, 5, 3);
            let planned = evaluate_cv_planned(&labels, &plan, params);
            assert_eq!(planned.predictions, fresh.predictions);
            assert_eq!(planned.confusions, fresh.confusions);
            assert_eq!(
                planned.outcomes.iter().map(|o| o.wise_index).collect::<Vec<_>>(),
                fresh.outcomes.iter().map(|o| o.wise_index).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn accuracy_is_reasonable_on_tiny_corpus() {
        let labels = labeled();
        let ev = evaluate_cv(&labels, TreeParams::default(), 5, 3);
        let mean_acc: f64 =
            ev.confusions.iter().map(|c| c.accuracy()).sum::<f64>() / ev.confusions.len() as f64;
        // Tiny corpus: demand only "clearly better than chance" (1/7).
        assert!(mean_acc > 0.4, "mean accuracy {mean_acc}");
    }
}
