//! Hyperparameter grid sweeps (paper Table 4) and cross-validated
//! evaluation helpers.
//!
//! Cross-validation is backed by a [`FoldPlan`]: the seeded fold split
//! plus one prebuilt [`Presort`] per fold's training subset. The
//! presort layer is label-independent, so one plan serves every tree
//! configuration (the 29 registry models) *and* every Table 4 grid
//! cell over the same feature matrix — the whole
//! `grid x configs x folds` pyramid sorts each fold's columns exactly
//! once.

use crate::confusion::ConfusionMatrix;
use crate::dataset::{kfold_indices, Dataset, FeatureMatrix};
use crate::presort::Presort;
use crate::tree::{DecisionTree, TreeParams};
use std::sync::Arc;

/// The paper's Table 4 axes.
pub const DEPTH_GRID: [usize; 4] = [5, 10, 15, 20];
pub const CCP_GRID: [f64; 6] = [0.0, 0.001, 0.005, 0.01, 0.05, 0.1];

/// One cell of a grid sweep (`wise_core::evaluate::sweep_table4`
/// fills the grid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCell {
    pub max_depth: usize,
    pub ccp_alpha: f64,
    pub score: f64,
}

/// A reusable cross-validation plan over one feature-matrix view: the
/// seeded k-fold split plus a presorted columnar layer per fold's
/// training subset. Build once, fit many — the plan is immutable and
/// `Sync`, so grid cells and configurations can evaluate against it in
/// parallel.
#[derive(Debug, Clone)]
pub struct FoldPlan {
    matrix: Arc<FeatureMatrix>,
    /// Matrix row behind each base-dataset position.
    base_rows: Vec<u32>,
    folds: Vec<(Vec<usize>, Vec<usize>)>,
    /// One presort per fold, over that fold's training subset.
    presorts: Vec<Presort>,
    k: usize,
    seed: u64,
}

impl FoldPlan {
    /// Builds the plan for a view of `matrix` (`base_rows` is the
    /// matrix row behind each sample position; pass the identity for a
    /// full-matrix dataset).
    pub fn build(matrix: &Arc<FeatureMatrix>, base_rows: &[u32], k: usize, seed: u64) -> FoldPlan {
        let folds = kfold_indices(base_rows.len(), k, seed);
        let presorts: Vec<Presort> = folds
            .iter()
            .map(|(train_idx, _)| {
                let rows: Vec<u32> = train_idx.iter().map(|&i| base_rows[i]).collect();
                Presort::build(matrix, &rows)
            })
            .collect();
        FoldPlan {
            matrix: Arc::clone(matrix),
            base_rows: base_rows.to_vec(),
            folds,
            presorts,
            k,
            seed,
        }
    }

    /// Builds the plan for an existing dataset's view (labels are
    /// ignored — the plan is label-independent).
    pub fn for_dataset(data: &Dataset, k: usize, seed: u64) -> FoldPlan {
        Self::build(data.matrix(), data.row_indices(), k, seed)
    }

    /// `(train, test)` position indices per fold.
    pub fn folds(&self) -> &[(Vec<usize>, Vec<usize>)] {
        &self.folds
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether this plan was built for exactly `data`'s view.
    pub fn matches(&self, data: &Dataset) -> bool {
        Arc::ptr_eq(&self.matrix, data.matrix()) && self.base_rows == data.row_indices()
    }

    /// The training subset of fold `f` for a dataset sharing this
    /// plan's view, as a cheap view dataset.
    fn train_subset(&self, data: &Dataset, f: usize) -> Dataset {
        data.subset(&self.folds[f].0)
    }
}

/// K-fold cross-validated predictions for one tree configuration:
/// returns `(true, predicted)` pairs covering every sample exactly once,
/// plus the combined confusion matrix — the construction behind
/// Figure 10. Builds a fresh [`FoldPlan`]; when evaluating many
/// configurations or grid cells over the same features, build the plan
/// once and call [`cross_val_confusion_planned`].
pub fn cross_val_confusion(
    data: &Dataset,
    params: TreeParams,
    k: usize,
    seed: u64,
) -> (Vec<(u32, u32)>, ConfusionMatrix) {
    let plan = FoldPlan::for_dataset(data, k, seed);
    cross_val_confusion_planned(&plan, data, params)
}

/// [`cross_val_confusion`] against a prebuilt [`FoldPlan`] (shared
/// presort layer; no per-call sorting). `data` must share the plan's
/// matrix view — labels are free to differ, which is exactly what the
/// 29 per-configuration datasets do.
pub fn cross_val_confusion_planned(
    plan: &FoldPlan,
    data: &Dataset,
    params: TreeParams,
) -> (Vec<(u32, u32)>, ConfusionMatrix) {
    assert!(plan.matches(data), "fold plan was built for a different dataset view");
    let mut pairs = vec![(0u32, 0u32); data.len()];
    let mut cm = ConfusionMatrix::new(data.n_classes());
    for (f, (_, test_idx)) in plan.folds.iter().enumerate() {
        let train = plan.train_subset(data, f);
        let tree = DecisionTree::fit_with(&train, &plan.presorts[f], params);
        for &i in test_idx {
            let truth = data.label(i);
            let pred = tree.predict(data.row(i));
            pairs[i] = (truth, pred);
            cm.record(truth, pred);
        }
    }
    (pairs, cm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        // Cleanly separable three-class problem.
        let rows: Vec<Vec<f64>> = (0..90).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let labels: Vec<u32> = (0..90).map(|i| (i / 30) as u32).collect();
        Dataset::new(rows, labels, 3)
    }

    #[test]
    fn cross_val_covers_every_sample() {
        let d = dataset();
        let (pairs, cm) = cross_val_confusion(&d, TreeParams::default(), 10, 1);
        assert_eq!(pairs.len(), d.len());
        assert_eq!(cm.total(), d.len() as u64);
        // Separable data: held-out accuracy should be high.
        assert!(cm.accuracy() > 0.9, "accuracy {}", cm.accuracy());
        // Truth labels recorded faithfully.
        for (i, &(t, _)) in pairs.iter().enumerate() {
            assert_eq!(t, d.label(i));
        }
    }

    #[test]
    fn cross_val_deterministic() {
        let d = dataset();
        let a = cross_val_confusion(&d, TreeParams::default(), 5, 3);
        let b = cross_val_confusion(&d, TreeParams::default(), 5, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn planned_cross_val_matches_unplanned_across_label_sets() {
        // One plan, two label assignments over the same matrix: each
        // must reproduce its own from-scratch run exactly.
        let d = dataset();
        let plan = FoldPlan::for_dataset(&d, 5, 7);
        let alt_labels: Vec<u32> = (0..d.len()).map(|i| (i % 3) as u32).collect();
        let alt = Dataset::from_matrix(Arc::clone(d.matrix()), alt_labels, 3);
        for data in [&d, &alt] {
            let (pairs_a, cm_a) = cross_val_confusion_planned(&plan, data, TreeParams::default());
            let (pairs_b, cm_b) = cross_val_confusion(data, TreeParams::default(), 5, 7);
            assert_eq!(pairs_a, pairs_b);
            assert_eq!(cm_a, cm_b);
        }
    }

    #[test]
    #[should_panic(expected = "different dataset view")]
    fn plan_rejects_foreign_dataset() {
        let d = dataset();
        let plan = FoldPlan::for_dataset(&d, 5, 7);
        let other = dataset(); // same contents, different matrix allocation
        cross_val_confusion_planned(&plan, &other, TreeParams::default());
    }
}
