//! Model ablation (DESIGN.md §6): how WISE's end-to-end speedup changes
//! with (a) the classifier family — the paper's single pruned tree vs a
//! bagged random forest — and (b) the speedup-class granularity — the
//! paper's 7 classes vs a coarse {slowdown, parity, speedup} bucketing.
//!
//! Expectation: forests buy little (the features nearly determine the
//! class, so variance is low), while coarsening classes costs real
//! speedup because the selection heuristic can no longer distinguish a
//! 1.1x from a 2x configuration.

use std::sync::Arc;
use wise_bench::*;
use wise_core::classes::SpeedupClass;
use wise_core::evaluate::{evaluate_cv_planned, CvPlan};
use wise_core::{CvEvaluation, ModelRegistry};
use wise_ml::grid::{cross_val_confusion_planned, FoldPlan};
use wise_ml::{kfold_indices, Dataset, ForestParams, RandomForest, TreeParams};

/// Maps a 7-class label onto a coarse 3-class scheme:
/// 0 = slowdown (C0), 1 = parity (C1), 2 = any speedup (C2..C6).
fn coarse(c: SpeedupClass) -> u32 {
    match c {
        SpeedupClass::C0 => 0,
        SpeedupClass::C1 => 1,
        _ => 2,
    }
}

/// Representative class used for selection when only the coarse bucket
/// is known: the midpoint of the speedup range (C4).
fn coarse_to_class(b: u32) -> SpeedupClass {
    match b {
        0 => SpeedupClass::C0,
        1 => SpeedupClass::C1,
        _ => SpeedupClass::C4,
    }
}

fn main() {
    let _trace = wise_bench::report::init();
    let ctx = BenchContext::from_env();
    let labels = ctx.full_labels();
    let k = 10.min(labels.len());
    let n_cfg = labels.catalog.len();
    // One feature matrix shared by every variant's datasets; the fold
    // plan (split + per-fold presorts) is shared by the coarse-class
    // tree CV runs.
    let matrix = ModelRegistry::feature_matrix(&labels);
    let base_rows: Vec<u32> = (0..matrix.n_rows() as u32).collect();
    let plan = FoldPlan::build(&matrix, &base_rows, k, ctx.seed);

    outln!("== Model ablation ({k}-fold CV, {} matrices) ==\n", labels.len());
    let mut results: Vec<(String, f64)> = Vec::new();

    // (a) Single tree, 7 classes — the paper's configuration.
    let paper = evaluate_cv_planned(
        &labels,
        &CvPlan::over(Arc::clone(&matrix), k, ctx.seed),
        TreeParams::default(),
    );
    results.push(("tree, 7 classes (paper)".into(), paper.mean_wise_speedup()));

    // (b) Random forest, 7 classes.
    let folds = kfold_indices(labels.len(), k, ctx.seed);
    let mut forest_preds = vec![vec![SpeedupClass::C0; n_cfg]; labels.len()];
    #[allow(clippy::needless_range_loop)]
    for ci in 0..n_cfg {
        let ds = ModelRegistry::dataset_for_matrix(&matrix, &labels, ci);
        for (train_idx, test_idx) in &folds {
            let model = RandomForest::fit(
                &ds.subset(train_idx),
                ForestParams { n_trees: 15, ..Default::default() },
            );
            for &i in test_idx {
                forest_preds[i][ci] = SpeedupClass::from_index(model.predict(ds.row(i)));
            }
        }
    }

    // (c) Single tree, 3 coarse classes.
    let mut coarse_preds = vec![vec![SpeedupClass::C0; n_cfg]; labels.len()];
    for ci in 0..n_cfg {
        let y: Vec<u32> = labels.matrices.iter().map(|m| coarse(m.classes[ci])).collect();
        let ds = Dataset::from_matrix(Arc::clone(&matrix), y, 3);
        let (pairs, _) = cross_val_confusion_planned(&plan, &ds, TreeParams::default());
        for (row, (_, p)) in coarse_preds.iter_mut().zip(pairs) {
            row[ci] = coarse_to_class(p);
        }
    }

    // Scored as picks alongside the perfect-class bound; the oracle row
    // is the paper run's exact-time reference.
    let perfect = labels.matrices.iter().map(|m| m.classes.clone()).collect();
    for (name, predictions) in [
        ("forest(15), 7 classes", forest_preds),
        ("tree, 3 coarse classes", coarse_preds),
        ("perfect classes (bound)", perfect),
    ] {
        let ev = CvEvaluation::from_predictions(&labels, predictions, Vec::new());
        results.push((name.into(), ev.mean_wise_speedup()));
    }
    results.push(("oracle (exact times)".into(), paper.mean_oracle_speedup()));

    outln!("{:<28} {:>14}", "variant", "mean speedup");
    let mut csv = Vec::new();
    for (name, speedup) in &results {
        outln!("{name:<28} {speedup:>13.3}x");
        csv.push(format!("{name},{speedup:.4}"));
    }
    ctx.write_csv("ablation_models.csv", "variant,mean_wise_speedup", &csv);
}
