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
use wise_core::classes::{SpeedupClass, N_CLASSES};
use wise_core::select::select_index;
use wise_ml::grid::{cross_val_confusion_planned, FoldPlan};
use wise_ml::{kfold_indices, Dataset, FeatureMatrix, ForestParams, RandomForest, TreeParams};

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
    let mkl_index = labels.config_index(&wise_kernels::baseline::mkl_like_config().label());
    // One feature matrix shared by every variant's datasets; one fold
    // plan (split + per-fold presorts) shared by every tree CV run.
    let matrix = Arc::new(FeatureMatrix::from_row_slices(
        labels.matrices.len(),
        labels.matrices.iter().map(|m| m.features.values()),
    ));
    let base_rows: Vec<u32> = (0..matrix.n_rows() as u32).collect();
    let plan = FoldPlan::build(&matrix, &base_rows, k, ctx.seed);

    let end_to_end = |preds_per_cfg: &[Vec<SpeedupClass>]| -> f64 {
        let mut total = 0.0;
        for (mi, ml) in labels.matrices.iter().enumerate() {
            let preds: Vec<SpeedupClass> = (0..n_cfg).map(|ci| preds_per_cfg[ci][mi]).collect();
            let choice = select_index(&labels.catalog, &preds);
            total += ml.seconds[mkl_index] / ml.seconds[choice];
        }
        total / labels.len() as f64
    };

    outln!("== Model ablation ({k}-fold CV, {} matrices) ==\n", labels.len());
    let mut results: Vec<(String, f64)> = Vec::new();

    // (a) Single tree, 7 classes — the paper's configuration.
    {
        let mut preds = Vec::with_capacity(n_cfg);
        for ci in 0..n_cfg {
            let y: Vec<u32> = labels.matrices.iter().map(|m| m.classes[ci].index()).collect();
            let ds = Dataset::from_matrix(Arc::clone(&matrix), y, N_CLASSES);
            let (pairs, _) = cross_val_confusion_planned(&plan, &ds, TreeParams::default());
            preds.push(
                pairs.into_iter().map(|(_, p)| SpeedupClass::from_index(p)).collect::<Vec<_>>(),
            );
        }
        results.push(("tree, 7 classes (paper)".into(), end_to_end(&preds)));
    }

    // (b) Random forest, 7 classes.
    {
        let folds = kfold_indices(labels.len(), k, ctx.seed);
        let mut preds = vec![vec![SpeedupClass::C0; labels.len()]; n_cfg];
        #[allow(clippy::needless_range_loop)]
        for ci in 0..n_cfg {
            let y: Vec<u32> = labels.matrices.iter().map(|m| m.classes[ci].index()).collect();
            let ds = Dataset::from_matrix(Arc::clone(&matrix), y, N_CLASSES);
            for (train_idx, test_idx) in &folds {
                let forest = RandomForest::fit(
                    &ds.subset(train_idx),
                    ForestParams { n_trees: 15, ..Default::default() },
                );
                for &i in test_idx {
                    preds[ci][i] = SpeedupClass::from_index(forest.predict(ds.row(i)));
                }
            }
        }
        results.push(("forest(15), 7 classes".into(), end_to_end(&preds)));
    }

    // (c) Single tree, 3 coarse classes.
    {
        let mut preds = vec![vec![SpeedupClass::C0; labels.len()]; n_cfg];
        #[allow(clippy::needless_range_loop)]
        for ci in 0..n_cfg {
            let y: Vec<u32> = labels.matrices.iter().map(|m| coarse(m.classes[ci])).collect();
            let ds = Dataset::from_matrix(Arc::clone(&matrix), y, 3);
            let (pairs, _) = cross_val_confusion_planned(&plan, &ds, TreeParams::default());
            for (i, (_, p)) in pairs.into_iter().enumerate() {
                preds[ci][i] = coarse_to_class(p);
            }
        }
        results.push(("tree, 3 coarse classes".into(), end_to_end(&preds)));
    }

    // Reference points.
    {
        let perfect: Vec<Vec<SpeedupClass>> =
            (0..n_cfg).map(|ci| labels.matrices.iter().map(|m| m.classes[ci]).collect()).collect();
        results.push(("perfect classes (bound)".into(), end_to_end(&perfect)));
        let oracle: f64 = labels
            .matrices
            .iter()
            .map(|ml| ml.seconds[mkl_index] / ml.seconds[ml.oracle_index()])
            .sum::<f64>()
            / labels.len() as f64;
        results.push(("oracle (exact times)".into(), oracle));
    }

    outln!("{:<28} {:>14}", "variant", "mean speedup");
    let mut csv = Vec::new();
    for (name, speedup) in &results {
        outln!("{name:<28} {speedup:>13.3}x");
        csv.push(format!("{name},{speedup:.4}"));
    }
    ctx.write_csv("ablation_models.csv", "variant,mean_wise_speedup", &csv);
}
