//! Feature-group ablation (DESIGN.md §6): how much of WISE's end-to-end
//! speedup survives with only size features, size+skew, size+locality,
//! or the full Table 2 set — testing the paper's claim that skew *and*
//! locality features both matter.

use std::sync::Arc;
use wise_bench::*;
use wise_core::classes::N_CLASSES;
use wise_core::select::select_index;
use wise_features::FeatureVector;
use wise_ml::grid::{cross_val_confusion_planned, FoldPlan};
use wise_ml::{Dataset, FeatureMatrix, TreeParams};

/// Returns the feature indices of one named group.
fn group_indices(group: &str) -> Vec<usize> {
    let names = FeatureVector::names();
    let is_size = |n: &str| matches!(n, "n_rows" | "n_cols" | "nnz");
    let is_skew = |n: &str| {
        n.ends_with("_R") && !n.ends_with("uniqR") || n.ends_with("_C") && !n.ends_with("uniqC")
    };
    names
        .iter()
        .enumerate()
        .filter(|(_, n)| match group {
            "size" => is_size(n),
            "skew" => is_skew(n),
            "locality" => !is_size(n) && !is_skew(n),
            "full" => true,
            _ => panic!("unknown group {group}"),
        })
        .map(|(i, _)| i)
        .collect()
}

fn main() {
    let _trace = wise_bench::report::init();
    let ctx = BenchContext::from_env();
    let labels = ctx.full_labels();
    let k = 10.min(labels.len());
    let params = TreeParams::default();

    let variants: [(&str, Vec<usize>); 4] = [
        ("size-only", group_indices("size")),
        ("size+skew", {
            let mut v = group_indices("size");
            v.extend(group_indices("skew"));
            v
        }),
        ("size+locality", {
            let mut v = group_indices("size");
            v.extend(group_indices("locality"));
            v
        }),
        ("full (paper)", group_indices("full")),
    ];

    outln!(
        "== Ablation: feature groups vs end-to-end WISE speedup ({k}-fold CV, {} matrices) ==\n",
        labels.len()
    );
    outln!("{:<14} {:>9} {:>10} {:>12}", "features", "#features", "mean acc", "mean speedup");

    let mkl_index = labels.config_index(&wise_kernels::baseline::mkl_like_config().label());
    let mut rows = Vec::new();
    for (name, idxs) in &variants {
        // One subset matrix per variant; the 29 per-config datasets are
        // label views over it and share one fold plan (presorts built
        // once per fold, not per configuration).
        let subset_rows: Vec<Vec<f64>> = labels
            .matrices
            .iter()
            .map(|m| idxs.iter().map(|&i| m.features.values()[i]).collect())
            .collect();
        let matrix = Arc::new(FeatureMatrix::from_rows(subset_rows));
        let base_rows: Vec<u32> = (0..matrix.n_rows() as u32).collect();
        let plan = FoldPlan::build(&matrix, &base_rows, k, ctx.seed);
        let mut acc_sum = 0.0;
        let mut preds_per_cfg: Vec<Vec<u32>> = Vec::with_capacity(labels.catalog.len());
        for cfg_idx in 0..labels.catalog.len() {
            let y: Vec<u32> = labels.matrices.iter().map(|m| m.classes[cfg_idx].index()).collect();
            let ds = Dataset::from_matrix(Arc::clone(&matrix), y, N_CLASSES);
            let (pairs, cm) = cross_val_confusion_planned(&plan, &ds, params);
            acc_sum += cm.accuracy();
            preds_per_cfg.push(pairs.into_iter().map(|(_, p)| p).collect());
        }
        let mean_acc = acc_sum / labels.catalog.len() as f64;

        // End-to-end speedup with these predictions.
        let mut speedups = Vec::with_capacity(labels.len());
        for (mi, ml) in labels.matrices.iter().enumerate() {
            let preds: Vec<_> = (0..labels.catalog.len())
                .map(|ci| wise_core::SpeedupClass::from_index(preds_per_cfg[ci][mi]))
                .collect();
            let choice = select_index(&labels.catalog, &preds);
            speedups.push(ml.seconds[mkl_index] / ml.seconds[choice]);
        }
        let mean_speedup = speedups.iter().sum::<f64>() / speedups.len() as f64;
        outln!("{:<14} {:>9} {:>9.1}% {:>11.2}x", name, idxs.len(), 100.0 * mean_acc, mean_speedup);
        rows.push(format!("{name},{},{mean_acc:.4},{mean_speedup:.4}", idxs.len()));
    }
    outln!("\nExpectation: accuracy and speedup improve monotonically toward the full set.");
    ctx.write_csv("ablation_features.csv", "variant,n_features,mean_accuracy,mean_speedup", &rows);
}
