//! Feature-group ablation (DESIGN.md §6): how much of WISE's end-to-end
//! speedup survives with only size features, size+skew, size+locality,
//! or the full Table 2 set — testing the paper's claim that skew *and*
//! locality features both matter.

use std::sync::Arc;
use wise_bench::*;
use wise_core::evaluate::{evaluate_cv_planned, CvPlan};
use wise_features::FeatureVector;
use wise_ml::{FeatureMatrix, TreeParams};

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

    let mut rows = Vec::new();
    for (name, idxs) in &variants {
        // One subset matrix per variant; the 29 per-config datasets are
        // label views over it and share one fold plan.
        let subset = FeatureMatrix::from_rows(
            labels
                .matrices
                .iter()
                .map(|m| idxs.iter().map(|&i| m.features.values()[i]).collect())
                .collect(),
        );
        let ev = evaluate_cv_planned(&labels, &CvPlan::over(Arc::new(subset), k, ctx.seed), params);
        let mean_acc =
            ev.confusions.iter().map(|c| c.accuracy()).sum::<f64>() / labels.catalog.len() as f64;
        let mean_speedup = ev.mean_wise_speedup();
        outln!("{:<14} {:>9} {:>9.1}% {:>11.2}x", name, idxs.len(), 100.0 * mean_acc, mean_speedup);
        rows.push(format!("{name},{},{mean_acc:.4},{mean_speedup:.4}", idxs.len()));
    }
    outln!("\nExpectation: accuracy and speedup improve monotonically toward the full set.");
    ctx.write_csv("ablation_features.csv", "variant,n_features,mean_accuracy,mean_speedup", &rows);
}
