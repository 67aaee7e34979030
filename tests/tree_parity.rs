//! Bit-parity suite for the presorted columnar training engine:
//! `DecisionTree::fit` must produce *identical* trees (same node ids,
//! same thresholds bit for bit) to the exact reference trainer
//! `DecisionTree::fit_reference` — on every shape, hyperparameter and
//! degenerate layout we can throw at it. Comparing the JSON encodings
//! covers every field, including float thresholds, bit for bit.

use wise_gen::SplitMix64;
use wise_ml::{Dataset, DecisionTree, Presort, TreeParams};
use wise_trace::export::json::ToJson;

/// Seeded dataset with a tunable duplicate-value lattice: values are
/// drawn from `modulus` distinct levels, so small moduli force heavy
/// ties and equal-value split boundaries. `constant_cols` leading
/// features are constant (never splittable).
fn dataset(
    seed: u64,
    n: usize,
    f: usize,
    classes: usize,
    modulus: u64,
    constant_cols: usize,
) -> Dataset {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..f)
                .map(|j| {
                    if j < constant_cols {
                        7.5
                    } else {
                        (rng.next_u64() % modulus) as f64 / modulus as f64
                    }
                })
                .collect()
        })
        .collect();
    let labels: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32 % classes as u32).collect();
    Dataset::new(rows, labels, classes)
}

fn assert_parity(d: &Dataset, params: TreeParams, what: &str) -> DecisionTree {
    let reference = DecisionTree::fit_reference(d, params);
    let engine = DecisionTree::fit(d, params);
    assert_eq!(
        reference.to_json(),
        engine.to_json(),
        "engine diverged from reference on {what} (params {params:?})"
    );
    engine
}

/// `predict` and `decision_path` agree on every row of `d`. Pruned
/// trees keep unreachable descendants, so this also pins the walk to
/// the reachable tree that `split_features` and `depth` describe.
fn assert_walks_agree(tree: &DecisionTree, d: &Dataset) {
    let read = tree.split_features();
    for i in 0..d.len() {
        let row = d.row(i);
        let full = tree.decision_path(row);
        assert_eq!(tree.predict(row), full.leaf_class, "row {i}");
        assert!(full.depth() <= tree.depth(), "row {i}");
        assert!(full.steps.iter().all(|s| read.contains(&(s.feature as usize))), "row {i}");
        assert!(full.steps.iter().all(|s| s.went_left == (s.value <= s.threshold)), "row {i}");
    }
}

#[test]
fn parity_across_seeded_sweep() {
    // >= 54 seeded datasets x a hyperparameter grid sweeping depth,
    // pruning strength and leaf-size floors, with tie-heavy and
    // tie-free value distributions. Every fitted tree's walks must
    // agree with each other too.
    let mut n_datasets = 0usize;
    for seed in 0..6u64 {
        for &(n, f, classes) in &[(60usize, 4usize, 3usize), (150, 8, 5), (300, 6, 7)] {
            for &modulus in &[5u64, 23, 1 << 40] {
                let d = dataset(seed * 31 + 1, n, f, classes, modulus, 0);
                n_datasets += 1;
                for &max_depth in &[2usize, 5, 30] {
                    for &ccp_alpha in &[0.0f64, 0.005, 0.1] {
                        let params = TreeParams { max_depth, ccp_alpha, ..Default::default() };
                        let tree = assert_parity(&d, params, "seeded sweep");
                        assert_walks_agree(&tree, &d);
                    }
                }
                for &min_samples_leaf in &[2usize, 7] {
                    let params =
                        TreeParams { max_depth: 12, min_samples_leaf, ..Default::default() };
                    let tree = assert_parity(&d, params, "leaf-floor sweep");
                    assert_walks_agree(&tree, &d);
                }
            }
        }
    }
    assert!(n_datasets >= 50, "sweep shrank below spec: {n_datasets} datasets");
}

#[test]
fn parity_with_constant_columns() {
    // Constant features offer no split boundary; both trainers must
    // skip them identically — including the all-constant dataset,
    // which must be a single leaf.
    for seed in 0..4u64 {
        let d = dataset(seed, 80, 6, 4, 13, 3);
        assert_parity(&d, TreeParams::default(), "3 constant columns");
        let all_const = dataset(seed, 50, 4, 3, 13, 4);
        let tree = DecisionTree::fit(&all_const, TreeParams::default());
        assert_eq!(tree.n_nodes(), 1, "unsplittable data must stay a single leaf");
        assert_parity(&all_const, TreeParams::default(), "all-constant columns");
    }
}

#[test]
fn parity_on_subset_views_and_shared_presort() {
    // Fold-style subset views (the cross-validation path) and an
    // explicitly shared presort across label views (the registry path)
    // must match per-view reference fits.
    let d = dataset(9, 120, 5, 4, 11, 1);
    let params = TreeParams::default();
    let idx: Vec<usize> = (0..120).filter(|i| i % 3 != 0).collect();
    let sub = d.subset(&idx);
    assert_parity(&sub, params, "subset view");

    let presort = Presort::for_dataset(&sub);
    let relabeled = {
        let labels: Vec<u32> = (0..sub.len()).map(|i| (i % 4) as u32).collect();
        Dataset::from_matrix_rows(
            std::sync::Arc::clone(sub.matrix()),
            sub.row_indices().to_vec(),
            labels,
            4,
        )
    };
    for view in [&sub, &relabeled] {
        let shared = DecisionTree::fit_with(view, &presort, params);
        let reference = DecisionTree::fit_reference(view, params);
        assert_eq!(
            shared.to_json(),
            reference.to_json(),
            "shared presort diverged on a label view"
        );
    }
}

#[test]
fn parity_on_bootstrap_resamples() {
    // Repeated rows (the forest path) — duplicate samples mean exact
    // value ties across *positions*, the hardest stability case.
    let d = dataset(17, 90, 4, 3, 7, 0);
    let mut rng = SplitMix64::seed_from_u64(99);
    for _ in 0..5 {
        let sample: Vec<usize> = (0..90).map(|_| rng.below(90)).collect();
        assert_parity(&d.subset(&sample), TreeParams::default(), "bootstrap resample");
    }
}

/// Random shapes, moduli and hyperparameters: the engine never
/// diverges from the reference.
#[test]
fn parity_holds_on_random_datasets() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::seed_from_u64(case);
        let seed = rng.below(10_000) as u64;
        let n = 5 + rng.below(115);
        let f = 1 + rng.below(6);
        let classes = 2 + rng.below(4);
        let modulus = 2 + rng.below(38) as u64;
        let max_depth = 1 + rng.below(11);
        let ccp_alpha = [0.0, 0.01, 0.08][rng.below(3)];
        let d = dataset(seed, n, f, classes, modulus, 0);
        let params = TreeParams { max_depth, ccp_alpha, ..Default::default() };
        assert_parity(&d, params, &format!("random case {case}"));
    }
}
