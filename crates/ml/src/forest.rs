//! Random forests (bootstrap-aggregated decision trees).
//!
//! The paper uses single pruned trees; a forest is the obvious
//! robustness extension and powers the model ablation
//! (`wise-bench --bin ablation_models`). Bagging only: each tree sees a
//! bootstrap resample of the training set; prediction is a majority
//! vote with ties broken toward the lower class (conservative: never
//! over-promise speedup on a tie).

use crate::dataset::Dataset;
use crate::tree::{argmax, DecisionTree, TreeParams};
use wise_gen::SplitMix64;

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    pub n_trees: usize,
    pub tree: TreeParams,
    /// Bootstrap RNG seed; the whole fit is deterministic.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams { n_trees: 25, tree: TreeParams::default(), seed: 0x5EED }
    }
}

/// A trained bagged ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Fits `params.n_trees` trees, each on a bootstrap resample.
    /// Resamples are index views over the shared feature matrix (no
    /// feature copies); each tree presorts its own view, since the
    /// bootstrap changes the value multiset.
    pub fn fit(data: &Dataset, params: ForestParams) -> RandomForest {
        assert!(params.n_trees >= 1, "forest needs at least one tree");
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let n = data.len();
        let trees = (0..params.n_trees)
            .map(|t| {
                let mut rng = SplitMix64::seed_from_u64(params.seed.wrapping_add(t as u64));
                let sample: Vec<usize> = (0..n).map(|_| rng.below(n)).collect();
                DecisionTree::fit(&data.subset(&sample), params.tree)
            })
            .collect();
        RandomForest { trees, n_classes: data.n_classes() }
    }

    /// Majority vote over trees; ties break toward the lower class.
    pub fn predict(&self, row: &[f64]) -> u32 {
        let mut votes = vec![0usize; self.n_classes];
        for t in &self.trees {
            votes[t.predict(row) as usize] += 1;
        }
        argmax(&votes).0 as u32
    }

    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_dataset(seed: u64) -> Dataset {
        // Two informative features + label noise.
        let mut rng = SplitMix64::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..300).map(|_| vec![rng.next_f64(), rng.next_f64(), rng.next_f64()]).collect();
        let labels: Vec<u32> = rows
            .iter()
            .map(|r| {
                let clean = u32::from(r[0] + r[1] > 1.0);
                if rng.next_f64() < 0.15 {
                    1 - clean
                } else {
                    clean
                }
            })
            .collect();
        Dataset::new(rows, labels, 2)
    }

    #[test]
    fn forest_fits_and_predicts_in_range() {
        let d = noisy_dataset(1);
        let f = RandomForest::fit(&d, ForestParams { n_trees: 9, ..Default::default() });
        assert_eq!(f.n_trees(), 9);
        for i in 0..d.len() {
            assert!(f.predict(d.row(i)) < 2);
        }
    }

    #[test]
    fn forest_is_deterministic() {
        let d = noisy_dataset(2);
        let p = ForestParams { n_trees: 7, ..Default::default() };
        let a = RandomForest::fit(&d, p);
        let b = RandomForest::fit(&d, p);
        assert_eq!(a, b);
    }

    #[test]
    fn forest_generalizes_at_least_as_well_as_single_tree_on_noise() {
        // Train on one noisy draw, test on a fresh draw of the same
        // concept: the ensemble should not be (much) worse.
        let train = noisy_dataset(3);
        let test = noisy_dataset(4);
        let tree = DecisionTree::fit(
            &train,
            TreeParams { max_depth: 12, ccp_alpha: 0.0, ..Default::default() },
        );
        let forest = RandomForest::fit(
            &train,
            ForestParams {
                n_trees: 25,
                tree: TreeParams { max_depth: 12, ccp_alpha: 0.0, ..Default::default() },
                seed: 9,
            },
        );
        let acc = |predict: &dyn Fn(&[f64]) -> u32| {
            (0..test.len()).filter(|&i| predict(test.row(i)) == test.label(i)).count() as f64
                / test.len() as f64
        };
        let tree_acc = acc(&|row| tree.predict(row));
        let forest_acc = acc(&|row| forest.predict(row));
        assert!(forest_acc >= tree_acc - 0.03, "forest {forest_acc:.3} vs tree {tree_acc:.3}");
    }

    #[test]
    fn single_tree_forest_close_to_plain_tree() {
        // With one tree the only difference is the bootstrap resample.
        let d = noisy_dataset(5);
        let f = RandomForest::fit(&d, ForestParams { n_trees: 1, ..Default::default() });
        let agree = (0..d.len()).filter(|&i| f.predict(d.row(i)) == d.label(i)).count() as f64
            / d.len() as f64;
        assert!(agree > 0.7, "bootstrap tree should still track labels: {agree}");
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        let d = noisy_dataset(6);
        RandomForest::fit(&d, ForestParams { n_trees: 0, ..Default::default() });
    }
}
