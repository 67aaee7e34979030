//! CART classification trees with Gini splits and minimal
//! cost-complexity pruning (paper Section 4.3).
//!
//! Matches the sklearn configuration the paper uses: Gini impurity
//! split criterion, `max_depth = 15`, `ccp_alpha = 0.005` by default.
//! Fitting is fully deterministic — features are scanned in order and
//! the first best split wins — so trained models are reproducible
//! artifacts.
//!
//! [`DecisionTree::fit`] runs the presorted columnar engine
//! ([`crate::presort`]): each feature column is sorted once per fit and
//! the sorted order is threaded down the tree by stable partition, so
//! split search is `O(n_features * n)` per node instead of
//! `O(n_features * n log n)`. The original node-local re-sorting
//! trainer is kept as [`DecisionTree::fit_reference`] — the parity
//! oracle; `tests/tree_parity.rs` asserts the two produce bit-identical
//! trees.

use crate::dataset::Dataset;
use crate::presort::Presort;
use wise_trace::export::json::JsonError;

/// Hyperparameters (paper defaults from Table 4's chosen cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples on each side of a split.
    pub min_samples_leaf: usize,
    /// Minimal cost-complexity pruning threshold.
    pub ccp_alpha: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 15, min_samples_split: 2, min_samples_leaf: 1, ccp_alpha: 0.005 }
    }
}

/// One tree node. Leaves have `feature == u32::MAX`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Node {
    /// Split feature index, or `u32::MAX` for a leaf.
    pub(crate) feature: u32,
    /// Split threshold: `x[feature] <= threshold` goes left.
    pub(crate) threshold: f64,
    pub(crate) left: u32,
    pub(crate) right: u32,
    /// Majority class at this node.
    pub(crate) class: u32,
    /// Training samples that reached this node.
    pub(crate) n_samples: u32,
    /// Misclassified training fraction if this node were a leaf,
    /// weighted by n_samples/n_total (the R(t) of pruning).
    pub(crate) node_risk: f64,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.feature == u32::MAX
    }
}

/// Outcome of [`DecisionTree::predict_partial`]: the walk over a
/// partially-known feature row, stopped at the first split on an
/// unknown feature (or at a true leaf).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialPrediction {
    /// Majority class at the stopping node.
    pub class: u32,
    /// Training-frequency confidence in `class`: the stopping node's
    /// majority fraction, or exactly 1.0 when the walk reached a leaf
    /// (the partial walk then provably equals the full walk on every
    /// completion of the row).
    pub confidence: f64,
    /// Whether every split en route tested a known feature.
    pub reached_leaf: bool,
    /// Internal nodes crossed before stopping.
    pub depth: u32,
}

/// A trained classification tree.
///
/// ```
/// use wise_ml::{Dataset, DecisionTree, TreeParams};
/// let data = Dataset::new(
///     vec![vec![0.1], vec![0.2], vec![0.8], vec![0.9]],
///     vec![0, 0, 1, 1],
///     2,
/// );
/// let tree = DecisionTree::fit(&data, TreeParams::default());
/// assert_eq!(tree.predict(&[0.05]), 0);
/// assert_eq!(tree.predict(&[0.95]), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
    n_classes: usize,
    params: TreeParams,
}

wise_trace::json_struct!(TreeParams { max_depth, min_samples_split, min_samples_leaf, ccp_alpha });
wise_trace::json_struct!(Node { feature, threshold, left, right, class, n_samples, node_risk });
wise_trace::json_struct!(DecisionTree { nodes, n_features, n_classes, params } check DecisionTree::check);

impl DecisionTree {
    /// Rejects decoded trees whose walks could index out of bounds or
    /// loop (splits must point forward to existing nodes).
    fn check(&self) -> Result<(), JsonError> {
        let len = self.nodes.len();
        let ok = |(i, n): (usize, &Node)| {
            (n.class as usize) < self.n_classes
                && (n.is_leaf()
                    || (n.feature as usize) < self.n_features
                        && [n.left, n.right].iter().all(|&c| (i + 1..len).contains(&(c as usize))))
        };
        if len == 0 || !self.nodes.iter().enumerate().all(ok) {
            return Err(JsonError::Invalid("tree nodes do not form a valid tree".into()));
        }
        Ok(())
    }

    /// Fits a tree on `data` with `params`, then applies cost-complexity
    /// pruning at `params.ccp_alpha`. Uses the presorted columnar
    /// engine; the result is bit-identical to
    /// [`DecisionTree::fit_reference`].
    pub fn fit(data: &Dataset, params: TreeParams) -> DecisionTree {
        let _span = wise_trace::span("ml.fit");
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let presort = Presort::for_dataset(data);
        Self::fit_presorted(data, &presort, params)
    }

    /// Fits with a prebuilt, shareable [`Presort`] (which is
    /// label-independent, so one presort serves every fit over the same
    /// `(matrix, row set)` — e.g. all 29 registry models, or all 24
    /// Table 4 cells of one cross-validation fold). Panics if `presort`
    /// was built for a different view.
    pub fn fit_with(data: &Dataset, presort: &Presort, params: TreeParams) -> DecisionTree {
        let _span = wise_trace::span("ml.fit");
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        assert!(presort.matches(data), "presort was built for a different dataset view");
        Self::fit_presorted(data, presort, params)
    }

    fn fit_presorted(data: &Dataset, presort: &Presort, params: TreeParams) -> DecisionTree {
        let nodes = crate::presort::grow(data, presort, params);
        wise_trace::counter("train.tree.nodes", nodes.len() as u64);
        let mut tree = DecisionTree {
            nodes,
            n_features: data.n_features(),
            n_classes: data.n_classes(),
            params,
        };
        tree.prune(params.ccp_alpha);
        tree
    }

    /// The original exact trainer — re-sorts every feature column at
    /// every node. Kept as the parity oracle for the presorted engine
    /// (`tests/tree_parity.rs` asserts `fit == fit_reference`
    /// bit-for-bit); prefer [`DecisionTree::fit`] everywhere else.
    pub fn fit_reference(data: &Dataset, params: TreeParams) -> DecisionTree {
        let _span = wise_trace::span("ml.fit");
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_features: data.n_features(),
            n_classes: data.n_classes(),
            params,
        };
        let indices: Vec<u32> = (0..data.len() as u32).collect();
        tree.build(data, indices, 0);
        tree.prune(params.ccp_alpha);
        tree
    }

    /// Recursively builds the subtree for `indices`; returns its node id.
    fn build(&mut self, data: &Dataset, indices: Vec<u32>, depth: usize) -> u32 {
        let counts = class_counts(data, &indices, self.n_classes);
        let (majority, majority_n) = argmax(&counts);
        let n = indices.len();
        let node_risk = (n - majority_n) as f64 / data.len() as f64;
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            feature: u32::MAX,
            threshold: 0.0,
            left: 0,
            right: 0,
            class: majority as u32,
            n_samples: n as u32,
            node_risk,
        });

        let pure = majority_n == n;
        if pure || depth >= self.params.max_depth || n < self.params.min_samples_split {
            return id;
        }
        let Some((feature, threshold)) = self.best_split(data, &indices, &counts) else {
            return id;
        };
        let (left_idx, right_idx): (Vec<u32>, Vec<u32>) =
            indices.into_iter().partition(|&i| data.row(i as usize)[feature] <= threshold);
        debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());
        let left = self.build(data, left_idx, depth + 1);
        let right = self.build(data, right_idx, depth + 1);
        let node = &mut self.nodes[id as usize];
        node.feature = feature as u32;
        node.threshold = threshold;
        node.left = left;
        node.right = right;
        id
    }

    /// Exhaustive best Gini split over all features; `None` if no split
    /// satisfies the leaf-size constraint or improves impurity.
    fn best_split(
        &self,
        data: &Dataset,
        indices: &[u32],
        parent_counts: &[usize],
    ) -> Option<(usize, f64)> {
        let n = indices.len() as f64;
        let parent_gini = gini_from_counts(parent_counts, indices.len());
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<(f64, usize, f64)> = None; // (impurity, feature, threshold)

        let mut sorted: Vec<(f64, u32)> = Vec::with_capacity(indices.len());
        for feature in 0..self.n_features {
            sorted.clear();
            sorted.extend(
                indices.iter().map(|&i| (data.row(i as usize)[feature], data.label(i as usize))),
            );
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut left_counts = vec![0usize; self.n_classes];
            let mut left_n = 0usize;
            for w in 0..sorted.len() - 1 {
                let (v, label) = sorted[w];
                left_counts[label as usize] += 1;
                left_n += 1;
                let v_next = sorted[w + 1].0;
                if v == v_next {
                    continue; // can't split between equal values
                }
                let right_n = sorted.len() - left_n;
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                // Weighted child Gini. Like sklearn, a split is
                // acceptable even at zero impurity decrease (ties with
                // the parent); recursion still terminates because both
                // children are strictly smaller. Among candidates the
                // first strictly-best split wins (deterministic).
                let gl = gini_incremental(&left_counts, left_n);
                let gr = gini_remainder(parent_counts, &left_counts, right_n);
                let weighted = (left_n as f64 * gl + right_n as f64 * gr) / n;
                let bar = best.map_or(parent_gini + 1e-12, |(b, _, _)| b);
                if weighted < bar {
                    let threshold = v + (v_next - v) / 2.0;
                    best = Some((weighted, feature, threshold));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }

    /// Minimal cost-complexity pruning: repeatedly collapse the internal
    /// node with the weakest link strength
    /// `g(t) = (R(t) - R(T_t)) / (|leaves(T_t)| - 1)`
    /// while `g(t) <= alpha` (Breiman et al.; sklearn's `ccp_alpha`).
    fn prune(&mut self, alpha: f64) {
        if alpha <= 0.0 {
            return;
        }
        loop {
            // Subtree risk and leaf count per node.
            let (risk, leaves) = self.subtree_stats();
            let mut weakest: Option<(f64, usize)> = None;
            for (i, node) in self.nodes.iter().enumerate() {
                if node.is_leaf() || !self.reachable(i) {
                    continue;
                }
                let nl = leaves[i];
                if nl <= 1 {
                    continue;
                }
                let g = (node.node_risk - risk[i]) / (nl as f64 - 1.0);
                if weakest.is_none_or(|(wg, _)| g < wg) {
                    weakest = Some((g, i));
                }
            }
            match weakest {
                Some((g, i)) if g <= alpha => {
                    let node = &mut self.nodes[i];
                    node.feature = u32::MAX;
                }
                _ => break,
            }
        }
    }

    /// `(R(T_t), |leaves(T_t)|)` for every node (children processed
    /// before parents because children always have larger ids).
    fn subtree_stats(&self) -> (Vec<f64>, Vec<usize>) {
        let n = self.nodes.len();
        let mut risk = vec![0.0f64; n];
        let mut leaves = vec![0usize; n];
        for i in (0..n).rev() {
            let node = &self.nodes[i];
            if node.is_leaf() {
                risk[i] = node.node_risk;
                leaves[i] = 1;
            } else {
                risk[i] = risk[node.left as usize] + risk[node.right as usize];
                leaves[i] = leaves[node.left as usize] + leaves[node.right as usize];
            }
        }
        (risk, leaves)
    }

    /// Whether node `i` is still reachable from the root (pruning turns
    /// ancestors into leaves without removing descendants).
    fn reachable(&self, target: usize) -> bool {
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            if i == target {
                return true;
            }
            let node = &self.nodes[i];
            if !node.is_leaf() {
                stack.push(node.left as usize);
                stack.push(node.right as usize);
            }
        }
        false
    }

    /// Predicts the class of one feature row.
    pub fn predict(&self, row: &[f64]) -> u32 {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let mut i = 0usize;
        loop {
            let node = &self.nodes[i];
            if node.is_leaf() {
                return node.class;
            }
            i = if row[node.feature as usize] <= node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    /// Predicts every row of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<u32> {
        (0..data.len()).map(|i| self.predict(data.row(i))).collect()
    }

    /// Predicts one row *and* records the root-to-leaf walk that
    /// produced the prediction (see [`crate::explain`]). The returned
    /// path's `leaf_class` always equals [`DecisionTree::predict`] on
    /// the same row.
    pub fn decision_path(&self, row: &[f64]) -> crate::explain::DecisionPath {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        let mut path = crate::explain::DecisionPath::default();
        let mut i = 0usize;
        loop {
            let node = &self.nodes[i];
            if node.is_leaf() {
                path.leaf_class = node.class;
                path.leaf_samples = node.n_samples;
                return path;
            }
            let value = row[node.feature as usize];
            let went_left = value <= node.threshold;
            path.steps.push(crate::explain::DecisionStep {
                feature: node.feature,
                threshold: node.threshold,
                value,
                went_left,
                n_samples: node.n_samples,
            });
            i = if went_left { node.left as usize } else { node.right as usize };
        }
    }

    /// Walks the tree over a partially-known row, stopping at the
    /// first split whose feature is `None` (see
    /// `wise_core::cascade`): every comparison it *can* make uses the
    /// exact full-extraction value, so the walk prefix is identical to
    /// [`DecisionTree::predict`]'s on any completion of the row.
    ///
    /// When the walk reaches a true leaf the prediction therefore
    /// *provably equals* the full prediction and `confidence` is 1.
    /// When it stops early, the stopping node's majority class is
    /// returned with the majority training fraction as confidence —
    /// the probability (under training-set frequency) that completing
    /// the walk would land on the same class.
    pub fn predict_partial(&self, values: &[Option<f64>]) -> PartialPrediction {
        assert_eq!(values.len(), self.n_features, "feature count mismatch");
        let n_total = self.nodes[0].n_samples as f64;
        let mut i = 0usize;
        let mut depth = 0u32;
        loop {
            let node = &self.nodes[i];
            if node.is_leaf() {
                return PartialPrediction {
                    class: node.class,
                    confidence: 1.0,
                    reached_leaf: true,
                    depth,
                };
            }
            let Some(v) = values[node.feature as usize] else {
                // node_risk is weighted by n_samples/n_total; unweight
                // it to recover the node-local majority fraction.
                let confidence = if node.n_samples == 0 {
                    0.0
                } else {
                    (1.0 - node.node_risk * n_total / node.n_samples as f64).clamp(0.0, 1.0)
                };
                return PartialPrediction {
                    class: node.class,
                    confidence,
                    reached_leaf: false,
                    depth,
                };
            };
            i = if v <= node.threshold { node.left as usize } else { node.right as usize };
            depth += 1;
        }
    }

    /// [`DecisionTree::predict_partial`] plus the walk it took, as a
    /// [`crate::explain::DecisionPath`] whose terminal entry is the
    /// stopping node (a true leaf, or the first unknown-feature split
    /// with its majority class and support). Keeps partial selections
    /// as auditable as full ones.
    pub fn predict_partial_explained(
        &self,
        values: &[Option<f64>],
    ) -> (PartialPrediction, crate::explain::DecisionPath) {
        assert_eq!(values.len(), self.n_features, "feature count mismatch");
        let n_total = self.nodes[0].n_samples as f64;
        let mut path = crate::explain::DecisionPath::default();
        let mut i = 0usize;
        loop {
            let node = &self.nodes[i];
            if node.is_leaf() {
                path.leaf_class = node.class;
                path.leaf_samples = node.n_samples;
                let p = PartialPrediction {
                    class: node.class,
                    confidence: 1.0,
                    reached_leaf: true,
                    depth: path.steps.len() as u32,
                };
                return (p, path);
            }
            let Some(value) = values[node.feature as usize] else {
                path.leaf_class = node.class;
                path.leaf_samples = node.n_samples;
                let confidence = if node.n_samples == 0 {
                    0.0
                } else {
                    (1.0 - node.node_risk * n_total / node.n_samples as f64).clamp(0.0, 1.0)
                };
                let p = PartialPrediction {
                    class: node.class,
                    confidence,
                    reached_leaf: false,
                    depth: path.steps.len() as u32,
                };
                return (p, path);
            };
            let went_left = value <= node.threshold;
            path.steps.push(crate::explain::DecisionStep {
                feature: node.feature,
                threshold: node.threshold,
                value,
                went_left,
                n_samples: node.n_samples,
            });
            i = if went_left { node.left as usize } else { node.right as usize };
        }
    }

    /// Per-feature importance: normalized training-error decrease
    /// contributed by splits on each feature (the order-consistent
    /// analogue of sklearn's `feature_importances_`). Reveals which of
    /// the Table 2 features actually drive each performance model.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut importances = vec![0.0f64; self.n_features];
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            let node = &self.nodes[i];
            if node.is_leaf() {
                continue;
            }
            let l = &self.nodes[node.left as usize];
            let r = &self.nodes[node.right as usize];
            // node_risk is already weighted by n_samples / n_total, so
            // this is the (sample-weighted) error decrease of the split.
            let decrease = (node.node_risk - l.node_risk - r.node_risk).max(0.0);
            importances[node.feature as usize] += decrease;
            stack.push(node.left as usize);
            stack.push(node.right as usize);
        }
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for v in &mut importances {
                *v /= total;
            }
        }
        importances
    }

    /// Feature indices the reachable splits test, ascending and
    /// deduplicated: the only entries of a row that [`Self::predict`]
    /// can read.
    pub fn split_features(&self) -> Vec<usize> {
        let mut features = Vec::new();
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            let node = &self.nodes[i];
            if !node.is_leaf() {
                features.push(node.feature as usize);
                stack.push(node.left as usize);
                stack.push(node.right as usize);
            }
        }
        features.sort_unstable();
        features.dedup();
        features
    }

    /// Number of reachable nodes.
    pub fn n_nodes(&self) -> usize {
        let mut count = 0;
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            count += 1;
            let node = &self.nodes[i];
            if !node.is_leaf() {
                stack.push(node.left as usize);
                stack.push(node.right as usize);
            }
        }
        count
    }

    /// Maximum depth of the reachable tree (root = depth 0).
    pub fn depth(&self) -> usize {
        let mut max = 0;
        let mut stack = vec![(0usize, 0usize)];
        while let Some((i, d)) = stack.pop() {
            max = max.max(d);
            let node = &self.nodes[i];
            if !node.is_leaf() {
                stack.push((node.left as usize, d + 1));
                stack.push((node.right as usize, d + 1));
            }
        }
        max
    }

    pub fn n_features(&self) -> usize {
        self.n_features
    }

    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    pub fn params(&self) -> &TreeParams {
        &self.params
    }
}

fn class_counts(data: &Dataset, indices: &[u32], n_classes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_classes];
    for &i in indices {
        counts[data.label(i as usize) as usize] += 1;
    }
    counts
}

pub(crate) fn argmax(counts: &[usize]) -> (usize, usize) {
    let mut best = (0usize, 0usize);
    for (c, &n) in counts.iter().enumerate() {
        if n > best.1 {
            best = (c, n);
        }
    }
    best
}

pub(crate) fn gini_from_counts(counts: &[usize], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / nf).powi(2)).sum::<f64>()
}

pub(crate) fn gini_incremental(left_counts: &[usize], left_n: usize) -> f64 {
    gini_from_counts(left_counts, left_n)
}

pub(crate) fn gini_remainder(parent: &[usize], left: &[usize], right_n: usize) -> f64 {
    if right_n == 0 {
        return 0.0;
    }
    let nf = right_n as f64;
    let mut acc = 0.0;
    for (p, l) in parent.iter().zip(left.iter()) {
        let r = (p - l) as f64 / nf;
        acc += r * r;
    }
    1.0 - acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_gen::SplitMix64;
    use wise_trace::export::json::{FromJson, ToJson};

    fn axis_dataset() -> Dataset {
        // Class = (x > 0.5) as label, y irrelevant.
        let rows: Vec<Vec<f64>> =
            (0..40).map(|i| vec![i as f64 / 40.0, ((i * 7) % 13) as f64]).collect();
        let labels: Vec<u32> = (0..40).map(|i| u32::from(i as f64 / 40.0 > 0.5)).collect();
        Dataset::new(rows, labels, 2)
    }

    #[test]
    fn fits_axis_aligned_split_perfectly() {
        let d = axis_dataset();
        let t = DecisionTree::fit(&d, TreeParams { ccp_alpha: 0.0, ..Default::default() });
        assert_eq!(t.predict_all(&d), d.labels());
        // One split suffices.
        assert_eq!(t.n_nodes(), 3);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn respects_max_depth() {
        // XOR labels force depth 2; cap at 1 first.
        let rows: Vec<Vec<f64>> =
            (0..32).map(|i| vec![(i % 2) as f64, ((i / 2) % 2) as f64]).collect();
        let labels: Vec<u32> = (0..32).map(|i| ((i % 2) ^ ((i / 2) % 2)) as u32).collect();
        let d = Dataset::new(rows, labels, 2);
        let t = DecisionTree::fit(
            &d,
            TreeParams { max_depth: 1, ccp_alpha: 0.0, ..Default::default() },
        );
        assert!(t.depth() <= 1);
        // Depth 2 solves XOR exactly.
        let t2 = DecisionTree::fit(
            &d,
            TreeParams { max_depth: 4, ccp_alpha: 0.0, ..Default::default() },
        );
        assert_eq!(t2.predict_all(&d), d.labels());
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let d = axis_dataset();
        let t = DecisionTree::fit(
            &d,
            TreeParams { min_samples_leaf: 25, ccp_alpha: 0.0, ..Default::default() },
        );
        // No split can leave 25 on both sides of 40 samples.
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn pruning_shrinks_tree_monotonically() {
        // Noisy labels produce an overgrown tree that pruning collapses.
        let rows: Vec<Vec<f64>> =
            (0..200).map(|i| vec![(i as f64).sin(), (i as f64).cos()]).collect();
        let labels: Vec<u32> = (0..200).map(|i| ((i * 2654435761usize) >> 7) as u32 % 3).collect();
        let d = Dataset::new(rows, labels, 3);
        let mut prev_nodes = usize::MAX;
        for alpha in [0.0, 0.001, 0.01, 0.1] {
            let t = DecisionTree::fit(
                &d,
                TreeParams { max_depth: 20, ccp_alpha: alpha, ..Default::default() },
            );
            assert!(t.n_nodes() <= prev_nodes, "alpha={alpha}: {} > {prev_nodes}", t.n_nodes());
            prev_nodes = t.n_nodes();
        }
        // Heavy pruning reaches (near) a stump.
        assert!(prev_nodes <= 3, "alpha=0.1 left {prev_nodes} nodes");
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let d = Dataset::new(vec![vec![1.0, 1.0]; 10], vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1], 2);
        let t = DecisionTree::fit(&d, TreeParams { ccp_alpha: 0.0, ..Default::default() });
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict(&[1.0, 1.0]), 0); // majority tie -> lowest class
    }

    #[test]
    fn deterministic_fit() {
        let d = axis_dataset();
        let p = TreeParams::default();
        assert_eq!(DecisionTree::fit(&d, p), DecisionTree::fit(&d, p));
    }

    #[test]
    fn json_roundtrip() {
        let d = axis_dataset();
        let t = DecisionTree::fit(&d, TreeParams::default());
        let t2 = DecisionTree::from_json_str(&t.to_json()).unwrap();
        assert_eq!(t, t2);
        assert_eq!(t.predict_all(&d), t2.predict_all(&d));
    }

    #[test]
    fn json_rejects_trees_that_could_not_be_walked() {
        let t =
            DecisionTree::fit(&axis_dataset(), TreeParams { ccp_alpha: 0.0, ..Default::default() });
        let json = t.to_json();
        assert!(json.contains(r#""left":1,"right":2"#), "{json}");
        for bad in [
            json.replace(r#""left":1,"#, r#""left":0,"#),
            json.replace(r#""right":2,"#, r#""right":9,"#),
            json.replace(r#""n_features":2"#, r#""n_features":0"#),
            json.replace(r#""n_classes":2"#, r#""n_classes":1"#),
            r#"{"nodes":[],"n_features":2,"n_classes":2,"params":{"max_depth":1,"min_samples_split":2,"min_samples_leaf":1,"ccp_alpha":0.0}}"#.to_string(),
        ] {
            assert!(matches!(DecisionTree::from_json_str(&bad), Err(JsonError::Invalid(_))), "{bad}");
        }
    }

    /// Predictions are always one of the trained classes, whatever
    /// the data.
    #[test]
    fn predictions_in_class_range() {
        for case in 0..256 {
            let mut rng = SplitMix64::seed_from_u64(case);
            let n = 5 + rng.below(55);
            let rows: Vec<Vec<f64>> =
                (0..n).map(|_| vec![rng.next_f64(), rng.next_f64()]).collect();
            let labels: Vec<u32> = (0..n).map(|_| rng.below(4) as u32).collect();
            let d = Dataset::new(rows, labels, 4);
            let t = DecisionTree::fit(&d, TreeParams::default());
            for i in 0..d.len() {
                assert!(t.predict(d.row(i)) < 4, "case {case}");
            }
            assert!(t.predict(&[0.5, 0.5]) < 4, "case {case}");
        }
    }

    /// With no depth cap, no pruning and unique feature values, the
    /// tree memorizes the training set.
    #[test]
    fn memorizes_separable_data() {
        for case in 0..256 {
            let mut rng = SplitMix64::seed_from_u64(case);
            let labels: Vec<u32> = (0..4 + rng.below(36)).map(|_| rng.below(3) as u32).collect();
            let rows: Vec<Vec<f64>> = (0..labels.len()).map(|i| vec![i as f64]).collect();
            let d = Dataset::new(rows, labels.clone(), 3);
            let t = DecisionTree::fit(
                &d,
                TreeParams { max_depth: 64, ccp_alpha: 0.0, ..Default::default() },
            );
            assert_eq!(t.predict_all(&d), labels, "case {case}");
        }
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;

    fn xor_dataset() -> Dataset {
        let rows: Vec<Vec<f64>> =
            (0..32).map(|i| vec![(i % 2) as f64, ((i / 2) % 2) as f64]).collect();
        let labels: Vec<u32> = (0..32).map(|i| ((i % 2) ^ ((i / 2) % 2)) as u32).collect();
        Dataset::new(rows, labels, 2)
    }

    #[test]
    fn path_leaf_always_matches_predict() {
        let d = xor_dataset();
        let t = DecisionTree::fit(
            &d,
            TreeParams { max_depth: 4, ccp_alpha: 0.0, ..Default::default() },
        );
        for i in 0..d.len() {
            let path = t.decision_path(d.row(i));
            assert_eq!(path.leaf_class, t.predict(d.row(i)), "row {i}");
            assert!(!path.steps.is_empty(), "XOR tree must split");
            assert!(path.depth() <= t.depth());
            // The recorded walk is self-consistent: each step's branch
            // matches its own value/threshold comparison.
            for s in &path.steps {
                assert_eq!(s.went_left, s.value <= s.threshold);
            }
            // Root step carries the full training support.
            assert_eq!(path.steps[0].n_samples, d.len() as u32);
        }
    }

    #[test]
    fn partial_with_all_known_matches_predict_exactly() {
        let d = xor_dataset();
        let t = DecisionTree::fit(
            &d,
            TreeParams { max_depth: 4, ccp_alpha: 0.0, ..Default::default() },
        );
        for i in 0..d.len() {
            let row = d.row(i);
            let known: Vec<Option<f64>> = row.iter().map(|&v| Some(v)).collect();
            let p = t.predict_partial(&known);
            assert!(p.reached_leaf);
            assert_eq!(p.confidence, 1.0);
            assert_eq!(p.class, t.predict(row), "row {i}");
        }
    }

    #[test]
    fn partial_with_nothing_known_reports_root_majority() {
        // 3:1 class imbalance -> root majority 0 with confidence 0.75.
        let rows: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64]).collect();
        let labels: Vec<u32> = (0..32).map(|i| u32::from(i % 4 == 0)).collect();
        let d = Dataset::new(rows, labels, 2);
        let t = DecisionTree::fit(
            &d,
            TreeParams { max_depth: 6, ccp_alpha: 0.0, ..Default::default() },
        );
        let p = t.predict_partial(&[None]);
        assert!(!p.reached_leaf);
        assert_eq!(p.depth, 0);
        assert_eq!(p.class, 0);
        assert!((p.confidence - 0.75).abs() < 1e-12, "conf {}", p.confidence);
    }

    #[test]
    fn partial_leaf_agrees_with_every_completion() {
        // Tree that splits only on feature 0: knowing feature 0 alone
        // must reach a leaf, and the class must match predict() for
        // any value of the unknown feature 1.
        let rows: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64, 0.0]).collect();
        let labels: Vec<u32> = (0..16).map(|i| u32::from(i >= 8)).collect();
        let d = Dataset::new(rows, labels, 2);
        let t = DecisionTree::fit(
            &d,
            TreeParams { max_depth: 4, ccp_alpha: 0.0, ..Default::default() },
        );
        for probe in [0.0, 5.0, 11.0, 15.0] {
            let p = t.predict_partial(&[Some(probe), None]);
            assert!(p.reached_leaf, "probe {probe}");
            for unknown in [-1e9, 0.0, 1e9] {
                assert_eq!(p.class, t.predict(&[probe, unknown]), "probe {probe}");
            }
        }
    }

    #[test]
    fn partial_explained_agrees_with_partial_and_full_paths() {
        let d = xor_dataset();
        let t = DecisionTree::fit(
            &d,
            TreeParams { max_depth: 4, ccp_alpha: 0.0, ..Default::default() },
        );
        for i in 0..d.len() {
            let row = d.row(i);
            let known: Vec<Option<f64>> = row.iter().map(|&v| Some(v)).collect();
            let (p, path) = t.predict_partial_explained(&known);
            assert_eq!(p, t.predict_partial(&known));
            // Fully-known walk: the explained path equals decision_path.
            assert_eq!(path, t.decision_path(row), "row {i}");
        }
        // Early stop: path terminates at the unknown-feature split with
        // that node's majority and support.
        let (p, path) = t.predict_partial_explained(&[None, None]);
        assert!(!p.reached_leaf);
        assert!(path.steps.is_empty());
        assert_eq!(path.leaf_class, p.class);
        assert_eq!(path.leaf_samples, d.len() as u32);
    }

    #[test]
    fn stump_path_has_no_steps_but_valid_leaf() {
        let d = Dataset::new(vec![vec![1.0]; 8], vec![2; 8], 3);
        let t = DecisionTree::fit(&d, TreeParams::default());
        let path = t.decision_path(&[1.0]);
        assert!(path.steps.is_empty());
        assert_eq!(path.leaf_class, 2);
        assert_eq!(path.leaf_samples, 8);
        assert!(path.render(|i| format!("f{i}")).contains("leaf: class 2 (n=8)"));
    }

    #[test]
    fn render_names_features_and_directions() {
        let d = xor_dataset();
        let t = DecisionTree::fit(
            &d,
            TreeParams { max_depth: 4, ccp_alpha: 0.0, ..Default::default() },
        );
        let names = ["alpha", "beta"];
        let text = t.decision_path(&[0.0, 1.0]).render(|i| names[i as usize].to_string());
        assert!(text.contains("alpha") || text.contains("beta"), "{text}");
        assert!(text.contains("-> left") || text.contains("-> right"), "{text}");
        assert!(
            text.trim_end()
                .ends_with(&format!("(n={})", t.decision_path(&[0.0, 1.0]).leaf_samples)),
            "{text}"
        );
    }
}

#[cfg(test)]
mod importance_tests {
    use super::*;

    #[test]
    fn importances_identify_the_informative_feature() {
        // Feature 1 fully determines the label; feature 0 is noise.
        let rows: Vec<Vec<f64>> =
            (0..60).map(|i| vec![((i * 37) % 11) as f64, (i % 2) as f64]).collect();
        let labels: Vec<u32> = (0..60).map(|i| (i % 2) as u32).collect();
        let d = Dataset::new(rows, labels, 2);
        let t = DecisionTree::fit(&d, TreeParams { ccp_alpha: 0.0, ..Default::default() });
        let imp = t.feature_importances();
        assert_eq!(imp.len(), 2);
        assert!(imp[1] > 0.9, "informative feature should dominate: {imp:?}");
        let total: f64 = imp.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(t.split_features().contains(&1));
    }

    #[test]
    fn single_leaf_has_zero_importances() {
        let d = Dataset::new(vec![vec![1.0]; 5], vec![0; 5], 2);
        let t = DecisionTree::fit(&d, TreeParams::default());
        assert_eq!(t.feature_importances(), vec![0.0]);
        assert!(t.split_features().is_empty());
    }

    #[test]
    fn split_features_list_exactly_the_tested_features() {
        // XOR over features 0 and 2; feature 1 is constant and never split.
        let rows: Vec<Vec<f64>> =
            (0..32).map(|i| vec![(i % 2) as f64, 1.0, ((i / 2) % 2) as f64]).collect();
        let labels: Vec<u32> = (0..32).map(|i| ((i % 2) ^ ((i / 2) % 2)) as u32).collect();
        let d = Dataset::new(rows, labels, 2);
        let t = DecisionTree::fit(&d, TreeParams { ccp_alpha: 0.0, ..Default::default() });
        assert_eq!(t.split_features(), vec![0, 2]);
    }
}
