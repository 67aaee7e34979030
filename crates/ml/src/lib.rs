//! Machine-learning substrate for the WISE reproduction.
//!
//! The paper trains one decision-tree classifier per `{method,
//! parameter}` configuration (29 trees), with Gini split criterion,
//! maximum depth 15, and minimal cost-complexity pruning at
//! `ccp_alpha = 0.005` (Section 4.3, Table 4). No ML crates are
//! available offline, so the trees are implemented here from scratch:
//!
//! * [`tree`] — CART classification trees (Gini impurity, midpoint
//!   thresholds, deterministic tie-breaking) plus sklearn-style minimal
//!   cost-complexity pruning; training runs the presorted columnar
//!   engine of [`presort`] (the node-local re-sorting trainer survives
//!   as `fit_reference`, the parity oracle);
//! * [`presort`] — the per-fit sorted-order layer (sort each feature
//!   column once, stable-partition the orders down the tree), shareable
//!   across every fit over the same `(matrix, row set)`;
//! * [`dataset`] — the shared columnar [`FeatureMatrix`], label views
//!   over it, and seeded k-fold splitting (the paper uses 10-fold
//!   cross-validation);
//! * [`explain`] — per-prediction root-to-leaf decision paths
//!   ([`DecisionPath`]) so every classifier vote in the 29-model
//!   selection is auditable, not a black box;
//! * [`confusion`] — confusion matrices with the paper's two accuracy
//!   readings (exact and within-one-class distance);
//! * [`grid`] — the hyperparameter grid sweep of Table 4 and
//!   fold-plan-backed cross-validation helpers.

pub mod confusion;
pub mod dataset;
pub mod explain;
pub mod forest;
pub mod grid;
pub mod presort;
pub mod tree;

pub use confusion::ConfusionMatrix;
pub use dataset::{kfold_indices, Dataset, FeatureMatrix};
pub use explain::{DecisionPath, DecisionStep};
pub use forest::{ForestParams, RandomForest};
pub use grid::FoldPlan;
pub use presort::Presort;
pub use tree::{DecisionTree, TreeParams};
