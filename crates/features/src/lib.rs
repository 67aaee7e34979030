//! Sparse-matrix feature extraction for WISE (paper Section 4.2,
//! Table 2).
//!
//! WISE characterizes a matrix by summary statistics over five nonzero
//! distributions — rows (R), columns (C), 2D tiles (T), row blocks
//! (RB), and column blocks (CB) — plus within-tile layout metrics
//! (unique rows/columns, cache-line-grouped uniques, and cross-tile
//! reuse potential). These are *method-oblivious*: none of them
//! references a particular SpMV format, which is what lets WISE add new
//! methods without re-designing features.
//!
//! * [`stats`] — mean/σ/σ²/min/max/Gini/p-ratio/ne over a distribution;
//! * [`tiling`] — the K×K logical tile grid and T/RB/CB distributions;
//! * [`locality`] — uniqR/uniqC, GrX_* grouped uniques, potReuse*;
//! * [`engine`] — the fused, parallel single-pass extraction engine and
//!   its reusable [`FeatureScratch`] workspace;
//! * [`groups`] — the select-time [`FeatureGroup`]s and [`FeatureSet`]
//!   slot masks, so selection computes only the slots its trees read;
//! * [`probe`] — the O(nnz) stage-1 subset (sizes + full R/C
//!   statistics, no tiling or locality) behind the selection cascade;
//! * [`FeatureVector`] — the assembled, fixed-order feature vector fed
//!   to the decision trees.
//!
//! Extraction ([`FeatureVector::extract`]) runs in O(nnz + K) with one
//! fused sweep per orientation, parallelized over row-block-aligned
//! chunks; [`FeatureVector::extract_subset`] is the same extractor
//! restricted to the groups a slot subset needs, and
//! [`FeatureVector::extract_reference`] keeps the naive multi-pass
//! implementation as the parity oracle.

pub mod engine;
pub mod groups;
pub mod locality;
pub mod probe;
pub mod stats;
pub mod tiling;

mod vector;

pub use engine::FeatureScratch;
pub use groups::{FeatureGroup, FeatureSet};
pub use probe::ProbeFeatures;
pub use stats::SummaryStats;
pub use tiling::{TileGeometry, TileGrid};
pub use vector::{FeatureConfig, FeatureVector, N_FEATURES};
