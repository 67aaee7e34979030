//! WISE — ML-based SpMV method selection.
//!
//! Reproduction of *"WISE: Predicting the Performance of Sparse Matrix
//! Vector Multiplication with Machine Learning"* (PPoPP 2023). Given a
//! sparse matrix, WISE:
//!
//! 1. extracts size/skew/locality features
//!    ([`wise_features::FeatureVector`]);
//! 2. runs one decision-tree classifier per `{method, parameter}`
//!    configuration (29 models, [`registry::ModelRegistry`]), each
//!    predicting a *speedup class* ([`classes::SpeedupClass`]) relative
//!    to the best CSR implementation;
//! 3. picks the configuration with the highest predicted speedup,
//!    breaking ties toward cheaper preprocessing
//!    ([`select::select_index`]);
//! 4. converts the matrix to the chosen format and runs SpMV
//!    ([`pipeline::Wise`]).
//!
//! Selection itself is cascaded ([`cascade`]): a single O(nnz) feature
//! probe plus partial tree walks answer "easy" matrices in microseconds
//! when a calibrated confidence gate accepts, and fall through to the
//! full pipeline (steps 1–3 above, bit-identical) otherwise. A
//! [`Wise`] built `with_cascade_gate(None)` never takes the fast path.
//!
//! # Quick start
//!
//! ```
//! use wise_core::pipeline::{TrainOptions, Wise};
//! use wise_gen::{Corpus, CorpusScale};
//!
//! // Train on a (tiny, for doc-test speed) corpus.
//! let scale = CorpusScale::tiny();
//! let corpus = Corpus::full(&scale, 42);
//! let wise = Wise::train(&corpus, &TrainOptions::for_scale(&scale));
//!
//! // Select and run the predicted-best SpMV method for a new matrix.
//! let m = wise_gen::RmatParams::HIGH_SKEW.generate(9, 8, 7);
//! let choice = wise.select(&m);
//! let x = vec![1.0; m.ncols()];
//! let mut y = vec![0.0; m.nrows()];
//! wise.run_spmv(&m, &choice, &x, &mut y, 1);
//! ```

pub mod cascade;
pub mod classes;
pub mod drift;
pub mod evaluate;
pub mod explain;
pub mod labels;
pub mod pipeline;
pub mod registry;
pub mod select;

pub use cascade::{CascadeGate, CascadeInfo, CascadeStage, FallthroughReason};
pub use classes::SpeedupClass;
pub use drift::observe_execution;
pub use evaluate::{evaluate_cv, CvEvaluation, EvalOutcome};
pub use explain::explain_choice;
pub use labels::{label_corpus, CorpusLabels, MatrixLabels};
pub use pipeline::{TrainOptions, Wise};
pub use registry::ModelRegistry;
