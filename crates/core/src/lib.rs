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
//! Selection extracts only the feature groups some tree reads
//! ([`registry::ModelRegistry::read_set`]), so its cost follows the
//! trained model rather than the full Table 2 sweep.
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
pub mod evaluate;
pub mod explain;
pub mod labels;
pub mod pipeline;
pub mod registry;
pub mod select;

pub use classes::SpeedupClass;
pub use evaluate::{evaluate_cv, CvEvaluation, EvalOutcome};
pub use explain::explain_choice;
pub use labels::{label_corpus, CorpusLabels, MatrixLabels};
pub use pipeline::{TrainOptions, Wise};
pub use registry::ModelRegistry;
