//! Ground-truth label generation: execution times for every catalog
//! configuration on every corpus matrix, and the derived speedup
//! classes.
//!
//! Labels come from an [`Estimator`] — the deterministic machine model
//! by default, wall-clock measurement with `WISE_MEASURED=1`. Label
//! generation is the expensive offline step of the WISE workflow (it is
//! what the trained models let end users skip).

use crate::classes::SpeedupClass;
use wise_features::{FeatureConfig, FeatureVector};
use wise_gen::Corpus;
use wise_kernels::method::{Method, MethodConfig};
use wise_kernels::sched::par_map;
use wise_matrix::Csr;
use wise_perf::Estimator;
use wise_trace::export::json::JsonError;

/// Times, classes and features for one matrix.
#[derive(Debug, Clone)]
pub struct MatrixLabels {
    /// Matrix name (from the corpus).
    pub name: String,
    /// Seconds per catalog configuration, catalog order.
    pub seconds: Vec<f64>,
    /// Best CSR seconds (the class denominator).
    pub best_csr_seconds: f64,
    /// Speedup class per configuration, catalog order.
    pub classes: Vec<SpeedupClass>,
    /// Extracted features.
    pub features: FeatureVector,
    /// Modeled/measured preprocessing seconds per configuration.
    pub preprocessing_seconds: Vec<f64>,
    /// Cold-cache first-iteration seconds per configuration — what a
    /// trial-executing inspector-executor observes (Section 6.4).
    pub cold_seconds: Vec<f64>,
    /// Seconds to extract the feature vector (the WISE-specific half of
    /// preprocessing, Fig. 13c).
    pub feature_extraction_seconds: f64,
}

wise_trace::json_struct!(MatrixLabels {
    name,
    seconds,
    best_csr_seconds,
    classes,
    features,
    preprocessing_seconds,
    cold_seconds,
    feature_extraction_seconds,
});

impl MatrixLabels {
    /// Labels one matrix under `estimator`, over the standard catalog.
    pub fn compute(
        name: &str,
        m: &Csr,
        estimator: &Estimator,
        feature_config: &FeatureConfig,
    ) -> MatrixLabels {
        Self::compute_with(name, m, estimator, feature_config, &MethodConfig::catalog())
    }

    /// Labels one matrix over an arbitrary configuration catalog — the
    /// extension point of the paper (Section 7): adding a new method is
    /// adding entries to the catalog and training their models; the
    /// existing models are untouched.
    pub fn compute_with(
        name: &str,
        m: &Csr,
        estimator: &Estimator,
        feature_config: &FeatureConfig,
        catalog: &[MethodConfig],
    ) -> MatrixLabels {
        let _span = wise_trace::span("label.matrix");
        assert!(
            catalog.iter().any(|c| c.method == Method::Csr),
            "catalog must include a CSR configuration (the speedup-class baseline)"
        );
        let (seconds, cold_seconds): (Vec<f64>, Vec<f64>) =
            estimator.catalog_costs(m, catalog).into_iter().unzip();
        let best_csr_seconds = catalog
            .iter()
            .zip(&seconds)
            .filter(|(cfg, _)| cfg.method == Method::Csr)
            .map(|(_, &t)| t)
            .fold(f64::MAX, f64::min);
        let classes = seconds
            .iter()
            .map(|&t| SpeedupClass::from_relative_time(t / best_csr_seconds))
            .collect();
        let preprocessing_seconds =
            catalog.iter().map(|cfg| estimator.preprocessing_seconds(m, cfg)).collect();
        MatrixLabels {
            name: name.to_string(),
            seconds,
            best_csr_seconds,
            classes,
            features: FeatureVector::extract(m, feature_config),
            preprocessing_seconds,
            cold_seconds,
            feature_extraction_seconds: estimator.feature_extraction_seconds(m),
        }
    }

    /// The configuration with the minimum time (the oracle choice) as a
    /// catalog index.
    pub fn oracle_index(&self) -> usize {
        self.seconds
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("catalog is non-empty")
    }

    /// Seconds of the configuration at catalog index `i`.
    pub fn seconds_of(&self, i: usize) -> f64 {
        self.seconds[i]
    }
}

/// Labels for a whole corpus, plus the catalog they index into.
#[derive(Debug, Clone)]
pub struct CorpusLabels {
    pub catalog: Vec<MethodConfig>,
    pub matrices: Vec<MatrixLabels>,
}

wise_trace::json_struct!(CorpusLabels { catalog, matrices } check CorpusLabels::check);

/// Labels every matrix of `corpus` (deterministic: output order matches
/// corpus order regardless of thread interleaving). Model labels run in
/// parallel across matrices; measured labels run serially, so every
/// timed kernel has the whole pool to itself.
pub fn label_corpus(
    corpus: &Corpus,
    estimator: &Estimator,
    feature_config: &FeatureConfig,
) -> CorpusLabels {
    label_corpus_with(corpus, estimator, feature_config, MethodConfig::catalog())
}

/// [`label_corpus`] over an arbitrary configuration catalog (must
/// include at least one CSR configuration for the class denominator).
pub fn label_corpus_with(
    corpus: &Corpus,
    estimator: &Estimator,
    feature_config: &FeatureConfig,
    catalog: Vec<MethodConfig>,
) -> CorpusLabels {
    let _span = wise_trace::span("label.corpus");
    wise_trace::counter("label.corpus.matrices", corpus.len() as u64);
    assert!(
        catalog.iter().any(|c| c.method == Method::Csr),
        "catalog must include a CSR configuration (the speedup-class baseline)"
    );
    let label = |i: usize| {
        let lm = &corpus.matrices[i];
        MatrixLabels::compute_with(&lm.name, &lm.matrix, estimator, feature_config, &catalog)
    };
    let matrices: Vec<MatrixLabels> = match estimator {
        // Outer-parallel / inner-serial: the pool spreads the corpus
        // across its workers; the extraction and conversions nested in
        // each matrix run inline. Features are bit-identical for any
        // thread count.
        Estimator::Model { .. } => par_map(corpus.len(), label),
        // Wall-clock labels must not compete with each other for cores.
        Estimator::Measured { .. } => (0..corpus.len()).map(label).collect(),
    };
    CorpusLabels { catalog, matrices }
}

impl CorpusLabels {
    /// Rejects decoded labels whose per-config arrays miss the catalog.
    fn check(&self) -> Result<(), JsonError> {
        let n = self.catalog.len();
        match self.matrices.iter().find(|m| {
            [m.seconds.len(), m.classes.len(), m.preprocessing_seconds.len(), m.cold_seconds.len()]
                != [n; 4]
        }) {
            Some(m) => {
                Err(JsonError::Invalid(format!("{}: arrays miss the {n}-entry catalog", m.name)))
            }
            None => Ok(()),
        }
    }

    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.matrices.is_empty()
    }

    /// Catalog index of a configuration by label; panics if absent.
    pub fn config_index(&self, label: &str) -> usize {
        self.catalog
            .iter()
            .position(|c| c.label() == label)
            .unwrap_or_else(|| panic!("unknown config label {label}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_gen::CorpusScale;

    fn estimator() -> Estimator {
        Estimator::model_for_rows(1 << 10)
    }

    #[test]
    fn labels_are_complete_and_consistent() {
        let m = wise_gen::RmatParams::MED_SKEW.generate(9, 8, 3);
        let l = MatrixLabels::compute("t", &m, &estimator(), &FeatureConfig::default());
        assert_eq!(l.seconds.len(), 29);
        assert_eq!(l.classes.len(), 29);
        assert_eq!(l.preprocessing_seconds.len(), 29);
        assert!(l.best_csr_seconds > 0.0);
        // Classes match recomputation from times.
        for (t, c) in l.seconds.iter().zip(&l.classes) {
            assert_eq!(SpeedupClass::from_relative_time(t / l.best_csr_seconds), *c);
        }
        // Best CSR is one of the three CSR entries, so at least one CSR
        // config has relative time 1.0 => class C1.
        let catalog = MethodConfig::catalog();
        let csr_best_class = catalog
            .iter()
            .zip(&l.classes)
            .filter(|(cfg, _)| cfg.method == Method::Csr)
            .map(|(_, c)| *c)
            .max()
            .unwrap();
        assert!(csr_best_class >= SpeedupClass::C1);
    }

    #[test]
    fn oracle_is_minimum() {
        let m = wise_gen::RmatParams::HIGH_SKEW.generate(9, 16, 5);
        let l = MatrixLabels::compute("t", &m, &estimator(), &FeatureConfig::default());
        let i = l.oracle_index();
        for t in &l.seconds {
            assert!(l.seconds[i] <= *t);
        }
    }

    #[test]
    fn corpus_labeling_order_is_stable() {
        let corpus = Corpus::random(&CorpusScale::tiny(), 9);
        let labels = label_corpus(&corpus, &estimator(), &FeatureConfig::default());
        assert_eq!(labels.len(), corpus.len());
        for (lm, ml) in corpus.matrices.iter().zip(&labels.matrices) {
            assert_eq!(lm.name, ml.name);
        }
        assert_eq!(labels.config_index("CSR-Dyn"), 0);
    }

    #[test]
    fn json_round_trips_and_rejects_arrays_that_miss_the_catalog() {
        use wise_trace::export::json::{FromJson, ToJson};
        let corpus = Corpus::random(&CorpusScale::tiny(), 9);
        let labels = label_corpus(&corpus, &estimator(), &FeatureConfig::default());
        let back = CorpusLabels::from_json_str(&labels.to_json()).unwrap();
        assert_eq!(back.to_json(), labels.to_json());
        let mut short = labels.clone();
        short.matrices[1].cold_seconds.pop();
        let err = CorpusLabels::from_json_str(&short.to_json()).unwrap_err();
        assert!(matches!(err, JsonError::Invalid(_)), "{err:?}");
        let mut narrow = labels;
        narrow.catalog.pop();
        assert!(CorpusLabels::from_json_str(&narrow.to_json()).is_err());
    }

    #[test]
    #[should_panic(expected = "unknown config label")]
    fn unknown_label_panics() {
        let corpus = Corpus::random(&CorpusScale::tiny(), 9);
        let labels = label_corpus(&corpus, &estimator(), &FeatureConfig::default());
        labels.config_index("bogus");
    }
}
