//! The 29-model registry: one decision tree per catalog configuration
//! (paper Section 4.3), with JSON persistence.

use crate::classes::{SpeedupClass, N_CLASSES};
use crate::labels::CorpusLabels;
use std::path::Path;
use std::sync::Arc;
use wise_features::{FeatureSet, FeatureVector, N_FEATURES};
use wise_kernels::method::{Method, MethodConfig};
use wise_kernels::sched::par_map;
use wise_ml::{Dataset, DecisionTree, FeatureMatrix, Presort, TreeParams};
use wise_trace::export::json::{self, FromJson, JsonError, ToJson, Value};

/// The trained per-configuration performance models.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    catalog: Vec<MethodConfig>,
    /// One tree per catalog entry, same order.
    trees: Vec<DecisionTree>,
    params: TreeParams,
    /// Feature slots some tree splits on. Derived from `trees` whenever
    /// a registry is built (trained or decoded), never serialized.
    read_set: FeatureSet,
}

impl ToJson for ModelRegistry {
    fn write_json(&self, out: &mut String) {
        let mut sep = '{';
        json::write_member(out, &mut sep, "catalog", &self.catalog);
        json::write_member(out, &mut sep, "trees", &self.trees);
        json::write_member(out, &mut sep, "params", &self.params);
        out.push('}');
    }
}

impl FromJson for ModelRegistry {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let obj = json::object(v)?;
        let catalog: Vec<MethodConfig> = json::member(obj, "catalog")?;
        let trees: Vec<DecisionTree> = json::member(obj, "trees")?;
        let trees = trees.into_iter().map(Self::narrow).collect::<Result<Vec<_>, _>>()?;
        Self::check(&catalog, &trees)?;
        Ok(Self::new(catalog, trees, json::member(obj, "params")?))
    }
}

impl ModelRegistry {
    /// Assembles a registry and derives its read set.
    fn new(catalog: Vec<MethodConfig>, trees: Vec<DecisionTree>, params: TreeParams) -> Self {
        let read_set = FeatureSet::from_slots(trees.iter().flat_map(|t| t.split_features()));
        ModelRegistry { catalog, trees, params, read_set }
    }

    /// Trains every model on the labeled corpus. All 29 datasets are
    /// label views over one shared [`FeatureMatrix`], and the columnar
    /// presort layer is built once and reused by every fit (the sort
    /// order depends only on feature values, not labels).
    pub fn train(labels: &CorpusLabels, params: TreeParams) -> ModelRegistry {
        let _span = wise_trace::span("train.registry");
        wise_trace::counter("train.registry.models", labels.catalog.len() as u64);
        assert!(!labels.is_empty(), "cannot train on an empty corpus");
        let matrix = Self::feature_matrix(labels);
        let base_rows: Vec<u32> = (0..matrix.n_rows() as u32).collect();
        let presort = Presort::build(&matrix, &base_rows);
        let trees: Vec<DecisionTree> = par_map(labels.catalog.len(), |cfg_idx| {
            let _tree = wise_trace::span("train.tree");
            DecisionTree::fit_with(
                &Self::dataset_for_matrix(&matrix, labels, cfg_idx),
                &presort,
                params,
            )
        });
        ModelRegistry::new(labels.catalog.clone(), trees, params)
    }

    /// The corpus' feature matrix (one row per labeled matrix), built
    /// once and shared by every per-configuration dataset view.
    pub fn feature_matrix(labels: &CorpusLabels) -> Arc<FeatureMatrix> {
        Arc::new(FeatureMatrix::from_row_slices(
            labels.matrices.len(),
            labels.matrices.iter().map(|m| m.features.values()),
        ))
    }

    /// The per-configuration training dataset as a label view over
    /// `matrix` (from [`Self::feature_matrix`]; no feature copies).
    pub fn dataset_for_matrix(
        matrix: &Arc<FeatureMatrix>,
        labels: &CorpusLabels,
        cfg_idx: usize,
    ) -> Dataset {
        let y: Vec<u32> = labels.matrices.iter().map(|m| m.classes[cfg_idx].index()).collect();
        Dataset::from_matrix(Arc::clone(matrix), y, N_CLASSES)
    }

    pub fn catalog(&self) -> &[MethodConfig] {
        &self.catalog
    }

    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    pub fn tree(&self, cfg_idx: usize) -> &DecisionTree {
        &self.trees[cfg_idx]
    }

    /// The feature slots some tree splits on — the only slots a
    /// prediction can read, and so the only ones amortized selection
    /// extracts (see [`wise_features::FeatureVector::extract_subset`]).
    pub fn read_set(&self) -> FeatureSet {
        self.read_set
    }

    /// Predicts the speedup class of every configuration for a feature
    /// vector, in catalog order.
    pub fn predict(&self, features: &FeatureVector) -> Vec<SpeedupClass> {
        self.trees.iter().map(|t| SpeedupClass::from_index(t.predict(features.values()))).collect()
    }

    /// [`ModelRegistry::predict`] plus the root-to-leaf decision path of
    /// every classifier vote (catalog order), so selections can explain
    /// themselves. Each path's `leaf_class` is the prediction; the two
    /// vectors are index-aligned with the catalog.
    pub fn predict_explained(
        &self,
        features: &FeatureVector,
    ) -> (Vec<SpeedupClass>, Vec<wise_ml::DecisionPath>) {
        let paths: Vec<wise_ml::DecisionPath> =
            self.trees.iter().map(|t| t.decision_path(features.values())).collect();
        let predictions = paths.iter().map(|p| SpeedupClass::from_index(p.leaf_class)).collect();
        (predictions, paths)
    }

    /// Serializes to JSON at `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a registry saved by [`Self::save`]. Malformed or truncated
    /// files fail with [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<ModelRegistry> {
        Ok(ModelRegistry::from_json_str(&std::fs::read_to_string(path)?)?)
    }

    /// Models saved while three host slots trailed Table 2's 67
    /// features carry 70-feature trees: they load over the 67 slots
    /// when no split reads a trailing slot, which this build no longer
    /// extracts.
    fn narrow(tree: DecisionTree) -> Result<DecisionTree, JsonError> {
        if tree.n_features() <= N_FEATURES {
            return Ok(tree);
        }
        tree.narrowed(N_FEATURES).ok_or_else(|| {
            JsonError::Invalid(format!("a tree splits on a feature slot past the {N_FEATURES}"))
        })
    }

    /// Rejects decoded registries selection could not serve: it needs a
    /// CSR baseline and one full-feature, 7-class tree per config.
    fn check(catalog: &[MethodConfig], trees: &[DecisionTree]) -> Result<(), JsonError> {
        let fits = |t: &DecisionTree| t.n_features() == N_FEATURES && t.n_classes() == N_CLASSES;
        if !catalog.iter().any(|c| c.method == Method::Csr)
            || trees.len() != catalog.len()
            || !trees.iter().all(fits)
        {
            return Err(JsonError::Invalid("registry does not match its catalog".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::label_corpus;
    use wise_features::FeatureConfig;
    use wise_gen::{Corpus, CorpusScale};
    use wise_perf::Estimator;

    fn labeled() -> CorpusLabels {
        let corpus = Corpus::random(&CorpusScale::tiny(), 4);
        label_corpus(&corpus, &Estimator::model_for_rows(1 << 10), &FeatureConfig::default())
    }

    #[test]
    fn train_and_predict_shapes() {
        let labels = labeled();
        let reg = ModelRegistry::train(&labels, TreeParams::default());
        assert_eq!(reg.catalog().len(), 29);
        let preds = reg.predict(&labels.matrices[0].features);
        assert_eq!(preds.len(), 29);
    }

    #[test]
    fn training_fit_is_strong_on_train_set() {
        // With unpruned deep trees, training accuracy should be very
        // high (features nearly identify each matrix).
        let labels = labeled();
        let params = TreeParams { max_depth: 30, ccp_alpha: 0.0, ..Default::default() };
        let reg = ModelRegistry::train(&labels, params);
        let mut correct = 0usize;
        let mut total = 0usize;
        for m in &labels.matrices {
            let preds = reg.predict(&m.features);
            for (p, t) in preds.iter().zip(&m.classes) {
                total += 1;
                if p == t {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn predict_explained_matches_predict() {
        let labels = labeled();
        let reg = ModelRegistry::train(&labels, TreeParams::default());
        for m in labels.matrices.iter().take(4) {
            let plain = reg.predict(&m.features);
            let (preds, paths) = reg.predict_explained(&m.features);
            assert_eq!(preds, plain);
            assert_eq!(paths.len(), 29);
            for (p, path) in preds.iter().zip(&paths) {
                assert_eq!(p.index(), path.leaf_class);
                assert!(path.leaf_samples > 0, "leaf must carry training support");
            }
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let labels = labeled();
        let reg = ModelRegistry::train(&labels, TreeParams::default());
        let path = std::env::temp_dir().join("wise_registry_test.json");
        reg.save(&path).unwrap();
        let back = ModelRegistry::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        for m in &labels.matrices {
            assert_eq!(reg.predict(&m.features), back.predict(&m.features));
        }
        assert_eq!(back.read_set(), reg.read_set());
        assert_eq!(back.to_json(), reg.to_json());
        assert!(!reg.to_json().contains("read_set"), "the read set is derived, not stored");
    }

    #[test]
    fn read_set_is_the_union_of_split_features() {
        let labels = labeled();
        let reg = ModelRegistry::train(&labels, TreeParams::default());
        let want: std::collections::BTreeSet<usize> =
            (0..reg.catalog().len()).flat_map(|i| reg.tree(i).split_features()).collect();
        assert_eq!(
            reg.read_set().slots().collect::<Vec<_>>(),
            want.into_iter().collect::<Vec<_>>()
        );
        assert!(!reg.read_set().is_empty());
        // Masking every unread slot leaves every prediction unchanged.
        for m in &labels.matrices {
            let masked: Vec<f64> = (0..N_FEATURES)
                .map(|i| if reg.read_set().contains(i) { m.features.values()[i] } else { 0.0 })
                .collect();
            let masked = FeatureVector::from_values(masked);
            assert_eq!(reg.predict_explained(&masked), reg.predict_explained(&m.features));
        }
    }

    #[test]
    #[should_panic(expected = "empty corpus")]
    fn empty_corpus_rejected() {
        let empty = CorpusLabels { catalog: MethodConfig::catalog(), matrices: vec![] };
        ModelRegistry::train(&empty, TreeParams::default());
    }
}
