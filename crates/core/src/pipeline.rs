//! The end-to-end WISE pipeline (paper Figure 8): feature extraction →
//! per-configuration class prediction → method selection → format
//! conversion → SpMV.

use crate::cascade::CascadeInfo;
use crate::classes::SpeedupClass;
use crate::labels::{label_corpus, CorpusLabels};
use crate::registry::ModelRegistry;
use crate::select::{select_index, select_index_amortized};
use std::path::Path;
use std::time::Instant;
use wise_features::{FeatureConfig, FeatureVector};
use wise_gen::{Corpus, CorpusScale};
use wise_kernels::method::{MethodConfig, Prepared};
use wise_kernels::srvpack::SpmvWorkspace;
use wise_matrix::Csr;
use wise_ml::TreeParams;
use wise_perf::Estimator;
use wise_trace::export::json::{FromJson, ToJson};
use wise_trace::telemetry;

/// Everything needed to train a WISE instance.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Label backend (machine model or wall clock).
    pub estimator: Estimator,
    pub feature_config: FeatureConfig,
    pub tree_params: TreeParams,
}

impl TrainOptions {
    /// Defaults for a corpus scale: the machine model scaled to the
    /// corpus' largest matrices (respecting `WISE_MEASURED`), paper
    /// tree hyperparameters.
    pub fn for_scale(scale: &CorpusScale) -> TrainOptions {
        let max_rows = 1usize << scale.row_scales.iter().copied().max().unwrap_or(16);
        TrainOptions {
            estimator: Estimator::from_env(max_rows),
            feature_config: FeatureConfig::default(),
            tree_params: TreeParams::default(),
        }
    }
}

/// Wall-clock breakdown of the stages that produced a [`Choice`].
/// Always measured (a handful of `Instant` reads per selection), so
/// callers can report selection overhead without enabling tracing; the
/// same stages also appear as `select.*` spans in the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChoiceTiming {
    /// Seconds extracting the feature vector (0.0 when the caller
    /// passed pre-extracted features).
    pub feature_extraction_s: f64,
    /// Seconds running the per-configuration class predictions.
    pub predict_s: f64,
    /// Seconds in the selection heuristic. For
    /// [`Wise::select_for_iterations`] this includes the amortized
    /// pick's cost-model work: one preprocessing estimate per catalog
    /// config and the best-CSR baseline
    /// ([`wise_perf::Estimator::csr_baseline_seconds`], a windowed
    /// replay on long column streams).
    pub select_s: f64,
}

impl ChoiceTiming {
    /// Total selection-side overhead in seconds (the cost a caller pays
    /// before the first SpMV, excluding format conversion).
    pub fn total_s(&self) -> f64 {
        self.feature_extraction_s + self.predict_s + self.select_s
    }
}

/// The outcome of WISE's selection step for one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Choice {
    /// The selected configuration.
    pub config: MethodConfig,
    /// Catalog index of the selection.
    pub index: usize,
    /// Predicted class per catalog configuration.
    pub predictions: Vec<SpeedupClass>,
    /// Features extracted for the prediction. [`Wise::select`] and
    /// [`Wise::select_for_iterations`] compute the slots some tree
    /// reads ([`ModelRegistry::read_set`]) and hold 0.0 in every other
    /// slot; `*_from_features` choices carry the caller's vector.
    pub features: FeatureVector,
    /// Per-stage timing breakdown of this selection.
    pub timing: ChoiceTiming,
    /// Root-to-leaf decision path of every classifier vote, catalog
    /// order — `decision_paths[index]` explains the winning prediction
    /// (see [`crate::explain::explain_choice`]).
    pub decision_paths: Vec<wise_ml::DecisionPath>,
    /// Always `None`: selection has no cascade (see [`crate::cascade`]).
    pub cascade: Option<CascadeInfo>,
    /// Flight-recorder request id of the selection that produced this
    /// choice (see [`wise_trace::telemetry`]), for correlating the
    /// choice with its flight-dump record. `0` only when the selection
    /// was nested inside another request.
    pub request_id: u64,
}

/// One flight-recorder request: allocates the id, scopes it onto the
/// calling thread (the worker pool forwards it to kernel workers), and
/// on [`Self::finish`] records the completed request — latency and
/// method — into [`wise_trace::telemetry`].
struct FlightRequest {
    id: u64,
    start_ns: u64,
    _scope: telemetry::RequestScope,
}

impl FlightRequest {
    /// `None` inside another request's scope (a pool worker, say): that
    /// request covers the selection.
    fn begin() -> Option<FlightRequest> {
        if telemetry::current_request() != 0 {
            return None;
        }
        let id = telemetry::next_request_id();
        let start_ns = wise_trace::span::now_ns();
        Some(FlightRequest { id, start_ns, _scope: telemetry::RequestScope::enter(id) })
    }

    /// Stamps `choice.request_id` and records the request.
    fn finish(self, choice: &mut Choice) {
        choice.request_id = self.id;
        telemetry::record_request(telemetry::RequestRecord {
            id: self.id,
            start_ns: self.start_ns,
            latency_ns: wise_trace::span::now_ns().saturating_sub(self.start_ns),
            method: choice.config.label(),
            measured_s: None,
        });
    }
}

/// Runs one public selection as exactly one flight-recorder request.
fn one_request(select: impl FnOnce() -> Choice) -> Choice {
    let flight = FlightRequest::begin();
    let mut choice = select();
    if let Some(flight) = flight {
        flight.finish(&mut choice);
    }
    choice
}

/// Runs `f`, returning its value and its wall-clock seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The amortised pick rule of [`Wise::select_for_iterations`]: one
/// preprocessing estimate per catalog config plus the best-CSR baseline
/// (`select.baseline`), handed to [`select_index_amortized`].
fn amortized<'a>(
    m: &'a Csr,
    estimator: &'a Estimator,
    n_iterations: u64,
) -> impl FnOnce(&[MethodConfig], &[SpeedupClass]) -> usize + 'a {
    move |catalog, predictions| {
        let preproc: Vec<f64> =
            catalog.iter().map(|cfg| estimator.preprocessing_seconds(m, cfg)).collect();
        let best_csr = if m.nnz() == 0 {
            // Nothing to multiply: no conversion can pay off.
            0.0
        } else {
            let _baseline = wise_trace::span("select.baseline");
            let csr: Vec<MethodConfig> =
                catalog.iter().filter(|c| c.method == wise_kernels::Method::Csr).copied().collect();
            estimator.csr_baseline_seconds(m, &csr)
        };
        select_index_amortized(catalog, predictions, &preproc, best_csr, n_iterations)
    }
}

impl Choice {
    /// The decision path of the winning classifier (`None` for a
    /// choice built without decision paths).
    pub fn winning_path(&self) -> Option<&wise_ml::DecisionPath> {
        self.decision_paths.get(self.index)
    }
}

/// A trained WISE instance.
#[derive(Debug, Clone)]
pub struct Wise {
    registry: ModelRegistry,
    feature_config: FeatureConfig,
}

// Model files saved while selection was cascaded also carry a
// `cascade_gate` member; decoding ignores it.
wise_trace::json_struct!(Wise { registry, feature_config });

impl Wise {
    /// Labels `corpus` with `opts.estimator`, then trains the 29
    /// models. For custom workflows (e.g. reusing labels), see
    /// [`Wise::from_labels`].
    pub fn train(corpus: &Corpus, opts: &TrainOptions) -> Wise {
        let labels = label_corpus(corpus, &opts.estimator, &opts.feature_config);
        Self::from_labels(&labels, opts)
    }

    /// Trains the 29 models from pre-computed labels.
    pub fn from_labels(labels: &CorpusLabels, opts: &TrainOptions) -> Wise {
        Self::from_registry(ModelRegistry::train(labels, opts.tree_params), opts.feature_config)
    }

    /// Wraps an existing registry; it selects exactly as a freshly
    /// trained one does.
    pub fn from_registry(registry: ModelRegistry, feature_config: FeatureConfig) -> Wise {
        Wise { registry, feature_config }
    }

    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    pub fn feature_config(&self) -> &FeatureConfig {
        &self.feature_config
    }

    /// Runs steps 1–3 of Figure 8: extract features, predict classes,
    /// select the best configuration.
    ///
    /// Extraction computes only the feature groups covering
    /// [`ModelRegistry::read_set`], so the returned [`Choice::features`]
    /// holds 0.0 in every slot no tree reads. Index, predictions and
    /// decision paths equal [`Wise::select_from_features`] on the full
    /// vector.
    pub fn select(&self, m: &Csr) -> Choice {
        let _span = wise_trace::span("pipeline.select");
        one_request(|| {
            let (features, extract_s) = self.extract_read_set(m);
            self.predict_and_pick(features, extract_s, select_index)
        })
    }

    /// The features some tree reads, and the seconds extracting them.
    fn extract_read_set(&self, m: &Csr) -> (FeatureVector, f64) {
        let read_set = self.registry.read_set();
        timed(|| FeatureVector::extract_subset(m, &self.feature_config, read_set))
    }

    /// Predict → pick → [`ChoiceTiming`] → [`Choice`]: the body of every
    /// selection. `pick` turns the predicted classes into a catalog
    /// index ([`select_index`] or [`amortized`]); it runs inside the
    /// `select.pick` span and its time is `select_s`.
    fn predict_and_pick(
        &self,
        features: FeatureVector,
        feature_extraction_s: f64,
        pick: impl FnOnce(&[MethodConfig], &[SpeedupClass]) -> usize,
    ) -> Choice {
        let catalog = self.registry.catalog();
        let ((predictions, decision_paths), predict_s) = timed(|| {
            let _predict = wise_trace::span("select.predict");
            self.registry.predict_explained(&features)
        });
        let (index, select_s) = timed(|| {
            let _pick = wise_trace::span("select.pick");
            pick(catalog, &predictions)
        });
        Choice {
            config: catalog[index],
            index,
            predictions,
            features,
            timing: ChoiceTiming { feature_extraction_s, predict_s, select_s },
            decision_paths,
            cascade: None,
            request_id: 0,
        }
    }

    /// Selection from pre-extracted features (used when the caller
    /// already paid for extraction).
    pub fn select_from_features(&self, features: FeatureVector) -> Choice {
        one_request(|| self.predict_and_pick(features, 0.0, select_index))
    }

    /// Amortization-aware selection: minimizes conversion cost plus
    /// `n_iterations` predicted SpMV iterations (Section 4.1's
    /// "including the preprocessing cost", made quantitative). Callers
    /// running few iterations get CSR back; iterative solvers get the
    /// fastest format.
    ///
    /// Extraction computes only the feature groups covering
    /// [`ModelRegistry::read_set`], so the returned
    /// [`Choice::features`] holds 0.0 in every slot no tree reads.
    /// Index, predictions and decision paths equal
    /// [`Wise::select_for_iterations_from_features`] on the full vector.
    pub fn select_for_iterations(
        &self,
        m: &Csr,
        estimator: &Estimator,
        n_iterations: u64,
    ) -> Choice {
        let _span = wise_trace::span("pipeline.select");
        one_request(|| {
            let (features, extract_s) = self.extract_read_set(m);
            self.predict_and_pick(features, extract_s, amortized(m, estimator, n_iterations))
        })
    }

    /// [`Wise::select_for_iterations`] from pre-extracted features —
    /// callers that already ran [`Wise::select`] (or labeled the
    /// matrix) reuse the vector instead of paying extraction twice.
    /// Only the slots in [`ModelRegistry::read_set`] are read; the rest
    /// may hold anything (0.0 by convention, see [`Choice::features`]).
    /// Any selected `choice.features` can be moved straight in. A matrix
    /// without nonzeros has nothing to multiply and gets the cheapest
    /// config to prepare (CSR).
    pub fn select_for_iterations_from_features(
        &self,
        m: &Csr,
        features: FeatureVector,
        estimator: &Estimator,
        n_iterations: u64,
    ) -> Choice {
        one_request(|| self.predict_and_pick(features, 0.0, amortized(m, estimator, n_iterations)))
    }

    /// Steps 4–5 of Figure 8: converts `m` to the chosen format and
    /// returns the executable kernel (callers keep it for iterative
    /// SpMV).
    pub fn prepare<'m>(&self, m: &'m Csr, choice: &Choice) -> Prepared<'m> {
        choice.config.prepare(m)
    }

    /// One-shot convenience: prepare and execute a single `y = A x`.
    pub fn run_spmv(&self, m: &Csr, choice: &Choice, x: &[f64], y: &mut [f64], nthreads: usize) {
        let prepared = self.prepare(m, choice);
        let mut ws = SpmvWorkspace::default();
        prepared.spmv(x, y, nthreads, &mut ws);
    }

    /// Persists the trained instance as JSON.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads an instance saved by [`Self::save`]. Malformed or
    /// truncated files fail with [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Wise> {
        Ok(Wise::from_json_str(&std::fs::read_to_string(path)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_gen::SplitMix64;

    fn trained() -> (Wise, CorpusScale) {
        let scale = CorpusScale::tiny();
        let corpus = Corpus::random(&scale, 11);
        let wise = Wise::train(&corpus, &TrainOptions::for_scale(&scale));
        (wise, scale)
    }

    #[test]
    fn select_produces_catalog_config() {
        let (wise, _) = trained();
        let m = wise_gen::RmatParams::HIGH_SKEW.generate(9, 16, 77);
        let choice = wise.select(&m);
        assert_eq!(choice.predictions.len(), 29);
        assert_eq!(wise.registry().catalog()[choice.index].label(), choice.config.label());
        // The breakdown is always measured, and extraction cannot be
        // instantaneous.
        assert!(choice.timing.feature_extraction_s > 0.0);
        assert!(choice.timing.total_s() >= choice.timing.feature_extraction_s);
    }

    #[test]
    fn every_choice_carries_winning_decision_path() {
        let (wise, _) = trained();
        for (params, seed) in
            [(wise_gen::RmatParams::HIGH_SKEW, 77), (wise_gen::RmatParams::LOW_LOC, 5)]
        {
            let m = params.generate(9, 8, seed);
            let choice = wise.select(&m);
            assert_eq!(choice.decision_paths.len(), choice.predictions.len());
            let path = choice.winning_path().expect("winning path present");
            // "Non-empty" in the explainability sense: the path always
            // carries the leaf evidence, and its class is the winner's
            // prediction.
            assert!(path.leaf_samples > 0);
            assert_eq!(path.leaf_class, choice.predictions[choice.index].index());
            // Every vote is consistent with its own path.
            for (pred, p) in choice.predictions.iter().zip(&choice.decision_paths) {
                assert_eq!(pred.index(), p.leaf_class);
            }
        }
    }

    #[test]
    fn run_spmv_is_correct() {
        let (wise, _) = trained();
        let m = wise_gen::RmatParams::MED_LOC.generate(9, 8, 13);
        let choice = wise.select(&m);
        let mut rng = SplitMix64::seed_from_u64(1);
        let x: Vec<f64> = (0..m.ncols()).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let mut y = vec![0.0; m.nrows()];
        wise.run_spmv(&m, &choice, &x, &mut y, 2);
        let mut want = vec![0.0; m.nrows()];
        m.spmv_reference(&x, &mut want);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9 * (1.0 + w.abs()));
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let (wise, _) = trained();
        let path = std::env::temp_dir().join("wise_pipeline_test.json");
        wise.save(&path).unwrap();
        let back = Wise::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let m = wise_gen::RmatParams::LOW_LOC.generate(8, 4, 5);
        assert_eq!(wise.select(&m).config.label(), back.select(&m).config.label());
    }

    #[test]
    fn prepared_is_reusable_for_iterations() {
        let (wise, _) = trained();
        let m = wise_gen::RmatParams::LOW_SKEW.generate(8, 8, 2);
        let choice = wise.select(&m);
        let prep = wise.prepare(&m, &choice);
        let mut ws = SpmvWorkspace::default();
        let mut x = vec![1.0; m.ncols()];
        let mut y = vec![0.0; m.nrows()];
        // Three power iterations; just has to stay finite and correct
        // shape-wise.
        for _ in 0..3 {
            prep.spmv(&x, &mut y, 1, &mut ws);
            let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
            for (xi, yi) in x.iter_mut().zip(&y) {
                *xi = yi / norm;
            }
        }
        assert!(x.iter().all(|v| v.is_finite()));
    }
}

#[cfg(test)]
mod amortized_pipeline_tests {
    use super::*;
    use wise_perf::Estimator;

    #[test]
    fn few_iterations_select_a_cheaper_format_than_many() {
        let scale = CorpusScale::tiny();
        let corpus = Corpus::random(&scale, 11);
        let opts = TrainOptions {
            estimator: Estimator::model_for_rows(1 << 10),
            feature_config: FeatureConfig::default(),
            tree_params: Default::default(),
        };
        let wise = Wise::train(&corpus, &opts);
        let m = wise_gen::RmatParams::HIGH_SKEW.generate_shuffled(10, 16, 313);
        let one = wise.select_for_iterations(&m, &opts.estimator, 1);
        let many = wise.select_for_iterations(&m, &opts.estimator, 1_000_000);
        // One iteration can never justify conversion: CSR family.
        assert_eq!(one.config.method, wise_kernels::Method::Csr, "{}", one.config.label());
        // The asymptotic choice matches the plain (pure-speed) selection
        // tier. Select from pre-extracted features, which also exercises
        // the feature-reuse entry point.
        let features = FeatureVector::extract(&m, wise.feature_config());
        let plain = wise.select_from_features(features.clone());
        // Reusing features through the amortized path reproduces the
        // extraction-inclusive result exactly (modulo timing).
        let reused =
            wise.select_for_iterations_from_features(&m, features, &opts.estimator, 1_000_000);
        assert_eq!(reused.index, many.index);
        assert_eq!(reused.predictions, many.predictions);
        assert_eq!(reused.timing.feature_extraction_s, 0.0);
        assert_eq!(
            many.predictions[many.index], plain.predictions[plain.index],
            "many-iteration choice should reach the plain selection tier"
        );
    }
}
