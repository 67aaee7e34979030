//! End-to-end integration: corpus generation → labeling → training →
//! selection → execution, across every crate of the workspace.

use wise_core::labels::label_corpus;
use wise_core::pipeline::{TrainOptions, Wise};
use wise_features::FeatureConfig;
use wise_gen::{Corpus, CorpusScale, RmatParams, SplitMix64};
use wise_kernels::srvpack::SpmvWorkspace;
use wise_kernels::Method;
use wise_matrix::Csr;
use wise_perf::Estimator;

fn options(scale: &CorpusScale) -> TrainOptions {
    // Pin the backend to the model so the test is deterministic even if
    // WISE_MEASURED is set in the environment.
    let max_rows = 1usize << scale.row_scales.iter().copied().max().unwrap();
    TrainOptions {
        estimator: Estimator::model_for_rows(max_rows),
        feature_config: FeatureConfig::default(),
        tree_params: Default::default(),
    }
}

#[test]
fn trained_wise_selections_are_executable_and_correct() {
    let scale = CorpusScale::tiny();
    let corpus = Corpus::full(&scale, 5);
    let wise = Wise::train(&corpus, &options(&scale));

    let mut rng = SplitMix64::seed_from_u64(99);
    // Held-out matrices from several recipes (seeds unseen in training).
    for (i, m) in [
        RmatParams::HIGH_SKEW.generate(10, 16, 1001),
        RmatParams::LOW_LOC.generate(10, 8, 1002),
        RmatParams::HIGH_LOC.generate(9, 8, 1003),
        wise_gen::suite::stencil_2d(31, 33),
    ]
    .iter()
    .enumerate()
    {
        let choice = wise.select(m);
        let x: Vec<f64> = (0..m.ncols()).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let mut got = vec![0.0; m.nrows()];
        wise.run_spmv(m, &choice, &x, &mut got, 2);
        let mut want = vec![0.0; m.nrows()];
        m.spmv_reference(&x, &mut want);
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
                "matrix {i}, choice {}",
                choice.config.label()
            );
        }
    }
}

#[test]
fn wise_beats_mkl_baseline_on_average_under_the_model() {
    // The paper's headline claim, at tiny scale: selecting per matrix
    // beats the fixed MKL-like baseline on average (model backend).
    let scale = CorpusScale::tiny();
    let corpus = Corpus::full(&scale, 6);
    let opts = options(&scale);
    let labels = label_corpus(&corpus, &opts.estimator, &opts.feature_config);
    let ev = wise_core::evaluate::evaluate_cv(&labels, opts.tree_params, 5, 7);
    let speedup = ev.mean_wise_speedup();
    assert!(speedup > 1.0, "WISE should beat the fixed baseline on average, got {speedup:.3}x");
    // And stay within a sane distance of its oracle.
    assert!(ev.mean_oracle_speedup() / speedup < 2.0);
}

#[test]
fn selection_is_deterministic_across_training_runs() {
    let scale = CorpusScale::tiny();
    let corpus = Corpus::full(&scale, 5);
    let a = Wise::train(&corpus, &options(&scale));
    let b = Wise::train(&corpus, &options(&scale));
    for m in [RmatParams::MED_SKEW.generate(9, 8, 2001), RmatParams::LOW_SKEW.generate(9, 4, 2002)]
    {
        assert_eq!(a.select(&m).config.label(), b.select(&m).config.label());
    }
}

#[test]
fn prepared_kernel_supports_iterative_reuse_with_changing_x() {
    let scale = CorpusScale::tiny();
    let corpus = Corpus::full(&scale, 5);
    let wise = Wise::train(&corpus, &options(&scale));
    let m = RmatParams::HIGH_SKEW.generate(9, 16, 3001);
    let choice = wise.select(&m);
    let prep = wise.prepare(&m, &choice);
    let mut ws = SpmvWorkspace::default();
    let mut rng = SplitMix64::seed_from_u64(17);
    for _ in 0..5 {
        let x: Vec<f64> = (0..m.ncols()).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let mut got = vec![0.0; m.nrows()];
        prep.spmv(&x, &mut got, 3, &mut ws);
        let mut want = vec![0.0; m.nrows()];
        m.spmv_reference(&x, &mut want);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()));
        }
    }
}

#[test]
fn extended_catalog_trains_and_selects() {
    // The paper's extensibility claim (Section 7): adding configurations
    // is purely additive — label over a bigger catalog, train, select.
    use wise_core::labels::label_corpus_with;
    use wise_core::ModelRegistry;
    use wise_kernels::method::MethodConfig;

    let scale = CorpusScale::tiny();
    let corpus = Corpus::random(&scale, 8);
    let opts = options(&scale);
    let mut catalog = MethodConfig::catalog();
    catalog.push(MethodConfig::lav(8, 0.95));
    let n = catalog.len();
    let labels = label_corpus_with(&corpus, &opts.estimator, &opts.feature_config, catalog);
    assert_eq!(labels.catalog.len(), n);
    let registry = ModelRegistry::train(&labels, opts.tree_params);
    let wise = Wise::from_registry(registry, opts.feature_config);
    let m = RmatParams::HIGH_SKEW.generate_shuffled(9, 16, 4242);
    let choice = wise.select(&m);
    assert_eq!(choice.predictions.len(), n);
    // The chosen config is executable and correct.
    let x = vec![1.0; m.ncols()];
    let mut got = vec![0.0; m.nrows()];
    wise.run_spmv(&m, &choice, &x, &mut got, 1);
    let mut want = vec![0.0; m.nrows()];
    m.spmv_reference(&x, &mut want);
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() < 1e-9 * (1.0 + w.abs()));
    }
}

#[test]
fn catalog_without_csr_is_rejected() {
    use wise_core::labels::label_corpus_with;
    use wise_kernels::method::MethodConfig;
    let scale = CorpusScale::tiny();
    let corpus = Corpus::random(&scale, 8);
    let opts = options(&scale);
    let catalog = vec![MethodConfig::sellpack(8, wise_kernels::Schedule::Dyn)];
    let result = std::panic::catch_unwind(|| {
        label_corpus_with(&corpus, &opts.estimator, &opts.feature_config, catalog)
    });
    assert!(result.is_err(), "labeling without a CSR baseline must panic");
}

#[test]
fn zero_row_and_empty_matrices_select_without_panicking() {
    // Shapes `Csr::try_new` accepts with nothing to multiply: both
    // selection paths must answer, and the amortized one with CSR.
    let scale = CorpusScale::tiny();
    let opts = options(&scale);
    let wise = Wise::train(&Corpus::full(&scale, 8), &opts);
    for m in [Csr::zero(0, 0), Csr::zero(0, 5), Csr::zero(5, 0), Csr::zero(16, 16)] {
        let shape = format!("{}x{}", m.nrows(), m.ncols());
        let x = vec![1.0; m.ncols()];
        let mut choices = vec![wise.select(&m)];
        for k in [1, 10, 200] {
            let choice = wise.select_for_iterations(&m, &opts.estimator, k);
            assert_eq!(choice.config.method, Method::Csr, "{shape} k = {k}");
            choices.push(choice);
        }
        for choice in &choices {
            let mut y = vec![f64::NAN; m.nrows()];
            wise.run_spmv(&m, choice, &x, &mut y, 2);
            assert!(y.iter().all(|&v| v == 0.0), "{shape} {}", choice.config.label());
        }
    }
}
