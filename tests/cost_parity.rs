//! Cost-model parity: the grouped catalog evaluation — one conversion
//! and one input-vector reuse pass per packed layout — is bit-identical
//! to estimating every configuration on its own, for modeled seconds,
//! full breakdowns, training labels and the picks derived from them.
//! The amortized pick's CSR baseline equals the grouped best CSR bit
//! for bit wherever it replays in full, and its windowed replay stays
//! within a stated ratio of it without moving a pick.

use wise_core::select::select_index_amortized;
use wise_core::{CorpusLabels, MatrixLabels, SpeedupClass, TrainOptions, Wise};
use wise_features::{FeatureConfig, FeatureVector};
use wise_gen::{suite, Recipe};
use wise_kernels::{Method, MethodConfig};
use wise_matrix::Csr;
use wise_ml::TreeParams;
use wise_perf::cost::{
    estimate_catalog, estimate_spmv_seconds, BASELINE_FULL_REPLAY, BASELINE_WARMUP,
};
use wise_perf::{Estimator, MachineModel};

/// A `nrows × ncols` matrix with a deterministic scatter of columns;
/// rows where `skip(r)` holds stay empty.
fn scattered(nrows: usize, ncols: usize, per_row: usize, skip: impl Fn(usize) -> bool) -> Csr {
    let mut row_ptr = vec![0];
    let mut col_idx = Vec::new();
    for r in 0..nrows {
        if !skip(r) {
            let mut cols: Vec<u32> =
                (0..per_row).map(|k| ((r * 7919 + k * 104_729) % ncols) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            col_idx.extend(cols);
        }
        row_ptr.push(col_idx.len());
    }
    let vals = (0..col_idx.len()).map(|i| 1.0 + i as f64 * 1e-3).collect();
    Csr::try_new(nrows, ncols, row_ptr, col_idx, vals).expect("valid CSR")
}

/// RMAT skew and uniform, banded, stencil, empty rows, 1×1, and a
/// column count that is not a multiple of the 8-element cache line.
fn zoo() -> Vec<(&'static str, Csr)> {
    vec![
        ("rmat-skew", Recipe::HighSkew.generate(9, 16, 1)),
        ("rmat-uniform", Recipe::LowLoc.generate(9, 8, 2)),
        ("banded", suite::banded(700, 6, 0.8, 3)),
        ("stencil", suite::stencil_2d(30, 33)),
        ("empty-rows", scattered(600, 600, 9, |r| r % 3 == 0 || (200..260).contains(&r))),
        ("1x1", Csr::try_new(1, 1, vec![0, 1], vec![0], vec![2.0]).expect("valid CSR")),
        ("ragged-cols", scattered(517, 1003, 12, |_| false)),
    ]
}

/// The catalog twice over, so every layout group also holds exact
/// duplicates (the schedules already share each packed layout).
fn configs() -> Vec<MethodConfig> {
    let mut cfgs = MethodConfig::catalog();
    cfgs.extend(MethodConfig::catalog());
    cfgs
}

/// Two machine scalings (cache-resident and DRAM-bound x) × shifts
/// {0, auto, 6}.
fn estimators() -> Vec<Estimator> {
    let mut out = Vec::new();
    for machine in [MachineModel::scaled_for_rows(1 << 10), MachineModel::scaled_for_rows(1 << 7)] {
        for sample_shift in [Some(0), None, Some(6)] {
            out.push(Estimator::Model { machine: machine.clone(), sample_shift });
        }
    }
    out
}

fn bits(pairs: &[(f64, f64)]) -> Vec<(u64, u64)> {
    pairs.iter().map(|&(s, c)| (s.to_bits(), c.to_bits())).collect()
}

#[test]
fn catalog_costs_match_per_config_estimates_bit_for_bit() {
    let cfgs = configs();
    for (name, m) in zoo() {
        for est in estimators() {
            let grouped = est.catalog_costs(&m, &cfgs);
            assert_eq!(grouped.len(), cfgs.len());
            for (cfg, &(steady, cold)) in cfgs.iter().zip(&grouped) {
                let ctx = format!("{name} {} {est:?}", cfg.label());
                assert_eq!(steady.to_bits(), est.spmv_seconds(&m, cfg).to_bits(), "{ctx}");
                let alone = est.catalog_costs(&m, std::slice::from_ref(cfg));
                assert_eq!(bits(&alone), bits(&[(steady, cold)]), "{ctx}");
                assert!(steady > 0.0 && cold > 0.0, "{ctx}");
            }
            // Grouping does not depend on the order configs arrive in.
            let mut reversed: Vec<MethodConfig> = cfgs.clone();
            reversed.reverse();
            let mut back = est.catalog_costs(&m, &reversed);
            back.reverse();
            assert_eq!(bits(&back), bits(&grouped), "{name} reversed");
        }
    }
}

#[test]
fn grouped_breakdowns_match_single_estimates() {
    let cfgs = configs();
    for (name, m) in zoo() {
        for machine in
            [MachineModel::scaled_for_rows(1 << 10), MachineModel::scaled_for_rows(1 << 7)]
        {
            for shift in [0, 3, 6] {
                let grouped = estimate_catalog(&m, &cfgs, &machine, shift);
                for (cfg, (steady, cold)) in cfgs.iter().zip(&grouped) {
                    let ctx = format!("{name} {} shift {shift}", cfg.label());
                    assert_eq!(*steady, estimate_spmv_seconds(&m, cfg, &machine, shift), "{ctx}");
                    // One pass serves both: the cold counts only move
                    // first touches to DRAM.
                    let (s, c) = (steady.x_counts, cold.x_counts);
                    assert_eq!(s.total().to_bits(), c.total().to_bits(), "{ctx}");
                    assert_eq!(s.l1.to_bits(), c.l1.to_bits(), "{ctx}");
                    assert!(c.dram >= s.dram, "{ctx}");
                    assert_eq!(steady.nnz_padded, cold.nnz_padded, "{ctx}");
                }
            }
        }
    }
}

/// The benchmark's training corpus shape: six families × eight
/// matrices at 2^8–2^10 rows and 4–32 nonzeros per row.
fn tiny_corpus() -> Vec<(String, Csr)> {
    let (scales, degs) = ([8u32, 9, 10], [4u32, 6, 8, 12, 16, 24, 32]);
    let mut out = Vec::new();
    for (fi, family) in ["rmat-skew", "rmat-uniform", "rmat-diag", "banded", "stencil3d", "rgg"]
        .into_iter()
        .enumerate()
    {
        for i in 0..8 {
            let (scale, deg) = (scales[i % 3], degs[i % 7]);
            let n = 1usize << scale;
            let seed = (fi * 8 + i) as u64;
            let m = match family {
                "rmat-skew" => Recipe::HighSkew.generate(scale, deg, seed),
                "rmat-uniform" => Recipe::LowLoc.generate(scale, deg, seed),
                "rmat-diag" => Recipe::HighLoc.generate(scale, deg, seed),
                "banded" => suite::banded(n, deg as usize / 2, 0.9, seed),
                "stencil3d" => suite::stencil_3d(8, 8, n / 64),
                _ => Recipe::Rgg.generate(scale, deg, seed),
            };
            out.push((format!("{family}_s{scale}_d{deg}"), m));
        }
    }
    out
}

#[test]
fn labels_and_picks_match_per_config_recomputation() {
    let est = Estimator::model_for_rows(1 << 10);
    let catalog = MethodConfig::catalog();
    let features = FeatureConfig { threads: 1, ..FeatureConfig::default() };
    let to_bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    let best_csr = |seconds: &[f64]| {
        catalog
            .iter()
            .zip(seconds)
            .filter(|(cfg, _)| cfg.method == Method::Csr)
            .map(|(_, &t)| t)
            .fold(f64::MAX, f64::min)
    };
    let corpus = tiny_corpus();
    let mut matrices = Vec::new();
    for (name, m) in &corpus {
        let l = MatrixLabels::compute_with(name, m, &est, &features, &catalog);
        let alone: Vec<(f64, f64)> =
            catalog.iter().map(|cfg| est.catalog_costs(m, std::slice::from_ref(cfg))[0]).collect();
        let (seconds, cold): (Vec<f64>, Vec<f64>) = alone.into_iter().unzip();
        let best = best_csr(&seconds);
        let classes: Vec<SpeedupClass> =
            seconds.iter().map(|&t| SpeedupClass::from_relative_time(t / best)).collect();
        assert_eq!(to_bits(&l.seconds), to_bits(&seconds), "{name} seconds");
        assert_eq!(to_bits(&l.cold_seconds), to_bits(&cold), "{name} cold seconds");
        assert_eq!(l.best_csr_seconds.to_bits(), best.to_bits(), "{name} best CSR");
        assert_eq!(l.classes, classes, "{name} classes");
        matrices.push(l);
    }

    // Amortized picks: the pipeline's grouped CSR baseline gives the
    // same index as per-config estimates fed to the same rule.
    let labels = CorpusLabels { catalog: catalog.clone(), matrices };
    let opts = TrainOptions {
        estimator: est.clone(),
        feature_config: features,
        tree_params: TreeParams::default(),
    };
    let wise = Wise::from_labels(&labels, &opts);
    for (name, m) in corpus.iter().step_by(3) {
        let preproc: Vec<f64> = catalog.iter().map(|c| est.preprocessing_seconds(m, c)).collect();
        let seconds: Vec<f64> = catalog.iter().map(|c| est.spmv_seconds(m, c)).collect();
        for k in [1, 10, 200] {
            let choice = wise.select_for_iterations(m, &est, k);
            let want = select_index_amortized(
                &catalog,
                &choice.predictions,
                &preproc,
                best_csr(&seconds),
                k,
            );
            assert_eq!(choice.index, want, "{name} k = {k}");
        }
    }
}

/// The catalog's CSR configs.
fn csr_configs() -> Vec<MethodConfig> {
    MethodConfig::catalog().into_iter().filter(|c| c.method == Method::Csr).collect()
}

/// Best steady-state CSR seconds from the grouped full replay.
fn catalog_best_csr(est: &Estimator, m: &Csr, cfgs: &[MethodConfig]) -> f64 {
    est.catalog_costs(m, cfgs).into_iter().map(|(steady, _)| steady).fold(f64::MAX, f64::min)
}

#[test]
fn csr_baseline_matches_catalog_best_csr_where_it_replays_in_full() {
    let csr = csr_configs();
    // The zoo's short streams, the longest stream still replayed in
    // full (768 rows × 8), and shapes with nothing to multiply.
    let mut short: Vec<(&str, Csr)> =
        zoo().into_iter().filter(|(_, m)| m.nnz() <= BASELINE_FULL_REPLAY).collect();
    assert_eq!(short.len(), 5, "the zoo's short streams");
    short.push(("full-replay-edge", scattered(768, 1024, 8, |_| false)));
    assert_eq!(short.last().map(|(_, m)| m.nnz()), Some(BASELINE_FULL_REPLAY));
    for (name, shape) in [("0x0", (0, 0)), ("0x5", (0, 5)), ("5x0", (5, 0)), ("empty", (16, 16))] {
        short.push((name, Csr::zero(shape.0, shape.1)));
    }
    for (name, m) in &short {
        for est in estimators() {
            for cfgs in [&csr[..], &csr[..1], &csr[1..]] {
                let want = catalog_best_csr(&est, m, cfgs);
                let got = est.csr_baseline_seconds(m, cfgs);
                assert_eq!(got.to_bits(), want.to_bits(), "{name} {} {est:?}", cfgs.len());
            }
        }
    }
    // A warm-up cannot reach an LLC larger than itself: such machines
    // replay long streams in full too.
    let est = Estimator::model_for_rows(1 << 16);
    assert!(est.machine().map(|m| m.llc_lines()) > Some(BASELINE_WARMUP));
    for (name, m) in zoo().iter().filter(|(_, m)| m.nnz() > BASELINE_FULL_REPLAY) {
        let want = catalog_best_csr(&est, m, &csr);
        assert_eq!(est.csr_baseline_seconds(m, &csr).to_bits(), want.to_bits(), "{name}");
    }
}

/// RMAT recipes plus suite banded and stencil matrices at 2^13–2^15
/// rows, 4–16 nonzeros per row.
fn long_stream_sample() -> Vec<(String, Csr)> {
    let mut out = Vec::new();
    for scale in 13u32..=15 {
        let n = 1usize << scale;
        for (i, recipe) in [
            Recipe::HighSkew,
            Recipe::MedSkew,
            Recipe::LowSkew,
            Recipe::LowLoc,
            Recipe::MedLoc,
            Recipe::HighLoc,
        ]
        .into_iter()
        .enumerate()
        {
            let deg = [4, 8, 16][(i + scale as usize) % 3];
            out.push((format!("{recipe:?}_s{scale}_d{deg}"), recipe.generate(scale, deg, 7)));
        }
        let half_bw = 4 + 4 * (scale as usize % 2);
        out.push((format!("banded_s{scale}"), suite::banded(n, half_bw, 0.9, 7)));
        out.push((format!("stencil2d_s{scale}"), suite::stencil_2d(128, n / 128)));
        out.push((format!("stencil3d_s{scale}"), suite::stencil_3d(16, 16, n / 256)));
    }
    out
}

#[test]
fn windowed_csr_baseline_tracks_the_full_replay_and_keeps_picks() {
    // The benchmark's machine: its LLC (512 lines) is within a warm-up.
    let est = Estimator::model_for_rows(1 << 10);
    let catalog = MethodConfig::catalog();
    let csr = csr_configs();
    let features = FeatureConfig { threads: 1, ..FeatureConfig::default() };
    let matrices = tiny_corpus()
        .iter()
        .map(|(name, m)| MatrixLabels::compute_with(name, m, &est, &features, &catalog))
        .collect();
    let opts = TrainOptions {
        estimator: est.clone(),
        feature_config: features,
        tree_params: TreeParams::default(),
    };
    let wise = Wise::from_labels(&CorpusLabels { catalog: catalog.clone(), matrices }, &opts);
    for (name, m) in long_stream_sample() {
        assert!(m.nnz() > BASELINE_FULL_REPLAY, "{name}");
        let full = catalog_best_csr(&est, &m, &csr);
        let windowed = est.csr_baseline_seconds(&m, &csr);
        let ratio = windowed / full;
        assert!((0.9..=1.25).contains(&ratio), "{name}: windowed / full = {ratio}");
        let preproc: Vec<f64> = catalog.iter().map(|c| est.preprocessing_seconds(&m, c)).collect();
        let vector = FeatureVector::extract(&m, &features);
        for k in [1, 10, 200] {
            let choice = wise.select_for_iterations_from_features(&m, vector.clone(), &est, k);
            let want = select_index_amortized(&catalog, &choice.predictions, &preproc, full, k);
            assert_eq!(choice.index, want, "{name} k = {k}");
        }
    }
}
