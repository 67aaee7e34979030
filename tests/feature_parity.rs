//! Cross-crate parity suite for the fused feature-extraction engine:
//! [`FeatureVector::extract`] (fused single-pass, parallel) must equal
//! the kept naive reference extractor
//! [`FeatureVector::extract_reference`] feature-by-feature — *exactly*,
//! not approximately: both paths compute the same integer counts and
//! assemble them with the same floating-point expressions, so any
//! difference is a bug, not rounding.
//!
//! Coverage: every generator family (RMAT skew/locality recipes, RGG,
//! banded), degenerate shapes (empty, all-zero, single row/column,
//! wide, tall), thread counts {1, 2, 7} (exactness of the aligned-chunk
//! parallel merge), and tile budgets k_max ∈ {1, 16, 2048}.
//!
//! Grouped extraction ([`FeatureVector::extract_subset`]) is held to
//! the same standard: each [`FeatureGroup`] extracted on its own equals
//! the full sweep bit for bit on its slots, and amortized selection on
//! a registry that reads a few slots computes exactly their groups and
//! decides exactly as it would on the full vector.
//!
//! Both extractors share [`SummaryStats`], so the suite also holds that
//! one body to an independent copy of the sort-based statistics on
//! every matrix's R, C, T, RB and CB counts.

use wise_core::pipeline::Wise;
use wise_core::ModelRegistry;
use wise_features::{
    FeatureConfig, FeatureGroup, FeatureScratch, FeatureSet, FeatureVector, SummaryStats, TileGrid,
};
use wise_gen::{suite, Corpus, CorpusScale, RggParams, RmatParams, SplitMix64};
use wise_kernels::MethodConfig;
use wise_matrix::coo::DupPolicy;
use wise_matrix::{Coo, Csr};
use wise_perf::Estimator;
use wise_trace::export::json::{FromJson, ToJson};

const THREADS: [usize; 3] = [1, 2, 7];
const K_MAX: [usize; 3] = [1, 16, 2048];

/// Exact feature-by-feature comparison across every (k_max, threads)
/// combination, reusing one scratch to also exercise workspace reuse.
fn check_parity(m: &Csr, tag: &str) {
    let mut scratch = FeatureScratch::new();
    for k_max in K_MAX {
        let want = FeatureVector::extract_reference(m, &FeatureConfig { k_max, threads: 1 });
        for threads in THREADS {
            let cfg = FeatureConfig { k_max, threads };
            let got = FeatureVector::extract_subset_with(m, &cfg, FeatureSet::ALL, &mut scratch);
            for (i, (g, w)) in got.values().iter().zip(want.values()).enumerate() {
                assert!(
                    g == w,
                    "{tag} k_max={k_max} threads={threads}: feature {} ({i}): fused {g} != reference {w}",
                    FeatureVector::names()[i]
                );
            }
        }
    }
}

fn families() -> Vec<(&'static str, Csr)> {
    vec![
        ("rmat-hs", RmatParams::HIGH_SKEW.generate(9, 12, 1)),
        ("rmat-ms", RmatParams::MED_SKEW.generate(9, 8, 2)),
        ("rmat-ls", RmatParams::LOW_SKEW.generate(8, 6, 3)),
        ("rmat-hl", RmatParams::HIGH_LOC.generate(9, 8, 4)),
        ("rmat-ll", RmatParams::LOW_LOC.generate(9, 4, 5)),
        ("rgg", RggParams { n: 700, avg_degree: 6.0 }.generate(6)),
        ("banded", suite::banded(431, 11, 0.5, 7)),
        ("stencil2d", suite::stencil_2d(23, 29)),
    ]
}

fn degenerate_shapes() -> Vec<(&'static str, Csr)> {
    // Wide and tall rectangles with empty stretches: tile geometry is
    // strongly anisotropic and the mirrored column sweep dominates.
    let mut wide = Coo::new(3, 4000);
    let mut tall = Coo::new(4000, 3);
    for i in 0..900 {
        wide.push(i % 3, (i * 37) % 4000, 1.0).unwrap();
        tall.push((i * 37) % 4000, i % 3, 1.0).unwrap();
    }
    vec![
        ("empty-0x0", Csr::zero(0, 0)),
        ("all-zero", Csr::zero(17, 9)),
        ("1x1", Csr::identity(1)),
        // Single dense row / single column.
        (
            "one-dense-row",
            Csr::try_new(1, 40, vec![0, 40], (0..40).collect(), vec![1.5; 40]).unwrap(),
        ),
        ("one-col", Csr::try_new(40, 1, (0..=40).collect(), vec![0; 40], vec![2.0; 40]).unwrap()),
        ("wide-3x4000", wide.to_csr(DupPolicy::Sum)),
        ("tall-4000x3", tall.to_csr(DupPolicy::Sum)),
    ]
}

#[test]
fn every_generator_family_matches_reference() {
    for (tag, m) in families() {
        check_parity(&m, tag);
    }
}

#[test]
fn degenerate_shapes_match_reference() {
    for (tag, m) in degenerate_shapes() {
        check_parity(&m, tag);
    }
}

/// Bit patterns of a vector's values, for exact comparison.
fn bits(v: &FeatureVector) -> Vec<u64> {
    v.values().iter().map(|x| x.to_bits()).collect()
}

/// Asserts `got` is `full` on `subset` and exactly 0.0 elsewhere.
fn assert_subset_of_full(got: &FeatureVector, full: &FeatureVector, subset: FeatureSet, tag: &str) {
    for (i, (g, f)) in got.values().iter().zip(full.values()).enumerate() {
        let want = if subset.contains(i) { *f } else { 0.0 };
        assert_eq!(
            g.to_bits(),
            want.to_bits(),
            "{tag}: feature {} ({i}): grouped {g} != {want}",
            FeatureVector::names()[i]
        );
    }
}

/// Every group extracted on its own equals the full sweep on its slots
/// and leaves every other slot at 0.0, for every (k_max, threads).
fn check_groups(m: &Csr, tag: &str) {
    let mut scratch = FeatureScratch::new();
    for k_max in K_MAX {
        for threads in THREADS {
            let cfg = FeatureConfig { k_max, threads };
            let full = FeatureVector::extract(m, &cfg);
            for g in FeatureGroup::ALL {
                let got = FeatureVector::extract_subset_with(m, &cfg, g.slots(), &mut scratch);
                assert_subset_of_full(
                    &got,
                    &full,
                    g.slots(),
                    &format!("{tag} {g:?} k_max={k_max} threads={threads}"),
                );
            }
            let all = FeatureVector::extract_subset_with(m, &cfg, FeatureSet::ALL, &mut scratch);
            assert_eq!(bits(&all), bits(&full), "{tag} all groups");
        }
    }
}

#[test]
fn each_group_alone_matches_the_full_sweep_on_every_family() {
    for (tag, m) in families() {
        check_groups(&m, tag);
    }
}

#[test]
fn each_group_alone_matches_the_full_sweep_on_degenerate_shapes() {
    for (tag, m) in degenerate_shapes() {
        check_groups(&m, tag);
    }
}

/// Random slot subsets mix groups in every combination (tiles without
/// row incidence, incidence without tiles, ...): each computed slot
/// still equals the full sweep's.
#[test]
fn random_subsets_match_the_full_sweep() {
    let zoo: Vec<(&str, Csr)> = families().into_iter().chain(degenerate_shapes()).collect();
    let mut scratch = FeatureScratch::new();
    for case in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(case);
        let subset = FeatureSet::from_slots(
            (0..rng.below(6) + 1).map(|_| rng.below(wise_features::N_FEATURES)),
        );
        let (tag, m) = &zoo[case as usize % zoo.len()];
        let cfg = FeatureConfig { k_max: K_MAX[rng.below(3)], threads: THREADS[rng.below(3)] };
        let got = FeatureVector::extract_subset_with(m, &cfg, subset, &mut scratch);
        assert_subset_of_full(
            &got,
            &FeatureVector::extract(m, &cfg),
            subset,
            &format!("{tag} case {case}"),
        );
    }
}

/// A registry whose 29 trees split only on `names`: tree `j` is a comb
/// over `names` rotated by `j` (split `i` sends `<= threshold` to a
/// leaf and the rest to split `i + 1`), so every name is the root of
/// some tree. Thresholds are the zoo's per-feature medians so walks
/// branch both ways.
fn registry_splitting_on(names: &[&str], zoo: &[Csr]) -> ModelRegistry {
    let full: Vec<FeatureVector> =
        zoo.iter().map(|m| FeatureVector::extract(m, &FeatureConfig::default())).collect();
    let slots: Vec<usize> =
        names.iter().map(|n| FeatureVector::name_index(n).expect("feature name")).collect();
    let median = |slot: usize| {
        let mut v: Vec<f64> = full.iter().map(|f| f.values()[slot]).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let catalog = MethodConfig::catalog();
    let params = r#"{"max_depth":15,"min_samples_split":2,"min_samples_leaf":1,"ccp_alpha":0.0}"#;
    let node = |feature: u64, threshold: f64, left: usize, right: usize, class: usize| {
        format!(
            r#"{{"feature":{feature},"threshold":{},"left":{left},"right":{right},"class":{class},"n_samples":8,"node_risk":0.0}}"#,
            threshold.to_json()
        )
    };
    let leaf = |class: usize| node(u32::MAX as u64, 0.0, 0, 0, class % 7);
    let trees: Vec<String> = (0..catalog.len())
        .map(|j| {
            let mut nodes = Vec::new();
            for i in 0..slots.len() {
                let slot = slots[(i + j) % slots.len()];
                let at = nodes.len();
                nodes.push(node(slot as u64, median(slot), at + 1, at + 2, j % 7));
                nodes.push(leaf(j + i));
            }
            nodes.push(leaf(j + slots.len()));
            format!(
                r#"{{"nodes":[{}],"n_features":{},"n_classes":7,"params":{params}}}"#,
                nodes.join(","),
                wise_features::N_FEATURES
            )
        })
        .collect();
    let json = format!(
        r#"{{"catalog":{},"trees":[{}],"params":{params}}}"#,
        catalog.to_json(),
        trees.join(",")
    );
    ModelRegistry::from_json_str(&json).expect("hand-built registry decodes")
}

#[test]
fn decoded_registry_computes_exactly_the_groups_its_trees_read() {
    let zoo: Vec<Csr> = families().into_iter().map(|(_, m)| m).collect();
    let est = Estimator::model_for_rows(1 << 10);
    for (names, groups) in [
        (
            &["gini_T", "Gr4_uniqR", "uniqC"][..],
            &[FeatureGroup::Tiles, FeatureGroup::RowIncidence, FeatureGroup::ColIncidence][..],
        ),
        (
            &["nnz", "mean_T", "p_R", "gini_C"][..],
            &[FeatureGroup::Size, FeatureGroup::Means, FeatureGroup::RStats, FeatureGroup::CStats]
                [..],
        ),
    ] {
        let reg = registry_splitting_on(names, &zoo);
        let read = reg.read_set();
        let want_slots: Vec<usize> = {
            let mut v: Vec<usize> =
                names.iter().map(|n| FeatureVector::name_index(n).unwrap()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(read.slots().collect::<Vec<_>>(), want_slots, "{names:?}");
        assert_eq!(read.groups().collect::<Vec<_>>(), groups, "{names:?}");
        for threads in THREADS {
            let cfg = FeatureConfig { k_max: 2048, threads };
            let wise = Wise::from_registry(reg.clone(), cfg);
            for (i, m) in zoo.iter().enumerate() {
                let full = FeatureVector::extract(m, &cfg);
                for k in [1, 10, 200] {
                    let lean = wise.select_for_iterations(m, &est, k);
                    let want = wise.select_for_iterations_from_features(m, full.clone(), &est, k);
                    let tag = format!("{names:?} matrix {i} threads={threads} k={k}");
                    assert_eq!(lean.index, want.index, "{tag}");
                    assert_eq!(lean.predictions, want.predictions, "{tag}");
                    assert_eq!(lean.decision_paths, want.decision_paths, "{tag}");
                    assert_subset_of_full(&lean.features, &full, read, &tag);
                }
            }
        }
    }
}

#[test]
fn chunk_boundary_shapes_match_reference() {
    // Shapes chosen so row counts sit just around the lcm(tile_h, 64)
    // chunk alignment: exact multiples, one off either side, and a
    // prime. Any straddling bug shows up as an incidence-count drift.
    for n in [64usize, 63, 65, 128, 127, 129, 509] {
        check_parity(&suite::banded(n, 3, 0.9, n as u64), &format!("banded-{n}"));
    }
}

/// Arbitrary random sparse matrices: the fused engine agrees with
/// the reference exactly for every thread count and tile budget.
#[test]
fn arbitrary_matrices_match_reference() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::seed_from_u64(case);
        let (nrows, ncols) = (1 + rng.below(159), 1 + rng.below(159));
        let mut coo = Coo::new(nrows, ncols);
        for _ in 0..rng.below(500) {
            let (r, c) = (rng.below(160), rng.below(160));
            if r < nrows && c < ncols {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        let m = coo.to_csr(DupPolicy::Sum);
        let mut scratch = FeatureScratch::new();
        for k_max in K_MAX {
            let want = FeatureVector::extract_reference(&m, &FeatureConfig { k_max, threads: 1 });
            for threads in THREADS {
                let got = FeatureVector::extract_subset_with(
                    &m,
                    &FeatureConfig { k_max, threads },
                    FeatureSet::ALL,
                    &mut scratch,
                );
                assert_eq!(
                    got.values(),
                    want.values(),
                    "case {case} k_max={k_max} threads={threads}"
                );
            }
        }
    }
}

/// The sort-based statistics body, kept here independently of
/// `wise_features`: ascending sorted non-empty values, one f64 add per
/// element, and a linear p-ratio walk from the most loaded bucket.
fn sorted_stats(values: &[usize], n_buckets: usize) -> [f64; 8] {
    let mut sorted: Vec<usize> = values.iter().copied().filter(|&v| v > 0).collect();
    sorted.sort_unstable();
    if n_buckets == 0 {
        return [0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0];
    }
    let n = n_buckets as f64;
    let total: usize = sorted.iter().sum();
    let mean = total as f64 / n;
    let sum_sq: f64 = sorted.iter().map(|&v| (v as f64) * (v as f64)).sum();
    let var = (sum_sq / n - mean * mean).max(0.0);
    let min = if sorted.len() < n_buckets { 0.0 } else { sorted[0] as f64 };
    let max = sorted.last().map_or(0.0, |&v| v as f64);
    let (mut gini, mut p_ratio) = (0.0, 0.5);
    if total > 0 {
        let z = n_buckets - sorted.len();
        let weighted: f64 =
            sorted.iter().enumerate().map(|(i, &v)| (z + i + 1) as f64 * v as f64).sum();
        gini = (2.0 * weighted / (n * total as f64) - (n + 1.0) / n).clamp(0.0, 1.0);
        p_ratio = (sorted.len() as f64 / n).min(0.5);
        let mut cum = 0;
        for (k, &v) in sorted.iter().rev().enumerate() {
            cum += v;
            let frac_buckets = (k + 1) as f64 / n;
            if cum as f64 / total as f64 >= 1.0 - frac_buckets {
                p_ratio = frac_buckets.min(0.5);
                break;
            }
        }
    }
    [mean, var.sqrt(), var, gini, p_ratio, min, max, sorted.len() as f64]
}

/// Asserts `got` equals the sort-based body on `values` bit for bit.
fn assert_sorted_stats(got: SummaryStats, values: &[usize], n_buckets: usize, tag: &str) {
    let got = [got.mean, got.std, got.var, got.gini, got.p_ratio, got.min, got.max, got.ne];
    let want = sorted_stats(values, n_buckets);
    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{tag}: {got:?} != {want:?}");
}

/// `SummaryStats::from_counts` (dense) and `from_sparse` (non-empty
/// values only) on every distribution the extractors build, against
/// the independent sort-based body. `FeatureVector::extract_reference`
/// calls the same `SummaryStats` as the fused engine, so the parity
/// tests above cannot see a statistics bug; this one can.
#[test]
fn summary_stats_match_the_sorted_definition_on_every_distribution() {
    let corpus = Corpus::suite(&CorpusScale::tiny(), 3).matrices.into_iter();
    let zoo: Vec<(String, Csr)> = families()
        .into_iter()
        .chain(degenerate_shapes())
        .map(|(tag, m)| (tag.to_string(), m))
        .chain(corpus.map(|lm| (lm.name, lm.matrix)))
        .collect();
    let mut buf = Vec::new();
    for (tag, m) in &zoo {
        let mut dists = vec![("R", m.nnz_per_row()), ("C", m.nnz_per_col())];
        for k_max in K_MAX {
            let grid = TileGrid::new(m, k_max);
            let t: Vec<usize> = grid.tile_counts().to_vec();
            // T is stored sparsely: K² buckets, only the non-empty listed.
            let tag = format!("{tag} k_max={k_max} T");
            let sparse = SummaryStats::from_sparse_with(&t, grid.n_tiles(), &mut buf);
            assert_sorted_stats(sparse, &t, grid.n_tiles(), &tag);
            dists.push(("RB", grid.row_block_counts().to_vec()));
            dists.push(("CB", grid.col_block_counts().to_vec()));
        }
        for (dist, counts) in dists {
            let tag = format!("{tag} {dist}");
            let dense = SummaryStats::from_counts_with(&counts, &mut buf);
            assert_sorted_stats(dense, &counts, counts.len(), &tag);
            let nonzero: Vec<usize> = counts.iter().copied().filter(|&v| v > 0).collect();
            let sparse = SummaryStats::from_sparse(&nonzero, counts.len());
            assert_sorted_stats(sparse, &counts, counts.len(), &tag);
        }
    }
}
