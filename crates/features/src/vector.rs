//! Assembly of the fixed-order feature vector fed to the decision
//! trees (the full Table 2).

use crate::engine::{self, FeatureScratch};
use crate::groups::{dist_base, FeatureGroup, FeatureSet, HOST_BASE, LOC_BASE};
use crate::locality::{locality_metrics, side_metrics, LocalityMetrics, SideLocality, GROUP_XS};
use crate::stats::SummaryStats;
use crate::tiling::{TileGeometry, TileGrid};
use std::collections::HashMap;
use std::sync::OnceLock;
use wise_kernels::sched::default_threads;
use wise_matrix::Csr;
use wise_trace::export::json::JsonError;

/// Feature-extraction configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureConfig {
    /// Maximum tile-grid dimension K. The paper uses 2048 (sized for L2
    /// and 2^20+-row matrices); the grid is clamped to the matrix
    /// dimensions either way.
    pub k_max: usize,
    /// Worker threads for the fused extraction sweeps: 0 (the default)
    /// resolves to [`default_threads`] at extraction time. Callers that
    /// already parallelize *across* matrices (e.g. the labeling loop in
    /// `wise-core`) run it inline anyway, because nested pool calls do
    /// not dispatch; the result is bit-identical for any count. Absent
    /// from JSON written before the knob existed (decodes as 0).
    pub threads: usize,
}

wise_trace::json_struct!(FeatureConfig { k_max, threads = 0 });

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig { k_max: 2048, threads: 0 }
    }
}

impl FeatureConfig {
    /// The worker-thread count extraction will actually use.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        }
    }
}

/// A fixed-order vector of the 70 features fed to the trees: the 67
/// matrix features of Table 2 (3 size, 5 distributions × 8 statistics
/// and 24 locality metrics) plus 3 trailing host-capability features
/// (SIMD lanes, auto prefetch distance, auto interleave factor) so
/// selection can learn vector-width/MLP decisions per matrix rather
/// than per host.
///
/// ```
/// use wise_features::{FeatureConfig, FeatureVector};
/// let m = wise_matrix::Csr::identity(64);
/// let f = FeatureVector::extract(&m, &FeatureConfig::default());
/// assert_eq!(f.get("nnz"), Some(64.0));
/// assert_eq!(f.get("mean_R"), Some(1.0)); // one nonzero per row
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    values: Vec<f64>,
}

/// Number of features: Table 2's 67 plus the 3 host SIMD/MLP features.
pub const N_FEATURES: usize = 3 + 5 * 8 + 24 + 3;

// A vector of another length came from another feature set.
wise_trace::json_struct!(FeatureVector { values } check |f: &FeatureVector| match f.values.len() {
    N_FEATURES => Ok(()),
    found => Err(JsonError::Length { expected: N_FEATURES, found }),
});

/// The host SIMD/MLP capability features, in vector order:
/// `[host_simd_lanes, host_prefetch, host_interleave]`. They depend on
/// the active ISA (so a test's `simd::set_active` override is visible
/// to the classifier) and on `ncols`, which drives the auto policies'
/// x-footprint thresholds. Shared by the full extractor, the reference extractor
/// and the probe, so all three agree bit-for-bit.
pub fn host_simd_features(ncols: usize) -> [f64; 3] {
    let isa = wise_kernels::simd::active();
    [
        isa.lanes() as f64,
        wise_kernels::simd::auto_prefetch_distance(isa, ncols) as f64,
        wise_kernels::simd::auto_csr_interleave(isa, ncols) as f64,
    ]
}

fn build_names() -> Vec<String> {
    let mut names = vec!["n_rows".to_string(), "n_cols".to_string(), "nnz".to_string()];
    for dist in ["R", "C", "T", "RB", "CB"] {
        for stat in ["mean", "std", "var", "gini", "p", "min", "max", "ne"] {
            names.push(format!("{stat}_{dist}"));
        }
    }
    names.push("uniqR".into());
    names.push("uniqC".into());
    for x in GROUP_XS {
        names.push(format!("Gr{x}_uniqR"));
    }
    for x in GROUP_XS {
        names.push(format!("Gr{x}_uniqC"));
    }
    names.push("potReuseR".into());
    names.push("potReuseC".into());
    for x in GROUP_XS {
        names.push(format!("Gr{x}_potReuseR"));
    }
    for x in GROUP_XS {
        names.push(format!("Gr{x}_potReuseC"));
    }
    names.push("host_simd_lanes".into());
    names.push("host_prefetch".into());
    names.push("host_interleave".into());
    debug_assert_eq!(names.len(), N_FEATURES);
    names
}

/// Distribution order of the 5 × 8 statistic slots.
const R: usize = 0;
const C: usize = 1;
const T: usize = 2;
const RB: usize = 3;
const CB: usize = 4;

/// Writes the three size slots and the three host slots.
fn put_sizes(values: &mut [f64], nrows: usize, ncols: usize, nnz: usize) {
    values[..3].copy_from_slice(&[nrows as f64, ncols as f64, nnz as f64]);
    values[HOST_BASE..].copy_from_slice(&host_simd_features(ncols));
}

/// Writes the 8 statistics of distribution `dist`, in Table 2 order.
fn put_stats(values: &mut [f64], dist: usize, s: SummaryStats) {
    let b = dist_base(dist);
    values[b..b + 8]
        .copy_from_slice(&[s.mean, s.std, s.var, s.gini, s.p_ratio, s.min, s.max, s.ne]);
}

/// Writes one orientation's 12 locality slots (`side` 0 = rows, 1 =
/// columns).
fn put_side(values: &mut [f64], side: usize, s: SideLocality) {
    values[LOC_BASE + side] = s.uniq;
    values[LOC_BASE + 2 + 5 * side..][..5].copy_from_slice(&s.gr_uniq);
    values[LOC_BASE + 12 + side] = s.pot_reuse;
    values[LOC_BASE + 14 + 5 * side..][..5].copy_from_slice(&s.gr_pot_reuse);
}

/// The reference extractor's assembly from fully computed parts.
fn assemble(
    nrows: usize,
    ncols: usize,
    nnz: usize,
    dists: [SummaryStats; 5], // R, C, T, RB, CB
    loc: &LocalityMetrics,
) -> Vec<f64> {
    let mut values = vec![0.0; N_FEATURES];
    put_sizes(&mut values, nrows, ncols, nnz);
    for (d, s) in dists.into_iter().enumerate() {
        put_stats(&mut values, d, s);
    }
    put_side(&mut values, 0, loc.side(0));
    put_side(&mut values, 1, loc.side(1));
    values
}

impl FeatureVector {
    /// The feature names, in vector order.
    pub fn names() -> &'static [String] {
        static NAMES: OnceLock<Vec<String>> = OnceLock::new();
        NAMES.get_or_init(build_names)
    }

    /// Name → vector-index map (built once; [`Self::get`] is O(1)).
    fn index_map() -> &'static HashMap<&'static str, usize> {
        static MAP: OnceLock<HashMap<&'static str, usize>> = OnceLock::new();
        MAP.get_or_init(|| Self::names().iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect())
    }

    /// Vector index of a feature name, if it exists.
    pub fn name_index(name: &str) -> Option<usize> {
        Self::index_map().get(name).copied()
    }

    /// Extracts all features from `m` with the fused parallel engine —
    /// O(nnz + K) work split over `cfg.threads` workers. This is the
    /// feature-calculation half of WISE's preprocessing overhead
    /// (Fig. 13c). Allocates a fresh workspace; hot loops extracting
    /// from many matrices should reuse one via [`Self::extract_with`].
    pub fn extract(m: &Csr, cfg: &FeatureConfig) -> FeatureVector {
        Self::extract_subset(m, cfg, FeatureSet::ALL)
    }

    /// [`Self::extract`] with a caller-owned [`FeatureScratch`], making
    /// repeated extractions allocation-free once the workspace has
    /// grown to the largest matrix seen.
    pub fn extract_with(
        m: &Csr,
        cfg: &FeatureConfig,
        scratch: &mut FeatureScratch,
    ) -> FeatureVector {
        Self::extract_subset_with(m, cfg, FeatureSet::ALL, scratch)
    }

    /// Extracts only the slots in `subset`, computing just the
    /// [`FeatureGroup`]s they belong to; every other slot holds 0.0.
    /// Each computed slot equals [`Self::extract`]'s bit for bit, for
    /// every thread count. Allocates a fresh workspace.
    pub fn extract_subset(m: &Csr, cfg: &FeatureConfig, subset: FeatureSet) -> FeatureVector {
        Self::extract_subset_with(m, cfg, subset, &mut FeatureScratch::new())
    }

    /// [`Self::extract_subset`] with a caller-owned [`FeatureScratch`].
    /// This is the one extractor: [`Self::extract_with`] is its
    /// [`FeatureSet::ALL`] case.
    pub fn extract_subset_with(
        m: &Csr,
        cfg: &FeatureConfig,
        subset: FeatureSet,
        scratch: &mut FeatureScratch,
    ) -> FeatureVector {
        let _span = wise_trace::span("features.extract");
        wise_trace::counter("features.nnz", m.nnz() as u64);
        let (nrows, ncols, nnz) = (m.nrows(), m.ncols(), m.nnz());
        let geo = TileGeometry::for_matrix(nrows, ncols, cfg.k_max);
        let threads = cfg.resolved_threads();
        let want = |g| subset.touches(g);
        let mut values = vec![0.0; N_FEATURES];

        if want(FeatureGroup::Size) {
            put_sizes(&mut values, nrows, ncols, nnz);
        }

        let (want_r, want_c) = (want(FeatureGroup::RStats), want(FeatureGroup::CStats));
        let counts = engine::row_col_stats::<false>(m, scratch, want_r, want_c);
        if let Some(r) = counts.r {
            put_stats(&mut values, R, r);
        }
        if let Some(c) = counts.c {
            put_stats(&mut values, C, c);
        }

        // Fused row-major sweep: T, RB, CB and row-side incidence in
        // one pass over the CSR arrays, each half only when wanted.
        let (want_tiles, want_rows) = (want(FeatureGroup::Tiles), want(FeatureGroup::RowIncidence));
        if want_tiles || want_rows {
            let _sweep = wise_trace::span("features.sweep_rows");
            let side = engine::fused_sweep(
                &mut scratch.workers,
                m.row_ptr(),
                m.col_idx(),
                nrows,
                geo,
                engine::Parts { tiles: want_tiles, incidence: want_rows },
                threads,
            );
            if want_tiles {
                let buf = &mut scratch.stat_buf;
                let (t, rb, cb) = (
                    SummaryStats::from_sparse_with(side.tile_counts, geo.k * geo.k, buf),
                    SummaryStats::from_counts_with(side.row_block_counts, buf),
                    SummaryStats::from_counts_with(side.col_block_counts, buf),
                );
                put_stats(&mut values, T, t);
                put_stats(&mut values, RB, rb);
                put_stats(&mut values, CB, cb);
            }
            if want_rows {
                put_side(&mut values, 0, side_metrics(side.incidence, nrows, nnz));
            }
        }

        // Values-free pattern transpose feeding the mirrored sweep for
        // the column-side incidence levels.
        if want(FeatureGroup::ColIncidence) {
            {
                let _t = wise_trace::span("features.transpose");
                m.transpose_pattern_into(&mut scratch.t_row_ptr, &mut scratch.t_col_idx);
            }
            let _sweep = wise_trace::span("features.sweep_cols");
            let mirrored = TileGeometry { k: geo.k, tile_h: geo.tile_w, tile_w: geo.tile_h };
            let side = engine::fused_sweep(
                &mut scratch.workers,
                &scratch.t_row_ptr,
                &scratch.t_col_idx,
                ncols,
                mirrored,
                engine::Parts { tiles: false, incidence: true },
                threads,
            );
            put_side(&mut values, 1, side_metrics(side.incidence, ncols, nnz));
        }

        // The T/RB/CB means in closed form: every nonzero lies in exactly
        // one of the K² tiles and one of the K row (column) blocks, so the
        // sums the statistics divide are nnz, and `SummaryStats` divides
        // by the bucket count as an f64 just like this.
        if want(FeatureGroup::Means) {
            values[dist_base(T)] = nnz as f64 / (geo.k * geo.k) as f64;
            values[dist_base(RB)] = nnz as f64 / geo.k as f64;
            values[dist_base(CB)] = nnz as f64 / geo.k as f64;
        }

        for (i, v) in values.iter_mut().enumerate() {
            if !subset.contains(i) {
                *v = 0.0;
            }
        }
        FeatureVector { values }
    }

    /// The naive multi-pass reference extractor: full value-carrying
    /// transpose, sort-based [`TileGrid`], separate per-distribution
    /// passes. Kept as the oracle the parity test suite compares
    /// [`Self::extract`] against feature-by-feature (results are
    /// exactly equal); not used on any production path.
    pub fn extract_reference(m: &Csr, cfg: &FeatureConfig) -> FeatureVector {
        let grid = TileGrid::new(m, cfg.k_max);
        let mt = m.transpose();

        let r_stats = SummaryStats::from_counts(&m.nnz_per_row());
        let c_stats = SummaryStats::from_counts(&m.nnz_per_col());
        let t_stats = SummaryStats::from_sparse(grid.tile_counts(), grid.n_tiles());
        let rb_stats = SummaryStats::from_counts(grid.row_block_counts());
        let cb_stats = SummaryStats::from_counts(grid.col_block_counts());
        let loc = locality_metrics(m, &mt, &grid);

        FeatureVector {
            values: assemble(
                m.nrows(),
                m.ncols(),
                m.nnz(),
                [r_stats, c_stats, t_stats, rb_stats, cb_stats],
                &loc,
            ),
        }
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Looks a feature up by name (O(1) via a lazily built name map).
    pub fn get(&self, name: &str) -> Option<f64> {
        Self::name_index(name).map(|i| self.values[i])
    }

    /// Builds a vector directly from values (model deserialization).
    pub fn from_values(values: Vec<f64>) -> FeatureVector {
        assert_eq!(values.len(), N_FEATURES, "feature vector must have {N_FEATURES} entries");
        FeatureVector { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_gen::{suite, RmatParams};
    use wise_trace::export::json::{FromJson, ToJson};

    #[test]
    fn names_unique_and_sized() {
        let names = FeatureVector::names();
        assert_eq!(names.len(), N_FEATURES);
        let mut sorted = names.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), N_FEATURES);
    }

    #[test]
    fn name_index_matches_position() {
        for (i, n) in FeatureVector::names().iter().enumerate() {
            assert_eq!(FeatureVector::name_index(n), Some(i));
        }
        assert_eq!(FeatureVector::name_index("bogus"), None);
    }

    #[test]
    fn extract_sizes_and_lookup() {
        let m = RmatParams::LOW_LOC.generate(8, 4, 1);
        let f = FeatureVector::extract(&m, &FeatureConfig::default());
        assert_eq!(f.len(), N_FEATURES);
        assert_eq!(f.get("n_rows"), Some(256.0));
        assert_eq!(f.get("n_cols"), Some(256.0));
        assert_eq!(f.get("nnz"), Some(m.nnz() as f64));
        assert_eq!(f.get("no_such_feature"), None);
        // Mean nonzeros per row must equal nnz / nrows.
        let mean_r = f.get("mean_R").unwrap();
        assert!((mean_r - m.nnz() as f64 / 256.0).abs() < 1e-9);
    }

    #[test]
    fn fused_matches_reference_across_threads() {
        let cfg1 = FeatureConfig { k_max: 16, threads: 1 };
        let mut scratch = FeatureScratch::new();
        for m in [
            RmatParams::MED_SKEW.generate(9, 8, 3),
            suite::banded(512, 4, 1.0, 0),
            wise_matrix::Csr::zero(10, 10),
        ] {
            let want = FeatureVector::extract_reference(&m, &cfg1);
            for threads in [1usize, 2, 7] {
                let cfg = FeatureConfig { k_max: 16, threads };
                let got = FeatureVector::extract_with(&m, &cfg, &mut scratch);
                assert_eq!(got, want, "threads={threads}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        // Interleave matrices of very different shapes through one
        // scratch; results must match fresh extractions.
        let mut scratch = FeatureScratch::new();
        let cfg = FeatureConfig::default();
        let ms = [
            RmatParams::HIGH_SKEW.generate(9, 8, 2),
            suite::stencil_2d(10, 10),
            wise_matrix::Csr::identity(3),
            RmatParams::LOW_LOC.generate(8, 4, 1),
        ];
        for m in &ms {
            let fresh = FeatureVector::extract(m, &cfg);
            let reused = FeatureVector::extract_with(m, &cfg, &mut scratch);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn skew_features_separate_recipes() {
        // The core claim of the feature set: HS and LL matrices of the
        // same size differ strongly in skew features.
        let hs = RmatParams::HIGH_SKEW.generate(11, 8, 2);
        let ll = RmatParams::LOW_LOC.generate(11, 8, 2);
        let fh = FeatureVector::extract(&hs, &FeatureConfig::default());
        let fl = FeatureVector::extract(&ll, &FeatureConfig::default());
        assert!(fh.get("gini_R").unwrap() > fl.get("gini_R").unwrap() + 0.2);
        assert!(fh.get("p_R").unwrap() < fl.get("p_R").unwrap() - 0.1);
    }

    #[test]
    fn locality_features_separate_recipes() {
        let hl = RmatParams::HIGH_LOC.generate(11, 8, 2);
        let ll = RmatParams::LOW_LOC.generate(11, 8, 2);
        let fh = FeatureVector::extract(&hl, &FeatureConfig::default());
        let fl = FeatureVector::extract(&ll, &FeatureConfig::default());
        // Diagonal concentration -> fewer non-empty tiles, higher tile gini.
        assert!(fh.get("ne_T").unwrap() < fl.get("ne_T").unwrap());
        assert!(fh.get("gini_T").unwrap() > fl.get("gini_T").unwrap());
    }

    #[test]
    fn p_ratio_matches_paper_recipe_targets() {
        // Section 4.5: HS/MS/LS have row p-ratios of ~0.1 / ~0.2 / ~0.3;
        // locality recipes sit at ~0.4-0.5.
        let cfg = FeatureConfig::default();
        let p_of = |r: RmatParams, seed| {
            let m = r.generate(12, 16, seed);
            FeatureVector::extract(&m, &cfg).get("p_R").unwrap()
        };
        let p_hs = p_of(RmatParams::HIGH_SKEW, 3);
        let p_ms = p_of(RmatParams::MED_SKEW, 3);
        let p_ls = p_of(RmatParams::LOW_SKEW, 3);
        let p_ll = p_of(RmatParams::LOW_LOC, 3);
        assert!(p_hs < p_ms && p_ms < p_ls && p_ls < p_ll, "{p_hs} {p_ms} {p_ls} {p_ll}");
        assert!(p_hs < 0.2, "HS p-ratio {p_hs}");
        assert!(p_ll > 0.35, "LL p-ratio {p_ll}");
    }

    #[test]
    fn suite_matrices_have_high_p_ratio() {
        // Fig. 7's claim reproduced by our stand-ins.
        let cfg = FeatureConfig::default();
        for m in [suite::stencil_2d(48, 48), suite::banded(2048, 8, 0.7, 5)] {
            let p = FeatureVector::extract(&m, &cfg).get("p_R").unwrap();
            assert!(p > 0.4, "suite p-ratio {p}");
        }
    }

    #[test]
    fn host_features_trail_the_vector_and_match_the_probe_policy() {
        let m = RmatParams::LOW_LOC.generate(8, 4, 1);
        let f = FeatureVector::extract(&m, &FeatureConfig::default());
        let host = host_simd_features(m.ncols());
        assert_eq!(&f.values()[N_FEATURES - 3..], &host);
        assert_eq!(f.get("host_simd_lanes"), Some(host[0]));
        assert_eq!(f.get("host_prefetch"), Some(host[1]));
        assert_eq!(f.get("host_interleave"), Some(host[2]));
        let isa = wise_kernels::simd::active();
        assert_eq!(host[0], isa.lanes() as f64);
        // The reference extractor emits the identical trailing triple.
        let r = FeatureVector::extract_reference(&m, &FeatureConfig::default());
        assert_eq!(&r.values()[N_FEATURES - 3..], &host);
    }

    #[test]
    fn from_values_roundtrip() {
        let m = suite::stencil_2d(10, 10);
        let f = FeatureVector::extract(&m, &FeatureConfig::default());
        let g = FeatureVector::from_values(f.values().to_vec());
        assert_eq!(f, g);
    }

    #[test]
    fn config_deserializes_without_threads_field() {
        // Models saved before the threads knob existed must still load.
        let cfg = FeatureConfig::from_json_str(r#"{"k_max": 512}"#).unwrap();
        assert_eq!(cfg, FeatureConfig { k_max: 512, threads: 0 });
        assert!(cfg.resolved_threads() >= 1);
    }

    #[test]
    fn vector_json_round_trips_and_rejects_other_lengths() {
        let f = FeatureVector::extract(&suite::stencil_2d(10, 10), &FeatureConfig::default());
        let back = FeatureVector::from_json_str(&f.to_json()).unwrap();
        let bits = |v: &FeatureVector| v.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&f));
        let short = format!(r#"{{"values":{}}}"#, f.values()[..67].to_vec().to_json());
        assert_eq!(
            FeatureVector::from_json_str(&short),
            Err(JsonError::Length { expected: N_FEATURES, found: 67 })
        );
    }

    #[test]
    #[should_panic(expected = "feature vector must have")]
    fn from_values_rejects_wrong_len() {
        FeatureVector::from_values(vec![1.0, 2.0]);
    }
}
