//! The cheap stage-1 feature probe behind `wise_core::cascade`.
//!
//! One O(nnz) pass over the CSR arrays yields the subset of Table 2
//! that needs neither the tile grid nor the locality sweeps: the three
//! size features, the full R and C distribution statistics, and the
//! three trailing host SIMD/MLP capability features (22 of the 70
//! features), plus two probe-only scalars for the cost-model veto
//! (density and a bandwidth proxy).
//!
//! The R and C statistics are **bit-identical** to the full
//! extractor's: both come from the one counting path in
//! `engine::row_col_stats`. That identity is what lets
//! the cascade walk the trained decision trees on probe values and
//! trust that any comparison it *can* resolve resolves exactly as the
//! full walk would — the parity the cascade's confidence gate is
//! calibrated against (see `DESIGN.md` §16).

use crate::engine::{self, FeatureScratch};
use crate::stats::SummaryStats;
use crate::vector::{host_simd_features, FeatureVector, N_FEATURES};
use std::sync::OnceLock;
use wise_matrix::Csr;

/// Stage-1 probe output: the probe-known Table 2 features plus the
/// two probe-only scalars used by the roofline veto.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeFeatures {
    pub n_rows: usize,
    pub n_cols: usize,
    pub nnz: usize,
    /// Nonzeros-per-row statistics (the R distribution).
    pub r_stats: SummaryStats,
    /// Nonzeros-per-column statistics (the C distribution).
    pub c_stats: SummaryStats,
    /// nnz / (n_rows * n_cols); 0 for degenerate shapes.
    pub density: f64,
    /// Mean normalized distance of each nonzero from the (scaled)
    /// diagonal: `mean |c - r * ncols/nrows| / ncols` ∈ [0, 1). Near 0
    /// for banded/diagonal structure (x-vector reuse is near-perfect),
    /// toward ~0.3 for uniformly scattered columns.
    pub bandwidth_frac: f64,
    /// The trailing host SIMD/MLP features, computed by the same
    /// `host_simd_features` call the full extractor uses (so they
    /// are bit-identical by construction).
    pub host: [f64; 3],
}

impl ProbeFeatures {
    /// Extracts the probe in one pass. Allocates a fresh workspace;
    /// hot loops should reuse one via [`Self::extract_with`].
    pub fn extract(m: &Csr) -> ProbeFeatures {
        Self::extract_with(m, &mut FeatureScratch::new())
    }

    /// [`Self::extract`] with a caller-owned [`FeatureScratch`] —
    /// allocation-free once buffers have grown. Only the scratch's
    /// count/sort/histogram buffers are touched; tile and transpose
    /// buffers stay untouched.
    pub fn extract_with(m: &Csr, scratch: &mut FeatureScratch) -> ProbeFeatures {
        let _span = wise_trace::span("features.probe");
        let (nrows, ncols, nnz) = (m.nrows(), m.ncols(), m.nnz());
        // R and C counts through the extractor's own code path; the
        // bandwidth proxy (distance of each nonzero's column from the
        // scaled diagonal) rides along in the C histogram loop.
        let counts = engine::row_col_stats::<true>(m, scratch, true, true);
        let (r_stats, c_stats) = (counts.r.expect("asked for R"), counts.c.expect("asked for C"));
        let band_sum = counts.band_sum;

        let cells = nrows as f64 * ncols as f64;
        let density = if cells > 0.0 { nnz as f64 / cells } else { 0.0 };
        let bandwidth_frac =
            if nnz > 0 && ncols > 0 { band_sum / nnz as f64 / ncols as f64 } else { 0.0 };

        ProbeFeatures {
            n_rows: nrows,
            n_cols: ncols,
            nnz,
            r_stats,
            c_stats,
            density,
            bandwidth_frac,
            host: host_simd_features(ncols),
        }
    }

    /// Vector indices (into [`FeatureVector`] order) the probe knows:
    /// the 3 size features, the 8 R and 8 C statistics, and the 3
    /// host SIMD/MLP features.
    pub fn known_indices() -> &'static [usize] {
        static IDX: OnceLock<Vec<usize>> = OnceLock::new();
        IDX.get_or_init(|| {
            let mut names = vec!["n_rows".to_string(), "n_cols".to_string(), "nnz".to_string()];
            for dist in ["R", "C"] {
                for stat in ["mean", "std", "var", "gini", "p", "min", "max", "ne"] {
                    names.push(format!("{stat}_{dist}"));
                }
            }
            for host in ["host_simd_lanes", "host_prefetch", "host_interleave"] {
                names.push(host.to_string());
            }
            names
                .iter()
                .map(|n| FeatureVector::name_index(n).expect("probe feature must exist"))
                .collect()
        })
    }

    /// The probe's feature values in full-vector layout: `Some(v)` at
    /// every probe-known index, `None` elsewhere. This is the partial
    /// row the cascade feeds to `DecisionTree::predict_partial_explained`.
    pub fn known_values(&self) -> Vec<Option<f64>> {
        let mut values = vec![None; N_FEATURES];
        let idx = Self::known_indices();
        let r = &self.r_stats;
        let c = &self.c_stats;
        let ordered = [
            self.n_rows as f64,
            self.n_cols as f64,
            self.nnz as f64,
            r.mean,
            r.std,
            r.var,
            r.gini,
            r.p_ratio,
            r.min,
            r.max,
            r.ne,
            c.mean,
            c.std,
            c.var,
            c.gini,
            c.p_ratio,
            c.min,
            c.max,
            c.ne,
            self.host[0],
            self.host[1],
            self.host[2],
        ];
        for (&i, &v) in idx.iter().zip(ordered.iter()) {
            values[i] = Some(v);
        }
        values
    }

    /// Masks a *full* feature vector down to the probe-known subset —
    /// the calibration-time stand-in for [`Self::known_values`], valid
    /// because the probe's R/C statistics are bit-identical to the
    /// full extractor's.
    pub fn mask_full(full: &FeatureVector) -> Vec<Option<f64>> {
        let mut values = vec![None; N_FEATURES];
        for &i in Self::known_indices() {
            values[i] = Some(full.values()[i]);
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureConfig;
    use wise_gen::{suite, RmatParams};

    fn zoo() -> Vec<Csr> {
        vec![
            RmatParams::MED_SKEW.generate(9, 8, 3),
            RmatParams::HIGH_SKEW.generate(8, 6, 1),
            suite::banded(512, 4, 1.0, 0),
            suite::stencil_2d(24, 24),
            Csr::identity(64),
            Csr::zero(10, 10),
        ]
    }

    #[test]
    fn probe_matches_full_extractor_on_known_features() {
        let cfg = FeatureConfig::default();
        let mut scratch = FeatureScratch::new();
        for m in zoo() {
            let full = FeatureVector::extract(&m, &cfg);
            let probe = ProbeFeatures::extract_with(&m, &mut scratch);
            let known = probe.known_values();
            let masked = ProbeFeatures::mask_full(&full);
            // Bit-identical, not approximately equal: both paths push
            // the same integer counts through the same statistics code.
            assert_eq!(known, masked, "matrix {}x{}", m.nrows(), m.ncols());
            let n_known = known.iter().filter(|v| v.is_some()).count();
            assert_eq!(n_known, 22);
        }
    }

    #[test]
    fn known_indices_cover_size_r_c() {
        let idx = ProbeFeatures::known_indices();
        assert_eq!(idx.len(), 22);
        assert_eq!(idx[0], FeatureVector::name_index("n_rows").unwrap());
        assert!(idx.contains(&FeatureVector::name_index("p_R").unwrap()));
        assert!(idx.contains(&FeatureVector::name_index("ne_C").unwrap()));
        assert!(idx.contains(&FeatureVector::name_index("host_prefetch").unwrap()));
        assert!(!idx.contains(&FeatureVector::name_index("uniqR").unwrap()));
    }

    #[test]
    fn bandwidth_frac_separates_banded_from_scattered() {
        let banded = suite::banded(1024, 4, 1.0, 0);
        let scattered = RmatParams::LOW_LOC.generate(10, 8, 2);
        let pb = ProbeFeatures::extract(&banded);
        let ps = ProbeFeatures::extract(&scattered);
        assert!(pb.bandwidth_frac < 0.05, "banded frac {}", pb.bandwidth_frac);
        assert!(ps.bandwidth_frac > 0.1, "scattered frac {}", ps.bandwidth_frac);
    }

    #[test]
    fn degenerate_matrices_do_not_panic() {
        for m in [Csr::zero(0, 0), Csr::zero(5, 0), Csr::zero(0, 5)] {
            let p = ProbeFeatures::extract(&m);
            assert_eq!(p.nnz, 0);
            assert_eq!(p.density, 0.0);
            assert_eq!(p.bandwidth_frac, 0.0);
        }
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let mut scratch = FeatureScratch::new();
        for m in zoo() {
            let fresh = ProbeFeatures::extract(&m);
            let reused = ProbeFeatures::extract_with(&m, &mut scratch);
            assert_eq!(fresh, reused);
        }
    }
}
