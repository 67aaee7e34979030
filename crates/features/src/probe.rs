//! The cheap stage-1 feature probe behind `wise_core::cascade`.
//!
//! One O(nnz) pass over the CSR arrays yields the subset of Table 2
//! that needs neither the tile grid nor the locality sweeps: the three
//! size features and the full R and C distribution statistics (19 of
//! the 67 features), plus two probe-only scalars for the cost-model
//! veto (density and a bandwidth proxy).
//!
//! The R and C statistics are **bit-identical** to the full
//! extractor's: both come from the one counting path in
//! `engine::row_col_stats`. That identity is what lets
//! the cascade walk the trained decision trees on probe values and
//! trust that any comparison it *can* resolve resolves exactly as the
//! full walk would — the parity the cascade's confidence gate is
//! calibrated against (see `DESIGN.md` §16).

use crate::engine::{self, FeatureScratch};
use crate::groups::dist_base;
use crate::stats::SummaryStats;
use crate::vector::{put_sizes, put_stats, FeatureVector, C, N_FEATURES, R};
use std::ops::Range;
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
}

impl ProbeFeatures {
    /// Extracts the probe in one pass. Allocates a fresh workspace;
    /// hot loops should reuse one via [`Self::extract_with`].
    pub fn extract(m: &Csr) -> ProbeFeatures {
        Self::extract_with(m, &mut FeatureScratch::new())
    }

    /// [`Self::extract`] with a caller-owned [`FeatureScratch`] —
    /// allocation-free once buffers have grown. Only the scratch's
    /// column and statistics histograms are touched; tile and transpose
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
        }
    }

    /// Vector indices (into [`FeatureVector`] order) the probe knows:
    /// the 3 size features and the 8 R and 8 C statistics, which lead
    /// the vector.
    pub fn known_indices() -> Range<usize> {
        0..dist_base(C + 1)
    }

    /// The probe's feature values in full-vector layout: `Some(v)` at
    /// every probe-known index, `None` elsewhere. This is the partial
    /// row the cascade feeds to `DecisionTree::predict_partial_explained`.
    /// The extractor's own slot writers lay it out.
    pub fn known_values(&self) -> Vec<Option<f64>> {
        let mut values = vec![0.0; N_FEATURES];
        put_sizes(&mut values, self.n_rows, self.n_cols, self.nnz);
        put_stats(&mut values, R, self.r_stats);
        put_stats(&mut values, C, self.c_stats);
        Self::known(&values)
    }

    /// Masks a *full* feature vector down to the probe-known subset —
    /// the calibration-time stand-in for [`Self::known_values`], valid
    /// because the probe's R/C statistics are bit-identical to the
    /// full extractor's.
    pub fn mask_full(full: &FeatureVector) -> Vec<Option<f64>> {
        Self::known(full.values())
    }

    /// `values` with every slot past the probe-known prefix unknown.
    fn known(values: &[f64]) -> Vec<Option<f64>> {
        let known = Self::known_indices();
        values.iter().enumerate().map(|(i, &v)| known.contains(&i).then_some(v)).collect()
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
            assert_eq!(n_known, 19);
        }
    }

    #[test]
    fn known_indices_cover_size_r_c() {
        let idx = ProbeFeatures::known_indices();
        assert_eq!(idx.len(), 19);
        assert_eq!(idx.start, FeatureVector::name_index("n_rows").unwrap());
        assert!(idx.contains(&FeatureVector::name_index("p_R").unwrap()));
        assert!(idx.contains(&FeatureVector::name_index("ne_C").unwrap()));
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
