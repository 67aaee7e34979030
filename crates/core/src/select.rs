//! The method-selection heuristic (paper Section 4.4).
//!
//! WISE picks the `{method, parameter}` pair with the highest predicted
//! speedup class. Ties are broken toward lower preprocessing cost:
//! first by method (CSR < SELLPACK < Sell-c-σ < Sell-c-R < LAV-1Seg <
//! LAV), then by smaller parameter values — the paper observes smaller
//! parameters mean cheaper preprocessing (e.g. LAV T=70% before 80%).

use crate::classes::SpeedupClass;
use wise_kernels::method::MethodConfig;

/// Picks the winning catalog index from per-configuration class
/// predictions (catalog order).
pub fn select_index(catalog: &[MethodConfig], predictions: &[SpeedupClass]) -> usize {
    assert_eq!(catalog.len(), predictions.len(), "catalog/prediction length mismatch");
    assert!(!catalog.is_empty(), "empty catalog");
    let mut best = 0usize;
    for i in 1..catalog.len() {
        let better = predictions[i] > predictions[best]
            || (predictions[i] == predictions[best]
                && catalog[i].preproc_key() < catalog[best].preproc_key());
        if better {
            best = i;
        }
    }
    best
}

/// Like [`select_index`] but returns the configuration itself.
pub fn select_config(catalog: &[MethodConfig], predictions: &[SpeedupClass]) -> MethodConfig {
    catalog[select_index(catalog, predictions)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_kernels::Schedule;

    fn catalog() -> Vec<MethodConfig> {
        MethodConfig::catalog()
    }

    #[test]
    fn highest_class_wins() {
        let cat = catalog();
        let mut preds = vec![SpeedupClass::C0; cat.len()];
        preds[17] = SpeedupClass::C5;
        assert_eq!(select_index(&cat, &preds), 17);
    }

    #[test]
    fn tie_breaks_toward_cheaper_preprocessing() {
        let cat = catalog();
        // Everything predicts C3: CSR (cheapest) must win; among CSR the
        // catalog's first entry is kept (stable ordering).
        let preds = vec![SpeedupClass::C3; cat.len()];
        let chosen = select_config(&cat, &preds);
        assert_eq!(chosen.method, wise_kernels::Method::Csr);
    }

    #[test]
    fn lav_ties_prefer_smaller_t() {
        let cat = vec![MethodConfig::lav(8, 0.9), MethodConfig::lav(8, 0.7)];
        let preds = vec![SpeedupClass::C6, SpeedupClass::C6];
        assert_eq!(select_config(&cat, &preds).t, 0.7);
    }

    #[test]
    fn sigma_ties_prefer_smaller_sigma() {
        let cat = vec![
            MethodConfig::sell_c_sigma(8, 16384, Schedule::Dyn),
            MethodConfig::sell_c_sigma(8, 512, Schedule::Dyn),
        ];
        let preds = vec![SpeedupClass::C4, SpeedupClass::C4];
        assert_eq!(select_config(&cat, &preds).sigma, 512);
    }

    #[test]
    fn all_slowdowns_fall_back_to_csr() {
        // If nothing beats CSR, WISE must pick a CSR schedule (no
        // conversion cost for no benefit).
        let cat = catalog();
        let preds = vec![SpeedupClass::C0; cat.len()];
        assert_eq!(select_config(&cat, &preds).method, wise_kernels::Method::Csr);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        select_index(&catalog(), &[SpeedupClass::C0]);
    }
}

/// Amortization-aware selection: picks the configuration minimizing
/// *total* cost over `n_iterations` SpMV calls, including the one-time
/// format conversion — the quantitative form of Section 4.1's "picks
/// the method ... while including the preprocessing cost".
///
/// Execution time per iteration is reconstructed from the predicted
/// class's representative relative time and `best_csr_seconds`;
/// `preproc_seconds` holds the per-configuration conversion estimate
/// (catalog order). For tiny `n_iterations` this collapses to CSR (no
/// conversion is worth it); for large `n_iterations` it converges to
/// [`select_index`]. A zero baseline (nothing to multiply) leaves only
/// the conversion estimates, so the cheapest config to prepare wins.
pub fn select_index_amortized(
    catalog: &[MethodConfig],
    predictions: &[SpeedupClass],
    preproc_seconds: &[f64],
    best_csr_seconds: f64,
    n_iterations: u64,
) -> usize {
    assert_eq!(catalog.len(), predictions.len(), "catalog/prediction length mismatch");
    assert_eq!(catalog.len(), preproc_seconds.len(), "catalog/preproc length mismatch");
    assert!(!catalog.is_empty(), "empty catalog");
    assert!(best_csr_seconds >= 0.0, "need a non-negative baseline time");
    let n = n_iterations.max(1) as f64;
    let total = |i: usize| -> f64 {
        let per_iter = predictions[i].representative_relative_time() * best_csr_seconds;
        preproc_seconds[i] + n * per_iter
    };
    let mut best = 0usize;
    for i in 1..catalog.len() {
        let better = total(i) < total(best) - 1e-18
            || (total(i) <= total(best) + 1e-18
                && catalog[i].preproc_key() < catalog[best].preproc_key());
        if better {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod amortized_tests {
    use super::*;
    use crate::classes::SpeedupClass;

    fn two_config_setup() -> (Vec<MethodConfig>, Vec<SpeedupClass>, Vec<f64>) {
        // CSR at parity (free) vs LAV at >2x speedup (expensive to build).
        let catalog =
            vec![MethodConfig::csr(wise_kernels::Schedule::Dyn), MethodConfig::lav(8, 0.8)];
        let predictions = vec![SpeedupClass::C1, SpeedupClass::C6];
        let preproc = vec![0.0, 50.0]; // LAV conversion = 50 baseline units
        (catalog, predictions, preproc)
    }

    #[test]
    fn one_iteration_prefers_no_conversion() {
        let (cat, preds, preproc) = two_config_setup();
        let i = select_index_amortized(&cat, &preds, &preproc, 1.0, 1);
        assert_eq!(cat[i].method, wise_kernels::Method::Csr);
    }

    #[test]
    fn many_iterations_prefer_the_fast_method() {
        let (cat, preds, preproc) = two_config_setup();
        // Saves 0.55s/iter; conversion 50s pays off after ~91 iters.
        let i = select_index_amortized(&cat, &preds, &preproc, 1.0, 1000);
        assert_eq!(cat[i].method, wise_kernels::Method::Lav);
    }

    #[test]
    fn crossover_is_where_savings_equal_conversion() {
        let (cat, preds, preproc) = two_config_setup();
        // per-iter: CSR 1.0, LAV 0.45 -> breakeven at 50/0.55 = 90.9.
        let before = select_index_amortized(&cat, &preds, &preproc, 1.0, 90);
        let after = select_index_amortized(&cat, &preds, &preproc, 1.0, 92);
        assert_eq!(cat[before].method, wise_kernels::Method::Csr);
        assert_eq!(cat[after].method, wise_kernels::Method::Lav);
    }

    #[test]
    fn zero_baseline_picks_the_cheapest_to_prepare() {
        let (cat, preds, _) = two_config_setup();
        for preproc in [[0.0, 50.0], [0.0, 0.0]] {
            let i = select_index_amortized(&cat, &preds, &preproc, 0.0, 1000);
            assert_eq!(cat[i].method, wise_kernels::Method::Csr, "{preproc:?}");
        }
    }

    #[test]
    fn converges_to_plain_selection_for_huge_n() {
        let cat = MethodConfig::catalog();
        let preds: Vec<SpeedupClass> =
            (0..cat.len()).map(|i| SpeedupClass::from_index((i % 7) as u32)).collect();
        let preproc = vec![1.0; cat.len()];
        let amortized = select_index_amortized(&cat, &preds, &preproc, 1.0, u64::MAX / 2);
        let plain = select_index(&cat, &preds);
        assert_eq!(preds[amortized], preds[plain], "same class tier at n -> inf");
    }
}
