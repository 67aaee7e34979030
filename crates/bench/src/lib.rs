//! Shared machinery for the figure/table harness.
//!
//! Every function in [`figures`] reproduces one table or figure of the
//! paper's evaluation (see DESIGN.md's per-experiment index); the `all`
//! binary runs them. They and the other harness binaries share:
//!
//! * [`BenchContext`] — scale/seed/backend resolved from the
//!   environment (`WISE_SCALE`, `WISE_SEED`, `WISE_MEASURED`,
//!   `WISE_RESULTS_DIR`);
//! * disk-cached corpus labels (label generation is the expensive step;
//!   figures share one labeling run);
//! * plain-text renderers (histograms, grids, distribution summaries)
//!   and CSV writers, so each figure produces both a human-readable
//!   report and a machine-readable artifact.

pub mod figures;
pub mod report;
pub mod sweep;

/// Bumped whenever label semantics change (cost model, generators,
/// catalog, feature set); invalidates on-disk label caches.
pub const LABEL_CACHE_VERSION: u32 = 4;

use std::path::{Path, PathBuf};
use wise_core::labels::{label_corpus, CorpusLabels};
use wise_features::FeatureConfig;
use wise_gen::{Corpus, CorpusScale};
use wise_kernels::method::Method;
use wise_perf::Estimator;
use wise_trace::export::json::{FromJson, ToJson};

/// Environment-resolved benchmark configuration.
#[derive(Debug, Clone)]
pub struct BenchContext {
    pub scale: CorpusScale,
    pub scale_name: String,
    pub seed: u64,
    pub estimator: Estimator,
    pub feature_config: FeatureConfig,
    pub results_dir: PathBuf,
}

impl BenchContext {
    /// Reads `WISE_SCALE` (`tiny` | `quick` | `paper`; default `quick`),
    /// `WISE_SEED` (default 42), `WISE_MEASURED`, `WISE_RESULTS_DIR`
    /// (default `results/`).
    pub fn from_env() -> BenchContext {
        let scale_name = std::env::var("WISE_SCALE").unwrap_or_else(|_| "quick".to_string());
        let scale = match scale_name.as_str() {
            "tiny" => CorpusScale::tiny(),
            "quick" => CorpusScale::quick(),
            "paper" => CorpusScale::paper(),
            other => panic!("unknown WISE_SCALE '{other}' (tiny|quick|paper)"),
        };
        let seed = std::env::var("WISE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
        let max_rows = 1usize << scale.row_scales.iter().copied().max().unwrap_or(16);
        let estimator = Estimator::from_env(max_rows);
        let results_dir = PathBuf::from(
            std::env::var("WISE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()),
        );
        std::fs::create_dir_all(&results_dir).expect("create results dir");
        BenchContext {
            scale,
            scale_name,
            seed,
            estimator,
            feature_config: FeatureConfig::default(),
            results_dir,
        }
    }

    fn backend_tag(&self) -> &'static str {
        match self.estimator {
            Estimator::Model { .. } => "model",
            Estimator::Measured { .. } => "measured",
        }
    }

    fn cache_path(&self, what: &str) -> PathBuf {
        // v{N}: bump LABEL_CACHE_VERSION whenever the cost model or the
        // generators change, so stale caches can never leak into figures.
        self.results_dir.join(format!(
            "labels_v{}_{}_{}_{}_s{}.json",
            LABEL_CACHE_VERSION,
            what,
            self.scale_name,
            self.backend_tag(),
            self.seed
        ))
    }

    /// Loads cached labels or computes and caches them. A cache that
    /// does not decode — wrong feature-vector length, per-config arrays
    /// that disagree with its catalog, a truncated file — is a miss.
    fn cached_labels(&self, what: &str, corpus: impl FnOnce() -> Corpus) -> CorpusLabels {
        let path = self.cache_path(what);
        if let Some(labels) = read_json::<CorpusLabels>(&path) {
            report::progress(format_args!("reusing cached labels {}", path.display()));
            return labels;
        }
        report::progress(format_args!(
            "computing {what} corpus labels (cache: {})",
            path.display()
        ));
        let corpus = corpus();
        let t0 = std::time::Instant::now();
        let labels = label_corpus(&corpus, &self.estimator, &self.feature_config);
        report::progress(format_args!(
            "labeled {} matrices in {:.1}s",
            labels.len(),
            t0.elapsed().as_secs_f64()
        ));
        write_json(&path, &labels);
        labels
    }

    /// Labels of the SuiteSparse stand-in corpus (Figs. 2, 3, 4, 7, 12b).
    pub fn suite_labels(&self) -> CorpusLabels {
        self.cached_labels("suite", || Corpus::suite(&self.scale, self.seed))
    }

    /// Labels of the random corpus (Figs. 11, 12a).
    pub fn random_labels(&self) -> CorpusLabels {
        self.cached_labels("random", || Corpus::random(&self.scale, self.seed))
    }

    /// Labels of the full training corpus (Figs. 10, 13, Table 4, §6.4).
    pub fn full_labels(&self) -> CorpusLabels {
        self.cached_labels("full", || Corpus::full(&self.scale, self.seed))
    }

    /// Writes a CSV artifact under the results dir and reports it.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) {
        report::artifact(self.save_csv(name, header, rows).display());
    }

    /// Writes a CSV artifact under the results dir and returns its path.
    pub fn save_csv(&self, name: &str, header: &str, rows: &[String]) -> PathBuf {
        let path = self.results_dir.join(name);
        let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
        body.push_str(header);
        body.push('\n');
        for r in rows {
            body.push_str(r);
            body.push('\n');
        }
        std::fs::write(&path, body).expect("write csv");
        path
    }
}

fn read_json<T: FromJson>(path: &Path) -> Option<T> {
    T::from_json_str(&std::fs::read_to_string(path).ok()?).ok()
}

fn write_json<T: ToJson>(path: &Path, value: &T) {
    std::fs::write(path, value.to_json()).expect("write json cache");
}

// ---------------------------------------------------------------------
// Catalog helpers
// ---------------------------------------------------------------------

/// Catalog index of matrix `mi`'s fastest configuration restricted to
/// `method` (every method has at least one catalog entry).
pub fn best_index_of_method(labels: &CorpusLabels, mi: usize, method: Method) -> usize {
    labels
        .catalog
        .iter()
        .enumerate()
        .filter(|(_, c)| c.method == method)
        .min_by(|a, b| {
            labels.matrices[mi].seconds[a.0].total_cmp(&labels.matrices[mi].seconds[b.0])
        })
        .map(|(i, _)| i)
        .expect("every method appears in the catalog")
}

/// The fastest *method* (not configuration) for matrix `mi`.
pub fn fastest_method(labels: &CorpusLabels, mi: usize) -> Method {
    let oracle = labels.matrices[mi].oracle_index();
    labels.catalog[oracle].method
}

/// Best CSR seconds for matrix `mi` (the Fig. 2/3 denominator).
pub fn best_csr_seconds(labels: &CorpusLabels, mi: usize) -> f64 {
    labels.matrices[mi].best_csr_seconds
}

/// Seconds of the MKL stand-in for matrix `mi`.
pub fn mkl_seconds(labels: &CorpusLabels, mi: usize) -> f64 {
    let idx = labels.config_index(&wise_kernels::baseline::mkl_like_config().label());
    labels.matrices[mi].seconds[idx]
}

/// The five vectorized methods of Fig. 2, in the paper's order.
pub const VECTORIZED: [Method; 5] =
    [Method::SellPack, Method::SellCSigma, Method::SellCR, Method::Lav1Seg, Method::Lav];

/// Display name for a method (paper spelling).
pub fn method_name(m: Method) -> &'static str {
    m.name()
}

// ---------------------------------------------------------------------
// Text rendering
// ---------------------------------------------------------------------

/// Renders a labeled horizontal ASCII histogram.
pub fn render_histogram(title: &str, bins: &[(String, usize)]) -> String {
    let max = bins.iter().map(|(_, c)| *c).max().unwrap_or(1).max(1);
    let width = 50usize;
    let mut s = format!("== {title} ==\n");
    for (label, count) in bins {
        let bar = "#".repeat(count * width / max);
        s.push_str(&format!("{label:>16} | {bar} {count}\n"));
    }
    s
}

/// Histogram of `values` over `nbins` equal bins spanning [lo, hi].
pub fn histogram_bins(values: &[f64], lo: f64, hi: f64, nbins: usize) -> Vec<(String, usize)> {
    let mut counts = vec![0usize; nbins];
    let span = (hi - lo).max(1e-12);
    for &v in values {
        let b = (((v - lo) / span) * nbins as f64).floor();
        let b = (b.max(0.0) as usize).min(nbins - 1);
        counts[b] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let b0 = lo + span * i as f64 / nbins as f64;
            let b1 = lo + span * (i + 1) as f64 / nbins as f64;
            (format!("{b0:.2}-{b1:.2}"), c)
        })
        .collect()
}

/// Renders a (rows x degrees) sweep grid of short cell strings, in the
/// layout of Figs. 5/6 (Y axis: nnz/row descending; X: #rows).
pub fn render_sweep_grid(
    title: &str,
    row_scales: &[u32],
    degrees: &[u32],
    cell: impl Fn(u32, u32) -> String,
) -> String {
    let mut s = format!("== {title} ==\n");
    s.push_str("nnz/row \\ rows |");
    for &rs in row_scales {
        s.push_str(&format!(" 2^{rs:<5}"));
    }
    s.push('\n');
    for &d in degrees.iter().rev() {
        s.push_str(&format!("{d:>14} |"));
        for &rs in row_scales {
            s.push_str(&format!(" {:<6}", cell(rs, d)));
        }
        s.push('\n');
    }
    s
}

/// Five-number summary line for a distribution.
pub fn summarize(label: &str, values: &[f64]) -> String {
    if values.is_empty() {
        return format!("{label}: (empty)");
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    format!(
        "{label}: n={} mean={mean:.3} min={:.3} p25={:.3} median={:.3} p75={:.3} max={:.3}",
        v.len(),
        v[0],
        q(0.25),
        q(0.5),
        q(0.75),
        v[v.len() - 1]
    )
}

/// Short code used in sweep grids (Figs. 5/6 legend).
pub fn method_code(m: Method) -> &'static str {
    match m {
        Method::Csr => "o",
        Method::SellPack => "A",
        Method::SellCSigma => "*",
        Method::SellCR => "x",
        Method::Lav1Seg => "+",
        Method::Lav => "v",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wise_kernels::method::MethodConfig;

    #[test]
    fn histogram_bins_cover_range() {
        let bins = histogram_bins(&[0.0, 0.49, 0.5, 0.99, 1.0], 0.0, 1.0, 2);
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].1 + bins[1].1, 5);
        assert_eq!(bins[0].1, 2);
        // Out-of-range values clamp to edge bins.
        let clamped = histogram_bins(&[-5.0, 5.0], 0.0, 1.0, 4);
        assert_eq!(clamped[0].1, 1);
        assert_eq!(clamped[3].1, 1);
    }

    #[test]
    fn render_histogram_shows_counts() {
        let s = render_histogram("t", &[("a".into(), 2), ("b".into(), 4)]);
        assert!(s.contains("a") && s.contains("4"));
    }

    #[test]
    fn summarize_orders_quantiles() {
        let s = summarize("x", &[3.0, 1.0, 2.0]);
        assert!(s.contains("min=1.000"));
        assert!(s.contains("max=3.000"));
        assert!(s.contains("median=2.000"));
    }

    #[test]
    fn sweep_grid_layout() {
        let g = render_sweep_grid("t", &[10, 12], &[4, 8], |rs, d| format!("{rs}{d}"));
        assert!(g.contains("2^10"));
        // Higher degree renders first (top row).
        let pos8 = g.find("108").unwrap();
        let pos4 = g.find("104").unwrap();
        assert!(pos8 < pos4);
    }

    #[test]
    fn method_codes_unique() {
        let codes: std::collections::HashSet<_> =
            Method::ALL.iter().map(|&m| method_code(m)).collect();
        assert_eq!(codes.len(), Method::ALL.len());
    }

    /// The committed v2 cache is the format fixture: written before
    /// `v`/`pf`/`il` and with Table 2's 67 features, it decodes again
    /// now that the vector is back to those 67 — but its version is
    /// never the one a cache path names, so it is never read as a cache.
    #[test]
    fn v2_label_cache_decodes_but_is_never_read_as_a_cache() {
        use wise_core::classes::SpeedupClass;
        use wise_trace::export::json;
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let path = dir.join("labels_v2_suite_quick_model_s42.json");
        let text = std::fs::read_to_string(&path).expect("fixture is committed");
        let doc = json::parse(&text).expect("fixture is well-formed JSON");
        let catalog = Vec::<MethodConfig>::from_json(doc.get("catalog").unwrap()).unwrap();
        assert_eq!(catalog, MethodConfig::catalog());
        let first = &doc.get("matrices").unwrap().as_array().unwrap()[0];
        let classes = Vec::<SpeedupClass>::from_json(first.get("classes").unwrap()).unwrap();
        assert_eq!(classes.len(), catalog.len());

        let labels = read_json::<CorpusLabels>(&path).expect("67-entry vectors decode");
        assert!(labels.matrices.iter().all(|m| m.features.len() == wise_features::N_FEATURES));
        let ctx = BenchContext {
            scale: CorpusScale::quick(),
            scale_name: "quick".into(),
            seed: 42,
            estimator: Estimator::model_for_rows(1 << 10),
            feature_config: FeatureConfig::default(),
            results_dir: dir,
        };
        assert_ne!(ctx.cache_path("suite"), path, "a stale cache must be a miss");
    }
}
