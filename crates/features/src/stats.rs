//! Summary statistics over nonzero-count distributions.
//!
//! For every distribution (nonzeros per row, per column, per tile, per
//! row block, per column block) the paper records: mean, standard
//! deviation, variance, min, max, Gini coefficient, p-ratio, and the
//! number of non-empty buckets (Section 4.2).
//!
//! * **Gini** ∈ [0, 1): 0 for a perfectly balanced distribution, →1
//!   when all mass sits in one bucket.
//! * **p-ratio** ∈ (0, 0.5]: the `p` such that the most-loaded `p`
//!   fraction of buckets holds a `(1-p)` fraction of the mass; 0.5 for
//!   balanced, →0 for maximally skewed (Kunegis & Preusse, WebSci'12).
//!
//! The values are counted into a histogram (sorted only when the
//! largest exceeds their number) and walked as ascending
//! `(value, multiplicity)` runs, with closed-form exact integer sums per
//! run and a bisection for the p-ratio crossing. The result is
//! bit-identical to the per-element definition over sorted values (see
//! `SummaryStats::from_runs`), which the property loops below and
//! `tests/feature_parity.rs` check against an independent sort-based
//! copy.

/// The eight per-distribution statistics of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    pub mean: f64,
    pub std: f64,
    pub var: f64,
    pub gini: f64,
    pub p_ratio: f64,
    pub min: f64,
    pub max: f64,
    /// Number of buckets holding at least one nonzero.
    pub ne: f64,
}

/// Integers below this are exact in f64, and so is every term and
/// partial sum of a sum of nonnegative integers that ends below it.
const EXACT_F64: u128 = 1 << 53;

impl SummaryStats {
    /// Statistics of a dense distribution (every bucket materialized).
    pub fn from_counts(counts: &[usize]) -> SummaryStats {
        Self::from_counts_with(counts, &mut Vec::new())
    }

    /// [`Self::from_counts`] with a caller-owned histogram buffer, so
    /// repeated statistics over a corpus avoid per-call allocation.
    pub fn from_counts_with(counts: &[usize], buf: &mut Vec<usize>) -> SummaryStats {
        Self::from_values(counts.iter().copied(), counts.len(), buf)
    }

    /// Statistics of a sparsely-stored distribution: `nonzero` holds
    /// only the non-empty bucket values; `total_buckets` includes the
    /// implicit zeros (used for the T distribution, where K² buckets
    /// would be too many to materialize).
    pub fn from_sparse(nonzero: &[usize], total_buckets: usize) -> SummaryStats {
        Self::from_sparse_with(nonzero, total_buckets, &mut Vec::new())
    }

    /// [`Self::from_sparse`] with a caller-owned histogram buffer.
    pub fn from_sparse_with(
        nonzero: &[usize],
        total_buckets: usize,
        buf: &mut Vec<usize>,
    ) -> SummaryStats {
        assert!(
            nonzero.len() <= total_buckets,
            "more non-empty buckets ({}) than buckets ({})",
            nonzero.len(),
            total_buckets
        );
        Self::from_values(nonzero.iter().copied(), total_buckets, buf)
    }

    /// Statistics of `values` spread over `n_buckets` buckets, the
    /// buckets `values` does not list being empty. The non-empty values
    /// reach [`Self::from_runs`] as ascending `(value, multiplicity)`
    /// runs, read from `buf`: a counting histogram (O(len), no sort)
    /// when the largest value is at most the number of values, the
    /// sorted non-empty values when it is larger. Either way `buf` holds
    /// at most `len + 1` entries.
    pub(crate) fn from_values<I>(values: I, n_buckets: usize, buf: &mut Vec<usize>) -> SummaryStats
    where
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        let max = values.clone().max().unwrap_or(0);
        buf.clear();
        if max <= values.len() {
            buf.resize(max + 1, 0);
            for v in values {
                buf[v] += 1;
            }
            let runs = buf.iter().enumerate().skip(1).filter(|&(_, &m)| m > 0);
            Self::from_runs(runs.map(|(v, &m)| (v, m)), n_buckets)
        } else {
            buf.extend(values.filter(|&v| v > 0));
            buf.sort_unstable();
            Self::from_runs(buf.chunk_by(|a, b| a == b).map(|run| (run[0], run.len())), n_buckets)
        }
    }

    /// Core computation over ascending `(value, multiplicity)` runs of
    /// the non-empty values plus an implicit block of zero buckets.
    ///
    /// Every statistic equals, bit for bit, the plain definition over
    /// the ascending-sorted values with one f64 add per element:
    /// * `Σv²` and the Gini rank sum `Σ rank·v` are summed per run in
    ///   closed form as exact `u128` integers. Below 2^53 every term and
    ///   partial sum of the per-element f64 sum is an exact integer, so
    ///   that sum equals the integer; at or above 2^53 the per-element
    ///   ascending f64 sum runs instead.
    /// * The p-ratio predicate `cum/total >= 1 - (k+1)/n` is monotone in
    ///   the descending rank `k` (each f64 operation rounds
    ///   monotonically), so its first true `k` is found by skipping
    ///   whole runs from the top and bisecting inside the run that
    ///   crosses.
    fn from_runs<I>(runs: I, n_buckets: usize) -> SummaryStats
    where
        I: DoubleEndedIterator<Item = (usize, usize)> + Clone,
    {
        if n_buckets == 0 {
            return SummaryStats {
                mean: 0.0,
                std: 0.0,
                var: 0.0,
                gini: 0.0,
                p_ratio: 0.5,
                min: 0.0,
                max: 0.0,
                ne: 0.0,
            };
        }
        // One ascending pass: the exact sums. `ranked` is Σ i·v over the
        // 1-based ranks i among the non-empty values alone.
        let (mut ne, mut total, mut sq, mut ranked) = (0usize, 0usize, 0u128, 0u128);
        for (v, m) in runs.clone() {
            let (v128, m128) = (v as u128, m as u128);
            sq = sq.saturating_add(m128.saturating_mul(v128 * v128));
            let rank_sum = m128.saturating_mul(ne as u128).saturating_add(m128 * (m128 + 1) / 2);
            ranked = ranked.saturating_add(rank_sum.saturating_mul(v128));
            ne += m;
            total += m * v;
        }
        // The per-element ascending values, for sums at or above 2^53.
        // An empty sum also lands here, keeping `Iterator::sum`'s -0.0.
        let elements = || runs.clone().flat_map(|(v, m)| std::iter::repeat_n(v, m));
        let exact = |s: u128| (s > 0 && s < EXACT_F64).then_some(s as f64);

        let n = n_buckets as f64;
        let mean = total as f64 / n;
        let sum_sq = exact(sq).unwrap_or_else(|| elements().map(|v| (v as f64) * (v as f64)).sum());
        // var = E[x^2] - mean^2 (zeros contribute 0 to sum_sq).
        let var = (sum_sq / n - mean * mean).max(0.0);
        let std = var.sqrt();
        let value = |run: Option<(usize, usize)>| run.map_or(0.0, |(v, _)| v as f64);
        let min = if ne < n_buckets { 0.0 } else { value(runs.clone().next()) };
        let max = value(runs.clone().next_back());

        // Gini over all buckets: zeros occupy ranks 1..z with value 0,
        // contributing nothing to the weighted sum but inflating n.
        // G = (2 * sum_i i*v_(i)) / (n * total) - (n + 1) / n, ascending.
        let gini = if total == 0 {
            0.0
        } else {
            let z = n_buckets - ne; // zero buckets, lowest ranks
            let shifted = ranked.saturating_add((z as u128) * (total as u128));
            let weighted = exact(shifted).unwrap_or_else(|| {
                elements().enumerate().map(|(i, v)| (z + i + 1) as f64 * v as f64).sum()
            });
            (2.0 * weighted / (n * total as f64) - (n + 1.0) / n).clamp(0.0, 1.0)
        };

        // p-ratio: walk buckets in descending order; report the first
        // point where the cumulative mass fraction reaches 1 - k/n.
        let p_ratio = if total == 0 {
            0.5
        } else {
            let reached =
                |cum: usize, k: usize| cum as f64 / total as f64 >= 1.0 - (k + 1) as f64 / n;
            // All non-empty buckets exhausted without crossing: remaining
            // buckets are zeros, so the crossing is where frac_mass (=1)
            // meets 1 - k/n — i.e. at ne/n.
            let mut p = ne as f64 / n;
            let (mut cum, mut k0) = (0usize, 0usize);
            for (v, m) in runs.rev() {
                if reached(cum + m * v, k0 + m - 1) {
                    // First j in 0..m with `reached` at the run's j-th element.
                    let (mut lo, mut hi) = (0, m - 1);
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        if reached(cum + (mid + 1) * v, k0 + mid) {
                            hi = mid;
                        } else {
                            lo = mid + 1;
                        }
                    }
                    p = (k0 + lo + 1) as f64 / n;
                    break;
                }
                cum += m * v;
                k0 += m;
            }
            p.min(0.5)
        };

        SummaryStats { mean, std, var, gini, p_ratio, min, max, ne: ne as f64 }
    }

    /// The statistics as `(name_suffix, value)` pairs, in Table 2 order.
    pub fn named(&self, dist: &str) -> Vec<(String, f64)> {
        vec![
            (format!("mean_{dist}"), self.mean),
            (format!("std_{dist}"), self.std),
            (format!("var_{dist}"), self.var),
            (format!("gini_{dist}"), self.gini),
            (format!("p_{dist}"), self.p_ratio),
            (format!("min_{dist}"), self.min),
            (format!("max_{dist}"), self.max),
            (format!("ne_{dist}"), self.ne),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_distribution_is_balanced() {
        let s = SummaryStats::from_counts(&[5; 100]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.var, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.ne, 100.0);
        assert!(s.gini.abs() < 1e-9, "gini={}", s.gini);
        assert!((s.p_ratio - 0.5).abs() < 0.02, "p={}", s.p_ratio);
    }

    #[test]
    fn single_loaded_bucket_is_maximally_skewed() {
        let mut counts = vec![0usize; 1000];
        counts[17] = 5000;
        let s = SummaryStats::from_counts(&counts);
        assert!(s.gini > 0.99, "gini={}", s.gini);
        assert!(s.p_ratio <= 0.002, "p={}", s.p_ratio);
        assert_eq!(s.ne, 1.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 5000.0);
    }

    #[test]
    fn mean_var_match_manual() {
        let s = SummaryStats::from_counts(&[1, 2, 3, 4]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.var - 1.25).abs() < 1e-12);
        assert!((s.std - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn gini_of_known_distribution() {
        // Values 1,1,2,4: G = sum_i sum_j |xi-xj| / (2 n^2 mean).
        // pairwise abs diffs (ordered pairs): computed = 14 * 2? Let's
        // use the textbook value: mean=2, n=4.
        // sum_{i,j} |xi - xj| with (1,1,2,4): pairs (1,1):0 (1,2):1
        // (1,4):3 (1,2):1 (1,4):3 (2,4):2 -> unordered sum 10, ordered 20.
        // G = 20 / (2 * 16 * 2) = 0.3125.
        let s = SummaryStats::from_counts(&[1, 1, 2, 4]);
        assert!((s.gini - 0.3125).abs() < 1e-9, "gini={}", s.gini);
    }

    #[test]
    fn empty_and_all_zero_distributions() {
        let e = SummaryStats::from_counts(&[]);
        assert_eq!(e.mean, 0.0);
        assert_eq!(e.p_ratio, 0.5);
        let z = SummaryStats::from_counts(&[0, 0, 0]);
        assert_eq!(z.gini, 0.0);
        assert_eq!(z.ne, 0.0);
        assert_eq!(z.max, 0.0);
    }

    #[test]
    fn sparse_matches_dense() {
        let dense = [0usize, 3, 0, 0, 7, 1, 0, 2];
        let a = SummaryStats::from_counts(&dense);
        let b = SummaryStats::from_sparse(&[3, 7, 1, 2], dense.len());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "more non-empty buckets")]
    fn sparse_rejects_overflow() {
        SummaryStats::from_sparse(&[1, 2, 3], 2);
    }

    #[test]
    fn p_ratio_power_law_is_low() {
        // Zipf-ish distribution: bucket k has floor(1000/k) items.
        let counts: Vec<usize> = (1..=1000usize).map(|k| 1000 / k).collect();
        let s = SummaryStats::from_counts(&counts);
        assert!(s.p_ratio < 0.2, "p={}", s.p_ratio);
        assert!(s.gini > 0.6, "gini={}", s.gini);
    }

    #[test]
    fn named_order_and_count() {
        let s = SummaryStats::from_counts(&[1, 2]);
        let named = s.named("R");
        assert_eq!(named.len(), 8);
        assert_eq!(named[0].0, "mean_R");
        assert_eq!(named[7].0, "ne_R");
    }
}

#[cfg(test)]
mod property_loops {
    //! Seeded property loops: every case is reproducible from its index.
    use super::*;
    use wise_gen::SplitMix64;

    const CASES: u64 = 256;

    /// A count vector with entries in `0..max` and a length in `lo..hi`.
    fn counts(rng: &mut SplitMix64, max: usize, lo: usize, hi: usize) -> Vec<usize> {
        let len = lo + rng.below(hi - lo);
        (0..len).map(|_| rng.below(max)).collect()
    }

    /// Gini in [0,1), p-ratio in (0, 0.5], std^2 == var, min <= mean
    /// <= max, ne counts non-empty buckets.
    #[test]
    fn invariants_hold() {
        for case in 0..CASES {
            let counts = counts(&mut SplitMix64::seed_from_u64(case), 1000, 1, 200);
            let s = SummaryStats::from_counts(&counts);
            assert!((0.0..1.0).contains(&s.gini), "case {case}: gini {}", s.gini);
            assert!(s.p_ratio > 0.0 && s.p_ratio <= 0.5, "case {case}: p {}", s.p_ratio);
            assert!((s.std * s.std - s.var).abs() < 1e-9 * (1.0 + s.var), "case {case}");
            assert!(s.min <= s.mean + 1e-9, "case {case}");
            assert!(s.mean <= s.max + 1e-9, "case {case}");
            let ne = counts.iter().filter(|&&c| c > 0).count() as f64;
            assert_eq!(s.ne, ne, "case {case}");
        }
    }

    /// Gini matches the O(n^2) mean-absolute-difference definition.
    #[test]
    fn gini_matches_pairwise_definition() {
        for case in 0..CASES {
            let counts = counts(&mut SplitMix64::seed_from_u64(case), 50, 2, 40);
            let s = SummaryStats::from_counts(&counts);
            let n = counts.len() as f64;
            let total: usize = counts.iter().sum();
            if total > 0 {
                let mut diff = 0.0;
                for &a in &counts {
                    for &b in &counts {
                        diff += (a as f64 - b as f64).abs();
                    }
                }
                let want = diff / (2.0 * n * n * (total as f64 / n));
                assert!((s.gini - want).abs() < 1e-9, "case {case}: {} vs {}", s.gini, want);
            } else {
                assert_eq!(s.gini, 0.0, "case {case}");
            }
        }
    }

    /// Sparse and dense constructions always agree.
    #[test]
    fn sparse_equals_dense() {
        for case in 0..CASES {
            let counts = counts(&mut SplitMix64::seed_from_u64(case), 100, 1, 100);
            let dense = SummaryStats::from_counts(&counts);
            let nonzero: Vec<usize> = counts.iter().copied().filter(|&v| v > 0).collect();
            let sparse = SummaryStats::from_sparse(&nonzero, counts.len());
            assert_eq!(dense, sparse, "case {case}");
        }
    }

    /// The sort-based definition: ascending sorted non-empty values,
    /// one f64 add per element, a linear p-ratio walk from the top.
    fn sorted_oracle(values: &[usize], n_buckets: usize) -> SummaryStats {
        let mut sorted: Vec<usize> = values.iter().copied().filter(|&v| v > 0).collect();
        sorted.sort_unstable();
        if n_buckets == 0 {
            let (mean, std, var, gini, min, max, ne) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
            return SummaryStats { mean, std, var, gini, p_ratio: 0.5, min, max, ne };
        }
        let n = n_buckets as f64;
        let total: usize = sorted.iter().sum();
        let mean = total as f64 / n;
        let sum_sq: f64 = sorted.iter().map(|&v| (v as f64) * (v as f64)).sum();
        let var = (sum_sq / n - mean * mean).max(0.0);
        let has_empty = sorted.len() < n_buckets;
        let min = if has_empty { 0.0 } else { sorted.first().copied().unwrap_or(0) as f64 };
        let max = sorted.last().copied().unwrap_or(0) as f64;
        let gini = if total == 0 {
            0.0
        } else {
            let z = n_buckets - sorted.len();
            let weighted: f64 =
                sorted.iter().enumerate().map(|(i, &v)| (z + i + 1) as f64 * v as f64).sum();
            (2.0 * weighted / (n * total as f64) - (n + 1.0) / n).clamp(0.0, 1.0)
        };
        let mut p_ratio = if total == 0 { 0.5 } else { (sorted.len() as f64 / n).min(0.5) };
        let mut cum = 0usize;
        for (k, &v) in sorted.iter().rev().enumerate() {
            cum += v;
            let frac_buckets = (k + 1) as f64 / n;
            if cum as f64 / total as f64 >= 1.0 - frac_buckets {
                p_ratio = frac_buckets.min(0.5);
                break;
            }
        }
        let ne = sorted.len() as f64;
        SummaryStats { mean, std: var.sqrt(), var, gini, p_ratio, min, max, ne }
    }

    fn bits(s: &SummaryStats) -> [u64; 8] {
        [s.mean, s.std, s.var, s.gini, s.p_ratio, s.min, s.max, s.ne].map(f64::to_bits)
    }

    /// Checks the dense (when it fits) and sparse constructions of
    /// `values` over `n_buckets` against the sorted oracle, bit for bit.
    fn assert_matches_oracle(values: &[usize], n_buckets: usize, tag: &str) {
        let want = bits(&sorted_oracle(values, n_buckets));
        let mut buf = vec![7; 3]; // stale contents must not leak in
        let sparse = SummaryStats::from_sparse_with(values, n_buckets, &mut buf);
        assert_eq!(bits(&sparse), want, "{tag}: sparse {sparse:?}");
        if values.len() == n_buckets {
            let dense = SummaryStats::from_counts_with(values, &mut buf);
            assert_eq!(bits(&dense), want, "{tag}: dense {dense:?}");
        }
    }

    /// Hand-picked edges: empty and all-zero inputs, one bucket, a value
    /// far above the number of values (the sorted run source), equal runs
    /// across the p-ratio crossing, and sums at or above 2^53 on both
    /// run sources.
    #[test]
    fn edge_cases_match_the_sorted_definition() {
        let cases: Vec<(&str, Vec<usize>, usize)> = vec![
            ("empty", vec![], 0),
            ("no values, some buckets", vec![], 5),
            ("all zero", vec![0; 9], 9),
            ("n = 1, zero", vec![0], 1),
            ("n = 1", vec![4], 1),
            ("one bucket of many", vec![1], 1 << 20),
            ("single huge count", vec![0, 0, 1_000_000, 0], 4),
            ("huge count among small", vec![1, 2, 1, 3, 1 << 30, 2], 6),
            ("equal runs straddling the crossing", [vec![9; 300], vec![1; 700]].concat(), 1000),
            ("two long runs", [vec![5; 4096], vec![6; 4096]].concat(), 10_000),
            ("sum of squares over 2^53 (sorted)", vec![1 << 27; 3], 4),
            ("rank sum over 2^53 (histogram)", vec![1, 2, 3], 1 << 50),
            ("rank sum over 2^53 (sorted)", vec![3, 1 << 20, 5], 1 << 40),
            ("squares just below 2^53", vec![(1 << 26) + 1, 1 << 26], 2),
        ];
        for (tag, values, n) in cases {
            assert_matches_oracle(&values, n, tag);
        }
        // Σv² ≥ 2^53 through the histogram (no value above the count):
        // 2^18 values near 2^18.
        let mut rng = SplitMix64::seed_from_u64(99);
        let wide: Vec<usize> = (0..1 << 18).map(|_| (1 << 18) - rng.below(1 << 12)).collect();
        assert_matches_oracle(&wide, wide.len() + 3, "squares over 2^53 (histogram)");
    }

    /// Random distributions of every shape the extractor produces, plus
    /// skewed and run-heavy ones, on both run sources.
    #[test]
    fn random_distributions_match_the_sorted_definition() {
        for case in 0..4 * CASES {
            let mut rng = SplitMix64::seed_from_u64(case);
            let len = rng.below(300);
            let max = [1, 2, 8, 64, 1000, 1 << 20][rng.below(6)];
            let values: Vec<usize> = match rng.below(4) {
                // Uniform.
                0 => (0..len).map(|_| rng.below(max + 1)).collect(),
                // Power-law-ish: a few heavy buckets.
                1 => (0..len).map(|_| max >> rng.below(24).min(60)).collect(),
                // Few distinct values in long runs.
                2 => {
                    let pool: Vec<usize> = (0..3).map(|_| rng.below(max + 1)).collect();
                    (0..len).map(|_| pool[rng.below(3)]).collect()
                }
                // Mostly empty with one outlier.
                _ => {
                    (0..len).map(|i| if i == len / 2 { max * 1000 } else { rng.below(2) }).collect()
                }
            };
            let n = values.len() + [0, 0, 1, rng.below(1000), 1 << 45][rng.below(5)];
            assert_matches_oracle(&values, n, &format!("case {case}"));
        }
    }
}
