//! The benchmark ledger: versioned `BenchRecord` artifacts
//! (`BENCH_<seq>.json`) and the noise-aware regression gate that
//! compares them: one machine-readable record per benchmark run,
//! carrying
//!
//! * a **host fingerprint** (core count, `WISE_THREADS` state, detected
//!   SIMD capability, rustc version) so records from different machines
//!   are never silently compared;
//! * a **corpus digest** pinning the exact input set;
//! * one [`StageRecord`] per stage, lifted from the trace [`Summary`]
//!   (count / min / p50 / p95 / p99 / max / total / self-time in
//!   nanoseconds, plus the sketch the quantiles came from);
//! * derived **throughput** figures (e.g. `kernel.spmv` nnz/s from the
//!   existing counters);
//! * **model quality**: accuracy, P-ratio, summed per-class confusion,
//!   and per-matrix *regret* (chosen-config time ÷ oracle-best time).
//!
//! [`gate`] compares a candidate record against all comparable prior
//! records and fails when a tracked stage regresses beyond a
//! noise-aware threshold: the candidate's **min-of-k** is compared to
//! the best prior min, with a relative tolerance widened by the
//! observed min→p50 spread of both sides (a stage that jitters 40%
//! between its fastest and median iteration cannot be gated at 10%).
//!
//! Every record type is declared with the crate's [`json_struct!`]
//! codec ([`crate::export::json`]): integers decode exactly, floats
//! round-trip bit-exactly, and unknown members (such as the `pmu`
//! section of records written while hardware counters were still
//! recorded) are ignored.

use crate::export::fmt_ns;
use crate::export::json::{FromJson, JsonError, ToJson};
use crate::json_struct;
use crate::telemetry::{DriftRecord, QuantileSketch};
use crate::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Bump when the `BenchRecord` JSON layout changes incompatibly.
/// Records with a different major schema are excluded from gating.
pub const SCHEMA_VERSION: u64 = 1;

/// The stages the default [`GatePolicy`] tracks: one per hot path the
/// repo has optimized so far, plus the end-to-end selection.
pub const DEFAULT_TRACKED: &[&str] = &[
    "features.extract",
    "train.registry",
    "ml.fit",
    "kernel.convert",
    "kernel.spmv",
    "pipeline.select",
];

// ---------------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------------

/// What makes two benchmark runs comparable: the hardware and the
/// process-level knobs that change how the hot paths execute.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HostFingerprint {
    /// `std::thread::available_parallelism()` at record time.
    pub cpu_cores: u64,
    /// Raw `WISE_THREADS` value, if set.
    pub threads_env: Option<String>,
    /// `rustc -V` output, when the recording binary could obtain it.
    pub rustc: Option<String>,
    /// Detected SIMD capability as `isa:lanes` (e.g. `avx512f:8`,
    /// `scalar:1`). `None` only in records written before the field
    /// existed.
    pub simd: Option<String>,
}

/// The host's SIMD capability in `isa:lanes` form. Mirrors the probe in
/// `wise_kernels::simd` — re-implemented here because this crate has no
/// dependencies and `wise-kernels` depends on it, not vice versa.
fn detect_simd() -> String {
    // AVX2 without FMA (or AVX-512 without both) is not worth a
    // distinct tier; the kernel probe applies the same gate.
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        let isa = if is_x86_feature_detected!("avx512f") { "avx512f:8" } else { "avx2:4" };
        return isa.to_string();
    }
    "scalar:1".to_string()
}

impl HostFingerprint {
    /// Reads the fingerprint of the current process. `rustc` is left
    /// `None` — a library cannot assume a toolchain on `PATH`; bins
    /// fill the member in themselves.
    pub fn detect() -> HostFingerprint {
        HostFingerprint {
            cpu_cores: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
            threads_env: std::env::var("WISE_THREADS").ok(),
            rustc: None,
            simd: Some(detect_simd()),
        }
    }

    /// Emits the fingerprint as a JSON object.
    pub fn write_json(&self, out: &mut String) {
        ToJson::write_json(self, out)
    }

    /// Whether two fingerprints are close enough that timing comparison
    /// is meaningful. Unknown rustc or SIMD capability on either side
    /// is tolerated (old records); everything else must match exactly.
    pub fn comparable_to(&self, other: &HostFingerprint) -> bool {
        let opt_ok = |a: &Option<String>, b: &Option<String>| match (a, b) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        self.cpu_cores == other.cpu_cores
            && self.threads_env == other.threads_env
            && opt_ok(&self.rustc, &other.rustc)
            && opt_ok(&self.simd, &other.simd)
    }
}

json_struct!(HostFingerprint { cpu_cores, threads_env, rustc, simd });

// ---------------------------------------------------------------------
// Record contents
// ---------------------------------------------------------------------

/// The statistics of one stage: the one per-stage shape that
/// [`Summary`], `perf_summary.json`, `metrics_snapshot.json` and
/// [`BenchRecord::stages`] all carry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageRecord {
    pub count: u64,
    /// Fastest observation — the min-of-k the gate compares.
    pub min_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    /// Tail latency (serving gates on p99).
    pub p99_ns: u64,
    pub max_ns: u64,
    pub total_ns: u64,
    /// Sum of durations *minus* time spent in child spans on the same
    /// thread — the stage's own work, so nested stages (e.g.
    /// `kernel.spmv.simd` inside `kernel.spmv`) are not double-counted.
    /// Samples contribute their full value.
    pub self_total_ns: u64,
    /// Most frequent enclosing span, if this stage ever nested (drives
    /// the indented run report).
    pub parent: Option<String>,
    /// The mergeable sketch the quantiles were read from, so records
    /// from separate runs can be combined after the fact.
    pub sketch: Option<QuantileSketch>,
}

impl StageRecord {
    /// The record of a stage from its sketch, its exact total and its
    /// self-time. count, min and max are exact (the sketch tracks
    /// them); p50/p95/p99 are the sketch's estimates (relative error α)
    /// clamped into [min, max].
    pub fn new(sketch: QuantileSketch, total_ns: u64, self_total_ns: u64) -> StageRecord {
        let (min_ns, max_ns) = (sketch.min().unwrap_or(0), sketch.max().unwrap_or(0));
        let q = |p: f64| sketch.quantile(p).unwrap_or(0).clamp(min_ns, max_ns);
        StageRecord {
            count: sketch.count(),
            min_ns,
            p50_ns: q(0.50),
            p95_ns: q(0.95),
            p99_ns: q(0.99),
            max_ns,
            total_ns,
            self_total_ns,
            parent: None,
            sketch: Some(sketch),
        }
    }

    /// Relative min→p50 spread, the stage's own noise gauge:
    /// `(p50 - min) / min`.
    pub fn rel_spread(&self) -> f64 {
        if self.min_ns == 0 {
            0.0
        } else {
            (self.p50_ns.saturating_sub(self.min_ns)) as f64 / self.min_ns as f64
        }
    }

    /// Rejects a sketch that does not describe the stage's own count.
    fn check(&self) -> Result<(), JsonError> {
        match &self.sketch {
            Some(sk) if sk.count() != self.count => Err(JsonError::Invalid(format!(
                "sketch count {} != stage count {}",
                sk.count(),
                self.count
            ))),
            _ => Ok(()),
        }
    }
}

// Records written before a member existed read it from the nearest
// one they carry: p99 from p95, max from p99, self-time from total.
json_struct!(StageRecord {
    count,
    min_ns,
    p50_ns,
    p95_ns,
    p99_ns = p95_ns,
    max_ns = p99_ns,
    total_ns,
    self_total_ns = total_ns,
    #[omit_none] parent,
    #[omit_none] sketch,
} check StageRecord::check);

/// Prediction-quality metrics of the model the run trained.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelMetrics {
    /// Mean exact-match accuracy across the per-configuration
    /// classifiers (out-of-fold).
    pub accuracy: f64,
    /// Mean oracle-best time ÷ chosen-config time over the corpus
    /// (≤ 1.0; 1.0 means every choice was oracle-optimal).
    pub p_ratio: f64,
    /// Mean per-matrix regret (chosen ÷ oracle, ≥ 1.0).
    pub mean_regret: f64,
    /// Worst per-matrix regret.
    pub max_regret: f64,
    /// Class count of the confusion matrix below.
    pub n_classes: u64,
    /// Row-major summed confusion counts (true × predicted), all
    /// classifiers combined.
    pub confusion: Vec<u64>,
    /// Per-matrix regret, corpus order.
    pub per_matrix_regret: Vec<MatrixRegret>,
}

json_struct!(ModelMetrics {
    accuracy,
    p_ratio,
    mean_regret,
    max_regret,
    n_classes,
    confusion,
    per_matrix_regret,
});

/// One matrix's regret: chosen-config time ÷ oracle-best time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixRegret {
    pub name: String,
    pub regret: f64,
}

json_struct!(MatrixRegret { name, regret });

/// One ledger entry: everything needed to compare this run against any
/// other run of the same pinned suite.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchRecord {
    pub schema_version: u64,
    /// Ledger sequence number (the `<seq>` of `BENCH_<seq>.json`).
    pub seq: u64,
    /// Free-form tag, e.g. `"quick"` or a git revision.
    pub note: String,
    /// Digest pinning the benchmark input set (see [`fnv1a`]).
    pub corpus_digest: String,
    pub host: HostFingerprint,
    /// Stage name → wall-time statistics.
    pub stages: BTreeMap<String, StageRecord>,
    /// Raw summed counters carried over from the trace.
    pub counters: BTreeMap<String, u64>,
    /// Derived rates, e.g. `kernel.spmv.nnz_per_s`.
    pub throughput: BTreeMap<String, f64>,
    /// Model quality, when the run trained and evaluated one.
    pub model: Option<ModelMetrics>,
    /// Prediction-drift reading at record time; `None` on old records
    /// and on runs that never fed the monitor.
    pub drift: Option<DriftRecord>,
}

impl BenchRecord {
    /// Builds a record from a flushed trace summary: every stage is
    /// lifted verbatim, the drift gauge is read when the monitor
    /// observed anything, counters are copied, and throughput rates are
    /// derived where both a volume counter and its stage time exist
    /// (`kernel.spmv.nnz` ÷ `kernel.spmv` total, and the analogous
    /// `rows` rate).
    pub fn from_summary(
        seq: u64,
        note: &str,
        corpus_digest: &str,
        host: HostFingerprint,
        summary: &Summary,
    ) -> BenchRecord {
        let mut throughput = BTreeMap::new();
        for (counter, rate) in [
            ("kernel.spmv.nnz", "kernel.spmv.nnz_per_s"),
            ("kernel.spmv.rows", "kernel.spmv.rows_per_s"),
            ("kernel.convert.nnz", "kernel.convert.nnz_per_s"),
            ("bench.simd.scalar.nnz", "bench.simd.scalar.nnz_per_s"),
            ("bench.simd.vector.nnz", "bench.simd.vector.nnz_per_s"),
        ] {
            let volume = summary.counters.get(counter).copied().unwrap_or(0);
            let stage = counter.rsplit_once('.').map(|(s, _)| s).unwrap_or(counter);
            let total_ns = summary.stages.get(stage).map(|s| s.total_ns).unwrap_or(0);
            if volume > 0 && total_ns > 0 {
                throughput.insert(rate.to_string(), volume as f64 * 1e9 / total_ns as f64);
            }
        }
        BenchRecord {
            schema_version: SCHEMA_VERSION,
            seq,
            note: note.to_string(),
            corpus_digest: corpus_digest.to_string(),
            host,
            stages: summary.stages.clone(),
            counters: summary.counters.clone(),
            throughput,
            model: None,
            drift: Some(crate::telemetry::drift_gauge()).filter(|d| d.observed > 0),
        }
    }
}

json_struct!(BenchRecord {
    schema_version,
    seq,
    note,
    corpus_digest,
    host,
    stages,
    counters,
    throughput,
    model,
    drift,
});

// ---------------------------------------------------------------------
// Ledger files: BENCH_<seq>.json discovery and IO
// ---------------------------------------------------------------------

/// Parses a ledger file name (`BENCH_<seq>.json`) into its sequence
/// number.
fn parse_ledger_name(name: &str) -> Option<u64> {
    name.strip_prefix("BENCH_")?.strip_suffix(".json")?.parse().ok()
}

/// All ledger files under `dir`, sorted by sequence number. Files that
/// merely resemble the pattern (`BENCH_x.json`, `BENCH_.json`) are
/// ignored.
fn ledger_paths(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_ledger_name) {
            found.push((seq, entry.path()));
        }
    }
    found.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(found)
}

/// The next free sequence number in `dir` (1 for an empty ledger).
pub fn next_seq(dir: &Path) -> std::io::Result<u64> {
    Ok(ledger_paths(dir)?.last().map(|&(seq, _)| seq + 1).unwrap_or(1))
}

/// Loads every parseable ledger record in `dir`, sequence order.
/// Unparseable files are skipped with their error collected into
/// `warnings`.
pub fn load_all(dir: &Path, warnings: &mut Vec<String>) -> std::io::Result<Vec<BenchRecord>> {
    let mut records = Vec::new();
    for (seq, path) in ledger_paths(dir)? {
        let text = std::fs::read_to_string(&path)?;
        match BenchRecord::from_json_str(&text) {
            Ok(r) => records.push(r),
            Err(e) => warnings.push(format!("{}: skipped (seq {seq}): {e}", path.display())),
        }
    }
    Ok(records)
}

/// Writes `record` as `BENCH_<record.seq>.json` under `dir`, returning
/// the path. Refuses to overwrite an existing sequence number.
pub fn write_record(dir: &Path, record: &BenchRecord) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{}.json", record.seq));
    if path.exists() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!("{} already exists; ledger entries are immutable", path.display()),
        ));
    }
    std::fs::write(&path, record.to_json())?;
    Ok(path)
}

// ---------------------------------------------------------------------
// Digest (corpus pinning)
// ---------------------------------------------------------------------

/// FNV-1a 64-bit streaming hasher — enough to pin a generated corpus to
/// its exact structure without a crypto dependency.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Final digest, in the `fnv1a:<16 hex>` form the ledger stores.
    pub fn digest(&self) -> String {
        format!("fnv1a:{:016x}", self.0)
    }
}

// ---------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------

/// Tolerance floor: a stage may always be this much slower (relative)
/// than the baseline without failing.
const BASE_REL_TOL: f64 = 0.30;

/// How much of the observed min→p50 spread widens the tolerance.
const SPREAD_WEIGHT: f64 = 2.0;

/// Tolerance ceiling, so a pathologically noisy stage still gates
/// order-of-magnitude regressions.
const MAX_REL_TOL: f64 = 3.0;

/// Which stages the regression gate tracks.
#[derive(Debug, Clone)]
pub struct GatePolicy {
    /// Stage names that must not regress.
    pub tracked: Vec<String>,
}

impl Default for GatePolicy {
    fn default() -> Self {
        GatePolicy { tracked: DEFAULT_TRACKED.iter().map(|s| s.to_string()).collect() }
    }
}

/// Outcome for one tracked stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Candidate min is at or below the baseline min.
    Improved,
    /// Slower than baseline but inside the noise tolerance.
    WithinNoise,
    /// Slower than baseline beyond the tolerance — gate failure.
    Regressed,
    /// The stage is tracked but absent from the candidate — a silent
    /// loss of coverage, also a gate failure.
    MissingStage,
    /// No comparable baseline has the stage; informational only.
    NoBaseline,
}

impl Verdict {
    pub fn is_failure(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::MissingStage)
    }
}

/// One line of the gate diff.
#[derive(Debug, Clone)]
pub struct StageDiff {
    pub name: String,
    pub baseline_min_ns: Option<u64>,
    pub candidate_min_ns: Option<u64>,
    /// candidate ÷ baseline, when both exist.
    pub ratio: Option<f64>,
    /// The relative tolerance actually applied.
    pub tolerance: f64,
    pub verdict: Verdict,
}

/// The full gate outcome: per-stage diffs plus baseline bookkeeping.
#[derive(Debug, Clone)]
pub struct GateReport {
    pub diffs: Vec<StageDiff>,
    /// Prior records considered (comparable host + digest + schema).
    pub baselines_used: usize,
    /// Prior records excluded, with the reason.
    pub excluded: Vec<String>,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        !self.diffs.iter().any(|d| d.verdict.is_failure())
    }

    pub fn failures(&self) -> usize {
        self.diffs.iter().filter(|d| d.verdict.is_failure()).count()
    }

    /// The human-readable diff the gate prints.
    pub fn render(&self) -> String {
        let mut out = String::from("== bench_regress gate ==\n");
        if self.baselines_used == 0 {
            out.push_str("(no comparable baseline records; gate passes vacuously)\n");
        }
        for reason in &self.excluded {
            let _ = writeln!(out, "excluded baseline: {reason}");
        }
        let name_w = self.diffs.iter().map(|d| d.name.len()).max().unwrap_or(5).max("stage".len());
        let _ = writeln!(
            out,
            "{:<name_w$} {:>12} {:>12} {:>8} {:>7}  verdict",
            "stage", "baseline", "candidate", "ratio", "tol"
        );
        for d in &self.diffs {
            let fmt_opt = |v: Option<u64>| match v {
                Some(ns) => fmt_ns(ns),
                None => "-".to_string(),
            };
            let ratio = match d.ratio {
                Some(r) => format!("{r:.2}x"),
                None => "-".to_string(),
            };
            let verdict = match d.verdict {
                Verdict::Improved => "ok (improved)",
                Verdict::WithinNoise => "ok (within noise)",
                Verdict::Regressed => "REGRESSED",
                Verdict::MissingStage => "MISSING STAGE",
                Verdict::NoBaseline => "ok (new stage)",
            };
            let _ = writeln!(
                out,
                "{:<name_w$} {:>12} {:>12} {:>8} {:>6.0}%  {}",
                d.name,
                fmt_opt(d.baseline_min_ns),
                fmt_opt(d.candidate_min_ns),
                ratio,
                d.tolerance * 100.0,
                verdict
            );
        }
        let _ = writeln!(
            out,
            "{} tracked stage(s), {} baseline record(s), {} failure(s)",
            self.diffs.len(),
            self.baselines_used,
            self.failures()
        );
        out
    }
}

/// Compares `candidate` against every comparable record in `prior`.
///
/// A prior record is comparable when its schema version and corpus
/// digest match the candidate's and its host fingerprint is
/// [`HostFingerprint::comparable_to`] the candidate's; the rest are
/// listed in [`GateReport::excluded`] and never gate. Per tracked
/// stage, the baseline is the **best** (minimum) `min_ns` across
/// comparable records — gating against the best known run, not merely
/// the last one, so a slow regression cannot ratchet the baseline up.
pub fn gate(prior: &[BenchRecord], candidate: &BenchRecord, policy: &GatePolicy) -> GateReport {
    let mut excluded = Vec::new();
    let baselines: Vec<&BenchRecord> = prior
        .iter()
        .filter(|r| {
            if r.schema_version != candidate.schema_version {
                excluded.push(format!(
                    "seq {}: schema {} != {}",
                    r.seq, r.schema_version, candidate.schema_version
                ));
                false
            } else if r.corpus_digest != candidate.corpus_digest {
                excluded.push(format!(
                    "seq {}: corpus digest differs ({} vs {})",
                    r.seq, r.corpus_digest, candidate.corpus_digest
                ));
                false
            } else if !r.host.comparable_to(&candidate.host) {
                excluded.push(format!("seq {}: host fingerprint differs", r.seq));
                false
            } else {
                true
            }
        })
        .collect();

    let mut diffs = Vec::new();
    for name in &policy.tracked {
        // The best prior min, and the spread of the record it came from.
        let base: Option<(u64, f64)> = baselines
            .iter()
            .filter_map(|r| r.stages.get(name).map(|s| (s.min_ns, s.rel_spread())))
            .min_by_key(|&(min_ns, _)| min_ns);
        let cand = candidate.stages.get(name);
        let diff = match (base, cand) {
            (None, _) => StageDiff {
                name: name.clone(),
                baseline_min_ns: None,
                candidate_min_ns: cand.map(|s| s.min_ns),
                ratio: None,
                tolerance: BASE_REL_TOL,
                verdict: Verdict::NoBaseline,
            },
            (Some((base_min, _)), None) => StageDiff {
                name: name.clone(),
                baseline_min_ns: Some(base_min),
                candidate_min_ns: None,
                ratio: None,
                tolerance: BASE_REL_TOL,
                verdict: Verdict::MissingStage,
            },
            (Some((base_min, base_spread)), Some(c)) => {
                let spread = base_spread.max(c.rel_spread());
                let tolerance = (BASE_REL_TOL + SPREAD_WEIGHT * spread).min(MAX_REL_TOL);
                let ratio = if base_min == 0 { 1.0 } else { c.min_ns as f64 / base_min as f64 };
                let verdict = if ratio <= 1.0 {
                    Verdict::Improved
                } else if ratio <= 1.0 + tolerance {
                    Verdict::WithinNoise
                } else {
                    Verdict::Regressed
                };
                StageDiff {
                    name: name.clone(),
                    baseline_min_ns: Some(base_min),
                    candidate_min_ns: Some(c.min_ns),
                    ratio: Some(ratio),
                    tolerance,
                    verdict,
                }
            }
        };
        diffs.push(diff);
    }
    GateReport { diffs, baselines_used: baselines.len(), excluded }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(min: u64, p50: u64) -> StageRecord {
        StageRecord {
            count: 5,
            min_ns: min,
            p50_ns: p50,
            p95_ns: p50 * 2,
            p99_ns: p50 * 2,
            max_ns: p50 * 2,
            total_ns: p50 * 5,
            self_total_ns: p50 * 5,
            ..Default::default()
        }
    }

    fn record(seq: u64, stages: &[(&str, StageRecord)]) -> BenchRecord {
        BenchRecord {
            schema_version: SCHEMA_VERSION,
            seq,
            note: "test".into(),
            corpus_digest: "fnv1a:0000000000000001".into(),
            host: HostFingerprint { cpu_cores: 4, ..Default::default() },
            stages: stages.iter().map(|(n, s)| (n.to_string(), s.clone())).collect(),
            ..Default::default()
        }
    }

    fn policy(names: &[&str]) -> GatePolicy {
        GatePolicy { tracked: names.iter().map(|s| s.to_string()).collect() }
    }

    #[test]
    fn improvement_and_noise_pass_regression_fails() {
        let base = record(1, &[("a", stage(1000, 1000)), ("b", stage(1000, 1000))]);
        let p = policy(&["a", "b"]);

        // Improvement.
        let faster = record(2, &[("a", stage(700, 700)), ("b", stage(1000, 1000))]);
        let rep = gate(std::slice::from_ref(&base), &faster, &p);
        assert!(rep.passed(), "{}", rep.render());
        assert_eq!(rep.diffs[0].verdict, Verdict::Improved);

        // Within the 30% floor tolerance (zero spread).
        let noisy = record(2, &[("a", stage(1200, 1200)), ("b", stage(1000, 1000))]);
        let rep = gate(std::slice::from_ref(&base), &noisy, &p);
        assert!(rep.passed(), "{}", rep.render());
        assert_eq!(rep.diffs[0].verdict, Verdict::WithinNoise);

        // 2x with tight spread: regression.
        let slow = record(2, &[("a", stage(2000, 2000)), ("b", stage(1000, 1000))]);
        let rep = gate(&[base], &slow, &p);
        assert!(!rep.passed());
        assert_eq!(rep.diffs[0].verdict, Verdict::Regressed);
        assert_eq!(rep.failures(), 1);
        assert!(rep.render().contains("REGRESSED"));
    }

    #[test]
    fn spread_widens_tolerance() {
        // Baseline min 1000 with p50 1800: spread 0.8 -> tolerance
        // 0.30 + 2*0.8 = 1.9. A 2.5x candidate still fails; 1.8x passes.
        let base = record(1, &[("a", stage(1000, 1800))]);
        let p = policy(&["a"]);
        let ok = record(2, &[("a", stage(1800, 1800))]);
        assert!(gate(std::slice::from_ref(&base), &ok, &p).passed());
        let bad = record(2, &[("a", stage(2950, 2950))]);
        assert!(!gate(&[base], &bad, &p).passed());
    }

    #[test]
    fn tolerance_is_capped() {
        // Absurd spread cannot push tolerance past MAX_REL_TOL = 3.0:
        // a 4.5x regression always fails.
        let base = record(1, &[("a", stage(1000, 50_000))]);
        let bad = record(2, &[("a", stage(4500, 4500))]);
        assert!(!gate(&[base], &bad, &policy(&["a"])).passed());
    }

    #[test]
    fn missing_stage_fails_new_stage_passes() {
        let base = record(1, &[("a", stage(1000, 1000))]);
        let p = policy(&["a", "brand_new"]);
        let cand = record(2, &[("brand_new", stage(10, 10))]);
        let rep = gate(&[base], &cand, &p);
        assert!(!rep.passed());
        assert_eq!(rep.diffs[0].verdict, Verdict::MissingStage);
        assert_eq!(rep.diffs[1].verdict, Verdict::NoBaseline);
        assert!(rep.render().contains("MISSING STAGE"));
    }

    #[test]
    fn incomparable_hosts_and_digests_are_excluded() {
        let base = record(1, &[("a", stage(10, 10))]);
        let mut other_host = record(2, &[("a", stage(10, 10))]);
        other_host.host.cpu_cores = 64;
        let mut other_corpus = record(3, &[("a", stage(10, 10))]);
        other_corpus.corpus_digest = "fnv1a:ffff000000000000".into();
        // Candidate is 100x slower than both excluded baselines — but
        // they must not gate it.
        let cand = record(4, &[("a", stage(1000, 1000))]);
        let rep = gate(&[other_host, other_corpus], &cand, &policy(&["a"]));
        assert!(rep.passed(), "{}", rep.render());
        assert_eq!(rep.baselines_used, 0);
        assert_eq!(rep.excluded.len(), 2);
        // With the comparable baseline included, it fails.
        let rep = gate(&[base], &cand, &policy(&["a"]));
        assert!(!rep.passed());
    }

    #[test]
    fn baseline_is_best_prior_min_not_last() {
        let fast = record(1, &[("a", stage(500, 500))]);
        let slow = record(2, &[("a", stage(5000, 5000))]);
        // Candidate matches the slow run: against best-known 500ns this
        // is a regression even though the *last* record would pass it.
        let cand = record(3, &[("a", stage(5000, 5000))]);
        let rep = gate(&[fast, slow], &cand, &policy(&["a"]));
        assert!(!rep.passed());
        assert_eq!(rep.diffs[0].baseline_min_ns, Some(500));
    }

    #[test]
    fn fingerprint_comparability_rules() {
        let a = HostFingerprint {
            cpu_cores: 8,
            threads_env: Some("4".into()),
            rustc: Some("rustc 1.95.0".into()),
            simd: Some("avx2:4".into()),
        };
        assert!(a.comparable_to(&a));
        // Unknown rustc / SIMD capability on one side is tolerated
        // (records written before the fields existed).
        assert!(a.comparable_to(&HostFingerprint { rustc: None, ..a.clone() }));
        assert!(a.comparable_to(&HostFingerprint { simd: None, ..a.clone() }));
        // Different cores / env / rustc / capability are not.
        assert!(!a.comparable_to(&HostFingerprint { cpu_cores: 4, ..a.clone() }));
        assert!(!a.comparable_to(&HostFingerprint { threads_env: None, ..a.clone() }));
        assert!(
            !a.comparable_to(&HostFingerprint { rustc: Some("rustc 1.94.0".into()), ..a.clone() })
        );
        assert!(!a.comparable_to(&HostFingerprint { simd: Some("scalar:1".into()), ..a.clone() }));
    }

    #[test]
    fn fingerprint_simd_round_trips_through_json() {
        let mut rec = record(1, &[("a", stage(10, 10))]);
        rec.host.simd = Some("avx512f:8".into());
        let json = rec.to_json();
        let back = BenchRecord::from_json_str(&json).unwrap();
        assert_eq!(back.host, rec.host);
        // Records written while the fingerprint still carried the
        // removed `mlp` and `prefetch_env` members decode with them
        // ignored.
        let simd = "\"simd\":\"avx512f:8\"";
        let old = json.replace(simd, &format!("{simd},\"mlp\":\"pf8:il2\",\"prefetch_env\":\"8\""));
        assert_ne!(old, json);
        assert_eq!(BenchRecord::from_json_str(&old).unwrap().host, rec.host);
        // detect() always knows its own capability, in isa:lanes form.
        let detected = HostFingerprint::detect();
        assert!(detected.simd.as_deref().unwrap().contains(':'));
    }

    #[test]
    fn ledger_name_parsing() {
        assert_eq!(parse_ledger_name("BENCH_1.json"), Some(1));
        assert_eq!(parse_ledger_name("BENCH_42.json"), Some(42));
        assert_eq!(parse_ledger_name("BENCH_x.json"), None);
        assert_eq!(parse_ledger_name("BENCH_.json"), None);
        assert_eq!(parse_ledger_name("BENCH_1.json.bak"), None);
        assert_eq!(parse_ledger_name("bench_1.json"), None);
    }

    #[test]
    fn fnv1a_is_stable_and_sensitive() {
        let mut a = Fnv1a::new();
        a.update(b"corpus");
        a.update_u64(42);
        let mut b = Fnv1a::new();
        b.update(b"corpus");
        b.update_u64(42);
        assert_eq!(a.digest(), b.digest());
        let mut c = Fnv1a::new();
        c.update(b"corpus");
        c.update_u64(43);
        assert_ne!(a.digest(), c.digest());
        assert!(a.digest().starts_with("fnv1a:"));
    }

    #[test]
    fn stage_rel_spread() {
        assert_eq!(stage(1000, 1500).rel_spread(), 0.5);
        assert_eq!(stage(0, 10).rel_spread(), 0.0);
        // p50 < min cannot happen from Summary, but must not underflow.
        let s = StageRecord { count: 1, min_ns: 10, p50_ns: 5, ..Default::default() };
        assert_eq!(s.rel_spread(), 0.0);
    }

    #[test]
    fn old_records_parse_with_p99_defaulted_and_no_pmu() {
        // A pre-p99 record exactly as the first ledger version wrote it.
        let old = r#"{"schema_version":1,"seq":3,"note":"old","corpus_digest":"fnv1a:0000000000000001",
            "host":{"cpu_cores":4,"threads_env":null,"pool_env":null,"rustc":null,"simd":null,"simd_env":null},
            "stages":{"kernel.spmv":{"count":5,"min_ns":100,"p50_ns":120,"p95_ns":150,"total_ns":600}},
            "counters":{},"throughput":{},"model":null}"#;
        let rec = BenchRecord::from_json_str(old).expect("old schema parses");
        assert_eq!(rec.stages["kernel.spmv"].p99_ns, 150); // defaulted to p95

        // And it still gates cleanly against a new-schema candidate.
        let cand = record(4, &[("kernel.spmv", stage(100, 120))]);
        let rep = gate(&[rec], &cand, &policy(&["kernel.spmv"]));
        assert!(rep.passed(), "{}", rep.render());
        assert_eq!(rep.baselines_used, 1);
    }

    #[test]
    fn cascade_fields_round_trip_and_old_records_tolerate_absence() {
        // Cascade telemetry rides in the schema-free throughput /
        // counters maps: new records round-trip it bit-exactly...
        let mut rec = record(7, &[("pipeline.select", stage(1_000, 1_200))]);
        rec.throughput.insert("bench.cascade.speedup".to_string(), 12.5);
        rec.throughput.insert("select.cascade.fallthrough_rate".to_string(), 0.25);
        rec.counters.insert("select.cascade.stage1".to_string(), 9);
        rec.counters.insert("select.cascade.stage2".to_string(), 3);
        let back = BenchRecord::from_json_str(&rec.to_json()).expect("parses");
        assert_eq!(back, rec);
        assert_eq!(back.throughput["select.cascade.fallthrough_rate"], 0.25);
        // ...while records written before the cascade existed carry
        // neither field and must keep parsing and gating unchanged
        // (tolerated-when-missing).
        let old = r#"{"schema_version":1,"seq":3,"note":"old","corpus_digest":"fnv1a:0000000000000001",
            "host":{"cpu_cores":4,"threads_env":null,"pool_env":null,"rustc":null,"simd":null,"simd_env":null},
            "stages":{"pipeline.select":{"count":5,"min_ns":1000,"p50_ns":1200,"p95_ns":1500,"total_ns":6000}},
            "counters":{},"throughput":{},"model":null}"#;
        let rec_old = BenchRecord::from_json_str(old).expect("pre-cascade record parses");
        assert!(!rec_old.throughput.contains_key("bench.cascade.speedup"));
        assert!(!rec_old.counters.contains_key("select.cascade.stage1"));
        let rep = gate(&[rec_old], &rec, &policy(&["pipeline.select"]));
        assert!(rep.passed(), "{}", rep.render());
        assert_eq!(rep.baselines_used, 1);
    }

    #[test]
    fn sketch_and_drift_round_trip_and_old_records_tolerate_absence() {
        let mut sk = QuantileSketch::default();
        for v in [0u64, 100, 120, 150, 600, 1_000_000] {
            sk.observe(v);
        }
        let mut spmv = StageRecord::new(sk.clone(), 1_000_970, 1_000_970);
        spmv.parent = Some("pipeline.select".to_string());
        let mut rec = record(8, &[("kernel.spmv", spmv)]);
        rec.drift = Some(DriftRecord {
            status: crate::DriftLevel::Warning,
            regret_permille: 1_500,
            fallthrough_permille: 120,
            observed: 640,
        });
        let back = BenchRecord::from_json_str(&rec.to_json()).expect("parses");
        assert_eq!(back, rec);
        let back_sketch = back.stages["kernel.spmv"].sketch.as_ref().unwrap();
        assert_eq!(back_sketch.quantile(0.5), sk.quantile(0.5));
        // Old records (no sketch, max, self-time or drift members) load,
        // reading max from p95 and self-time from the total.
        let old = r#"{"schema_version":1,"seq":3,"note":"old","corpus_digest":"fnv1a:0000000000000001",
            "host":{"cpu_cores":4,"threads_env":null,"pool_env":null,"rustc":null,"simd":null,"simd_env":null},
            "stages":{"kernel.spmv":{"count":5,"min_ns":100,"p50_ns":120,"p95_ns":150,"total_ns":600}},
            "counters":{},"throughput":{},"model":null}"#;
        let rec_old = BenchRecord::from_json_str(old).expect("pre-sketch record parses");
        let st = &rec_old.stages["kernel.spmv"];
        assert_eq!((st.sketch.as_ref(), st.max_ns, st.self_total_ns), (None, 150, 600));
        assert_eq!(rec_old.drift, None);
        let rep = gate(&[rec_old], &rec, &policy(&["kernel.spmv"]));
        assert!(rep.passed(), "{}", rep.render());
    }

    #[test]
    fn records_naming_removed_env_knobs_load_and_gate() {
        // Fingerprints once carried the raw `WISE_POOL` and `WISE_SIMD`
        // values; records that set them load with both ignored.
        let old = r#"{"schema_version":1,"seq":5,"note":"old","corpus_digest":"fnv1a:0000000000000001",
            "host":{"cpu_cores":4,"threads_env":null,"pool_env":"0","rustc":null,"simd":"avx2:4","simd_env":"0","mlp":null},
            "stages":{"kernel.spmv":{"count":5,"min_ns":100,"p50_ns":120,"p95_ns":150,"p99_ns":150,"total_ns":600}},
            "counters":{},"throughput":{},"model":null}"#;
        let rec = BenchRecord::from_json_str(old).expect("record naming removed knobs parses");
        assert_eq!(rec.host.simd.as_deref(), Some("avx2:4"));
        let cand = record(6, &[("kernel.spmv", stage(100, 120))]);
        let rep = gate(&[rec], &cand, &policy(&["kernel.spmv"]));
        assert!(rep.passed(), "{}", rep.render());
        assert_eq!(rep.baselines_used, 1);
    }

    #[test]
    fn records_with_a_pmu_section_parse_and_gate() {
        // A record exactly as `bench_regress --quick` wrote it while the
        // ledger still carried hardware-counter telemetry: readers skip
        // the `pmu` member, and the record gates a new-code candidate.
        let text = include_str!("../tests/fixtures/BENCH_pmu_section.json");
        assert!(text.contains(r#""pmu":{"status":"unavailable ("#));
        // Its fingerprint still carries the removed `mlp` member.
        assert!(text.contains(r#""mlp":"pf0:il2""#));
        // Its top-level `sketches` map predates the per-stage sketch
        // member and is ignored like any unknown member.
        assert!(text.contains(r#""sketches":{"#));
        let old = BenchRecord::from_json_str(text).expect("record with a pmu section parses");
        assert_eq!(old.schema_version, SCHEMA_VERSION);
        assert!(!old.stages.is_empty() && old.stages.values().all(|s| s.sketch.is_none()));
        let new_text = old.to_json();
        assert!(!new_text.contains("\"pmu\""), "new records carry no pmu member");
        let cand = BenchRecord::from_json_str(&new_text).expect("new record parses");
        assert_eq!(cand, old);
        let rep = gate(&[old], &cand, &GatePolicy::default());
        assert!(rep.passed(), "{}", rep.render());
        assert_eq!(rep.baselines_used, 1);
    }
}
