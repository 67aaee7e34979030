//! Ledger integration tests: JSON round-trip through the in-crate
//! parser, `BENCH_<seq>.json` discovery on a real directory, and the
//! injected-regression gate failure the CI workflow relies on.

use std::collections::BTreeMap;
use wise_trace::export::json::{FromJson, JsonError, ToJson};
use wise_trace::ledger::{
    gate, load_all, next_seq, write_record, BenchRecord, Fnv1a, GatePolicy, HostFingerprint,
    MatrixRegret, ModelMetrics, StageRecord, Verdict, SCHEMA_VERSION,
};
use wise_trace::span::{Event, Phase};
use wise_trace::telemetry::QuantileSketch;
use wise_trace::{DriftLevel, DriftRecord, Summary};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wise_ledger_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn select_sketch() -> QuantileSketch {
    let mut sk = QuantileSketch::default();
    sk.observe(900_000);
    sk
}

fn full_record(seq: u64) -> BenchRecord {
    let stages: BTreeMap<String, StageRecord> = [
        (
            "kernel.spmv",
            StageRecord {
                count: 30,
                min_ns: 1_200,
                p50_ns: 1_500,
                p95_ns: 2_100,
                p99_ns: 2_400,
                max_ns: 3_000,
                total_ns: 48_000,
                self_total_ns: 40_000,
                parent: Some("pipeline.select".into()),
                sketch: None,
            },
        ),
        ("pipeline.select", StageRecord::new(select_sketch(), 900_000, 852_000)),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_string(), s))
    .collect();
    BenchRecord {
        schema_version: SCHEMA_VERSION,
        seq,
        note: "quick \"suite\"\nline2".into(), // exercises escaping
        corpus_digest: "fnv1a:00ff00ff00ff00ff".into(),
        host: HostFingerprint {
            cpu_cores: 8,
            threads_env: Some("4".into()),
            rustc: Some("rustc 1.95.0 (abc 2026-01-01)".into()),
            simd: Some("avx512f:8".into()),
        },
        stages,
        counters: [("kernel.spmv.nnz".to_string(), 123_456u64)].into_iter().collect(),
        throughput: [
            ("kernel.spmv.nnz_per_s".to_string(), 2.5718e9),
            ("select.cascade.fallthrough_rate".to_string(), 1.0 / 3.0),
        ]
        .into_iter()
        .collect(),
        model: Some(ModelMetrics {
            accuracy: 0.8125,
            p_ratio: 0.9417,
            mean_regret: 1.0832,
            max_regret: 1.9001,
            n_classes: 7,
            confusion: (0..49).collect(),
            per_matrix_regret: [("rmat_13_8", 1.25), ("rgg_13_8", 1.0), ("kron_13_8", 1.0 / 3.0)]
                .into_iter()
                .map(|(name, regret)| MatrixRegret { name: name.into(), regret })
                .collect(),
        }),
        drift: Some(DriftRecord {
            status: DriftLevel::Warning,
            regret_permille: 1_732,
            fallthrough_permille: 250,
            observed: 40,
        }),
    }
}

#[test]
fn bench_record_json_round_trip() {
    let rec = full_record(3);
    let text = rec.to_json();
    let back = BenchRecord::from_json_str(&text).expect("parses");
    assert_eq!(back, rec);

    // A model-less record round-trips too.
    let mut bare = full_record(4);
    bare.model = None;
    bare.host = HostFingerprint { cpu_cores: 1, ..Default::default() };
    assert_eq!(BenchRecord::from_json_str(&bare.to_json()).unwrap(), bare);

    // Garbage and truncated documents are rejected, not panicked on.
    assert!(BenchRecord::from_json_str("{}").is_err());
    assert!(BenchRecord::from_json_str(&text[..text.len() / 2]).is_err());
}

/// The innermost error under any `Field` wrappers.
fn root(e: &JsonError) -> &JsonError {
    match e {
        JsonError::Field { error, .. } => root(error),
        e => e,
    }
}

#[test]
fn ledger_integers_decode_exactly() {
    let text = full_record(3).to_json();
    for (valid, damaged) in [
        (r#""seq":3"#, r#""seq":-3"#),
        (r#""cpu_cores":8"#, r#""cpu_cores":2.7"#),
        (r#""count":30"#, r#""count":1.5"#),
        (r#""min_ns":1200"#, r#""min_ns":-1"#),
        (r#""total_ns":48000"#, r#""total_ns":1e30"#),
    ] {
        assert_eq!(text.matches(valid).count(), 1, "{valid}");
        let doc = text.replace(valid, damaged);
        assert!(BenchRecord::from_json_str(&doc).is_err(), "{damaged} decoded");
        let err = <BenchRecord as FromJson>::from_json_str(&doc).unwrap_err();
        assert!(
            matches!(root(&err), JsonError::Range(_) | JsonError::Type { .. }),
            "{damaged}: {err:?}"
        );
    }
}

#[test]
fn damaged_sketch_is_skipped_not_a_panic() {
    let hostile = r#"{"alpha":0.01,"count":1,"zero":0,"sum":0,"min":0,"max":0,"buckets":[[-2000000000,1],[2000000000,1]]}"#;
    let text = full_record(1).to_json();
    let sketch = select_sketch().to_json();
    assert_eq!(text.matches(&sketch).count(), 1);
    let doc = text.replace(&sketch, hostile);
    assert!(doc.contains("-2000000000"));
    assert!(BenchRecord::from_json_str(&doc).is_err());

    let dir = temp_dir("hostile_sketch");
    write_record(&dir, &full_record(1)).unwrap();
    std::fs::write(dir.join("BENCH_2.json"), &doc).unwrap();
    let mut warnings = Vec::new();
    let all = load_all(&dir, &mut warnings).unwrap();
    assert_eq!(all.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1]);
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].contains("BENCH_2.json"), "{warnings:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequence_discovery_and_io() {
    let dir = temp_dir("seq");
    assert_eq!(next_seq(&dir).unwrap(), 1);

    let r1 = full_record(1);
    let p1 = write_record(&dir, &r1).unwrap();
    assert_eq!(p1.file_name().unwrap(), "BENCH_1.json");
    assert_eq!(next_seq(&dir).unwrap(), 2);

    // Gaps are fine; the next seq comes after the max.
    let r7 = full_record(7);
    write_record(&dir, &r7).unwrap();
    assert_eq!(next_seq(&dir).unwrap(), 8);

    // Ledger entries are immutable.
    assert!(write_record(&dir, &r1).is_err());

    // Decoys and a corrupt entry: skipped, warned about, not fatal.
    std::fs::write(dir.join("BENCH_x.json"), "{}").unwrap();
    std::fs::write(dir.join("notes.txt"), "hi").unwrap();
    std::fs::write(dir.join("BENCH_5.json"), "{\"broken\":").unwrap();
    let mut warnings = Vec::new();
    let all = load_all(&dir, &mut warnings).unwrap();
    assert_eq!(all.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 7]);
    assert_eq!(all[0], r1);
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].contains("BENCH_5.json"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_inflated_record_fails_the_gate() {
    // The acceptance-criterion scenario: a prior good record, then a
    // candidate whose tracked stage time is artificially inflated 10x.
    let dir = temp_dir("gate");
    let good = full_record(1);
    write_record(&dir, &good).unwrap();

    let mut inflated = full_record(2);
    for st in inflated.stages.values_mut() {
        st.min_ns *= 10;
        st.p50_ns *= 10;
        st.p95_ns *= 10;
        st.total_ns *= 10;
    }
    write_record(&dir, &inflated).unwrap();

    let mut warnings = Vec::new();
    let all = load_all(&dir, &mut warnings).unwrap();
    assert!(warnings.is_empty());
    let (candidate, prior) = all.split_last().unwrap();

    let policy = GatePolicy { tracked: vec!["kernel.spmv".into(), "pipeline.select".into()] };
    let report = gate(prior, candidate, &policy);
    assert!(!report.passed(), "10x inflation must fail:\n{}", report.render());
    assert_eq!(report.failures(), 2);
    assert!(report.render().contains("REGRESSED"));

    // Sanity: the same record re-measured (identical times) passes.
    let rerun = gate(prior, &full_record(3), &policy);
    assert!(rerun.passed(), "{}", rerun.render());
    assert_eq!(rerun.diffs.iter().filter(|d| d.verdict == Verdict::Improved).count(), 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn from_summary_lifts_stages_and_derives_throughput() {
    // 3 spmv spans of 1ms each + an nnz counter => 300k nnz / 3ms.
    let mut events = Vec::new();
    for i in 0..3u64 {
        let t0 = i * 2_000_000;
        events.push(Event {
            name: "kernel.spmv",
            phase: Phase::Begin,
            ts_ns: t0,
            tid: 1,
            value: 0,
        });
        events.push(Event {
            name: "kernel.spmv.nnz",
            phase: Phase::Counter,
            ts_ns: t0 + 1,
            tid: 1,
            value: 100_000,
        });
        events.push(Event {
            name: "kernel.spmv",
            phase: Phase::End,
            ts_ns: t0 + 1_000_000,
            tid: 1,
            value: 1_000_000,
        });
    }
    let summary = Summary::from_events(&events);
    let mut digest = Fnv1a::new();
    digest.update(b"test corpus");
    let host = HostFingerprint::detect();
    let rec = BenchRecord::from_summary(1, "quick", &digest.digest(), host.clone(), &summary);

    assert_eq!(rec.schema_version, SCHEMA_VERSION);
    assert_eq!(rec.host, host);
    let spmv = &rec.stages["kernel.spmv"];
    assert_eq!(spmv.count, 3);
    assert_eq!(spmv.total_ns, 3_000_000);
    assert_eq!(rec.counters["kernel.spmv.nnz"], 300_000);
    let rate = rec.throughput["kernel.spmv.nnz_per_s"];
    assert!((rate - 1e8).abs() < 1.0, "rate = {rate}");
    // No rows counter recorded -> no rows/s entry invented.
    assert!(!rec.throughput.contains_key("kernel.spmv.rows_per_s"));

    // And the derived record round-trips like any other.
    assert_eq!(BenchRecord::from_json_str(&rec.to_json()).unwrap(), rec);
}
