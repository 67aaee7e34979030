//! Model persistence: a saved WISE instance selects exactly like the
//! one that wrote it, files in the historical JSON shape still load,
//! and damaged files fail with an error instead of a panic.

use wise_core::pipeline::{Choice, ChoiceTiming, TrainOptions, Wise};
use wise_features::FeatureConfig;
use wise_gen::{Corpus, CorpusScale, RggParams, RmatParams, SplitMix64};
use wise_kernels::{Method, MethodConfig, Schedule};
use wise_matrix::Csr;
use wise_ml::TreeParams;
use wise_perf::Estimator;
use wise_trace::export::json::{FromJson, ToJson};

fn trained() -> Wise {
    let opts = TrainOptions {
        estimator: Estimator::model_for_rows(1 << 10),
        feature_config: FeatureConfig::default(),
        tree_params: TreeParams::default(),
    };
    Wise::train(&Corpus::random(&CorpusScale::tiny(), 11), &opts)
}

fn zoo() -> Vec<(&'static str, Csr)> {
    vec![
        ("rmat-high-skew", RmatParams::HIGH_SKEW.generate(9, 16, 77)),
        ("rmat-med-skew", RmatParams::MED_SKEW.generate(9, 8, 13)),
        ("rmat-low-skew", RmatParams::LOW_SKEW.generate(8, 8, 2)),
        ("rmat-low-loc", RmatParams::LOW_LOC.generate(8, 4, 5)),
        ("rmat-med-loc", RmatParams::MED_LOC.generate(9, 8, 21)),
        ("rgg-n400-d6", RggParams { n: 400, avg_degree: 6.0 }.generate(3)),
    ]
}

/// A choice minus its wall-clock timing and per-process request id.
fn answer(mut c: Choice) -> Choice {
    c.timing = ChoiceTiming::default();
    c.request_id = 0;
    c
}

#[test]
fn save_load_select_is_identical_on_the_zoo() {
    let wise = trained();
    let path = std::env::temp_dir().join(format!("wise_persistence_{}.json", std::process::id()));
    wise.save(&path).unwrap();
    let back = Wise::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(back.to_json(), wise.to_json(), "a reload re-encodes byte for byte");
    for (tag, m) in zoo() {
        assert_eq!(answer(back.select(&m)), answer(wise.select(&m)), "{tag}");
    }
}

/// The read set is derived from the trees, not stored: a reload derives
/// the same one, so its amortized choices (index, predictions, decision
/// paths and the read-set features) are bit-identical.
#[test]
fn reload_derives_the_same_read_set_and_amortized_choices() {
    let wise = trained();
    let path = std::env::temp_dir().join(format!("wise_read_set_{}.json", std::process::id()));
    wise.save(&path).unwrap();
    let back = Wise::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let read = wise.registry().read_set();
    assert!(!read.is_empty());
    assert_eq!(back.registry().read_set(), read);
    let est = Estimator::model_for_rows(1 << 10);
    for (tag, m) in zoo() {
        for k in [1, 10, 200] {
            let (a, b) =
                (wise.select_for_iterations(&m, &est, k), back.select_for_iterations(&m, &est, k));
            let bits =
                |c: &Choice| c.features.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "{tag} k={k}: features");
            assert_eq!(answer(a), answer(b), "{tag} k={k}");
        }
    }
}

/// A model in the shape every earlier release wrote (struct = object,
/// unit variant = name string, `None` = `null`), written before `v`/`pf`/`il`, `FeatureConfig::threads` and
/// the SIMD machine fields existed.
const PARENT_FORMAT: &str = r#"{
  "registry": {
    "catalog": [
      {"method": "Csr", "schedule": "Dyn", "c": 0, "sigma": 0, "t": 0.0},
      {"method": "SellPack", "schedule": "StCont", "c": 8, "sigma": 0, "t": 0.0}
    ],
    "trees": [
      {"nodes": [{"feature": 4294967295, "threshold": 0.0, "left": 0, "right": 0,
                  "class": 1, "n_samples": 48, "node_risk": 0.0}],
       "n_features": 70, "n_classes": 7,
       "params": {"max_depth": 15, "min_samples_split": 2, "min_samples_leaf": 1,
                  "ccp_alpha": 0.005}},
      {"nodes": [{"feature": 2, "threshold": 1000.5, "left": 1, "right": 2,
                  "class": 1, "n_samples": 48, "node_risk": 0.25},
                 {"feature": 4294967295, "threshold": 0.0, "left": 0, "right": 0,
                  "class": 0, "n_samples": 20, "node_risk": 0.0},
                 {"feature": 4294967295, "threshold": 0.0, "left": 0, "right": 0,
                  "class": 4, "n_samples": 28, "node_risk": 0.0625}],
       "n_features": 70, "n_classes": 7,
       "params": {"max_depth": 15, "min_samples_split": 2, "min_samples_leaf": 1,
                  "ccp_alpha": 0.005}}
    ],
    "params": {"max_depth": 15, "min_samples_split": 2, "min_samples_leaf": 1,
               "ccp_alpha": 0.005}
  },
  "feature_config": {"k_max": 2048},
  "cascade_gate": {
    "threshold": 0.5,
    "machine": {"name": "skylake", "threads": 24, "freq_ghz": 2.6, "l1_bytes": 32768,
                "l2_bytes": 1048576, "llc_bytes": 40370176, "dram_bw_gbs": 200.0,
                "llc_bw_gbs": 800.0, "cache_line": 64, "scalar_cycles_per_nnz": 1.5,
                "vector_cycles_per_step": 6.0, "dyn_grab_ns": 60.0,
                "single_thread_dram_fraction": 0.125, "single_thread_llc_fraction": 0.2,
                "scatter_write_factor": 2.0},
    "calibration_p_ratio": 0.9,
    "full_p_ratio": 0.95,
    "calibration_accept_rate": 0.4
  }
}"#;

#[test]
fn parent_format_model_loads_with_and_without_cascade_gate() {
    let with_gate = Wise::from_json_str(PARENT_FORMAT).expect("parent-format model loads");
    let catalog = with_gate.registry().catalog();
    assert_eq!(catalog[0], MethodConfig::csr(Schedule::Dyn));
    assert_eq!(catalog[1], MethodConfig::sellpack(8, Schedule::StCont));
    assert_eq!(*with_gate.feature_config(), FeatureConfig::default());
    let gate = with_gate.cascade_gate().expect("gate present");
    let machine = gate.machine.as_ref().expect("veto machine present");
    assert_eq!((machine.simd_lanes, machine.simd_cycles_per_step), (8, 6.0));

    let (head, tail) = PARENT_FORMAT.split_at(PARENT_FORMAT.find(",\n  \"cascade_gate\"").unwrap());
    let gateless = format!("{head}\n}}");
    assert!(!gateless.contains("cascade_gate") && tail.ends_with('}'));
    let without_gate = Wise::from_json_str(&gateless).expect("pre-cascade model loads");
    assert!(without_gate.cascade_gate().is_none());

    // Tree 1 splits on nnz at 1000.5: class 0 (slowdown) below, class 4
    // (~1.4x) above; tree 0 always says parity.
    for wise in [&with_gate, &without_gate] {
        let small = wise.select(&RmatParams::LOW_LOC.generate(6, 4, 1));
        assert_eq!(small.config.method, Method::Csr);
        let large = wise.select(&RmatParams::LOW_LOC.generate(9, 8, 1));
        assert_eq!(large.config.method, Method::SellPack);
    }
}

#[test]
fn damaged_model_files_fail_without_panicking() {
    let text = trained().to_json();
    let path = std::env::temp_dir().join(format!("wise_damaged_{}.json", std::process::id()));
    // Truncation anywhere — including mid-number and mid-string — is an
    // error; so is an empty file.
    let step = text.len() / 97 + 1;
    for cut in (0..text.len()).step_by(step).chain(1..64) {
        std::fs::write(&path, &text[..cut]).unwrap();
        let err = Wise::load(&path).expect_err("truncated model must not load");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut {cut}: {err}");
    }
    // Single-byte corruption decodes or errs, but never panics.
    let mut rng = SplitMix64::seed_from_u64(42);
    let junk = b"x0-9.e\"{}[],:n ";
    for _ in 0..300 {
        let mut bytes = text.clone().into_bytes();
        let at = rng.below(bytes.len());
        bytes[at] = junk[rng.below(junk.len())];
        if let Ok(damaged) = String::from_utf8(bytes) {
            let _ = Wise::from_json_str(&damaged);
        }
    }
    let _ = std::fs::remove_file(&path);
}
