//! End-to-end observability test: a traced tiny pipeline run must cover
//! every mandatory stage (the same set CI's `check_trace` enforces on
//! the quickstart trace), and the Chrome export must be balanced.
//!
//! Lives in its own integration-test binary because tracing is
//! process-global state.

use wise_core::pipeline::{TrainOptions, Wise};
use wise_gen::{Corpus, CorpusScale};
use wise_kernels::srvpack::SpmvWorkspace;

#[test]
fn traced_pipeline_covers_mandatory_stages() {
    wise_trace::set_enabled(true);
    let _ = wise_trace::take_events(); // discard anything from other tests in this binary

    let scale = CorpusScale::tiny();
    let corpus = Corpus::random(&scale, 7);
    let wise = Wise::train(&corpus, &TrainOptions::for_scale(&scale));
    let m = wise_gen::RmatParams::HIGH_SKEW.generate(9, 16, 77);
    let choice = wise.select(&m);
    let prepared = wise.prepare(&m, &choice);
    let mut ws = SpmvWorkspace::default();
    let x = vec![1.0; m.ncols()];
    let mut y = vec![0.0; m.nrows()];
    prepared.spmv(&x, &mut y, 1, &mut ws);

    let events = wise_trace::take_events();
    wise_trace::set_enabled(false);
    let summary = wise_trace::Summary::from_events(&events);

    // The stage set CI requires on the quickstart trace.
    for stage in [
        "features.extract",
        "label.corpus",
        "train.registry",
        "pipeline.select",
        "kernel.convert",
        "kernel.spmv",
    ] {
        let stats = summary.stages.get(stage).unwrap_or_else(|| {
            panic!(
                "stage {stage} missing from trace; have {:?}",
                summary.stages.keys().collect::<Vec<_>>()
            )
        });
        assert!(stats.count > 0, "stage {stage} recorded no spans");
        assert!(stats.max_ns >= stats.p99_ns && stats.p99_ns >= stats.p95_ns);
        assert!(stats.p95_ns >= stats.p50_ns);
        assert!(stats.self_total_ns <= stats.total_ns);
    }

    // Counters made it through, and with plausible magnitudes.
    assert_eq!(summary.counters["label.corpus.matrices"], corpus.len() as u64);
    // Stored nonzeros: nnz for CSR-family picks, padded nnz otherwise.
    assert!(summary.counters["kernel.spmv.nnz"] >= m.nnz() as u64);
    assert!(summary.counters["kernel.convert.nnz"] >= m.nnz() as u64);

    // The Chrome export of a real multi-threaded run stays balanced:
    // every End closes the span open on its thread.
    let json = wise_trace::chrome_trace_json(&events);
    let n_spans = wise_trace::export::validate_chrome_trace(&json).expect("chrome trace validates");
    let ends = events.iter().filter(|e| e.phase == wise_trace::Phase::End).count();
    assert!(n_spans > 0);
    assert_eq!(n_spans, ends);
}
