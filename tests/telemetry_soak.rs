//! Telemetry soak: a 10k-selection loop with the streaming layer on
//! must run in bounded memory (DESIGN.md §18 acceptance criterion).
//!
//! The streaming sketches store log-γ *buckets*, not samples, so their
//! footprint is a function of the observed value range — it saturates
//! early and must not grow between the 5k mark and the 10k mark beyond
//! the odd new bucket from a fresh latency extreme. The flight
//! recorder's ring is a fixed-capacity deque; 10k requests must leave
//! it at exactly its cap with the aggregate counters intact.

use wise_core::labels::label_corpus;
use wise_core::pipeline::{TrainOptions, Wise};
use wise_features::{FeatureConfig, FeatureVector};
use wise_gen::{Corpus, CorpusScale, RmatParams};
use wise_ml::TreeParams;
use wise_perf::Estimator;
use wise_trace::{span, telemetry};

const SOAK: usize = 10_000;
const CHECKPOINT: usize = SOAK / 2;

#[test]
fn soak_10k_selections_stays_in_bounded_memory() {
    // Sketches feed from closing spans, so the soak runs fully traced;
    // the raw-event ring is itself fixed-capacity (overflow drops
    // events, it never grows), so this adds no unbounded memory.
    wise_trace::set_enabled(true);
    telemetry::flight_reset();

    let opts = TrainOptions {
        // Deterministic label backend: the soak is about memory, not
        // wall clocks.
        estimator: Estimator::model_for_rows(1 << 10),
        feature_config: FeatureConfig::default(),
        tree_params: TreeParams::default(),
    };
    let corpus = Corpus::random(&CorpusScale::tiny(), 7);
    let labels = label_corpus(&corpus, &opts.estimator, &opts.feature_config);
    let wise = Wise::from_labels(&labels, &opts);

    // Extract once, select many: the soak exercises the per-request
    // path (sketch observes + flight records), not feature extraction.
    let m = RmatParams::MED_SKEW.generate(9, 8, 42);
    let fv = FeatureVector::extract(&m, &opts.feature_config);

    let mut footprint_at_checkpoint = 0usize;
    for i in 0..SOAK {
        let choice = wise.select_from_features(fv.clone());
        assert_ne!(choice.request_id, 0, "a top-level selection must carry a request id");
        if i + 1 == CHECKPOINT {
            footprint_at_checkpoint = span::stream_footprint_bytes();
        }
    }

    let footprint = span::stream_footprint_bytes();
    assert!(footprint > 0, "sketches must have observed the soak");
    // Saturation: the second 5k selections see the same latency
    // distribution as the first, so at most a handful of new buckets
    // (fresh extremes) may appear. 2x covers a capacity-doubling
    // realloc triggered by such a bucket; unbounded growth would blow
    // far past it.
    assert!(
        footprint <= footprint_at_checkpoint.saturating_mul(2),
        "sketch footprint grew {footprint_at_checkpoint} -> {footprint} bytes \
         between the 5k and 10k marks"
    );
    // Absolute ceiling: every per-stage sketch together stays far below
    // one sample's worth of storage per request.
    assert!(footprint < 1 << 20, "sketch footprint {footprint} bytes exceeds 1 MiB");

    let stats = telemetry::flight_stats();
    assert!(
        stats.requests >= SOAK as u64,
        "each selection is one flight request ({} < {SOAK})",
        stats.requests
    );
    assert_eq!(
        telemetry::flight_ring().len(),
        telemetry::FLIGHT_RING_CAPACITY,
        "10k requests must leave the ring exactly at its cap"
    );
}
