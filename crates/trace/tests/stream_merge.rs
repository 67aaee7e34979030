//! Per-thread streaming sketches merge exactly on read: four threads
//! record spans under shared stage names and exit; the merged sketch of
//! each stage equals one sketch fed every duration the trace recorded.
//! Runs as its own process because it owns the global enable flag.

use std::collections::BTreeMap;
use wise_trace::span::stream_stages;
use wise_trace::span::Phase;
use wise_trace::QuantileSketch;

#[test]
fn merged_stream_sketches_equal_one_sketch_of_the_concatenated_durations() {
    wise_trace::set_enabled(true);
    let workers: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    let _outer = wise_trace::span("merge.outer");
                    let _inner = wise_trace::span("merge.inner");
                    std::hint::black_box((0..(i * t) % 97).sum::<u64>());
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    wise_trace::set_enabled(false);

    // Every worker has exited; its contribution must remain.
    let mut expected: BTreeMap<&str, (QuantileSketch, u64)> = BTreeMap::new();
    for e in wise_trace::take_events().iter().filter(|e| e.phase == Phase::End) {
        let (sk, total) = expected.entry(e.name).or_default();
        sk.observe(e.value);
        *total += e.value;
    }
    assert_eq!(expected["merge.outer"].0.count(), 2000);
    let stages = stream_stages();
    for (name, (sketch, total)) in &expected {
        assert_eq!(stages[*name].sketch.as_ref(), Some(sketch), "{name}: merged sketch differs");
        assert_eq!(stages[*name].total_ns, *total, "{name}: total");
    }
    // The inner span is all self-time; the outer one loses the inner's.
    let (outer, inner) = (&stages["merge.outer"], &stages["merge.inner"]);
    assert_eq!(inner.self_total_ns, inner.total_ns);
    assert_eq!(outer.self_total_ns, outer.total_ns - inner.total_ns);
}
