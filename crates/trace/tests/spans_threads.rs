//! Span nesting across worker threads must aggregate into a well-formed
//! parent/child structure: every thread's events balance, and
//! positional nesting survives the merge. Runs as its own process
//! because it owns the global enable flag.

use wise_trace::export::folded::{folded_stacks, parse_folded};
use wise_trace::export::validate_chrome_trace;
use wise_trace::{chrome_trace_json, span, take_events, Phase, Summary};

#[test]
fn threaded_spans_form_a_well_formed_forest() {
    wise_trace::set_enabled(true);
    let _ = take_events(); // start from a clean slate

    {
        let _root = span("test.root");
        // A parent span on the calling thread, one worker span per
        // scoped thread (data-parallel workers).
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _w = span("test.worker");
                    let _inner = span("test.worker.inner");
                    std::hint::black_box(0);
                });
            }
        });
        let _merge = span("test.merge");
    }

    let events = take_events();
    wise_trace::set_enabled(false);

    // Every Begin has a matching, properly nested End on its thread.
    let begins = events.iter().filter(|e| e.phase == Phase::Begin).count();
    let ends = events.iter().filter(|e| e.phase == Phase::End).count();
    assert_eq!(begins, ends);
    assert_eq!(begins, 1 + 4 * 2 + 1);
    assert_eq!(validate_chrome_trace(&chrome_trace_json(&events)), Ok(begins));

    // Roots: test.root on the main thread plus one test.worker per
    // scoped thread (worker threads have no cross-thread parent link;
    // each thread's stack is independent). The merge span is the
    // root's only same-thread child, the inner span each worker's.
    let rows = parse_folded(&folded_stacks(&events)).expect("folded stacks parse");
    let mut paths: Vec<String> = rows.iter().map(|(frames, _)| frames.join(";")).collect();
    paths.sort();
    assert_eq!(
        paths,
        ["test.root", "test.root;test.merge", "test.worker", "test.worker;test.worker.inner"]
    );
    let summary = Summary::from_events(&events);
    let stage = |name: &str| &summary.stages[name];
    for (name, count, parent) in [
        ("test.root", 1, None),
        ("test.merge", 1, Some("test.root")),
        ("test.worker", 4, None),
        ("test.worker.inner", 4, Some("test.worker")),
    ] {
        assert_eq!(stage(name).count, count, "{name}");
        assert_eq!(stage(name).parent.as_deref(), parent, "{name}");
    }
    // Each inner span lies inside its worker: the workers' self-time is
    // exactly their total minus the inner spans'.
    let (worker, inner) = (stage("test.worker"), stage("test.worker.inner"));
    assert_eq!(worker.self_total_ns + inner.total_ns, worker.total_ns);
    for b in events.iter().filter(|e| e.name == "test.worker.inner" && e.phase == Phase::Begin) {
        let opened = events.iter().find(|w| w.name == "test.worker" && w.tid == b.tid).unwrap();
        assert!(b.ts_ns >= opened.ts_ns);
    }

    // Worker tids are distinct from the root's tid and from each other.
    let tids_of = |name: &str| -> Vec<u64> {
        events.iter().filter(|e| e.name == name).map(|e| e.tid).collect()
    };
    let root_tid = tids_of("test.root")[0];
    let mut tids = tids_of("test.worker");
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), 4, "each scoped thread records under its own tid");
    assert!(tids.iter().all(|&t| t != root_tid));
}
