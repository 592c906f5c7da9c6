//! The benchmark's exact counters: the `SearchStats` totals a run records
//! must repeat exactly for one seed and change with the seed, and the
//! traced replay must match the engine hit for hit and count for count.

use perfbench::trace::{replay, Tracer};
use perfbench::{build_fixture, same_hits, search_stats_totals, Spec, Workload, K};

fn small(workload: Workload) -> Spec {
    Spec {
        corpus_size: 300,
        queries: 8,
        trace_queries: 4,
        ..workload.spec()
    }
}

#[test]
fn search_stats_repeat_for_a_seed_and_change_with_it() {
    for workload in [Workload::InteractiveMs20k, Workload::BatchPs10k] {
        let spec = small(workload);
        let first = search_stats_totals(spec, 7);
        assert!(first.candidates > 0 && first.scored > 0);
        assert_eq!(first, search_stats_totals(spec, 7), "{}", workload.name());
        assert_ne!(first, search_stats_totals(spec, 8), "{}", workload.name());
    }
}

#[test]
fn replay_matches_sharded_search() {
    for workload in [Workload::InteractiveMs20k, Workload::BatchPs10k] {
        let spec = small(workload);
        let fixture = build_fixture(spec, 3, 1);
        let mut tracer = Tracer::new(1024);
        for (qi, query) in fixture.queries.iter().enumerate() {
            let (hits, stats) = fixture.sharded.search_with_stats(query, K).unwrap();
            let replayed = replay(&fixture.sharded, qi as u32, query, &mut tracer).unwrap();
            assert!(same_hits(&replayed.hits, &hits), "{}", workload.name());
            assert_eq!(replayed.stats, stats, "{}", workload.name());
        }
        assert!(tracer.spans.iter().any(|s| s.name == "score"));
    }
}
