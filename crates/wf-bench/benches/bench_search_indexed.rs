//! Top-k retrieval over a repository (the operation behind Figures 10/11):
//! scan vs. corpus-resident search with the best Module Sets configuration
//! on a 200-workflow corpus.
//!
//! Four cases answer the same top-10 query:
//!
//! * `scan_seed` — the seed path: [`SearchEngine::top_k`] over a
//!   [`WorkflowSimilarity`] that re-projects and re-derives text per pair;
//! * `scan_parallel_8_threads` — the same scan split over 8 threads
//!   ([`SearchEngine::top_k_parallel`]);
//! * `scan_profiled` — exhaustive scan, but scoring from precomputed
//!   [`ProfiledMeasure`] profiles;
//! * `indexed` — the inverted-index engine with upper-bound pruning on top
//!   of the profiles.
//!
//! All four return bit-identical hit lists (asserted once up front).
//! `wfsim_search --demo --bench-json BENCH_retrieval.json` records the
//! scan-vs-indexed comparison machine-readably for the perf trajectory.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wf_corpus::{generate_taverna_corpus, TavernaCorpusConfig};
use wf_repo::{scan_top_k, IndexedSearchEngine, Repository, SearchEngine};
use wf_sim::{ProfiledMeasure, SimilarityConfig, WorkflowSimilarity};

fn bench_search_indexed(c: &mut Criterion) {
    let (corpus, _) = generate_taverna_corpus(&TavernaCorpusConfig::small(200, 9));
    let repository = Repository::from_workflows(corpus);
    let query_index = 0usize;
    let query = repository.workflows()[query_index].clone();

    let measure = WorkflowSimilarity::new(SimilarityConfig::best_module_sets());
    let scan_engine = SearchEngine::new(
        &repository,
        |a: &wf_model::Workflow, b: &wf_model::Workflow| measure.similarity(a, b),
    )
    .with_threads(8);
    let profiled =
        ProfiledMeasure::new(SimilarityConfig::best_module_sets(), repository.workflows());
    let indexed = IndexedSearchEngine::new(&profiled);

    // The engines must agree before their speed is worth comparing.
    let expected = scan_engine.top_k(&query, 10);
    assert_eq!(scan_engine.top_k_parallel(&query, 10), expected);
    assert_eq!(indexed.top_k(query_index, 10), expected);
    assert_eq!(scan_top_k(&profiled, query_index, 10), expected);

    let mut group = c.benchmark_group("top10_retrieval_200_workflows");
    group.sample_size(10);
    group.bench_function("scan_seed", |b| {
        b.iter(|| scan_engine.top_k(black_box(&query), 10))
    });
    group.bench_function("scan_parallel_8_threads", |b| {
        b.iter(|| scan_engine.top_k_parallel(black_box(&query), 10))
    });
    group.bench_function("scan_profiled", |b| {
        b.iter(|| scan_top_k(&profiled, black_box(query_index), 10))
    });
    group.bench_function("indexed", |b| {
        b.iter(|| indexed.top_k(black_box(query_index), 10))
    });
    group.finish();
}

criterion_group!(benches, bench_search_indexed);
criterion_main!(benches);
