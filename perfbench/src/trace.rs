//! The traced run: each workload's queries replayed layer by layer.
//!
//! The replay calls the public functions in the order of the private
//! scatter-gather core (`shard_cursor` per shard, then `frontier_scan`):
//! bind each shard, count overlaps, bound, sort, merge the cursors in a
//! `RankedFrontier`, and scan with `score_profile` timed inside the score
//! closure.  Spans (name, shard, start, end, parent, query) are kept in
//! memory and written out at the end; a layer's self time is its spans'
//! duration minus what its child spans cover.  The replay must return
//! hits bit-identical to `ShardedCorpus::search` — and the same
//! `SearchStats` — for every query, or the run fails.
//!
//! End-to-end numbers never come from this run; it reports its own
//! overhead as the replayed time per query against untraced
//! `ShardedCorpus::search`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::AtomicUsize;
use std::time::Instant;

use wf_model::WorkflowId;
use wf_repo::{
    merge_top_k, scan_ranked_candidates, sort_best_bound_first, CancelToken, CorpusScorer,
    RankedCandidate, RankedFrontier, SearchHit, SearchStats, SearchThreshold, TokenIndex,
};
use wf_serve::{
    decode_request, decode_response, encode_request, encode_response, Client, Hit, Request,
    Response,
};
use wf_sim::{ProfiledMeasure, ShardedCorpus, WorkflowProfile};

use crate::alloc::thread_allocated_bytes;
use crate::workloads::{batch_loop, open_loop, poisson_schedule, same_id_set, Serving, WireCtx};
use crate::{
    build_fixture, median, metric, ms, peak_rss_mb, quantile, same_hits, same_wire_hits,
    sorted_ids, write_set, Args, Metric, Report, Spec, Tally, Workload, K,
};

/// Directory (relative to the working directory) the span files go to.
pub const SPAN_DIR: &str = ".bench_out";
/// Writes replayed per traced run.
const TRACE_WRITES: usize = 16;
/// Alternating in-process and wire searches per traced query.
const RTT_REPS: usize = 2;
/// Encode/decode repetitions per timed codec sample.
const CODEC_REPS: u32 = 200;
/// Share of `--seconds` the traced load-generator phase runs.
const LOADGEN_SHARE: f64 = 0.3;
const NO_PARENT: u32 = u32::MAX;
const NO_SHARD: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub query: u32,
    pub name: &'static str,
    pub shard: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span ending "now" and returns its id; [`Tracer::close`]
    /// sets the end.
    fn open(&mut self, query: u32, name: &'static str, shard: u32, parent: u32) -> u32 {
        let now = self.now();
        self.push(query, name, shard, parent, now)
    }

    fn push(&mut self, query: u32, name: &'static str, shard: u32, parent: u32, start: u64) -> u32 {
        let end_ns = self.now();
        self.spans.push(Span {
            query,
            name,
            shard,
            parent,
            start_ns: start,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }
}

/// The replay of one query's scatter-gather search.
pub struct Replay {
    pub hits: Vec<SearchHit>,
    pub stats: SearchStats,
}

/// Replays `ShardedCorpus::search` for one resident query through the
/// public layer functions, recording spans.
pub fn replay(
    sharded: &ShardedCorpus,
    qi: u32,
    query: &WorkflowId,
    tracer: &mut Tracer,
) -> Option<Replay> {
    let wf = sharded.get(query)?;
    let shards = sharded.shards();
    let num_fronts = shards.len();
    let root = tracer.open(qi, "query", NO_SHARD, NO_PARENT);

    let start = tracer.now();
    let features = shards[0].measure().query_features(wf);
    tracer.push(qi, "features", NO_SHARD, root, start);

    let mut stats = SearchStats::default();
    let mut cursors: Vec<(WorkflowProfile, Vec<RankedCandidate>)> = Vec::with_capacity(num_fronts);
    let mut measures: Vec<&ProfiledMeasure> = Vec::with_capacity(num_fronts);
    for (front, corpus) in shards.iter().enumerate() {
        let shard = front as u32;
        let measure = corpus.measure();
        let start = tracer.now();
        let bound_query = measure.bind_query(&features);
        tracer.push(qi, "bind", shard, root, start);

        let start = tracer.now();
        let overlaps = corpus
            .token_index()
            .overlap_counts(bound_query.label_tokens().ids());
        tracer.push(qi, "overlap", shard, root, start);

        let start = tracer.now();
        let mut candidates = Vec::with_capacity(measure.len());
        for (index, &overlap) in overlaps.iter().enumerate() {
            if measure.ids()[index] == *query {
                continue;
            }
            if overlap > 0 {
                stats.shared_token_candidates += 1;
            }
            let bound = measure
                .upper_bound_profile(&bound_query, index)
                .unwrap_or(f64::INFINITY);
            candidates.push(RankedCandidate {
                index: index * num_fronts + front,
                bound,
                overlap,
            });
        }
        stats.candidates += candidates.len();
        tracer.push(qi, "bound", shard, root, start);

        let start = tracer.now();
        sort_best_bound_first(&mut candidates);
        tracer.push(qi, "sort", shard, root, start);
        cursors.push((bound_query, candidates));
        measures.push(measure);
    }

    let start = tracer.now();
    let frontier = RankedFrontier::new(cursors.iter().map(|c| c.1.as_slice()).collect());
    let total = frontier.total();
    tracer.push(qi, "frontier", NO_SHARD, root, start);

    let scan = tracer.open(qi, "scan", NO_SHARD, root);
    let hits = scan_ranked_candidates(
        &frontier,
        total,
        K,
        &SearchThreshold::new(),
        &CancelToken::never(),
        &mut stats,
        |encoded| {
            let (front, local) = (encoded % num_fronts, encoded / num_fronts);
            let start = tracer.now();
            let score = measures[front].score_profile(&cursors[front].0, local);
            tracer.push(qi, "score", front as u32, scan, start);
            score
        },
        |encoded| {
            let (front, local) = (encoded % num_fronts, encoded / num_fronts);
            measures[front].ids()[local].clone()
        },
    );
    tracer.close(scan);

    let start = tracer.now();
    let hits = merge_top_k(vec![hits], K);
    tracer.push(qi, "merge", NO_SHARD, root, start);
    tracer.close(root);
    Some(Replay { hits, stats })
}

/// Per query: span name → (summed duration, summed child duration), ns.
pub fn layer_times(spans: &[Span], queries: usize) -> Vec<BTreeMap<&'static str, (u64, u64)>> {
    let mut out = vec![BTreeMap::new(); queries];
    for span in spans {
        let d = span.end_ns - span.start_ns;
        out[span.query as usize]
            .entry(span.name)
            .or_insert((0, 0))
            .0 += d;
        if span.parent != NO_PARENT {
            let parent = spans[span.parent as usize].name;
            out[span.query as usize].entry(parent).or_insert((0, 0)).1 += d;
        }
    }
    out
}

fn write_spans(spans: &[Span], args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("create {SPAN_DIR}: {e}"))?;
    let path = format!(
        "{SPAN_DIR}/spans-{}-seed{}.csv",
        args.workload.name(),
        args.seed
    );
    let file = std::fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("write {path}: {e}");
    writeln!(out, "id,query,name,shard,parent,start_ns,end_ns").map_err(io)?;
    for (id, s) in spans.iter().enumerate() {
        let shard = if s.shard == NO_SHARD {
            String::new()
        } else {
            s.shard.to_string()
        };
        let parent = if s.parent == NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{id},{},{},{shard},{parent},{},{}",
            s.query, s.name, s.start_ns, s.end_ns
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)?;
    Ok(path)
}

/// Median over the samples of the microseconds one encode-and-decode of a
/// request and its response takes.
fn codec_us(samples: &[(Request, Response)]) -> Option<f64> {
    let mut per_sample = Vec::with_capacity(samples.len());
    for (request, response) in samples {
        let start = Instant::now();
        for rid in 0..u64::from(CODEC_REPS) {
            let req = encode_request(rid, std::hint::black_box(request));
            let resp = encode_response(rid, std::hint::black_box(response));
            // Encoded frames carry a 4-byte length prefix the decoders do
            // not take.
            let (_, r) = decode_request(&req[4..]).ok()?;
            let (_, s) = decode_response(&resp[4..]).ok()?;
            std::hint::black_box((r, s));
        }
        per_sample.push(start.elapsed().as_secs_f64() * 1e6 / f64::from(CODEC_REPS));
    }
    Some(median(&per_sample))
}

fn to_wire(hits: &[SearchHit]) -> Vec<Hit> {
    hits.iter()
        .map(|h| Hit {
            id: h.id.as_str().to_owned(),
            score: h.score,
        })
        .collect()
}

/// The traced run of one workload.
pub fn traced(args: &Args, spec: Spec) -> Result<Report, String> {
    let fixture = build_fixture(spec, args.seed, 1);
    let sharded = fixture.sharded;
    let queries: Vec<WorkflowId> = fixture.queries[..spec.trace_queries].to_vec();
    let mut tally = Tally::default();

    // Untraced in-process search and the traced replay of each query.
    let mut tracer = Tracer::new(spec.trace_queries * (spec.corpus_size + 64));
    let (mut search_ms, mut alloc_bytes) = (Vec::new(), Vec::new());
    let (mut counts, mut expected) = (Vec::new(), Vec::new());
    for (qi, query) in queries.iter().enumerate() {
        let (before, start) = (thread_allocated_bytes(), Instant::now());
        let (hits, stats) = sharded
            .search_with_stats(query, K)
            .ok_or("sampled query not resident")?;
        search_ms.push(ms(start.elapsed()));
        alloc_bytes.push((thread_allocated_bytes() - before) as f64);
        let replayed =
            replay(&sharded, qi as u32, query, &mut tracer).ok_or("sampled query not resident")?;
        tally.check(same_hits(&replayed.hits, &hits), "replay hits");
        tally.check(replayed.stats == stats, "replay stats");
        counts.push(stats);
        expected.push(hits);
    }
    let spans_path = write_spans(&tracer.spans, args)?;
    let times = layer_times(&tracer.spans, queries.len());

    // The write path on private copies of each shard's measure and index.
    let writes = write_set(&sharded, &queries, &expected, TRACE_WRITES, args.seed);
    let (mut profile_remove, mut index_remove) = (Vec::new(), Vec::new());
    let mut copies: Vec<Option<(ProfiledMeasure, TokenIndex)>> =
        (0..sharded.shard_count()).map(|_| None).collect();
    for wf in &writes {
        let shard = sharded.shard_of(&wf.id).ok_or("write id not resident")?;
        let (measure, index) = copies[shard].get_or_insert_with(|| {
            let measure =
                ProfiledMeasure::new(spec.scheme.config(), sharded.shards()[shard].workflows());
            let index = TokenIndex::build(&measure);
            (measure, index)
        });
        let at = measure.index_of(&wf.id).ok_or("write id not profiled")?;
        let start = Instant::now();
        measure.remove_workflow(at);
        profile_remove.push(ms(start.elapsed()));
        let start = Instant::now();
        index.remove_workflow(at);
        index_remove.push(ms(start.elapsed()));
        let added = measure.add_workflow(wf);
        index.add_workflow(measure.label_token_ids(added));
    }
    drop(copies);

    // The batch workload's own load generator is in-process; the
    // interactive one runs over the wire below.
    let window = args.seconds * LOADGEN_SHARE;
    let mut late = Vec::new();
    if spec.workload == Workload::BatchPs10k {
        let (results, _) = batch_loop(&sharded, &queries, window, &AtomicUsize::new(0));
        let ok = results
            .iter()
            .all(|r| same_hits(&r.hits, &expected[r.query]));
        tally.check(ok, "traced batch hits");
        late = results.iter().map(|r| r.late_ms).collect();
    }

    // The wire: round-trip overhead, codec, service writes and the load
    // generator.
    let initial = sorted_ids(&sharded);
    let serving = Serving::start(sharded, 1)?;
    let mut client = Client::connect(serving.addr());
    let _ = client.ping();
    let (mut rtt_overhead, mut codec_samples) = (Vec::new(), Vec::new());
    for (qi, query) in queries.iter().enumerate() {
        // The server runs the same `search_deadline` call; the fastest of
        // a few alternating repetitions of each side damps host noise.
        let (mut local_ms, mut wire_ms) = (f64::INFINITY, f64::INFINITY);
        let mut local = None;
        for _ in 0..RTT_REPS {
            let start = Instant::now();
            let found = serving
                .service
                .search_deadline(query, K, &CancelToken::never())
                .ok_or("query not resident in the service")?;
            local_ms = local_ms.min(ms(start.elapsed()));
            let start = Instant::now();
            let wire = client.search(query.as_str(), K as u32, 0);
            wire_ms = wire_ms.min(ms(start.elapsed()));
            tally.check(same_hits(&found.hits, &expected[qi]), "service hits");
            let wire_ok = wire
                .as_ref()
                .is_ok_and(|w| !w.degraded && same_wire_hits(&w.hits, &expected[qi]));
            tally.check(wire_ok, "wire hits");
            local = Some(found);
        }
        let local = local.expect("at least one repetition");
        rtt_overhead.push(wire_ms - local_ms);
        codec_samples.push((
            Request::Search {
                query: query.as_str().to_owned(),
                k: K as u32,
                deadline_ms: 0,
            },
            Response::Hits {
                degraded: local.degraded,
                answered: local.answered.clone(),
                hits: to_wire(&local.hits),
            },
        ));
    }
    let mut add_samples = Vec::new();
    let (mut service_remove, mut service_add) = (Vec::new(), Vec::new());
    for wf in &writes {
        let start = Instant::now();
        let removed = serving.service.remove(&wf.id).is_some();
        service_remove.push(ms(start.elapsed()));
        let start = Instant::now();
        let shard = serving.service.add(wf.clone());
        service_add.push(ms(start.elapsed()));
        tally.check(removed, "service remove");
        let workflow_json =
            serde_json::to_string(wf).map_err(|e| format!("encode workflow: {e}"))?;
        add_samples.push((
            Request::Add { workflow_json },
            Response::Added {
                shard: shard as u32,
            },
        ));
    }
    let codec = codec_us(&codec_samples).ok_or("codec roundtrip failed")?;
    let codec_add = codec_us(&add_samples).ok_or("codec roundtrip failed")?;

    let ctx = WireCtx {
        queries: &queries,
        expected: &expected,
        writes: &writes,
        next_write: AtomicUsize::new(0),
    };
    let load = match spec.workload {
        Workload::InteractiveMs20k => {
            let schedule =
                poisson_schedule(args.seed, args.offered_rate_qps, window, queries.len());
            Some(open_loop(serving.addr(), &schedule, &ctx))
        }
        Workload::BatchPs10k => None,
    };
    if let Some(phase) = &load {
        for o in &phase.outcomes {
            tally.check(o.ok, "traced load operation");
        }
        late = phase.outcomes.iter().map(|o| o.late_ms).collect();
    }
    let retries = client.retries() + load.as_ref().map_or(0, |p| p.retries);
    drop(client);
    let server_stats = serving.server.metrics();
    let service = serving.stop();
    tally.check(same_id_set(&service, &initial), "id set after writes");
    drop(service);

    // Per-query layer values.
    let per_query = |f: &dyn Fn(usize) -> f64| -> f64 {
        median(&(0..queries.len()).map(f).collect::<Vec<_>>())
    };
    let total_ms = |qi: usize, name: &str| -> f64 {
        times[qi].get(name).map_or(0.0, |&(d, _)| d as f64 / 1e6)
    };
    let self_ms = |qi: usize, name: &str| -> f64 {
        times[qi]
            .get(name)
            .map_or(0.0, |&(d, c)| d.saturating_sub(c) as f64 / 1e6)
    };
    let shard_search_ms = median(&search_ms);
    let replay_ms = per_query(&|qi| total_ms(qi, "query"));
    let count = |f: &dyn Fn(&SearchStats) -> usize| per_query(&|qi| f(&counts[qi]) as f64);
    let metrics: Vec<Metric> = vec![
        metric("serve.rtt_overhead_p50_ms", median(&rtt_overhead), "ms"),
        metric("serve.codec_us", codec, "us"),
        metric("serve.codec_add_us", codec_add, "us"),
        metric("serve.shed", server_stats.shed as f64, "count"),
        metric("serve.retries", retries as f64, "count"),
        metric("serve.degraded", server_stats.degraded as f64, "count"),
        metric("loadgen.late_p95_ms", quantile(&late, 0.95), "ms"),
        metric("shard.search_ms", shard_search_ms, "ms"),
        metric("service.remove_ms", median(&service_remove), "ms"),
        metric("service.add_ms", median(&service_add), "ms"),
        metric(
            "profile.features_ms",
            per_query(&|qi| total_ms(qi, "features")),
            "ms",
        ),
        metric(
            "profile.bind_ms",
            per_query(&|qi| total_ms(qi, "bind")),
            "ms",
        ),
        metric(
            "profile.bound_ms",
            per_query(&|qi| total_ms(qi, "bound")),
            "ms",
        ),
        metric(
            "profile.bound_ns_per_call",
            per_query(&|qi| total_ms(qi, "bound") * 1e6 / counts[qi].candidates.max(1) as f64),
            "ns",
        ),
        metric(
            "profile.score_ms",
            per_query(&|qi| total_ms(qi, "score")),
            "ms",
        ),
        metric(
            "profile.score_us_per_call",
            per_query(&|qi| total_ms(qi, "score") * 1e3 / counts[qi].scored.max(1) as f64),
            "us",
        ),
        metric("profile.remove_ms", median(&profile_remove), "ms"),
        metric(
            "index.overlap_ms",
            per_query(&|qi| total_ms(qi, "overlap")),
            "ms",
        ),
        metric("index.sort_ms", per_query(&|qi| total_ms(qi, "sort")), "ms"),
        metric(
            "index.scan_self_ms",
            per_query(&|qi| self_ms(qi, "scan") + total_ms(qi, "frontier") + total_ms(qi, "merge")),
            "ms",
        ),
        metric("index.remove_ms", median(&index_remove), "ms"),
        metric("index.candidates", count(&|s| s.candidates), "count"),
        metric("index.scored", count(&|s| s.scored), "count"),
        metric("index.pruned", count(&|s| s.pruned), "count"),
        metric("index.zero_bound", count(&|s| s.zero_bound), "count"),
        metric(
            "index.scored_share",
            per_query(&|qi| counts[qi].scored as f64 / counts[qi].candidates.max(1) as f64),
            "share",
        ),
        metric("index.alloc_bytes_per_query", median(&alloc_bytes), "bytes"),
        metric("trace.replay_ms", replay_ms, "ms"),
        metric("trace.overhead_ratio", replay_ms / shard_search_ms, "ratio"),
        metric("run.peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let record = vec![
        ("spans", crate::json_str(&spans_path)),
        ("span_count", tracer.spans.len().to_string()),
        ("traced_queries", queries.len().to_string()),
        ("traced_writes", writes.len().to_string()),
        ("loadgen_operations", late.len().to_string()),
    ];
    Ok(Report {
        correct: tally.ok == tally.attempted,
        attempted: tally.attempted,
        failed: tally.attempted - tally.ok,
        metrics,
        record,
    })
}
