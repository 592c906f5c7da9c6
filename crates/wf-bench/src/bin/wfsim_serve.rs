//! `wfsim_serve` — the serving benchmark: scatter-gather batch-query
//! throughput vs shard count, query latency quantiles under live churn,
//! and end-to-end throughput over real loopback sockets through the
//! `wf-serve` network front end.
//!
//! Usage:
//! ```text
//! wfsim_serve [corpus.json | --demo] [--bench-json BENCH_serving.json]
//!             [--smoke | --quick] [--demo-size N] [--queries N] [--k N]
//!             [--threads N] [--shards a,b,c] [--churn-ops N] [--clients N]
//!             [--corpus-size 250,2k,10k] [--reps N] [--assert-scaling]
//! ```
//!
//! * Builds the demo corpus (250 workflows by default, 60 with
//!   `--smoke`/`--quick`) once, answers a query batch through the
//!   single-corpus indexed engine as the baseline, then through
//!   `ShardedCorpus::search_batch` for each shard count, verifying every
//!   hit list is bit-identical to the baseline.  `--corpus-size` repeats
//!   the whole q/s × shard-count sweep for each listed demo-corpus size
//!   (`2k` = 2000), each timed as the median of `--reps` batches (default
//!   3), producing one scaling curve per size in the JSON report.
//!   `--assert-scaling` then fails the run if, on the largest corpus,
//!   batch q/s at the highest shard count falls more than 15% below the
//!   lowest — a regression guard pinning down the global-frontier
//!   scheduling guarantee (the old per-shard-heap design lost >4× here;
//!   the allowance absorbs scheduler/allocator noise on one-core runners).
//! * Then wraps the largest shard count in a `CorpusService` and measures
//!   per-query latency quantiles (p50/p95/p99) while a churn thread
//!   removes and re-adds workflows through the per-shard write locks.
//! * Finally starts a `wf-serve` TCP server on loopback and drives it with
//!   `--clients` concurrent retrying clients (default 32) — most querying,
//!   a few churning over the wire — reporting client-observed quantiles
//!   and saturation queries/s for the `network_serving` report section.
//! * `--bench-json PATH` writes the machine-readable report CI uploads
//!   next to the retrieval and clustering benches.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wf_bench::table::TextTable;
use wf_model::{Workflow, WorkflowId};
use wf_serve::{Client, ClientConfig, LatencyHistogram, Server, ServerConfig, StatsSnapshot};
use wf_sim::{Corpus, CorpusService, ShardedCorpus, SimilarityConfig};

struct Options {
    source: String,
    demo_size: usize,
    queries: usize,
    k: usize,
    threads: usize,
    shard_counts: Vec<usize>,
    churn_ops: usize,
    clients: usize,
    bench_json: Option<String>,
    smoke: bool,
    corpus_sizes: Vec<usize>,
    reps: usize,
    assert_scaling: bool,
}

const USAGE: &str = "usage: wfsim_serve [corpus.json | --demo] [--bench-json PATH] \
                     [--smoke | --quick] [--demo-size N] [--queries N] [--k N] \
                     [--threads N] [--shards a,b,c] [--churn-ops N] [--clients N] \
                     [--corpus-size 250,2k,10k] [--reps N] [--assert-scaling]";

/// Parses a corpus size that may carry a `k`/`K` thousands suffix.
fn parse_size(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    let (digits, scale) = match trimmed.strip_suffix(['k', 'K']) {
        Some(head) => (head, 1000usize),
        None => (trimmed, 1),
    };
    digits
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(scale))
        .filter(|&n| n >= 2)
        .ok_or_else(|| format!("invalid corpus size '{raw}'"))
}

fn flag_value(args: &[String], i: &mut usize, name: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{name} expects a value"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut source = "--demo".to_string();
    let mut demo_size = 0usize;
    let mut queries = 0usize;
    let mut k = 10usize;
    let mut threads = 8usize;
    let mut shard_counts = vec![1, 2, 4, 8];
    let mut churn_ops = 0usize;
    let mut clients = 32usize;
    let mut bench_json = None;
    let mut smoke = false;
    let mut corpus_sizes = Vec::new();
    let mut reps = 3usize;
    let mut assert_scaling = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--demo" => source = "--demo".to_string(),
            "--smoke" | "--quick" => smoke = true,
            "--bench-json" => bench_json = Some(flag_value(args, &mut i, "--bench-json")?),
            "--demo-size" => {
                demo_size = flag_value(args, &mut i, "--demo-size")?
                    .parse()
                    .map_err(|_| "invalid --demo-size value".to_string())?
            }
            "--queries" => {
                queries = flag_value(args, &mut i, "--queries")?
                    .parse()
                    .map_err(|_| "invalid --queries value".to_string())?
            }
            "--k" => {
                k = flag_value(args, &mut i, "--k")?
                    .parse()
                    .map_err(|_| "invalid --k value".to_string())?
            }
            "--threads" => {
                threads = flag_value(args, &mut i, "--threads")?
                    .parse()
                    .map_err(|_| "invalid --threads value".to_string())?
            }
            "--churn-ops" => {
                churn_ops = flag_value(args, &mut i, "--churn-ops")?
                    .parse()
                    .map_err(|_| "invalid --churn-ops value".to_string())?
            }
            "--clients" => {
                clients = flag_value(args, &mut i, "--clients")?
                    .parse()
                    .map_err(|_| "invalid --clients value".to_string())?
            }
            "--corpus-size" | "--corpus-sizes" => {
                corpus_sizes = flag_value(args, &mut i, "--corpus-size")?
                    .split(',')
                    .map(parse_size)
                    .collect::<Result<Vec<_>, _>>()?;
                if corpus_sizes.is_empty() {
                    return Err("--corpus-size needs at least one size".to_string());
                }
            }
            "--reps" => {
                reps = flag_value(args, &mut i, "--reps")?
                    .parse()
                    .map_err(|_| "invalid --reps value".to_string())?
            }
            "--assert-scaling" => assert_scaling = true,
            "--shards" => {
                shard_counts = flag_value(args, &mut i, "--shards")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("invalid shard count '{s}'"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if shard_counts.is_empty() {
                    return Err("--shards needs at least one count".to_string());
                }
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag '{other}'\n{USAGE}"));
            }
            other => source = other.to_string(),
        }
        i += 1;
    }
    if demo_size == 0 {
        demo_size = if smoke { 60 } else { 250 };
    }
    if queries == 0 {
        queries = if smoke { 12 } else { 48 };
    }
    if churn_ops == 0 {
        churn_ops = if smoke { 20 } else { 80 };
    }
    if !corpus_sizes.is_empty() && source != "--demo" {
        return Err("--corpus-size sweeps the seeded demo corpus; it cannot resize a file".into());
    }
    Ok(Options {
        source,
        demo_size,
        queries,
        k,
        threads: threads.max(1),
        shard_counts,
        churn_ops,
        clients: clients.max(2),
        bench_json,
        smoke,
        corpus_sizes,
        reps: reps.max(1),
        assert_scaling,
    })
}

struct ShardRun {
    shards: usize,
    build_ms: f64,
    batch_ms: f64,
    queries_per_s: f64,
    identical: bool,
    scored: usize,
    pruned: usize,
}

/// One corpus size's q/s × shard-count scaling curve.
struct SizeCurve {
    corpus_size: usize,
    queries: usize,
    algorithm: String,
    baseline_ms: f64,
    runs: Vec<ShardRun>,
}

/// Runs the shard-count sweep for one workflow set: a single-corpus
/// indexed-engine baseline, then `ShardedCorpus::search_batch_with_stats`
/// per shard count — batch wall time the median of `reps`, pruning stats
/// folded from the workers of the final rep, and every hit list checked
/// bit-identical against the baseline.
fn sweep_shard_counts(workflows: &[Workflow], options: &Options) -> SizeCurve {
    let config = SimilarityConfig::best_module_sets();
    let n = workflows.len();
    let single = Corpus::build(config.clone(), workflows.to_vec());
    let engine = single.search_engine();
    let query_ids: Vec<WorkflowId> = single
        .ids()
        .iter()
        .step_by((n / options.queries.min(n)).max(1))
        .take(options.queries)
        .cloned()
        .collect();
    let query_indices: Vec<usize> = query_ids
        .iter()
        .map(|id| single.index_of(id).expect("query resident"))
        .collect();
    let baseline_started = Instant::now();
    let baseline: Vec<Vec<wf_repo::SearchHit>> = query_indices
        .iter()
        .map(|&qi| engine.top_k(qi, options.k))
        .collect();
    let baseline_ms = baseline_started.elapsed().as_secs_f64() * 1e3;

    // Build every shard count up front, then time them in interleaved
    // rounds (one rep of each count per round) and take the per-count
    // median.  Timing each count's reps back-to-back instead would bias
    // the comparison: allocator and page-cache state drift over the
    // process lifetime, so whichever count runs first measures fastest —
    // an ordering artifact the round-robin spreads evenly.  The median
    // (not best-of) keeps one lucky scheduler slice from minting a ~5%
    // outlier on a curve whose truth is flat.
    let built: Vec<(usize, f64, ShardedCorpus)> = options
        .shard_counts
        .iter()
        .map(|&shards| {
            let build_started = Instant::now();
            let sharded = ShardedCorpus::build(config.clone(), shards, workflows.to_vec());
            (shards, build_started.elapsed().as_secs_f64() * 1e3, sharded)
        })
        .collect();
    let mut rep_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(options.reps); built.len()];
    let mut outcomes = Vec::new();
    for rep in 0..options.reps {
        for (slot, (_, _, sharded)) in built.iter().enumerate() {
            let batch_started = Instant::now();
            let (batch, stats) =
                sharded.search_batch_with_stats(&query_ids, options.k, options.threads);
            rep_ms[slot].push(batch_started.elapsed().as_secs_f64() * 1e3);
            if rep == 0 {
                outcomes.push((batch, stats));
            }
        }
    }
    let mut runs: Vec<ShardRun> = Vec::new();
    for (slot, (shards, build_ms, _)) in built.iter().enumerate() {
        let times = &mut rep_ms[slot];
        times.sort_by(|a, b| a.partial_cmp(b).expect("batch timings are finite"));
        let median_ms = times[times.len() / 2];
        let (batch, stats) = &outcomes[slot];
        let identical = batch
            .iter()
            .zip(&baseline)
            .all(|(got, expected)| got.as_deref() == Some(expected.as_slice()));
        runs.push(ShardRun {
            shards: *shards,
            build_ms: *build_ms,
            batch_ms: median_ms,
            queries_per_s: query_ids.len() as f64 / (median_ms / 1e3).max(1e-9),
            identical,
            scored: stats.scored,
            pruned: stats.pruned + stats.zero_bound,
        });
    }
    SizeCurve {
        corpus_size: n,
        queries: query_ids.len(),
        algorithm: single.measure_name(),
        baseline_ms,
        runs,
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_options(&args)?;
    let config = SimilarityConfig::best_module_sets();
    let workflows = wf_bench::load_workflows(&options.source, options.demo_size)?;
    let n = workflows.len();
    if n < 2 {
        return Err("serving benchmark needs at least two workflows".to_string());
    }

    // Scaling curves: the loaded corpus alone, or one seeded demo corpus
    // per `--corpus-size` entry, each swept across every shard count.
    let mut curves: Vec<SizeCurve> = Vec::new();
    if options.corpus_sizes.is_empty() {
        curves.push(sweep_shard_counts(&workflows, &options));
    } else {
        for &size in &options.corpus_sizes {
            let sized = if size == n {
                workflows.clone()
            } else {
                wf_bench::demo_workflows(size, wf_bench::corpus::DEMO_SEED)
            };
            curves.push(sweep_shard_counts(&sized, &options));
        }
    }
    // The largest corpus carries the headline scaling claim.
    let headline = curves
        .iter()
        .max_by_key(|c| c.corpus_size)
        .expect("at least one curve");

    let query_ids: Vec<WorkflowId> = workflows
        .iter()
        .map(|w| w.id.clone())
        .step_by((n / options.queries.min(n)).max(1))
        .take(options.queries)
        .collect();

    // Churn-while-query: the largest shard count behind RwLocks, one churn
    // thread cycling removals and re-additions while query workers run.
    let max_shards = options.shard_counts.iter().copied().max().unwrap_or(1);
    let service = Arc::new(
        CorpusService::new(ShardedCorpus::build(
            config.clone(),
            max_shards,
            workflows.clone(),
        ))
        .with_threads(options.threads),
    );
    let churn_pool: Vec<WorkflowId> = workflows
        .iter()
        .map(|w| w.id.clone())
        .filter(|id| !query_ids.contains(id))
        .collect();
    // The query side answers a fixed number of individually-timed queries
    // (so the phase can report true per-query p50/p95/p99, not per-batch
    // walls); the churn thread keeps removing and re-adding workflows
    // (through the per-shard write locks) and stops the moment the query
    // workers finish, so every counted churn op genuinely overlapped the
    // counted queries (`--churn-ops` only paces how many queries run).
    let total_churn_queries = options.churn_ops.div_ceil(10).max(3) * query_ids.len();
    let churn_latency = LatencyHistogram::new();
    let queries_done = AtomicBool::new(false);
    let query_cursor = AtomicUsize::new(0);
    let churn_started = Instant::now();
    let (queries_under_churn, churn_ops_done) = std::thread::scope(|scope| {
        let service = &service;
        let queries_done = &queries_done;
        let query_cursor = &query_cursor;
        let churn_latency = &churn_latency;
        let query_ids = &query_ids;
        let churner = scope.spawn(|| {
            let mut done = 0usize;
            for id in churn_pool.iter().cycle() {
                // ordering: Acquire — pairs with the Release store below
                // so the churner's final op count happens-after every
                // counted query; Relaxed could let the loop observe the
                // flag late and overshoot the measured window.
                if queries_done.load(Ordering::Acquire) {
                    break;
                }
                // Remove and re-add so the corpus size stays stable.
                if let Some(wf) = service.remove(id) {
                    done += 1;
                    service.add(wf);
                    done += 1;
                }
            }
            done
        });
        let workers: Vec<_> = (0..options.threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut served = 0usize;
                    loop {
                        // ordering: Relaxed — the cursor is a work ticket
                        // dispenser; fetch_add is already atomic and no
                        // other memory is published through it.
                        let i = query_cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= total_churn_queries {
                            break;
                        }
                        let id = &query_ids[i % query_ids.len()];
                        let started = Instant::now();
                        if service.search(id, options.k).is_some() {
                            churn_latency.record(started.elapsed());
                            served += 1;
                        }
                    }
                    served
                })
            })
            .collect();
        let served: usize = workers
            .into_iter()
            .map(|w| w.join().expect("query worker panicked"))
            .sum();
        // ordering: Release — publishes "all counted queries issued" to
        // the churner's Acquire load above, closing the measured window.
        queries_done.store(true, Ordering::Release);
        (served, churner.join().expect("churn thread panicked"))
    });
    let churn_ms = churn_started.elapsed().as_secs_f64() * 1e3;
    let churn_qps = queries_under_churn as f64 / (churn_ms / 1e3).max(1e-9);
    let churn_lat = churn_latency.snapshot();

    // Network serving: the same service behind the wf-serve TCP front end,
    // hammered by concurrent retrying clients over real loopback sockets.
    // Most clients query; every eighth churns over the wire, so the
    // measured quantiles include add/remove write-lock interference plus
    // framing, syscalls and client retries.
    let server = Server::start(
        Arc::clone(&service),
        ServerConfig {
            workers: options.threads,
            ..ServerConfig::default()
        },
        None,
    )
    .map_err(|e| format!("cannot start loopback server: {e}"))?;
    let addr = server.addr();
    let workflow_by_id: std::collections::BTreeMap<WorkflowId, Workflow> = workflows
        .iter()
        .map(|w| (w.id.clone(), w.clone()))
        .collect();
    let net_queries_per_client = if options.smoke { 6 } else { 40 };
    let net_started = Instant::now();
    let (net_ok, net_degraded, net_errors, net_churn_ops, net_retries, net_latency) =
        std::thread::scope(|scope| {
            let query_ids = &query_ids;
            let churn_pool = &churn_pool;
            let workflow_by_id = &workflow_by_id;
            let net_latency = Arc::new(LatencyHistogram::new());
            let handles: Vec<_> = (0..options.clients)
                .map(|c| {
                    let latency = Arc::clone(&net_latency);
                    scope.spawn(move || {
                        let mut client = Client::new(
                            addr,
                            ClientConfig {
                                seed: 0xC0FFEE + c as u64,
                                ..ClientConfig::default()
                            },
                        );
                        let (mut ok, mut degraded, mut errors, mut churned) =
                            (0u64, 0u64, 0u64, 0u64);
                        if c % 8 == 7 && !churn_pool.is_empty() {
                            // Wire churner: remove and re-add its slice of
                            // the pool through the framed protocol.
                            for step in 0..net_queries_per_client {
                                let id =
                                    &churn_pool[(c + step * options.clients) % churn_pool.len()];
                                let wf = &workflow_by_id[id];
                                match (client.remove(id.as_str()), client.add(wf)) {
                                    (Ok(true), Ok(_)) => churned += 2,
                                    (Ok(false), Ok(_)) => churned += 1,
                                    _ => errors += 1,
                                }
                            }
                        } else {
                            for step in 0..net_queries_per_client {
                                let id = &query_ids[(c + step * options.clients) % query_ids.len()];
                                let started = Instant::now();
                                match client.search(id.as_str(), options.k as u32, 0) {
                                    Ok(outcome) => {
                                        latency.record(started.elapsed());
                                        ok += 1;
                                        if outcome.degraded {
                                            degraded += 1;
                                        }
                                    }
                                    Err(_) => errors += 1,
                                }
                            }
                        }
                        (ok, degraded, errors, churned, client.retries())
                    })
                })
                .collect();
            let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64);
            for handle in handles {
                let (ok, degraded, errors, churned, retries) =
                    handle.join().expect("network client panicked");
                totals.0 += ok;
                totals.1 += degraded;
                totals.2 += errors;
                totals.3 += churned;
                totals.4 += retries;
            }
            let lat = net_latency.snapshot();
            (totals.0, totals.1, totals.2, totals.3, totals.4, lat)
        });
    let net_ms = net_started.elapsed().as_secs_f64() * 1e3;
    let net_qps = net_ok as f64 / (net_ms / 1e3).max(1e-9);
    let server_stats: StatsSnapshot = server.metrics();
    server.shutdown();

    // Human-readable summary.
    println!(
        "serving benchmark ({}, top-{}, {} threads, median of {} reps):",
        headline.algorithm, options.k, options.threads, options.reps
    );
    let mut table = TextTable::new(vec![
        "corpus",
        "shards",
        "build ms",
        "batch ms",
        "queries/s",
        "identical",
        "scored",
        "pruned",
    ]);
    for curve in &curves {
        println!(
            "  corpus {}: {} queries, single-corpus baseline {:>8.1} ms",
            curve.corpus_size, curve.queries, curve.baseline_ms
        );
        for run in &curve.runs {
            table.row(vec![
                curve.corpus_size.to_string(),
                run.shards.to_string(),
                format!("{:.1}", run.build_ms),
                format!("{:.1}", run.batch_ms),
                format!("{:.0}", run.queries_per_s),
                run.identical.to_string(),
                run.scored.to_string(),
                run.pruned.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "  churn: {churn_ops_done} ops on {max_shards} shards in {churn_ms:.1} ms, \
         {queries_under_churn} queries answered concurrently ({churn_qps:.0} queries/s, \
         p50 {} us, p95 {} us, p99 {} us)",
        churn_lat.quantile_us(0.50),
        churn_lat.quantile_us(0.95),
        churn_lat.quantile_us(0.99),
    );
    println!(
        "  network: {} clients on {addr} — {net_ok} queries ok ({net_degraded} degraded, \
         {net_errors} errors, {net_churn_ops} wire churn ops, {net_retries} retries) in \
         {net_ms:.1} ms = {net_qps:.0} queries/s; client p50 {} us, p95 {} us, p99 {} us; \
         server shed {} of {} requests",
        options.clients,
        net_latency.quantile_us(0.50),
        net_latency.quantile_us(0.95),
        net_latency.quantile_us(0.99),
        server_stats.shed,
        server_stats.requests,
    );

    if let Some(path) = &options.bench_json {
        let shard_reports = |runs: &[ShardRun], indent: &str| -> String {
            runs.iter()
                .map(|run| {
                    format!(
                        "{indent}{{\"shards\": {}, \"build_ms\": {:.3}, \"batch_wall_ms\": {:.3}, \
                         \"queries_per_s\": {:.1}, \"identical_hits\": {}, \
                         \"comparisons_scored\": {}, \"comparisons_pruned\": {}}}",
                        run.shards,
                        run.build_ms,
                        run.batch_ms,
                        run.queries_per_s,
                        run.identical,
                        run.scored,
                        run.pruned,
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let scale_curves: Vec<String> = curves
            .iter()
            .map(|curve| {
                format!(
                    "    {{\"corpus_size\": {}, \"queries\": {}, \
                     \"single_engine_wall_ms\": {:.3}, \"shard_counts\": [\n{}\n    ]}}",
                    curve.corpus_size,
                    curve.queries,
                    curve.baseline_ms,
                    shard_reports(&curve.runs, "      "),
                )
            })
            .collect();
        let report = format!(
            "{{\n  \"experiment\": \"serving_scatter_gather\",\n  \"corpus\": \"{}\",\n  \
             \"corpus_size\": {},\n  \"queries\": {},\n  \"k\": {},\n  \
             \"algorithm\": \"{}\",\n  \"threads\": {},\n  \
             \"available_parallelism\": {},\n  \"smoke\": {},\n  \"reps\": {},\n  \
             \"single_engine_wall_ms\": {:.3},\n  \"shard_counts\": [\n{}\n  ],\n  \
             \"scale_curves\": [\n{}\n  ],\n  \
             \"churn\": {{\"shards\": {}, \"ops\": {}, \"wall_ms\": {:.3}, \
             \"queries_completed\": {}, \"queries_per_s\": {:.1}, \"final_size\": {}, \
             \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}},\n  \
             \"network_serving\": {{\"clients\": {}, \"queries_per_client\": {}, \
             \"queries_ok\": {}, \"degraded\": {}, \"errors\": {}, \
             \"wire_churn_ops\": {}, \"client_retries\": {}, \"wall_ms\": {:.3}, \
             \"queries_per_s\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"server\": {{\"requests\": {}, \"responses_ok\": {}, \"shed\": {}, \
             \"degraded\": {}, \"bad_frames\": {}, \"search_p50_us\": {}, \
             \"search_p95_us\": {}, \"search_p99_us\": {}}}}}\n}}\n",
            wf_bench::json_escape(&options.source),
            headline.corpus_size,
            headline.queries,
            options.k,
            headline.algorithm,
            options.threads,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            options.smoke,
            options.reps,
            headline.baseline_ms,
            shard_reports(&headline.runs, "    "),
            scale_curves.join(",\n"),
            max_shards,
            churn_ops_done,
            churn_ms,
            queries_under_churn,
            churn_qps,
            service.len(),
            churn_lat.quantile_us(0.50),
            churn_lat.quantile_us(0.95),
            churn_lat.quantile_us(0.99),
            options.clients,
            net_queries_per_client,
            net_ok,
            net_degraded,
            net_errors,
            net_churn_ops,
            net_retries,
            net_ms,
            net_qps,
            net_latency.quantile_us(0.50),
            net_latency.quantile_us(0.95),
            net_latency.quantile_us(0.99),
            server_stats.requests,
            server_stats.responses_ok,
            server_stats.shed,
            server_stats.degraded,
            server_stats.bad_frames,
            server_stats.search_p50_us,
            server_stats.search_p95_us,
            server_stats.search_p99_us,
        );
        std::fs::write(path, &report).map_err(|e| format!("cannot write '{path}': {e}"))?;
        println!("  report -> {path}");
    }

    for curve in &curves {
        if let Some(diverged) = curve.runs.iter().find(|run| !run.identical) {
            return Err(format!(
                "sharded batch hits diverged from the single-corpus engine at {} shards \
                 (corpus {}) — this is a bug",
                diverged.shards, curve.corpus_size
            ));
        }
    }
    if options.assert_scaling {
        let (first, last) = (
            headline.runs.first().expect("non-empty shard list"),
            headline.runs.last().expect("non-empty shard list"),
        );
        // Regression guard, not a speed-up claim: with the global frontier
        // the per-query scan work is identical at every shard count, so the
        // truthful batch-throughput curve is flat.  The guard fails only on
        // a real degradation (the old per-shard-heap design lost >4× here),
        // with a 15% allowance for scheduler/allocator noise — on a
        // one-core runner the multi-shard walk pays a few percent of
        // memory-locality tax that parallel hardware hides, and run-to-run
        // jitter on shared runners spans ±10% on its own.
        if last.queries_per_s < first.queries_per_s * 0.85 {
            return Err(format!(
                "scaling regression on the {}-workflow corpus: {} shards answered \
                 {:.0} queries/s but {} shards only {:.0} — the global frontier must \
                 keep batch throughput from degrading as shards grow",
                headline.corpus_size,
                first.shards,
                first.queries_per_s,
                last.shards,
                last.queries_per_s
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
