//! perfbench — the end-to-end and per-layer benchmark of workflow
//! similarity search.
//!
//! Two seeded workloads drive the engine only through its public APIs
//! (`wf-serve` `Client`/`Server`, `wf_sim::{CorpusService, ShardedCorpus,
//! ProfiledMeasure}`, the `wf_repo` index functions):
//!
//! * `interactive-ms-20k` — Module Sets over 20 000 workflows in 4 shards
//!   behind a loopback server: an open loop of seeded Poisson arrivals at
//!   the offered rate (10% writes), whose searches give the search latency
//!   percentiles, a phase of writes alone for the write latency, then a
//!   closed loop of the open loop's mix measuring capacity;
//! * `batch-ps-10k` — Path Sets over 10 000 workflows in 1 shard, searched
//!   in-process on 2 threads (scoring-bound: Path Sets has no bound), then
//!   an in-process write phase.
//!
//! The untraced binary reports the end-to-end metrics; the traced binary
//! (`perfbench-trace`, built with a counting allocator) replays each
//! workload's queries layer by layer and reports per-layer self times and
//! counts.  Every run checks its hits against in-process results and a
//! brute-force oracle; a divergence fails the run.
//!
//! Design rules that keep the figures steady on a small shared host:
//!
//! * the corpus is the same in every run ([`CORPUS_SEED`]); the seed picks
//!   the traffic;
//! * no throughput is pinned by an offered rate — capacity always comes
//!   from a closed loop;
//! * no timed metric but `setup_s` is a single sub-second event — each
//!   aggregates a window of seconds, and `setup_s` is the median of
//!   repeated set-ups;
//! * memory is read after the single-threaded builds and before any
//!   thread starts, never after a multi-threaded phase;
//! * each latency percentile comes from one phase, never from phases whose
//!   mix would move with the host's speed;
//! * the load threads and the server's workers are pinned to distinct CPUs
//!   ([`affinity`]), and times are reported at a reference host speed
//!   measured by kernels the benchmark owns ([`calibrate`]): a compute
//!   chain plus a memory walk between segments of each phase, and a
//!   memory-bound kernel timed before each write.

#![deny(unsafe_code)]

pub mod affinity;
pub mod alloc;
pub mod calibrate;
pub mod trace;
pub mod workloads;

use std::collections::BTreeSet;
use std::time::Duration;

use wf_model::{Workflow, WorkflowId};
use wf_repo::{scan_top_k, SearchHit, SearchStats};
use wf_serve::Hit;
use wf_sim::{Corpus, ShardedCorpus, SimilarityConfig};

/// Hits per search.
pub const K: usize = 10;
/// Load threads and connections per workload (the host has 2 cores).
pub const LOAD_THREADS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Queries per run checked against the brute-force `scan_top_k` oracle.
pub const ORACLE_QUERIES: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InteractiveMs20k,
    BatchPs10k,
}

/// The similarity measure a workload searches with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    ModuleSets,
    PathSets,
}

impl Scheme {
    pub fn config(self) -> SimilarityConfig {
        match self {
            Scheme::ModuleSets => SimilarityConfig::best_module_sets(),
            Scheme::PathSets => SimilarityConfig::best_path_sets(),
        }
    }
}

/// The fixed shape of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub corpus_size: usize,
    pub shards: usize,
    pub scheme: Scheme,
    /// Size of the seeded query sample.
    pub queries: usize,
    /// Queries the traced run replays (a fixed count, so its counts repeat
    /// exactly).
    pub trace_queries: usize,
    /// Distinct workflows the writes remove and re-add.
    pub write_ids: usize,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::InteractiveMs20k, Workload::BatchPs10k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InteractiveMs20k => "interactive-ms-20k",
            Workload::BatchPs10k => "batch-ps-10k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::InteractiveMs20k => Spec {
                workload: self,
                corpus_size: 20_000,
                shards: 4,
                scheme: Scheme::ModuleSets,
                queries: 128,
                trace_queries: 48,
                write_ids: 4096,
            },
            Workload::BatchPs10k => Spec {
                workload: self,
                corpus_size: 10_000,
                shards: 1,
                scheme: Scheme::PathSets,
                queries: 160,
                trace_queries: 12,
                write_ids: 4096,
            },
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The open loop's offered rate (operations per second).
    pub offered_rate_qps: f64,
}

pub const USAGE: &str = "usage: perfbench --offered-rate-qps R --workload \
{interactive-ms-20k|batch-ps-10k} --seed N --seconds S --trace {0|1}";

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut rate) =
            (None, None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            let bad = |what: &str| format!("bad {what}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                        return Err(bad("seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                "--offered-rate-qps" => {
                    let r = value.parse::<f64>().map_err(|_| bad("offered rate"))?;
                    if !(r.is_finite() && r > 0.0 && r <= 10_000.0) {
                        return Err(bad("offered rate"));
                    }
                    rate = Some(r);
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            offered_rate_qps: rate.ok_or("--offered-rate-qps is required")?,
        })
    }
}

/// A small deterministic generator (SplitMix64): the benchmark's inputs
/// depend on the seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Stream tags keeping the seed's uses independent.
pub const STREAM_QUERIES: u64 = 1;
pub const STREAM_WRITES: u64 = 2;
pub const STREAM_SCHEDULE: u64 = 3;
/// Closed-loop connection `c` draws from stream `STREAM_MIXED + c`.
pub const STREAM_MIXED: u64 = 16;

/// Nearest-rank quantile of `values` (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// True when two hit lists agree exactly: ids, score bits and order.
pub fn same_hits(a: &[SearchHit], b: &[SearchHit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.score.to_bits() == y.score.to_bits())
}

/// [`same_hits`] for hits that came back over the wire.
pub fn same_wire_hits(wire: &[Hit], expected: &[SearchHit]) -> bool {
    wire.len() == expected.len()
        && wire
            .iter()
            .zip(expected)
            .all(|(x, y)| x.id == y.id.as_str() && x.score.to_bits() == y.score.to_bits())
}

/// The corpus is the repository being searched: the same demo corpus in
/// every run, as a deployment's repository is, while the seed picks the
/// traffic — the queries, the arrivals and the writes.  With a corpus
/// drawn from the seed, the write and set-up figures moved with the seed
/// itself: over ten seeds the interactive write medians spread 0.24 of
/// their median between the quartiles, and re-running two seeds kept the
/// 1.4x gap between them.
pub const CORPUS_SEED: u64 = wf_bench::corpus::DEMO_SEED;

/// The corpus, its sharded build and the set-up measurements.
pub struct Fixture {
    pub spec: Spec,
    pub workflows: Vec<Workflow>,
    pub sharded: ShardedCorpus,
    /// Median wall time of one `ShardedCorpus::build`.
    pub build_s: f64,
    /// `VmHWM` after the builds, before any thread starts.
    pub rss_mb: f64,
    /// The seeded query sample (distinct resident ids).
    pub queries: Vec<WorkflowId>,
}

/// Generates the corpus and builds it `reps` times on the calling
/// thread, keeping the last build.  Memory is read here, before the
/// caller starts any thread.
pub fn build_fixture(spec: Spec, seed: u64, reps: usize) -> Fixture {
    let workflows = wf_bench::demo_workflows(spec.corpus_size, CORPUS_SEED);
    let mut times = Vec::with_capacity(reps);
    let mut sharded = None;
    for _ in 0..reps.max(1) {
        let input = workflows.clone();
        drop(sharded.take());
        let start = std::time::Instant::now();
        let built = ShardedCorpus::build(spec.scheme.config(), spec.shards, input);
        times.push(start.elapsed().as_secs_f64());
        sharded = Some(built);
    }
    let rss_mb = peak_rss_mb();
    let sharded = sharded.expect("at least one build");
    let mut ids = sharded.ids();
    ids.sort();
    let mut rng = Rng::new(seed, STREAM_QUERIES);
    rng.shuffle(&mut ids);
    ids.truncate(spec.queries.min(ids.len()));
    Fixture {
        spec,
        workflows,
        sharded,
        build_s: median(&times),
        rss_mb,
        queries: ids,
    }
}

/// In-process hits of every query on the quiescent corpus, plus the
/// summed `SearchStats` — exact counts that repeat for a seed.
pub struct Reference {
    pub hits: Vec<Vec<SearchHit>>,
    pub stats: SearchStats,
}

pub fn reference(sharded: &ShardedCorpus, queries: &[WorkflowId]) -> Reference {
    let mut stats = SearchStats::default();
    let hits = queries
        .iter()
        .map(|q| {
            let (hits, s) = sharded
                .search_with_stats(q, K)
                .expect("sampled queries are resident");
            stats.merge(&s);
            hits
        })
        .collect();
    Reference { hits, stats }
}

/// The summed `SearchStats` of `queries` in-process searches on the
/// corpus of `spec` — the count the benchmark's own test pins.
pub fn search_stats_totals(spec: Spec, seed: u64) -> SearchStats {
    let fixture = build_fixture(spec, seed, 1);
    reference(&fixture.sharded, &fixture.queries).stats
}

/// Checks `(query, hits)` pairs against the brute-force `scan_top_k`
/// oracle on one unsharded `Corpus`; returns the number that diverge.
pub fn oracle_mismatches(
    workflows: &[Workflow],
    config: SimilarityConfig,
    checks: &[(&WorkflowId, &[SearchHit])],
) -> usize {
    let corpus = Corpus::build(config, workflows.to_vec());
    checks
        .iter()
        .filter(|(query, hits)| match corpus.index_of(query) {
            Some(index) => !same_hits(&scan_top_k(corpus.measure(), index, K), hits),
            None => true,
        })
        .count()
}

/// A seeded sample of workflows to remove and re-add: never a query, and
/// never in any query's reference top-k, so writes leave every expected
/// hit list unchanged while they run.
pub fn write_set(
    sharded: &ShardedCorpus,
    queries: &[WorkflowId],
    hits: &[Vec<SearchHit>],
    count: usize,
    seed: u64,
) -> Vec<Workflow> {
    let mut excluded: BTreeSet<&WorkflowId> = queries.iter().collect();
    excluded.extend(hits.iter().flatten().map(|h| &h.id));
    let mut ids: Vec<WorkflowId> = sharded
        .ids()
        .into_iter()
        .filter(|id| !excluded.contains(id))
        .collect();
    ids.sort();
    let mut rng = Rng::new(seed, STREAM_WRITES);
    rng.shuffle(&mut ids);
    ids.truncate(count);
    ids.iter()
        .map(|id| sharded.get(id).expect("resident").clone())
        .collect()
}

/// Sorted resident ids, for the after-writes identity check.
pub fn sorted_ids(sharded: &ShardedCorpus) -> Vec<WorkflowId> {
    let mut ids = sharded.ids();
    ids.sort();
    ids
}

/// Checks passed against checks attempted; a failed check is logged.
#[derive(Debug, Default)]
pub struct Tally {
    pub ok: u64,
    pub attempted: u64,
}

impl Tally {
    pub fn check(&mut self, passed: bool, what: &str) {
        self.attempted += 1;
        if passed {
            self.ok += 1;
        } else {
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A run's result: the verdict, the operation counts, the metrics, and a
/// record (host, inputs, exact counters) printed on the line before it.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub record: Vec<(&'static str, String)>,
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values cannot be reported).
fn json_num(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v:?}"))
}

pub fn stats_json(stats: &SearchStats) -> String {
    format!(
        "{{\"candidates\": {}, \"scored\": {}, \"pruned\": {}, \"zero_bound\": {}, \
\"shared_token_candidates\": {}, \"abandoned\": {}, \"cancelled\": {}}}",
        stats.candidates,
        stats.scored,
        stats.pruned,
        stats.zero_bound,
        stats.shared_token_candidates,
        stats.abandoned,
        stats.cancelled
    )
}

/// The host facts every result carries.
pub fn host_record(args: &Args) -> Vec<(&'static str, String)> {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", format!("{:?}", args.seconds)),
        ("trace", args.trace.to_string()),
        ("offered_rate_qps", format!("{:?}", args.offered_rate_qps)),
        ("available_parallelism", parallelism.to_string()),
        ("rustc", json_str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("cpu_model", json_str(&cpu)),
    ]
}

impl Report {
    /// Prints the record line and then the result object as the last line
    /// of standard output.  A metric that is not a finite number makes the
    /// run incorrect.
    pub fn print(mut self) -> bool {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            match json_num(m.value) {
                Some(v) => metrics.push(format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(m.name),
                    json_str(m.unit)
                )),
                None => {
                    eprintln!("perfbench: metric {} is not finite", m.name);
                    self.correct = false;
                    metrics.push(format!(
                        "{}: {{\"value\": 0, \"unit\": {}}}",
                        json_str(m.name),
                        json_str(m.unit)
                    ));
                }
            }
        }
        let record: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        println!("{{\"record\": {{{}}}}}", record.join(", "));
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        self.correct
    }
}

/// Runs one workload as the arguments say.  `counting_alloc` is true only
/// in the binary whose global allocator counts bytes, which the traced run
/// needs.
pub fn run(args: &Args, counting_alloc: bool) -> Result<Report, String> {
    let spec = args.workload.spec();
    let mut report = if args.trace {
        if !counting_alloc {
            return Err("--trace 1 runs in the perfbench-trace binary".to_owned());
        }
        trace::traced(args, spec)?
    } else {
        workloads::run(args, spec)?
    };
    let mut record = host_record(args);
    record.append(&mut report.record);
    report.record = record;
    Ok(report)
}

/// The shared `main` of both binaries.
pub fn main_with(counting_alloc: bool) -> std::process::ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return std::process::ExitCode::from(2);
        }
    };
    match run(&args, counting_alloc) {
        Ok(report) => {
            if report.print() {
                std::process::ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output check failed");
                std::process::ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
