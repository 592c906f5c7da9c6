//! The untraced end-to-end runs of the two workloads.
//!
//! Every timed metric aggregates a window of many seconds: on a 2-vCPU
//! virtual machine single sub-second events drift by ±12–18%.  Each
//! latency percentile comes from one phase's operations, never from a mix
//! of phases whose proportions would move with the host's speed.  An
//! untimed warm-up runs first, and the run's times are reported at the
//! reference host speed (see [`crate::calibrate`]).  Memory is read once,
//! after the single-threaded builds and before any thread starts.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wf_model::{Workflow, WorkflowId};
use wf_repo::{SearchHit, SearchStats};
use wf_serve::{Client, Server, ServerConfig, ServerHandle, StatsSnapshot};
use wf_sim::{CorpusService, ShardedCorpus};

use crate::affinity::{pin_current, pin_named};
use crate::calibrate::{
    Calibration, ChaseKernel, MemoryKernel, CHASE_REFERENCE_MS, MEMORY_REFERENCE_MS,
};
use crate::{
    build_fixture, median, metric, ms, oracle_mismatches, quantile, reference, same_hits,
    same_wire_hits, sorted_ids, stats_json, write_set, Args, Fixture, Metric, Report, Rng, Spec,
    Tally, Workload, K, LOAD_THREADS, ORACLE_QUERIES, SETUP_REPS, STREAM_MIXED, STREAM_SCHEDULE,
};

/// Share of writes in the interactive mix (open and closed loop).
const WRITE_SHARE: f64 = 0.1;
/// Seconds of untimed searching before the timed phases.
const WARMUP_S: f64 = 2.0;
/// Shares of the interactive window given to the open loop and to the
/// write phase; the closed loop gets the rest.  Open-loop latency
/// percentiles are the noisier figures, so they get the larger sample.
const OPEN_LOOP_SHARE: f64 = 0.7;
const WRITE_PHASE_SHARE: f64 = 0.1;
/// Untimed seconds of writes before a write phase.
const WRITE_WARMUP_S: f64 = 0.5;
/// Writes per block scaled by one median of kernel passes.
const WRITE_BLOCK: usize = 10;
/// The tail quantile of search latency.  A 95th percentile of the open
/// loop's few hundred searches rests on its slowest twentieth, so one host
/// stall in a run moves it: over five seeded runs on a 2-vCPU host its
/// spread between the quartiles reached 0.47 of the median.  The 90th has
/// twice the samples beyond it and, resampled within a run, half the
/// error.
const SEARCH_TAIL: f64 = 0.9;

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A search for the query at this index of the sample.
    Search(usize),
    /// A remove plus re-add of the next workflow of the write set.
    Write,
}

/// What one timed operation measured.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub op: Op,
    /// From when the operation was due to when it completed.
    pub latency_ms: f64,
    /// How late the load generator sent it.
    pub late_ms: f64,
    /// From when it was sent to when it completed.
    pub service_ms: f64,
    pub ok: bool,
}

impl Outcome {
    pub fn is_search(&self) -> bool {
        matches!(self.op, Op::Search(_))
    }
}

/// The inputs of the wire operations and their expected results.
pub struct WireCtx<'a> {
    pub queries: &'a [WorkflowId],
    pub expected: &'a [Vec<SearchHit>],
    /// The write set, large enough that a run never writes a workflow
    /// twice: every remove then starts from the workflow's place in the
    /// initial build, not from the end its last re-add put it at.
    pub writes: &'a [Workflow],
    /// The rotation through the write set, shared by every phase and
    /// connection.
    pub next_write: AtomicUsize,
}

/// Runs one operation over a connection; true when it succeeded, was not
/// degraded and returned exactly the expected hits.
pub fn wire_op(client: &mut Client, op: Op, ctx: &WireCtx<'_>) -> bool {
    match op {
        Op::Search(qi) => match client.search(ctx.queries[qi].as_str(), K as u32, 0) {
            Ok(out) => {
                let ok = !out.degraded && same_wire_hits(&out.hits, &ctx.expected[qi]);
                if !ok {
                    eprintln!("perfbench: wire hits diverge for {}", ctx.queries[qi]);
                }
                ok
            }
            Err(e) => {
                eprintln!("perfbench: search {} failed: {e}", ctx.queries[qi]);
                false
            }
        },
        Op::Write => {
            // ordering: Relaxed — a rotation counter only.
            let wi = ctx.next_write.fetch_add(1, Ordering::Relaxed);
            let wf = &ctx.writes[wi % ctx.writes.len()];
            let removed = matches!(client.remove(wf.id.as_str()), Ok(true));
            let added = client.add(wf).is_ok();
            if !(removed && added) {
                eprintln!("perfbench: write of {} failed", wf.id);
            }
            removed && added
        }
    }
}

/// The name the server's worker threads run under (truncated, as the
/// kernel keeps it).
const WORKER_THREAD: &str = "wf-serve-worker";

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: LOAD_THREADS,
        ..ServerConfig::default()
    }
}

/// A corpus service behind a running loopback server.
pub struct Serving {
    pub service: Arc<CorpusService>,
    pub server: ServerHandle,
    /// Median wall time of wrapping the corpus and starting the server.
    pub start_s: f64,
}

impl Serving {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Wraps the corpus in a `CorpusService` and starts a server `reps`
    /// times, keeping the last one running.
    pub fn start(sharded: ShardedCorpus, reps: usize) -> Result<Serving, String> {
        let mut sharded = Some(sharded);
        let mut times = Vec::with_capacity(reps);
        loop {
            let start = Instant::now();
            let service = Arc::new(CorpusService::new(
                sharded.take().expect("corpus returned by the last rep"),
            ));
            let server = Server::start(Arc::clone(&service), server_config(), None)
                .map_err(|e| format!("server start: {e}"))?;
            times.push(start.elapsed().as_secs_f64());
            if times.len() >= reps {
                pin_named(WORKER_THREAD);
                return Ok(Serving {
                    service,
                    server,
                    start_s: median(&times),
                });
            }
            server.shutdown();
            let service = Arc::try_unwrap(service)
                .map_err(|_| "service still shared after shutdown".to_owned())?;
            sharded = Some(service.into_sharded());
        }
    }

    /// Stops the server and waits until every connection thread has let go
    /// of the service.  Clients must be dropped first.
    pub fn stop(self) -> Arc<CorpusService> {
        self.server.shutdown();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Arc::strong_count(&self.service) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.service
    }
}

/// True when the live service holds exactly the initial ids.
pub fn same_id_set(service: &CorpusService, initial: &[WorkflowId]) -> bool {
    service.len() == initial.len() && initial.iter().all(|id| service.contains(id))
}

/// A connection that has completed one round trip, so connecting is not
/// timed.
fn warm_client(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr);
    let _ = client.ping();
    client
}

/// Seeded Poisson arrivals at `rate` per second over `window` seconds;
/// each arrival is a write with probability [`WRITE_SHARE`], otherwise the
/// next query of the sample.
pub fn poisson_schedule(seed: u64, rate: f64, window: f64, queries: usize) -> Vec<(f64, Op)> {
    let mut rng = Rng::new(seed, STREAM_SCHEDULE);
    let (mut t, mut searches) = (0.0f64, 0usize);
    let mut schedule = Vec::new();
    loop {
        t += -rng.unit().ln() / rate;
        if t >= window {
            return schedule;
        }
        let op = if rng.unit() <= WRITE_SHARE {
            Op::Write
        } else {
            searches += 1;
            Op::Search((searches - 1) % queries)
        };
        schedule.push((t, op));
    }
}

/// Totals a load phase leaves behind.
#[derive(Default)]
pub struct Phase {
    pub outcomes: Vec<Outcome>,
    pub elapsed_s: f64,
    pub retries: u64,
}

/// An open loop: operations are sent at their scheduled instants over
/// [`LOAD_THREADS`] connections, each timed from when it was due, so a
/// stall also counts against the operations queued behind it.
pub fn open_loop(addr: SocketAddr, schedule: &[(f64, Op)], ctx: &WireCtx<'_>) -> Phase {
    let next = AtomicUsize::new(0);
    let clients: Vec<Client> = (0..LOAD_THREADS).map(|_| warm_client(addr)).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // ordering: Relaxed — a work ticket; the scope
                        // join publishes the results.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(due_s, op)) = schedule.get(i) else {
                            break;
                        };
                        let due = start + Duration::from_secs_f64(due_s);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let ok = wire_op(&mut client, op, ctx);
                        let done = Instant::now();
                        out.push(Outcome {
                            op,
                            latency_ms: ms(done - due),
                            late_ms: ms(sent.saturating_duration_since(due)),
                            service_ms: ms(done - sent),
                            ok,
                        });
                    }
                    (out, client.retries(), Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop thread panicked"))
            .collect::<Vec<_>>()
    });
    collect(parts, start)
}

/// Which operations a closed-loop connection sends back to back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Searcher,
    /// The open loop's mix: a write with probability [`WRITE_SHARE`].
    Mixed,
}

/// A closed loop: each connection sends its next operation as soon as the
/// previous one completes, until `window` seconds have passed.  Searches
/// take the next query of the rotation `next_query`, which the caller
/// keeps across segments; `segment` picks the connections' write draws.
/// Lateness is the generator's own gap between a reply and the next send.
pub fn closed_loop(
    addr: SocketAddr,
    roles: &[Role],
    window: f64,
    (seed, segment): (u64, usize),
    next_query: &AtomicUsize,
    ctx: &WireCtx<'_>,
) -> Phase {
    let clients: Vec<Client> = roles.iter().map(|_| warm_client(addr)).collect();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(window);
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(roles)
            .enumerate()
            .map(|(conn, (mut client, &role))| {
                let stream = STREAM_MIXED + (segment * roles.len() + conn) as u64;
                let mut rng = Rng::new(seed, stream);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut previous = Instant::now();
                    while Instant::now() < end {
                        let write = match role {
                            Role::Searcher => false,
                            Role::Mixed => rng.unit() <= WRITE_SHARE,
                        };
                        let op = if write {
                            Op::Write
                        } else {
                            // ordering: Relaxed — a rotation counter only.
                            Op::Search(
                                next_query.fetch_add(1, Ordering::Relaxed) % ctx.queries.len(),
                            )
                        };
                        let sent = Instant::now();
                        let ok = wire_op(&mut client, op, ctx);
                        let done = Instant::now();
                        out.push(Outcome {
                            op,
                            latency_ms: ms(done - sent),
                            late_ms: ms(sent - previous),
                            service_ms: ms(done - sent),
                            ok,
                        });
                        previous = done;
                    }
                    (out, client.retries(), Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect::<Vec<_>>()
    });
    collect(parts, start)
}

fn collect(parts: Vec<(Vec<Outcome>, u64, Instant)>, start: Instant) -> Phase {
    let mut phase = Phase::default();
    for (outcomes, retries, finished) in parts {
        phase.outcomes.extend(outcomes);
        phase.retries += retries;
        phase.elapsed_s = phase
            .elapsed_s
            .max(finished.saturating_duration_since(start).as_secs_f64());
    }
    phase
}

fn latencies(outcomes: &[Outcome], search: bool) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.is_search() == search)
        .map(|o| o.latency_ms)
        .collect()
}

/// A phase's timings, raw and at the reference host speed.
#[derive(Default)]
struct Timed {
    /// `(raw ms, scale)` of each search and each write.
    search: Vec<(f64, f64)>,
    write: Vec<(f64, f64)>,
    searches: usize,
    elapsed_s: f64,
    /// Seconds at the reference speed.
    reference_s: f64,
}

impl Timed {
    fn add(&mut self, search: bool, latency_ms: f64, scale: f64) {
        if search {
            self.search.push((latency_ms, scale));
        } else {
            self.write.push((latency_ms, scale));
        }
    }

    /// Adds a segment of wire operations and its scale.
    fn add_phase(&mut self, phase: &Phase, scale: f64) {
        for o in &phase.outcomes {
            self.add(o.is_search(), o.latency_ms, scale);
        }
        self.add_window(phase.elapsed_s, scale);
    }

    fn add_window(&mut self, elapsed_s: f64, scale: f64) {
        self.elapsed_s += elapsed_s;
        self.reference_s += elapsed_s * scale;
    }

    fn qps(&self, scaled: bool) -> f64 {
        self.searches as f64
            / if scaled {
                self.reference_s
            } else {
                self.elapsed_s
            }
    }
}

fn raw(samples: &[(f64, f64)]) -> Vec<f64> {
    samples.iter().map(|&(v, _)| v).collect()
}

fn scaled(samples: &[(f64, f64)]) -> Vec<f64> {
    samples.iter().map(|&(v, s)| v * s).collect()
}

/// Joins a phase's segments into one, for its checks and its record.
fn join(segments: Vec<(Phase, f64)>) -> (Phase, Timed) {
    let (mut phase, mut timed) = (Phase::default(), Timed::default());
    for (segment, scale) in segments {
        timed.add_phase(&segment, scale);
        phase.outcomes.extend(segment.outcomes);
        phase.elapsed_s += segment.elapsed_s;
        phase.retries += segment.retries;
    }
    timed.searches = timed.search.len();
    (phase, timed)
}

/// The end-to-end metrics every workload reports, in one order, at the
/// reference host speed.
struct EndToEnd {
    /// Raw set-up seconds and the scale measured right after them.
    setup: (f64, f64),
    rss_mb: f64,
    tally: Tally,
    /// The operations the latency percentiles come from.
    latency: Timed,
    /// The phase `saturated_qps` comes from.
    capacity: Timed,
    calibration: Calibration,
}

impl EndToEnd {
    fn metrics(&self) -> Vec<Metric> {
        let search = scaled(&self.latency.search);
        let (setup_s, setup_scale) = self.setup;
        vec![
            metric("setup_s", setup_s * setup_scale, "s"),
            metric("rss_mb", self.rss_mb, "MB"),
            metric(
                "ok_share",
                self.tally.ok as f64 / self.tally.attempted.max(1) as f64,
                "share",
            ),
            metric("search_p50_ms", median(&search), "ms"),
            metric("search_p90_ms", quantile(&search, SEARCH_TAIL), "ms"),
            metric("write_p50_ms", median(&scaled(&self.latency.write)), "ms"),
            metric("saturated_qps", self.capacity.qps(true), "1/s"),
        ]
    }

    /// The raw figures and the calibration, for the record line.
    fn raw_record(&self) -> (&'static str, String) {
        let search = raw(&self.latency.search);
        let passes = |values: &[f64]| -> String {
            let values: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
            values.join(", ")
        };
        (
            "raw",
            format!(
                "{{\"setup_s\": {:?}, \"search_samples\": {}, \"search_p50_ms\": {:?}, \
\"search_p90_ms\": {:?}, \"write_samples\": {}, \"write_p50_ms\": {:?}, \
\"saturated_qps\": {:?}, \"calibration_ms\": {:?}, \"compute_passes_ms\": [{}], \
\"memory_passes_ms\": [{}]}}",
                self.setup.0,
                search.len(),
                median(&search),
                quantile(&search, SEARCH_TAIL),
                self.latency.write.len(),
                median(&raw(&self.latency.write)),
                self.capacity.qps(false),
                self.calibration.ms(),
                passes(&self.calibration.compute_ms),
                passes(&self.calibration.memory_ms)
            ),
        )
    }

    fn report(self, mut record: Vec<(&'static str, String)>) -> Report {
        record.push(self.raw_record());
        Report {
            correct: self.tally.ok == self.tally.attempted,
            attempted: self.tally.attempted,
            failed: self.tally.attempted - self.tally.ok,
            metrics: self.metrics(),
            record,
        }
    }
}

/// Untraced run of one workload.
pub fn run(args: &Args, spec: Spec) -> Result<Report, String> {
    match spec.workload {
        Workload::InteractiveMs20k => interactive(args, spec),
        Workload::BatchPs10k => batch(args, spec),
    }
}

fn phase_record(name: &'static str, phase: &Phase) -> (&'static str, String) {
    let searches = phase.outcomes.iter().filter(|o| o.is_search()).count();
    let late: Vec<f64> = phase.outcomes.iter().map(|o| o.late_ms).collect();
    let search_ms = latencies(&phase.outcomes, true);
    let service = |search: bool| -> Vec<f64> {
        phase
            .outcomes
            .iter()
            .filter(|o| o.is_search() == search)
            .map(|o| o.service_ms)
            .collect()
    };
    (
        name,
        format!(
            "{{\"searches\": {searches}, \"writes\": {}, \"elapsed_s\": {:?}, \
\"late_p95_ms\": {:?}, \"search_p50_ms\": {:?}, \"search_p95_ms\": {:?}, \
\"search_service_p50_ms\": {:?}, \"write_service_p50_ms\": {:?}, \"retries\": {}}}",
            phase.outcomes.len() - searches,
            phase.elapsed_s,
            quantile(&late, 0.95),
            median(&search_ms),
            quantile(&search_ms, 0.95),
            median(&service(true)),
            median(&service(false)),
            phase.retries
        ),
    )
}

fn server_record(stats: &StatsSnapshot) -> (&'static str, String) {
    (
        "server",
        format!(
            "{{\"requests\": {}, \"responses_error\": {}, \"shed\": {}, \"degraded\": {}, \
\"bad_frames\": {}}}",
            stats.requests, stats.responses_error, stats.shed, stats.degraded, stats.bad_frames
        ),
    )
}

/// `interactive-ms-20k`: the sharded Module Sets corpus behind a loopback
/// server.  The search latency percentiles come from the open loop alone,
/// `write_p50_ms` from a phase of writes alone, and `saturated_qps` from
/// the closed loop alone.
fn interactive(args: &Args, spec: Spec) -> Result<Report, String> {
    let fixture = build_fixture(spec, args.seed, SETUP_REPS);
    let Fixture {
        workflows,
        sharded,
        build_s,
        rss_mb,
        queries,
        ..
    } = fixture;
    let mut calibration = Calibration::default();
    let build_scale = calibration.point_scale();
    let expected = reference(&sharded, &queries);
    let mut tally = Tally::default();
    let oracle: Vec<(&WorkflowId, &[SearchHit])> = queries
        .iter()
        .zip(&expected.hits)
        .take(ORACLE_QUERIES)
        .map(|(q, h)| (q, h.as_slice()))
        .collect();
    let bad = oracle_mismatches(&workflows, spec.scheme.config(), &oracle);
    for i in 0..oracle.len() {
        tally.check(i >= bad, "oracle top-k");
    }
    let writes = write_set(
        &sharded,
        &queries,
        &expected.hits,
        spec.write_ids,
        args.seed,
    );
    let initial = sorted_ids(&sharded);
    drop(workflows);

    let serving = Serving::start(sharded, SETUP_REPS)?;
    let ctx = WireCtx {
        queries: &queries,
        expected: &expected.hits,
        writes: &writes,
        next_write: AtomicUsize::new(0),
    };
    let next_query = AtomicUsize::new(0);
    // Untimed warm-up: the first searches after start run measurably
    // slower while caches and the server's threads settle.
    let warmup = closed_loop(
        serving.addr(),
        &[Role::Searcher; LOAD_THREADS],
        WARMUP_S,
        (args.seed, 0),
        &next_query,
        &ctx,
    );
    for outcome in &warmup.outcomes {
        tally.check(outcome.ok, "warm-up search");
    }
    // The schedule is seeded in reference time; each segment's slice of it
    // is stretched to the host speed measured just before the segment.
    let open_window = args.seconds * OPEN_LOOP_SHARE;
    let schedule = poisson_schedule(args.seed, args.offered_rate_qps, open_window, queries.len());
    let open = calibration.segmented(open_window, |i, seconds, scale| {
        let last = (open_window / seconds).round() as usize - 1;
        let from = i as f64 * seconds;
        let slice: Vec<(f64, Op)> = schedule
            .iter()
            .filter(|(t, _)| ((t / seconds) as usize).min(last) == i)
            .map(|&(t, op)| ((t - from).max(0.0) / scale, op))
            .collect();
        open_loop(serving.addr(), &slice, &ctx)
    });
    // The open loop's few writes split between those that wait for a
    // search's read locks and those that do not, so their median is
    // unsteady; write latency comes from a phase of writes alone.
    let write_window = args.seconds * WRITE_PHASE_SHARE;
    let mut writer = warm_client(serving.addr());
    let mut chase = ChaseKernel::new();
    let mut writes_alone = Timed::default();
    let (written, pass_ms) = write_phase(
        (write_window, CHASE_REFERENCE_MS),
        || chase.pass(),
        || wire_op(&mut writer, Op::Write, &ctx),
        &mut writes_alone,
        &mut tally,
    );
    let closed_window = args.seconds - open_window - write_window;
    let closed = calibration.segmented(closed_window, |i, seconds, _| {
        closed_loop(
            serving.addr(),
            &[Role::Mixed; LOAD_THREADS],
            seconds,
            (args.seed, i + 1),
            &next_query,
            &ctx,
        )
    });
    let (open, mut latency) = join(open);
    let (closed, capacity) = join(closed);
    latency.write = writes_alone.write;
    for outcome in open.outcomes.iter().chain(&closed.outcomes) {
        tally.check(outcome.ok, "wire operation");
    }
    let record = vec![
        phase_record("open_loop", &open),
        (
            "write_phase",
            format!(
                "{{\"writes\": {written}, \"retries\": {}, \"pass_ms\": {pass_ms:?}}}",
                writer.retries()
            ),
        ),
        phase_record("closed_loop", &closed),
        server_record(&serving.server.metrics()),
        ("search_stats", stats_json(&expected.stats)),
    ];
    let setup = (build_s + serving.start_s, build_scale);
    let service = serving.stop();
    tally.check(same_id_set(&service, &initial), "id set after writes");
    let e2e = EndToEnd {
        setup,
        rss_mb,
        tally,
        latency,
        capacity,
        calibration,
    };
    Ok(e2e.report(record))
}

/// One in-process batch search.
pub struct BatchResult {
    /// The work ticket it ran under; the query is `ticket % sample size`.
    pub ticket: usize,
    pub query: usize,
    pub hits: Vec<SearchHit>,
    pub stats: SearchStats,
    pub latency_ms: f64,
    /// The thread's gap between its previous query and this one.
    pub late_ms: f64,
}

/// The batch loop: [`LOAD_THREADS`] threads take the next query of the
/// sample, round and round, as soon as they finish one — the per-query
/// work stealing of `ShardedCorpus::search_batch`, with every query timed
/// — until `window` seconds have passed.  `next` is the work ticket, which
/// the caller keeps across segments.  Every claimed ticket completes, so
/// over all segments the results, in ticket order, are the tickets before
/// `next`.
pub fn batch_loop(
    sharded: &ShardedCorpus,
    queries: &[WorkflowId],
    window: f64,
    next: &AtomicUsize,
) -> (Vec<BatchResult>, f64) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(window);
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LOAD_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    pin_current(t);
                    let mut out = Vec::new();
                    let mut previous = Instant::now();
                    while Instant::now() < end {
                        // ordering: Relaxed — a work ticket; the scope
                        // join publishes the results.
                        let ticket = next.fetch_add(1, Ordering::Relaxed);
                        let query = ticket % queries.len();
                        let sent = Instant::now();
                        let (hits, stats) = sharded
                            .search_with_stats(&queries[query], K)
                            .expect("sampled queries are resident");
                        let done = Instant::now();
                        out.push(BatchResult {
                            ticket,
                            query,
                            hits,
                            stats,
                            latency_ms: ms(done - sent),
                            late_ms: ms(sent - previous),
                        });
                        previous = done;
                    }
                    (out, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut results = Vec::new();
    let mut elapsed = 0.0f64;
    for (out, finished) in parts {
        results.extend(out);
        elapsed = elapsed.max((finished - start).as_secs_f64());
    }
    results.sort_by_key(|r| r.ticket);
    (results, elapsed)
}

/// Writes back to back for `window` seconds, each after one kernel pass;
/// returns each write's latency and the pass before it.  `pass` times one
/// pass; `write` runs the next write and says whether it succeeded.
fn write_loop(
    window: f64,
    pass: &mut impl FnMut() -> f64,
    write: &mut impl FnMut() -> bool,
    tally: &mut Tally,
) -> Vec<(f64, f64)> {
    let end = Instant::now() + Duration::from_secs_f64(window);
    let mut times = Vec::new();
    while Instant::now() < end {
        let pass_ms = pass();
        let start = Instant::now();
        let ok = write();
        times.push((ms(start.elapsed()), pass_ms));
        tally.check(ok, "write");
    }
    times
}

/// An untimed warm-up of [`WRITE_WARMUP_S`] — the first rebuilds fault in
/// their buffers — then `window` seconds of writes, each block of
/// [`WRITE_BLOCK`] scaled by `reference` over the median of its kernel
/// passes.  Returns the writes done and the median pass.
fn write_phase(
    (window, reference): (f64, f64),
    mut pass: impl FnMut() -> f64,
    mut write: impl FnMut() -> bool,
    latency: &mut Timed,
    tally: &mut Tally,
) -> (usize, f64) {
    let warmup = write_loop(WRITE_WARMUP_S, &mut pass, &mut write, tally);
    let timed = write_loop(window, &mut pass, &mut write, tally);
    for block in timed.chunks(WRITE_BLOCK) {
        let passes: Vec<f64> = block.iter().map(|&(_, pass)| pass).collect();
        let scale = reference / median(&passes);
        for &(ms, _) in block {
            latency.add(false, ms, scale);
        }
    }
    let passes: Vec<f64> = timed.iter().map(|&(_, pass)| pass).collect();
    (warmup.len() + timed.len(), median(&passes))
}

/// Share of the batch window given to searching; the write phase gets the
/// rest.  Path Sets writes are memory-bound, so they need several seconds
/// to average out the host.
const BATCH_SHARE: f64 = 0.6;
/// Leading queries of the batch whose stats are recorded as exact counts.
const STATS_PREFIX: usize = 16;

/// `batch-ps-10k`: Path Sets over one shard, in-process.
fn batch(args: &Args, spec: Spec) -> Result<Report, String> {
    let fixture = build_fixture(spec, args.seed, SETUP_REPS);
    let Fixture {
        workflows,
        mut sharded,
        build_s,
        rss_mb,
        queries,
        ..
    } = fixture;
    let mut calibration = Calibration::default();
    let build_scale = calibration.point_scale();
    // The untimed reference, which also warms the caches: every query of
    // the sample through `search_batch`.
    let expected: Vec<Vec<SearchHit>> = sharded
        .search_batch(&queries, K, LOAD_THREADS)
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("a sampled query is not resident")?;
    let next = AtomicUsize::new(0);
    let segments = calibration.segmented(args.seconds * BATCH_SHARE, |_, seconds, _| {
        batch_loop(&sharded, &queries, seconds, &next)
    });
    let (mut results, mut latency) = (Vec::new(), Timed::default());
    for ((part, elapsed), scale) in segments {
        for r in &part {
            latency.add(true, r.latency_ms, scale);
        }
        latency.add_window(elapsed, scale);
        results.extend(part);
    }
    latency.searches = results.len();
    if results.len() < ORACLE_QUERIES.max(STATS_PREFIX) {
        return Err(format!(
            "the batch answered only {} queries; run longer",
            results.len()
        ));
    }
    let mut tally = Tally::default();
    // Every timed search against the reference, and the first few against
    // the brute-force oracle.
    for result in &results {
        tally.check(
            same_hits(&result.hits, &expected[result.query]),
            "timed search against search_batch",
        );
    }
    let oracle: Vec<(&WorkflowId, &[SearchHit])> = results[..ORACLE_QUERIES]
        .iter()
        .map(|r| (&queries[r.query], r.hits.as_slice()))
        .collect();
    let bad = oracle_mismatches(&workflows, spec.scheme.config(), &oracle);
    for i in 0..oracle.len() {
        tally.check(i >= bad, "oracle top-k");
    }
    let mut stats = SearchStats::default();
    for r in &results[..STATS_PREFIX] {
        stats.merge(&r.stats);
    }
    drop(workflows);

    let writes = write_set(&sharded, &queries, &[], spec.write_ids, args.seed);
    let initial = sorted_ids(&sharded);
    let kernel = MemoryKernel::new();
    let mut rotation = writes.iter().cycle();
    let (written, pass_ms) = write_phase(
        (args.seconds * (1.0 - BATCH_SHARE), MEMORY_REFERENCE_MS),
        || kernel.pass(),
        || {
            let wf = rotation.next().expect("the write set is not empty");
            let removed = sharded.remove(&wf.id).is_some();
            sharded.add(wf.clone());
            removed
        },
        &mut latency,
        &mut tally,
    );
    tally.check(sorted_ids(&sharded) == initial, "id set after writes");
    let record = vec![
        (
            "batch",
            format!(
                "{{\"searches\": {}, \"writes\": {written}, \"elapsed_s\": {:?}, \
\"pass_ms\": {pass_ms:?}}}",
                results.len(),
                latency.elapsed_s,
            ),
        ),
        ("search_stats", stats_json(&stats)),
    ];
    let e2e = EndToEnd {
        setup: (build_s, build_scale),
        rss_mb,
        tally,
        capacity: Timed {
            searches: latency.searches,
            elapsed_s: latency.elapsed_s,
            reference_s: latency.reference_s,
            ..Timed::default()
        },
        latency,
        calibration,
    };
    Ok(e2e.report(record))
}
