//! The sharded corpus service layer: scatter-gather top-k over
//! independently owned corpus shards, safe to query while the corpus
//! churns.
//!
//! The paper scores a static repository offline; the ROADMAP north-star is
//! a serving system answering heavy query traffic *while* workflows are
//! uploaded and deleted — the repository-scale setting Davidson et al.
//! describe for myExperiment-style search.  One [`Corpus`](crate::Corpus)
//! cannot get there alone: a single `&mut` mutation path stalls every
//! reader, one `StringPool` and one inverted index serialize all profiling,
//! and a single snapshot file is rewritten wholesale on every save.  This
//! module partitions the corpus instead:
//!
//! * [`ShardedCorpus`] — N shards, each a complete [`Corpus`] owning its
//!   own pool, profiles and token index; workflows are routed to shards by
//!   id ([`ShardPartition`]).  A top-k query **scatters** by building one
//!   ranked candidate *cursor* per shard (the shard's candidates in the
//!   engine's canonical best-bound-first order, nothing scored yet), then
//!   runs **one global best-bound-first scan** over the cursors merged by
//!   a [`RankedFrontier`](wf_repo::RankedFrontier): the scan always scores
//!   the globally best-bound candidate and tightens a single shared
//!   [`SearchThreshold`], so the pruning power of the admissible-bound
//!   search is independent of how many shards the corpus is split into.
//!   The **gather** is the shared [`merge_top_k`](wf_repo::merge_top_k)
//!   canonicalization of the one scan's hits.
//! * [`CorpusService`] — the concurrent wrapper: one `RwLock` per shard,
//!   so searches proceed on all shards concurrently with churn that only
//!   write-locks the single owning shard, plus a parallel batch-query API.
//!
//! ## Why sharded search stays bit-identical
//!
//! Every shard scores the query with exactly the shared
//! [`ProfiledMeasure`] code path: the query's pool-independent features are
//! extracted once ([`QueryFeatures`]) and bound per shard against a
//! *frozen* pool ([`wf_text::FrozenInterner`]), which reproduces every
//! token-set comparison bit-for-bit without mutating the shard.  Pruning
//! only ever skips a candidate whose admissible upper bound falls
//! *strictly* below the shared threshold floor — and the floor is always a
//! true k-th best score of `k` distinct candidates, so no pruned candidate
//! can enter the merged top-k, whether the shards are merged into one
//! frontier or drained one after another.  The gather step sorts by the
//! canonical `(score desc, id asc)` hit ordering, so ids, scores *and* tie
//! order equal the single-corpus
//! [`IndexedSearchEngine`](wf_repo::IndexedSearchEngine).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

// Model-checkable lock shims: plain `std::sync` locks outside a model run,
// deterministic scheduling points inside one (see `vendor/shuttle-mini`
// and the `wf-analyze` model-check suite, which races `CorpusService`
// searches against live churn under a controlled scheduler).
use shuttle_mini::sync::{Mutex, RwLock, RwLockReadGuard};

use wf_model::{Workflow, WorkflowId};
use wf_repo::{
    merge_top_k, scan_ranked_candidates, sort_best_bound_first, CancelToken, RankedCandidate,
    RankedFrontier, SearchHit, SearchStats, SearchThreshold,
};

use crate::config::SimilarityConfig;
use crate::corpus::{config_fingerprint, fnv1a64, Corpus, SnapshotError};
use crate::profile::{ProfiledMeasure, QueryFeatures, WorkflowProfile};

/// First token of a shard-manifest header line.
pub const SHARD_MANIFEST_MAGIC: &str = "wfsim-shard-manifest";

/// Version of the shard-manifest layout.
pub const SHARD_MANIFEST_VERSION: u32 = 1;

/// The file a [`ShardedCorpus::save`] directory's manifest is written to.
pub const SHARD_MANIFEST_FILE: &str = "manifest";

/// How workflows are assigned to shards.
///
/// Both partitions are *stable*: a workflow id always routes to the shard
/// that currently holds it, so `add` with an existing id replaces in place
/// and never duplicates an id across shards — the invariant scatter-gather
/// relies on to never return the same workflow twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPartition {
    /// Stateless FNV-1a hash of the workflow id, modulo the shard count.
    /// Routing needs no lookup table and survives snapshot round-trips by
    /// construction.
    HashId,
    /// New ids are dealt to shards in rotation, keeping shard sizes within
    /// one of each other; the id → shard assignment is remembered so
    /// replacements and removals route to the owning shard.
    RoundRobin,
}

impl fmt::Display for ShardPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardPartition::HashId => "hash",
            ShardPartition::RoundRobin => "round-robin",
        })
    }
}

impl ShardPartition {
    fn parse(token: &str) -> Option<Self> {
        match token {
            "hash" => Some(ShardPartition::HashId),
            "round-robin" => Some(ShardPartition::RoundRobin),
            _ => None,
        }
    }
}

fn hash_route(id: &WorkflowId, shards: usize) -> usize {
    (fnv1a64(id.as_str().as_bytes()) % shards as u64) as usize
}

fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:03}.snap")
}

/// The one manifest header both save paths write and
/// [`ShardedCorpus::load`] parses — any new field must be added here and
/// in the parser, never in a per-caller copy.
fn manifest_line(
    shards: usize,
    partition: ShardPartition,
    next_rr: usize,
    config: &SimilarityConfig,
) -> String {
    format!(
        "{SHARD_MANIFEST_MAGIC} v{SHARD_MANIFEST_VERSION} shards={shards} partition={partition} next={next_rr} config={}\n",
        config_fingerprint(config),
    )
}

/// A corpus partitioned across N independent shards with scatter-gather
/// top-k search.
///
/// # Invariants
///
/// * every shard is a complete [`Corpus`] for the same
///   [`SimilarityConfig`]; shards share nothing (pool, profiles, index are
///   per shard);
/// * a workflow id lives in at most one shard, and always in the shard its
///   partition routes it to ([`ShardedCorpus::add`] replaces through the
///   owning shard, never across shards);
/// * [`ShardedCorpus::search`] results — ids, scores, tie order — are
///   bit-identical to a single-corpus
///   [`IndexedSearchEngine`](wf_repo::IndexedSearchEngine) over the union
///   of all shards, for every shard count and partition.
///
/// ```
/// use wf_model::{builder::WorkflowBuilder, ModuleType};
/// use wf_sim::{ShardedCorpus, SimilarityConfig};
///
/// let wf = |id: &str, label: &str| {
///     WorkflowBuilder::new(id)
///         .module(label, ModuleType::WsdlService, |m| m)
///         .build()
///         .unwrap()
/// };
/// let mut sharded = ShardedCorpus::build(
///     SimilarityConfig::best_module_sets(),
///     4,
///     vec![wf("a", "blast search"), wf("b", "blast align"), wf("c", "plot")],
/// );
/// let hits = sharded.search(&"a".into(), 2).unwrap();
/// assert_eq!(hits[0].id.as_str(), "b");
/// sharded.remove(&"b".into());
/// assert_eq!(sharded.len(), 2);
/// ```
pub struct ShardedCorpus {
    config: SimilarityConfig,
    partition: ShardPartition,
    shards: Vec<Corpus>,
    /// Id → owning shard; maintained only for [`ShardPartition::RoundRobin`]
    /// (hash routing is stateless).
    routes: BTreeMap<WorkflowId, u32>,
    /// Next rotation slot for new round-robin ids.
    next_rr: usize,
}

impl ShardedCorpus {
    /// Builds a hash-partitioned corpus of `shard_count` shards (clamped to
    /// at least 1).  Duplicate ids replace earlier occurrences, exactly
    /// like [`Corpus::build`].
    pub fn build(
        config: SimilarityConfig,
        shard_count: usize,
        workflows: impl IntoIterator<Item = Workflow>,
    ) -> Self {
        ShardedCorpus::build_with(config, shard_count, ShardPartition::HashId, workflows)
    }

    /// [`ShardedCorpus::build`] with an explicit partition strategy.
    pub fn build_with(
        config: SimilarityConfig,
        shard_count: usize,
        partition: ShardPartition,
        workflows: impl IntoIterator<Item = Workflow>,
    ) -> Self {
        let shard_count = shard_count.max(1);
        // Last-upload-wins dedup in arrival order, as in `Corpus::build`.
        let mut deduped: Vec<Workflow> = Vec::new();
        let mut seen: BTreeMap<WorkflowId, usize> = BTreeMap::new();
        for wf in workflows {
            match seen.get(&wf.id) {
                Some(&pos) => deduped[pos] = wf,
                None => {
                    seen.insert(wf.id.clone(), deduped.len());
                    deduped.push(wf);
                }
            }
        }
        let mut buckets: Vec<Vec<Workflow>> = (0..shard_count).map(|_| Vec::new()).collect();
        let mut routes = BTreeMap::new();
        let mut next_rr = 0usize;
        for wf in deduped {
            let shard = match partition {
                ShardPartition::HashId => hash_route(&wf.id, shard_count),
                ShardPartition::RoundRobin => {
                    let shard = next_rr % shard_count;
                    next_rr += 1;
                    routes.insert(wf.id.clone(), shard as u32);
                    shard
                }
            };
            buckets[shard].push(wf);
        }
        let shards = buckets
            .into_iter()
            .map(|bucket| Corpus::build(config.clone(), bucket))
            .collect();
        ShardedCorpus {
            config,
            partition,
            shards,
            routes,
            next_rr,
        }
    }

    /// The configured similarity algorithm (shared by every shard).
    pub fn config(&self) -> &SimilarityConfig {
        &self.config
    }

    /// The algorithm name in the paper's notation.
    pub fn measure_name(&self) -> String {
        self.shards[0].measure_name()
    }

    /// The partition strategy routing ids to shards.
    pub fn partition(&self) -> ShardPartition {
        self.partition
    }

    /// Number of shards (at least 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in shard order.
    pub fn shards(&self) -> &[Corpus] {
        &self.shards
    }

    /// Total number of workflows across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Corpus::len).sum()
    }

    /// True when no shard holds a workflow.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(Corpus::is_empty)
    }

    /// All workflow ids, shard-major (shard 0's corpus order, then shard
    /// 1's, …).
    pub fn ids(&self) -> Vec<WorkflowId> {
        self.shards
            .iter()
            .flat_map(|s| s.ids().iter().cloned())
            .collect()
    }

    /// The shard currently holding a workflow id, if resident.
    pub fn shard_of(&self, id: &WorkflowId) -> Option<usize> {
        match self.partition {
            ShardPartition::HashId => {
                let shard = hash_route(id, self.shards.len());
                self.shards[shard].index_of(id).map(|_| shard)
            }
            ShardPartition::RoundRobin => self.routes.get(id).map(|&s| s as usize),
        }
    }

    /// True when the id is resident in some shard.
    pub fn contains(&self, id: &WorkflowId) -> bool {
        self.shard_of(id).is_some()
    }

    /// The original workflow with a given id.
    pub fn get(&self, id: &WorkflowId) -> Option<&Workflow> {
        self.shards[self.shard_of(id)?].get(id)
    }

    /// Inserts a workflow into its owning shard (replacing any resident
    /// with the same id in place), returning the shard index.  Only that
    /// shard's pool, profiles and index are touched.
    pub fn add(&mut self, wf: Workflow) -> usize {
        let shard = match self.partition {
            ShardPartition::HashId => hash_route(&wf.id, self.shards.len()),
            ShardPartition::RoundRobin => match self.routes.get(&wf.id) {
                Some(&s) => s as usize,
                None => {
                    let s = self.next_rr % self.shards.len();
                    self.next_rr += 1;
                    self.routes.insert(wf.id.clone(), s as u32);
                    s
                }
            },
        };
        self.shards[shard].add(wf);
        shard
    }

    /// Removes a workflow from its owning shard, returning it (or `None`
    /// for an unknown id).
    pub fn remove(&mut self, id: &WorkflowId) -> Option<Workflow> {
        let shard = self.shard_of(id)?;
        let removed = self.shards[shard].remove(id);
        if removed.is_some() && self.partition == ShardPartition::RoundRobin {
            self.routes.remove(id);
        }
        removed
    }

    /// The `k` workflows most similar to the resident workflow with id
    /// `query` (itself excluded), best first; `None` for an unknown id.
    /// Bit-identical to the single-corpus indexed engine.
    pub fn search(&self, query: &WorkflowId, k: usize) -> Option<Vec<SearchHit>> {
        Some(self.search_with_stats(query, k)?.0)
    }

    /// [`ShardedCorpus::search`] plus pruning instrumentation aggregated
    /// over all shards.
    pub fn search_with_stats(
        &self,
        query: &WorkflowId,
        k: usize,
    ) -> Option<(Vec<SearchHit>, SearchStats)> {
        let wf = self.get(query)?;
        let features = self.query_features(wf);
        Some(self.scatter(&features, query, k))
    }

    /// Answers a batch of queries on `threads` worker threads, one global
    /// best-bound-first frontier per query (queries are the work-stealing
    /// unit, so every query keeps the full pruning power of
    /// [`ShardedCorpus::search`]).  Query profiling is amortized: each
    /// query's pool-independent features are extracted once and only
    /// *bound* per shard.  Unknown ids yield `None`; results align with
    /// `queries` and are individually bit-identical to
    /// [`ShardedCorpus::search`].
    pub fn search_batch(
        &self,
        queries: &[WorkflowId],
        k: usize,
        threads: usize,
    ) -> Vec<Option<Vec<SearchHit>>> {
        self.search_batch_with_stats(queries, k, threads).0
    }

    /// [`ShardedCorpus::search_batch`] plus the pruning instrumentation
    /// aggregated over every answered query — what the serving benchmark
    /// reads to compare scored/pruned work across shard counts without a
    /// second (untimed) pass.
    pub fn search_batch_with_stats(
        &self,
        queries: &[WorkflowId],
        k: usize,
        threads: usize,
    ) -> (Vec<Option<Vec<SearchHit>>>, SearchStats) {
        if queries.is_empty() {
            return (Vec::new(), SearchStats::default());
        }
        let prepared: Vec<Option<QueryFeatures>> = queries
            .iter()
            .map(|id| self.get(id).map(|wf| self.query_features(wf)))
            .collect();
        let workers = threads.max(1).min(queries.len());
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<Vec<SearchHit>>> = vec![None; queries.len()];
        let mut stats = SearchStats::default();
        let gathered = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (cursor, prepared) = (&cursor, &prepared);
                    scope.spawn(move || {
                        let mut out: Vec<(usize, Vec<SearchHit>)> = Vec::new();
                        let mut worker_stats = SearchStats::default();
                        loop {
                            // ordering: Relaxed — a pure work-stealing
                            // ticket: fetch_add's atomicity hands each
                            // query index to exactly one worker, and the
                            // scope join below is the synchronization edge
                            // for the results.
                            let qi = cursor.fetch_add(1, Ordering::Relaxed);
                            if qi >= queries.len() {
                                return (out, worker_stats);
                            }
                            let Some(features) = &prepared[qi] else {
                                continue;
                            };
                            let (hits, query_stats) = self.scatter(features, &queries[qi], k);
                            worker_stats.merge(&query_stats);
                            out.push((qi, hits));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch search worker panicked"))
                .collect::<Vec<_>>()
        });
        for (worker_hits, worker_stats) in gathered {
            stats.merge(&worker_stats);
            for (qi, hits) in worker_hits {
                results[qi] = Some(hits);
            }
        }
        (results, stats)
    }

    /// Extracts the pool-independent query features once (any shard's
    /// measure works: all shards share one configuration).
    fn query_features(&self, wf: &Workflow) -> QueryFeatures {
        self.shards[0].measure().query_features(wf)
    }

    /// Scatter-gather over the owned shards: one global frontier.
    fn scatter(
        &self,
        features: &QueryFeatures,
        exclude: &WorkflowId,
        k: usize,
    ) -> (Vec<SearchHit>, SearchStats) {
        scatter_gather(self.shards.len(), |i| &self.shards[i], features, exclude, k)
    }

    /// Deadline-bound scatter-gather: like [`ShardedCorpus::search`], but
    /// the scan polls `cancel` between candidates and between shards, so a
    /// fired deadline returns the exact partial top-k proven so far
    /// (flagged [`degraded`](DegradedSearch::degraded), with the shards
    /// that answered completely recorded) instead of blocking past the
    /// SLO.  With a never-firing token the result equals
    /// [`ShardedCorpus::search`] and is not degraded.
    pub fn search_deadline(
        &self,
        query: &WorkflowId,
        k: usize,
        cancel: &CancelToken,
    ) -> Option<DegradedSearch> {
        let wf = self.get(query)?;
        let features = self.query_features(wf);
        Some(scatter_gather_deadline(
            self.shards.len(),
            |i| &self.shards[i],
            &features,
            query,
            k,
            cancel,
            |_| true,
        ))
    }

    /// Writes one snapshot file per shard plus a manifest into `dir`
    /// (created if absent).  Shard snapshots are the versioned, checksummed
    /// [`Corpus::save`] format; the manifest records shard count, partition
    /// and config fingerprint.
    pub fn save(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let manifest = manifest_line(
            self.shards.len(),
            self.partition,
            self.next_rr,
            &self.config,
        );
        std::fs::write(dir.join(SHARD_MANIFEST_FILE), manifest)?;
        for (i, shard) in self.shards.iter().enumerate() {
            shard.save(dir.join(shard_file_name(i)))?;
        }
        Ok(())
    }

    /// Restores a sharded corpus saved by [`ShardedCorpus::save`].  The
    /// manifest must carry the current layout version and the fingerprint
    /// of exactly `config`; every shard snapshot must load intact (each is
    /// version- and checksum-validated individually), and every restored
    /// workflow must route to the shard it was found in.  Any violation is
    /// a typed [`ShardSnapshotError`].
    pub fn load(
        dir: impl AsRef<Path>,
        config: SimilarityConfig,
    ) -> Result<Self, ShardSnapshotError> {
        let dir = dir.as_ref();
        let text = std::fs::read_to_string(dir.join(SHARD_MANIFEST_FILE))
            .map_err(ShardSnapshotError::Io)?;
        let header = text.lines().next().unwrap_or_default();
        let mut parts = header.split(' ');
        if parts.next() != Some(SHARD_MANIFEST_MAGIC) {
            return Err(ShardSnapshotError::Manifest(format!(
                "not a shard manifest: {header:?}"
            )));
        }
        let version = parts.next().unwrap_or_default();
        if version != format!("v{SHARD_MANIFEST_VERSION}") {
            return Err(ShardSnapshotError::Manifest(format!(
                "manifest version {version} != supported v{SHARD_MANIFEST_VERSION}"
            )));
        }
        let mut field = |name: &str| {
            parts
                .next()
                .and_then(|f| f.strip_prefix(name).map(str::to_string))
                .ok_or_else(|| ShardSnapshotError::Manifest(format!("missing {name}<value>")))
        };
        let shard_count: usize = field("shards=")?
            .parse()
            .map_err(|_| ShardSnapshotError::Manifest("malformed shard count".to_string()))?;
        if shard_count == 0 {
            return Err(ShardSnapshotError::Manifest(
                "manifest declares zero shards".to_string(),
            ));
        }
        let partition = ShardPartition::parse(&field("partition=")?).ok_or_else(|| {
            ShardSnapshotError::Manifest("unknown partition strategy".to_string())
        })?;
        let next_rr: usize = field("next=")?
            .parse()
            .map_err(|_| ShardSnapshotError::Manifest("malformed rotation cursor".to_string()))?;
        let fingerprint = field("config=")?;
        let expected = config_fingerprint(&config);
        if fingerprint != expected {
            return Err(ShardSnapshotError::ConfigMismatch {
                expected,
                found: fingerprint,
            });
        }
        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            shards.push(
                Corpus::load(dir.join(shard_file_name(i)), config.clone())
                    .map_err(|error| ShardSnapshotError::Shard { shard: i, error })?,
            );
        }
        let mut routes = BTreeMap::new();
        for (i, shard) in shards.iter().enumerate() {
            for id in shard.ids() {
                match partition {
                    ShardPartition::HashId => {
                        let expected = hash_route(id, shard_count);
                        if expected != i {
                            return Err(ShardSnapshotError::Manifest(format!(
                                "workflow {id} found in shard {i} but hashes to shard {expected}"
                            )));
                        }
                    }
                    ShardPartition::RoundRobin => {
                        if let Some(previous) = routes.insert(id.clone(), i as u32) {
                            return Err(ShardSnapshotError::Manifest(format!(
                                "workflow {id} found in both shard {previous} and shard {i}"
                            )));
                        }
                    }
                }
            }
        }
        Ok(ShardedCorpus {
            config,
            partition,
            shards,
            routes,
            next_rr,
        })
    }

    /// Loads the sharded snapshot in `dir` if it is present, intact and
    /// matches `config`; otherwise builds a fresh sharded corpus from
    /// `workflows`.  The origin says which happened (and why a rebuild was
    /// needed), so servers can log and re-save.
    ///
    /// A fallback is never silent: the rejected snapshot — including
    /// *which* shard file failed, when one did — is reported on stderr, so
    /// an operator can tell a routine cold start from a corrupted shard
    /// that quietly cost a full rebuild.
    pub fn load_or_build(
        dir: impl AsRef<Path>,
        config: SimilarityConfig,
        shard_count: usize,
        partition: ShardPartition,
        workflows: impl IntoIterator<Item = Workflow>,
    ) -> (Self, ShardOrigin) {
        let dir = dir.as_ref();
        match ShardedCorpus::load(dir, config.clone()) {
            Ok(sharded) => (sharded, ShardOrigin::Snapshot),
            Err(reason) => {
                match reason.failed_shard() {
                    Some(shard) => eprintln!(
                        "wfsim: sharded snapshot {}: shard {shard} ({}) rejected — {reason}; \
                         rebuilding every shard from source workflows",
                        dir.display(),
                        shard_file_name(shard),
                    ),
                    None => eprintln!(
                        "wfsim: sharded snapshot {}: {reason}; rebuilding from source workflows",
                        dir.display(),
                    ),
                }
                (
                    ShardedCorpus::build_with(config, shard_count, partition, workflows),
                    ShardOrigin::Rebuilt(reason),
                )
            }
        }
    }
}

/// How [`ShardedCorpus::load_or_build`] obtained its corpus.
#[derive(Debug)]
pub enum ShardOrigin {
    /// Every shard was deserialized from an intact, matching snapshot.
    Snapshot,
    /// Rebuilt from the workflows because the sharded snapshot was
    /// unusable.
    Rebuilt(ShardSnapshotError),
}

impl ShardOrigin {
    /// True when the corpus came out of a snapshot.
    pub fn is_snapshot(&self) -> bool {
        matches!(self, ShardOrigin::Snapshot)
    }

    /// The index of the shard whose snapshot forced a rebuild, when the
    /// failure was shard-local (`None` for snapshot-wide failures and for
    /// [`ShardOrigin::Snapshot`]).
    pub fn failed_shard(&self) -> Option<usize> {
        match self {
            ShardOrigin::Snapshot => None,
            ShardOrigin::Rebuilt(reason) => reason.failed_shard(),
        }
    }
}

/// Why a sharded snapshot could not be loaded.
#[derive(Debug)]
pub enum ShardSnapshotError {
    /// The manifest file could not be read.
    Io(io::Error),
    /// The manifest is malformed, has the wrong version, or contradicts
    /// the shard files (e.g. a workflow filed in a shard it does not route
    /// to).
    Manifest(String),
    /// The manifest was written for a different similarity configuration.
    ConfigMismatch {
        /// Fingerprint of the requested configuration.
        expected: String,
        /// Fingerprint recorded in the manifest.
        found: String,
    },
    /// One shard snapshot failed to load.
    Shard {
        /// Index of the failing shard.
        shard: usize,
        /// Why its snapshot was rejected.
        error: SnapshotError,
    },
}

impl ShardSnapshotError {
    /// The shard whose snapshot failed, for shard-local failures.
    pub fn failed_shard(&self) -> Option<usize> {
        match self {
            ShardSnapshotError::Shard { shard, .. } => Some(*shard),
            _ => None,
        }
    }
}

impl fmt::Display for ShardSnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardSnapshotError::Io(e) => write!(f, "cannot read shard manifest: {e}"),
            ShardSnapshotError::Manifest(why) => write!(f, "malformed shard manifest: {why}"),
            ShardSnapshotError::ConfigMismatch { expected, found } => {
                write!(
                    f,
                    "sharded snapshot built for {found}, requested {expected}"
                )
            }
            ShardSnapshotError::Shard { shard, error } => {
                write!(f, "shard {shard}: {error}")
            }
        }
    }
}

impl Error for ShardSnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShardSnapshotError::Shard { error, .. } => Some(error),
            ShardSnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// One shard's *cursor* of a global best-bound-first search: the query
/// bound to this shard's pool plus the shard's candidates ranked exactly
/// as [`wf_repo::IndexedSearchEngine`] would rank them — but *not* yet
/// scored.  The scatter loop merges these cursors through a
/// [`RankedFrontier`] and runs one global scan over the merged stream.
///
/// Candidate indices are pre-encoded for the frontier: a local corpus
/// index `local` of cursor `front` (of `num_fronts` total) is stored as
/// `local * num_fronts + front`, which keeps the encoding monotone in
/// `local` — so the per-cursor [`sort_best_bound_first`] tie order is the
/// same order the un-encoded local indices would produce.
struct ShardCursor {
    /// The query profile bound against this shard's pool.
    query: WorkflowProfile,
    /// The shard's candidates in best-bound-first order, frontier-encoded.
    candidates: Vec<RankedCandidate>,
}

/// Builds one shard's ranked cursor: bind the query, count label-token
/// overlaps through the inverted index, bound every candidate (admissible,
/// `INFINITY` when unboundable) and sort best-bound-first.  Enumeration
/// and bounds are exactly those of the single-corpus engine's
/// `ranked_candidates`.
fn shard_cursor(
    corpus: &Corpus,
    features: &QueryFeatures,
    exclude: &WorkflowId,
    front: usize,
    num_fronts: usize,
    stats: &mut SearchStats,
) -> ShardCursor {
    let measure: &ProfiledMeasure = corpus.measure();
    let query: WorkflowProfile = measure.bind_query(features);
    let overlaps = corpus
        .token_index()
        .overlap_counts(query.label_tokens().ids());
    let mut candidates: Vec<RankedCandidate> = Vec::with_capacity(measure.len());
    for (index, &overlap) in overlaps.iter().enumerate() {
        if measure.ids()[index] == *exclude {
            continue;
        }
        if overlap > 0 {
            stats.shared_token_candidates += 1;
        }
        let bound = measure
            .upper_bound_profile(&query, index)
            .unwrap_or(f64::INFINITY);
        candidates.push(RankedCandidate {
            index: index * num_fronts + front,
            bound,
            overlap,
        });
    }
    stats.candidates += candidates.len();
    sort_best_bound_first(&mut candidates);
    ShardCursor { query, candidates }
}

/// The outcome of a deadline-bound scatter-gather search.
///
/// The hits are always *true* scores in the canonical order; what a fired
/// deadline (or an injected shard fault) costs is **coverage**, never
/// correctness: shards that did not finish simply contribute fewer (or no)
/// candidates, and the result says so instead of passing a partial answer
/// off as complete.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedSearch {
    /// The merged top-k over every candidate that was actually scored.
    pub hits: Vec<SearchHit>,
    /// Per shard: true when that shard's scan ran to completion.  A shard
    /// cut short mid-scan still contributes the exact hits it had proven,
    /// but is reported unanswered.
    pub answered: Vec<bool>,
    /// True when any shard did not answer completely — the signal a
    /// serving layer forwards so clients can tell a full top-k from a
    /// best-effort one.
    pub degraded: bool,
    /// Pruning / cancellation instrumentation aggregated over the shards
    /// that were visited.
    pub stats: SearchStats,
}

impl DegradedSearch {
    /// Number of shards that answered completely.
    pub fn answered_count(&self) -> usize {
        self.answered.iter().filter(|&&a| a).count()
    }
}

/// The frontier core: build one ranked cursor per listed corpus and run
/// **one** [`scan_ranked_candidates`] over the cursors merged by a
/// [`RankedFrontier`].  The scan always scores the globally best-bound
/// candidate across every cursor, tightens the caller's shared threshold,
/// and stops when the best remaining bound *anywhere* falls below the
/// floor — so pruning power is that of the single-corpus engine,
/// independent of how many fronts the corpus is split into.
///
/// Returns the scan's heap-order hits (callers canonicalize through
/// [`merge_top_k`]).  A fired `cancel` abandons the merged stream
/// mid-scan; the hits proven up to that point are exact (the frontier
/// only reorders *scoring*, and top-k content is insertion-order
/// independent).
fn frontier_scan(
    fronts: &[&Corpus],
    features: &QueryFeatures,
    exclude: &WorkflowId,
    k: usize,
    threshold: &SearchThreshold,
    cancel: &CancelToken,
    stats: &mut SearchStats,
) -> Vec<SearchHit> {
    let num_fronts = fronts.len();
    let mut cursors: Vec<ShardCursor> = Vec::with_capacity(num_fronts);
    let mut measures: Vec<&ProfiledMeasure> = Vec::with_capacity(num_fronts);
    for (front, corpus) in fronts.iter().enumerate() {
        cursors.push(shard_cursor(
            corpus, features, exclude, front, num_fronts, stats,
        ));
        measures.push(corpus.measure());
    }
    // Every candidate index was encoded as `local * num_fronts + front`
    // by `shard_cursor`, monotone in `local` for a fixed front, so each
    // cursor's canonical tie order survives the merge.
    let frontier = RankedFrontier::new(cursors.iter().map(|c| c.candidates.as_slice()).collect());
    let total = frontier.total();
    scan_ranked_candidates(
        &frontier,
        total,
        k,
        threshold,
        cancel,
        stats,
        |encoded| {
            let (front, local) = (encoded % num_fronts, encoded / num_fronts);
            measures[front].score_profile(&cursors[front].query, local)
        },
        |encoded| {
            let (front, local) = (encoded % num_fronts, encoded / num_fronts);
            measures[front].ids()[local].clone()
        },
    )
}

/// The deadline-aware scatter-gather loop behind the serving layer's
/// cancellable search entry points.
///
/// Shards are *admitted* one at a time in ascending order — gate, read
/// guard, then an immediate [`frontier_scan`] drain of that shard's
/// cursor against the shared threshold — rather than waiting to merge
/// every cursor first.  The eager drain is deliberate: the `shard_gate`
/// (the serving layer's fault-injection hook) may stall for the rest of
/// the deadline, and work completed *before* a stall must survive it.  A
/// shard that stalls or vetoes therefore costs only its own coverage;
/// every previously admitted shard still reports answered with its exact
/// hits.  The throughput path ([`scatter_gather`]), which has no gates
/// and no deadline, merges all cursors into one global frontier instead.
///
/// Guards accumulate (ascending — the lock-order contract of
/// [`CorpusService`]: readers ascend, writers hold routes then a single
/// shard) and are held until the gather, so the search sees each shard
/// as of its admission instant and the set stays consistent to the end.
fn scatter_gather_deadline<R: std::ops::Deref<Target = Corpus>>(
    shard_count: usize,
    mut shard_at: impl FnMut(usize) -> R,
    features: &QueryFeatures,
    exclude: &WorkflowId,
    k: usize,
    cancel: &CancelToken,
    mut shard_gate: impl FnMut(usize) -> bool,
) -> DegradedSearch {
    let threshold = SearchThreshold::new();
    let mut stats = SearchStats::default();
    let mut answered = vec![false; shard_count];
    let mut guards: Vec<R> = Vec::with_capacity(shard_count);
    let mut parts = Vec::with_capacity(shard_count);
    for (shard, answered_slot) in answered.iter_mut().enumerate() {
        // A fired deadline skips every remaining shard outright; they are
        // reported unanswered.
        if cancel.is_cancelled() {
            stats.cancelled = true;
            break;
        }
        // A vetoed shard (injected fault) is skipped but the scatter
        // continues: one bad shard degrades coverage, not availability.
        if !shard_gate(shard) {
            continue;
        }
        guards.push(shard_at(shard));
        let corpus: &Corpus = guards.last().expect("guard just pushed");
        let mut drain_stats = SearchStats::default();
        let hits = frontier_scan(
            &[corpus],
            features,
            exclude,
            k,
            &threshold,
            cancel,
            &mut drain_stats,
        );
        *answered_slot = !drain_stats.cancelled;
        stats.merge(&drain_stats);
        parts.push(hits);
    }
    let degraded = answered.iter().any(|&a| !a);
    DegradedSearch {
        hits: merge_top_k(parts, k),
        answered,
        degraded,
        stats,
    }
}

/// The scatter-gather loop behind every non-deadline search entry point:
/// acquire **all** shards (however the caller materializes them — owned
/// slice or per-shard read lock, always in ascending order), merge their
/// ranked cursors into one global best-bound-first frontier, and run a
/// single shared-threshold scan over it ([`frontier_scan`]).  Scoring
/// order — hence pruning power — is exactly the single-corpus engine's,
/// independent of shard count, and holding every guard for the whole scan
/// gives the search one consistent cut of a live corpus.
fn scatter_gather<R: std::ops::Deref<Target = Corpus>>(
    shard_count: usize,
    mut shard_at: impl FnMut(usize) -> R,
    features: &QueryFeatures,
    exclude: &WorkflowId,
    k: usize,
) -> (Vec<SearchHit>, SearchStats) {
    let mut stats = SearchStats::default();
    let guards: Vec<R> = (0..shard_count).map(&mut shard_at).collect();
    let fronts: Vec<&Corpus> = guards.iter().map(|guard| &**guard).collect();
    let hits = frontier_scan(
        &fronts,
        features,
        exclude,
        k,
        &SearchThreshold::new(),
        &CancelToken::never(),
        &mut stats,
    );
    debug_assert!(!stats.cancelled, "never-token scatter cannot cancel");
    (merge_top_k(vec![hits], k), stats)
}

/// A concurrent serving wrapper around a [`ShardedCorpus`]: one `RwLock`
/// per shard, so any number of searches proceed in parallel and churn
/// (`add` / `remove`) only write-locks the single shard owning the id.
///
/// # Invariants and consistency model
///
/// * Routing is fixed at construction (partition + shard count); churn
///   never migrates a workflow between shards, so an id has exactly one
///   owner lock.
/// * A search read-locks the owner shard to extract query features, then
///   acquires shard read locks in ascending index order and holds them to
///   the end: a plain search takes **all** of them up front (one
///   consistent cut, scanned as a single global frontier), a deadline
///   search accumulates them as shards are admitted (each shard seen as
///   of its admission instant).  Either way a workflow removed (or added)
///   *before* the search started is guaranteed excluded (or visible) —
///   the churn invariant the stress tests assert.  Deadlock freedom:
///   every multi-lock path takes the routes mutex first (and releases it
///   before shard locks) and orders shard locks ascending; writers hold
///   routes, then exactly one shard write lock.
/// * On a quiescent corpus, results are bit-identical to
///   [`ShardedCorpus::search`] and hence to the single-corpus engine.
pub struct CorpusService {
    config: SimilarityConfig,
    partition: ShardPartition,
    shards: Vec<RwLock<Corpus>>,
    /// Round-robin routing state: id → shard plus the rotation cursor
    /// (unused, but kept consistent, for hash partitions).
    routes: Mutex<(BTreeMap<WorkflowId, u32>, usize)>,
    threads: usize,
}

impl CorpusService {
    /// Wraps a built sharded corpus for concurrent serving.
    pub fn new(sharded: ShardedCorpus) -> Self {
        CorpusService {
            config: sharded.config,
            partition: sharded.partition,
            shards: sharded.shards.into_iter().map(RwLock::new).collect(),
            routes: Mutex::new((sharded.routes, sharded.next_rr)),
            threads: 4,
        }
    }

    /// Sets the number of worker threads for
    /// [`CorpusService::search_batch`] (at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Unwraps the service back into the single-owner [`ShardedCorpus`].
    pub fn into_sharded(self) -> ShardedCorpus {
        let (routes, next_rr) = self.routes.into_inner().expect("route state poisoned");
        ShardedCorpus {
            config: self.config,
            partition: self.partition,
            shards: self
                .shards
                .into_iter()
                .map(|lock| lock.into_inner().expect("shard lock poisoned"))
                .collect(),
            routes,
            next_rr,
        }
    }

    /// The configured similarity algorithm.
    pub fn config(&self) -> &SimilarityConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total workflows across shards (each shard counted at the instant
    /// its lock is taken).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.read(s).len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| self.read(s).is_empty())
    }

    /// True when the id is resident.
    pub fn contains(&self, id: &WorkflowId) -> bool {
        match self.owner_of(id) {
            Some(shard) => self.read(&self.shards[shard]).index_of(id).is_some(),
            None => false,
        }
    }

    fn read<'a>(&self, lock: &'a RwLock<Corpus>) -> RwLockReadGuard<'a, Corpus> {
        lock.read().expect("shard lock poisoned")
    }

    /// The shard an id routes to (`None` only for round-robin ids never
    /// seen).
    fn owner_of(&self, id: &WorkflowId) -> Option<usize> {
        match self.partition {
            ShardPartition::HashId => Some(hash_route(id, self.shards.len())),
            ShardPartition::RoundRobin => {
                let routes = self.routes.lock().expect("route state poisoned");
                routes.0.get(id).map(|&s| s as usize)
            }
        }
    }

    /// Inserts (or replaces) a workflow, write-locking only the owning
    /// shard.  Returns the shard index.
    ///
    /// Round-robin routing holds the route lock *across* the shard write
    /// (lock order: routes, then shard — the same as
    /// [`CorpusService::remove`]): releasing it between assignment and
    /// insertion would let a concurrent remove of the same id observe the
    /// route before the workflow exists, or delete the route while the
    /// insertion is in flight, stranding a resident without a route.
    pub fn add(&self, wf: Workflow) -> usize {
        match self.partition {
            ShardPartition::HashId => {
                let shard = hash_route(&wf.id, self.shards.len());
                self.shards[shard]
                    .write()
                    .expect("shard lock poisoned")
                    .add(wf);
                shard
            }
            ShardPartition::RoundRobin => {
                let mut routes = self.routes.lock().expect("route state poisoned");
                let shard = match routes.0.get(&wf.id) {
                    Some(&s) => s as usize,
                    None => {
                        let s = routes.1 % self.shards.len();
                        routes.1 += 1;
                        routes.0.insert(wf.id.clone(), s as u32);
                        s
                    }
                };
                self.shards[shard]
                    .write()
                    .expect("shard lock poisoned")
                    .add(wf);
                shard
            }
        }
    }

    /// Removes a workflow by id, write-locking only the owning shard.
    ///
    /// Round-robin routing mutates the route map and the shard under one
    /// route lock (routes, then shard — matching [`CorpusService::add`]),
    /// so the "id resident ⇔ id routed" invariant holds at every instant
    /// another thread can observe.
    pub fn remove(&self, id: &WorkflowId) -> Option<Workflow> {
        match self.partition {
            ShardPartition::HashId => {
                let shard = hash_route(id, self.shards.len());
                self.shards[shard]
                    .write()
                    .expect("shard lock poisoned")
                    .remove(id)
            }
            ShardPartition::RoundRobin => {
                let mut routes = self.routes.lock().expect("route state poisoned");
                let shard = *routes.0.get(id)? as usize;
                let removed = self.shards[shard]
                    .write()
                    .expect("shard lock poisoned")
                    .remove(id);
                if removed.is_some() {
                    routes.0.remove(id);
                }
                removed
            }
        }
    }

    /// Scatter-gather top-k for a resident query id; `None` when the id is
    /// not resident at the time the owning shard is read.  Proceeds
    /// concurrently with searches on every shard and with churn on other
    /// shards.
    pub fn search(&self, query: &WorkflowId, k: usize) -> Option<Vec<SearchHit>> {
        let owner = self.owner_of(query)?;
        let features = {
            let shard = self.read(&self.shards[owner]);
            let wf = shard.get(query)?;
            shard.measure().query_features(wf)
        };
        let (hits, _) = scatter_gather(
            self.shards.len(),
            |i| self.read(&self.shards[i]),
            &features,
            query,
            k,
        );
        Some(hits)
    }

    /// Deadline-bound scatter-gather over the live corpus: polls `cancel`
    /// between shard lock acquisitions and between candidates of the
    /// global frontier scan, returning the exact partial top-k
    /// flagged [`degraded`](DegradedSearch::degraded) when the deadline
    /// fires mid-search.  `None` when the query id is not resident at the
    /// time the owning shard is read.
    pub fn search_deadline(
        &self,
        query: &WorkflowId,
        k: usize,
        cancel: &CancelToken,
    ) -> Option<DegradedSearch> {
        self.search_deadline_with(query, k, cancel, |_| true)
    }

    /// [`CorpusService::search_deadline`] with a per-shard gate: the gate
    /// runs *before* each shard's read lock is taken and may veto the
    /// visit (returning `false` marks the shard unanswered and the result
    /// degraded) or stall inside it — the hook the serving layer's
    /// fault-injection plan uses to delay or fail individual shards
    /// deterministically.
    pub fn search_deadline_with(
        &self,
        query: &WorkflowId,
        k: usize,
        cancel: &CancelToken,
        shard_gate: impl FnMut(usize) -> bool,
    ) -> Option<DegradedSearch> {
        let owner = self.owner_of(query)?;
        let features = {
            let shard = self.read(&self.shards[owner]);
            let wf = shard.get(query)?;
            shard.measure().query_features(wf)
        };
        Some(scatter_gather_deadline(
            self.shards.len(),
            |i| self.read(&self.shards[i]),
            &features,
            query,
            k,
            cancel,
            shard_gate,
        ))
    }

    /// Answers a batch of queries on the service's worker threads, each
    /// query running a full scatter-gather concurrently with the others
    /// (and with any churn).  Results align with `queries`.
    pub fn search_batch(&self, queries: &[WorkflowId], k: usize) -> Vec<Option<Vec<SearchHit>>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let workers = self.threads.min(queries.len());
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<Vec<SearchHit>>> = vec![None; queries.len()];
        let gathered = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            // ordering: Relaxed — work-stealing ticket, as
                            // in `ShardedCorpus::search_batch`: uniqueness
                            // comes from fetch_add's atomicity, publication
                            // of results from the scope join.
                            let qi = cursor.fetch_add(1, Ordering::Relaxed);
                            if qi >= queries.len() {
                                return out;
                            }
                            out.push((qi, self.search(&queries[qi], k)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("batch search worker panicked"))
                .collect::<Vec<_>>()
        });
        for (qi, hits) in gathered {
            results[qi] = hits;
        }
        results
    }

    /// Persists the live corpus as a sharded snapshot: the manifest plus
    /// one snapshot per shard, each shard serialized under its read lock
    /// (a save concurrent with churn is per-shard consistent).
    pub fn save(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        let dir: PathBuf = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let next_rr = self.routes.lock().expect("route state poisoned").1;
        let manifest = manifest_line(self.shards.len(), self.partition, next_rr, &self.config);
        std::fs::write(dir.join(SHARD_MANIFEST_FILE), manifest)?;
        for (i, lock) in self.shards.iter().enumerate() {
            self.read(lock).save(dir.join(shard_file_name(i)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_model::{builder::WorkflowBuilder, ModuleType};

    fn wf(id: &str, labels: &[&str]) -> Workflow {
        let mut b = WorkflowBuilder::new(id)
            .title(format!("workflow {id}"))
            .tag("test");
        for l in labels {
            b = b.module(*l, ModuleType::WsdlService, |m| m);
        }
        for pair in labels.windows(2) {
            b = b.link(pair[0], pair[1]);
        }
        b.build().unwrap()
    }

    fn sample() -> Vec<Workflow> {
        vec![
            wf("a", &["fetch sequence", "run blast", "render report"]),
            wf("b", &["fetch sequence", "run blast", "plot hits"]),
            wf("c", &["parse tree", "cluster genes"]),
            wf("d", &["parse tree", "cluster genes", "plot hits"]),
            wf("e", &[]),
            wf("f", &["run blast"]),
        ]
    }

    fn config() -> SimilarityConfig {
        SimilarityConfig::best_module_sets()
    }

    fn assert_matches_single(sharded: &ShardedCorpus, what: &str) {
        let single = Corpus::build(config(), sharded_workflows(sharded));
        for id in sharded.ids() {
            for k in [0, 2, 10] {
                let expected = single.top_k(&id, k).expect("resident in single corpus");
                assert_eq!(
                    sharded.search(&id, k).expect("resident in shards"),
                    expected,
                    "{what}: query {id}, k {k}"
                );
            }
        }
    }

    fn sharded_workflows(sharded: &ShardedCorpus) -> Vec<Workflow> {
        sharded
            .ids()
            .iter()
            .map(|id| sharded.get(id).unwrap().clone())
            .collect()
    }

    #[test]
    fn build_routes_every_workflow_to_exactly_one_shard() {
        for partition in [ShardPartition::HashId, ShardPartition::RoundRobin] {
            let sharded = ShardedCorpus::build_with(config(), 3, partition, sample());
            assert_eq!(sharded.len(), 6, "{partition}");
            assert_eq!(sharded.shard_count(), 3);
            for id in sharded.ids() {
                let owner = sharded.shard_of(&id).expect("resident");
                let holders = sharded
                    .shards()
                    .iter()
                    .filter(|s| s.index_of(&id).is_some())
                    .count();
                assert_eq!(holders, 1, "{partition}: {id}");
                assert!(sharded.shards()[owner].index_of(&id).is_some());
            }
            assert!(sharded.contains(&"a".into()));
            assert!(!sharded.contains(&"zzz".into()));
            assert_eq!(sharded.get(&"c".into()).unwrap().module_count(), 2);
        }
    }

    #[test]
    fn round_robin_keeps_shards_balanced() {
        let sharded = ShardedCorpus::build_with(config(), 4, ShardPartition::RoundRobin, sample());
        let sizes: Vec<usize> = sharded.shards().iter().map(Corpus::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 6);
        assert!(sizes.iter().all(|&s| s == 1 || s == 2), "{sizes:?}");
    }

    #[test]
    fn zero_shard_count_is_clamped_to_one() {
        let sharded = ShardedCorpus::build(config(), 0, sample());
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.len(), 6);
    }

    #[test]
    fn duplicate_build_ids_replace_like_a_single_corpus() {
        let mut workflows = sample();
        workflows.push(wf("b", &["totally different"]));
        let sharded = ShardedCorpus::build(config(), 3, workflows);
        assert_eq!(sharded.len(), 6);
        assert_eq!(sharded.get(&"b".into()).unwrap().module_count(), 1);
    }

    #[test]
    fn search_matches_the_single_corpus_engine_for_every_partition() {
        for shards in [1, 2, 4, 8] {
            for partition in [ShardPartition::HashId, ShardPartition::RoundRobin] {
                let sharded = ShardedCorpus::build_with(config(), shards, partition, sample());
                assert_matches_single(&sharded, &format!("{shards} shards, {partition}"));
            }
        }
    }

    #[test]
    fn unknown_query_ids_are_none_and_k0_is_empty() {
        let sharded = ShardedCorpus::build(config(), 2, sample());
        assert!(sharded.search(&"zzz".into(), 3).is_none());
        assert_eq!(sharded.search(&"a".into(), 0).unwrap(), Vec::new());
        let (_, stats) = sharded.search_with_stats(&"a".into(), 3).unwrap();
        assert_eq!(stats.candidates, 5, "all non-query residents considered");
    }

    #[test]
    fn churn_routes_through_owning_shards() {
        for partition in [ShardPartition::HashId, ShardPartition::RoundRobin] {
            let mut sharded = ShardedCorpus::build_with(config(), 3, partition, sample());
            assert!(sharded.remove(&"b".into()).is_some());
            assert!(sharded.remove(&"b".into()).is_none());
            assert_eq!(sharded.len(), 5);
            let shard = sharded.add(wf("g", &["run blast", "plot hits"]));
            assert_eq!(sharded.shard_of(&"g".into()), Some(shard));
            // Replacement stays in the owning shard.
            let again = sharded.add(wf("g", &["parse tree"]));
            assert_eq!(shard, again, "{partition}");
            assert_eq!(sharded.len(), 6);
            assert_eq!(sharded.get(&"g".into()).unwrap().module_count(), 1);
            assert_matches_single(&sharded, &format!("churned, {partition}"));
        }
    }

    #[test]
    fn search_batch_matches_sequential_search() {
        let sharded = ShardedCorpus::build(config(), 4, sample());
        let mut queries: Vec<WorkflowId> = sharded.ids();
        queries.push("zzz".into());
        for threads in [1, 3, 16] {
            let batch = sharded.search_batch(&queries, 3, threads);
            assert_eq!(batch.len(), queries.len());
            for (query, hits) in queries.iter().zip(&batch) {
                assert_eq!(
                    hits.as_ref(),
                    sharded.search(query, 3).as_ref(),
                    "threads {threads}, query {query}"
                );
            }
        }
        assert!(sharded.search_batch(&[], 3, 4).is_empty());
    }

    #[test]
    fn sharded_snapshot_roundtrips_including_empty_shards() {
        let dir = std::env::temp_dir().join("wfsim-shard-snapshot-test");
        let _ = std::fs::remove_dir_all(&dir);
        // Round-robin over more shards than workflows forces empty shards.
        let sharded = ShardedCorpus::build_with(
            config(),
            5,
            ShardPartition::RoundRobin,
            sample().into_iter().take(3),
        );
        assert!(sharded.shards().iter().any(Corpus::is_empty));
        sharded.save(&dir).unwrap();
        let restored = ShardedCorpus::load(&dir, config()).unwrap();
        assert_eq!(restored.shard_count(), 5);
        assert_eq!(restored.partition(), ShardPartition::RoundRobin);
        assert_eq!(restored.ids(), sharded.ids());
        for id in sharded.ids() {
            assert_eq!(
                restored.search(&id, 3).unwrap(),
                sharded.search(&id, 3).unwrap(),
                "query {id}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_snapshot_rejects_mismatches_with_typed_errors() {
        let dir = std::env::temp_dir().join("wfsim-shard-snapshot-errors");
        let _ = std::fs::remove_dir_all(&dir);
        let sharded = ShardedCorpus::build(config(), 2, sample());
        sharded.save(&dir).unwrap();

        assert!(matches!(
            ShardedCorpus::load(&dir, SimilarityConfig::bag_of_words()),
            Err(ShardSnapshotError::ConfigMismatch { .. })
        ));

        // Corrupt one shard body: the per-shard checksum catches it.
        let shard_path = dir.join(shard_file_name(1));
        let text = std::fs::read_to_string(&shard_path).unwrap();
        std::fs::write(&shard_path, text.replace("\"id\"", "\"ID\"")).unwrap();
        assert!(matches!(
            ShardedCorpus::load(&dir, config()),
            Err(ShardSnapshotError::Shard {
                shard: 1,
                error: SnapshotError::ChecksumMismatch
            })
        ));

        // load_or_build falls back to a clean rebuild.
        let (rebuilt, origin) =
            ShardedCorpus::load_or_build(&dir, config(), 2, ShardPartition::HashId, sample());
        assert!(matches!(origin, ShardOrigin::Rebuilt(_)));
        assert!(!origin.is_snapshot());
        assert_eq!(rebuilt.len(), 6);

        // A missing manifest and a garbage manifest are typed, too.
        std::fs::write(dir.join(SHARD_MANIFEST_FILE), "junk manifest\n").unwrap();
        assert!(matches!(
            ShardedCorpus::load(&dir, config()),
            Err(ShardSnapshotError::Manifest(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            ShardedCorpus::load(&dir, config()),
            Err(ShardSnapshotError::Io(_))
        ));
    }

    #[test]
    fn service_serves_searches_and_churn_through_locks() {
        let service =
            CorpusService::new(ShardedCorpus::build(config(), 3, sample())).with_threads(4);
        assert_eq!(service.shard_count(), 3);
        assert_eq!(service.len(), 6);
        assert!(!service.is_empty());
        assert!(service.contains(&"a".into()));

        let sharded_ref = ShardedCorpus::build(config(), 3, sample());
        for id in sharded_ref.ids() {
            assert_eq!(
                service.search(&id, 4).unwrap(),
                sharded_ref.search(&id, 4).unwrap(),
                "quiescent service must equal the sharded corpus"
            );
        }
        let queries: Vec<WorkflowId> = sharded_ref.ids();
        let batch = service.search_batch(&queries, 4);
        for (query, hits) in queries.iter().zip(&batch) {
            assert_eq!(hits.as_ref(), sharded_ref.search(query, 4).as_ref());
        }

        service.remove(&"b".into());
        assert!(!service.contains(&"b".into()));
        assert!(service.search(&"b".into(), 2).is_none());
        service.add(wf("g", &["run blast"]));
        assert_eq!(service.len(), 6);
        assert_eq!(service.search(&"g".into(), 2).expect("resident").len(), 2);

        // Round-trip service → sharded keeps contents.
        let back = service.into_sharded();
        assert_eq!(back.len(), 6);
        assert!(back.contains(&"g".into()));
    }

    #[test]
    fn service_save_writes_a_loadable_sharded_snapshot() {
        let dir = std::env::temp_dir().join("wfsim-service-snapshot-test");
        let _ = std::fs::remove_dir_all(&dir);
        let service = CorpusService::new(ShardedCorpus::build_with(
            config(),
            2,
            ShardPartition::RoundRobin,
            sample(),
        ));
        service.add(wf("g", &["run blast"]));
        service.save(&dir).unwrap();
        let restored = ShardedCorpus::load(&dir, config()).unwrap();
        assert_eq!(restored.len(), 7);
        assert!(restored.contains(&"g".into()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn never_token_deadline_search_equals_plain_search() {
        let sharded = ShardedCorpus::build_with(config(), 3, ShardPartition::RoundRobin, sample());
        for id in sharded.ids() {
            let plain = sharded.search(&id, 3).expect("resident");
            let result = sharded
                .search_deadline(&id, 3, &CancelToken::never())
                .expect("resident");
            assert!(!result.degraded, "a never token cannot degrade");
            assert!(result.answered.iter().all(|&a| a));
            assert_eq!(result.answered_count(), 3);
            assert_eq!(result.hits, plain, "query {id}");
        }
    }

    #[test]
    fn pre_fired_deadline_returns_empty_fully_degraded_result() {
        let sharded = ShardedCorpus::build_with(config(), 2, ShardPartition::RoundRobin, sample());
        let token = CancelToken::never();
        token.cancel();
        let result = sharded
            .search_deadline(&"a".into(), 3, &token)
            .expect("residency is checked before the deadline");
        assert!(result.degraded);
        assert_eq!(result.answered, vec![false, false]);
        assert!(result.hits.is_empty());
        assert!(result.stats.cancelled);
        assert_eq!(result.stats.scored, 0);
    }

    #[test]
    fn vetoed_shard_degrades_coverage_not_correctness() {
        let service = CorpusService::new(ShardedCorpus::build_with(
            config(),
            3,
            ShardPartition::RoundRobin,
            sample(),
        ));
        let query: WorkflowId = "a".into();
        let full = service.search(&query, 10).expect("resident");
        for vetoed in 0..3 {
            let result = service
                .search_deadline_with(&query, 10, &CancelToken::never(), |s| s != vetoed)
                .expect("resident");
            assert!(result.degraded, "vetoing shard {vetoed} must degrade");
            for (shard, &answered) in result.answered.iter().enumerate() {
                assert_eq!(answered, shard != vetoed, "shard {shard}");
            }
            assert_eq!(result.answered_count(), 2);
            // Coverage shrinks — correctness does not: every surviving hit
            // carries the exact score the full search proved for that id.
            assert!(result.hits.len() <= full.len());
            for hit in &result.hits {
                let reference = full
                    .iter()
                    .find(|h| h.id == hit.id)
                    .expect("degraded hit exists in the full result");
                assert_eq!(hit.score.to_bits(), reference.score.to_bits());
            }
        }
    }

    #[test]
    fn deadline_firing_mid_scatter_keeps_admitted_shards_exact() {
        // The deadline fires while shard 2 is being admitted: shards 0 and
        // 1 were already drained, so the partial result must be *exactly*
        // the full ranking restricted to their residents — work completed
        // before the deadline survives it, nothing else leaks in.
        let sharded = ShardedCorpus::build_with(config(), 4, ShardPartition::RoundRobin, sample());
        let admitted: Vec<WorkflowId> = sharded.shards()[..2]
            .iter()
            .flat_map(|shard| shard.ids().to_vec())
            .collect();
        let service = CorpusService::new(sharded);
        let query: WorkflowId = "a".into();
        let full = service.search(&query, 10).expect("resident");
        let token = CancelToken::never();
        let result = service
            .search_deadline_with(&query, 10, &token, |shard| {
                if shard == 2 {
                    token.cancel();
                }
                true
            })
            .expect("resident");
        assert!(result.degraded);
        assert!(result.stats.cancelled);
        assert_eq!(result.answered, vec![true, true, false, false]);
        let expected: Vec<SearchHit> = full
            .iter()
            .filter(|hit| admitted.contains(&hit.id))
            .cloned()
            .collect();
        assert_eq!(result.hits, expected, "admitted shards answer exactly");
        assert!(result.hits.len() < full.len(), "coverage genuinely shrank");
    }

    #[test]
    fn service_deadline_search_with_open_gate_is_not_degraded() {
        let service = CorpusService::new(ShardedCorpus::build_with(
            config(),
            2,
            ShardPartition::HashId,
            sample(),
        ));
        let query: WorkflowId = "b".into();
        let full = service.search(&query, 4).expect("resident");
        let result = service
            .search_deadline(&query, 4, &CancelToken::never())
            .expect("resident");
        assert!(!result.degraded);
        assert_eq!(result.hits, full);
        assert!(service
            .search_deadline(&"nope".into(), 4, &CancelToken::never())
            .is_none());
    }
}
