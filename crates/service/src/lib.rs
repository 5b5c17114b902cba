//! # rsj-service — a long-lived join service over the warm shared cache
//!
//! [`JoinService`] wraps the streaming executor the way a server wraps
//! a storage engine: the trees are opened once — from their headers and
//! root pages only — every query joins the nodes decoded from the pages
//! it reads through one warm [`SharedPageCache`] (so steady-state
//! requests perform zero physical reads), and the paper's bit-exact I/O
//! accounting keeps flowing per query — each request still reports
//! [`JoinStats`] identical to a private `BufferPool` oracle of the same
//! capacity. A page that fails to read or decode fails only the query
//! that needed it ([`ServiceError::Storage`]).
//!
//! Three serving concerns live here, all first-class:
//!
//! * **Admission control** ([`Admission`]) — bounded in-flight permits
//!   plus a bounded wait queue; past both bounds a query is rejected
//!   with a typed [`Overloaded`], never blocked. Permits release on
//!   drop, so panicking workers give their slot back.
//! * **Per-query spans** ([`SpanReport`]) — wall time split into
//!   queue/plan/io/join/emit (see the [`span`] module docs for what
//!   each stage honestly measures).
//! * **Telemetry** — every query records into an [`rsj_telemetry`]
//!   registry (the [`metrics`] module documents the family catalogue),
//!   and the storage layer's own counters (cache hit ratio, per-store
//!   read splits, completion lag) are pulled in at snapshot time.
//!   [`JoinService::telemetry_text`] renders the whole picture.
//!
//! Recording compiles out: [`JoinService::execute_unrecorded`] runs
//! the identical query path with [`rsj_telemetry::Disabled`], which
//! removes every clock read and metric touch at compile time — the CI
//! bench guard pins the instrumented path at ≥ 0.95× of that.

pub mod admission;
pub mod metrics;
pub mod span;

pub use admission::{Admission, Overloaded, Permit};
pub use metrics::{export_cache, export_queue, STAGES};
pub use span::{InstrumentedAccess, SpanReport};

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rsj_core::exec::JoinCursor;
use rsj_core::{JoinPlan, JoinStats};
use rsj_rtree::{DataId, TreeRoot};
use rsj_storage::{CacheConfig, PageFile, SharedPageCache, StorageError};
use rsj_telemetry::{Disabled, Live, Recorder, Registry};

use metrics::ServiceMetrics;
use span::{now_if, us_since};

/// How a [`JoinService`] is provisioned.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Queries allowed to run concurrently (admission permits).
    pub max_in_flight: usize,
    /// Callers allowed to wait for a permit beyond that; the next one
    /// is rejected with [`Overloaded`].
    pub max_queue: usize,
    /// Shared frame-pool capacity in pages. 0 = size to the working
    /// set (every page of both trees), which makes steady-state
    /// serving eviction-free.
    pub cache_pages: usize,
    /// Per-query *logical* LRU capacity (the paper's buffer budget a
    /// query is charged against). 0 = same as the frame pool.
    pub handle_pages: usize,
    /// Frame-pool layout knobs, forwarded to [`SharedPageCache`].
    pub cache: CacheConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_in_flight: 4,
            max_queue: 16,
            cache_pages: 0,
            handle_pages: 0,
            // One frame shard: with the pool sized to the working set
            // this makes warm serving provably eviction-free (a hashed
            // split could overload one slice and re-read pages).
            cache: CacheConfig {
                shards: 1,
                ..CacheConfig::default()
            },
        }
    }
}

/// Service-level failure: rejected by admission, or the storage layer
/// failed underneath.
#[derive(Debug)]
pub enum ServiceError {
    /// Both admission bounds were full; try again later.
    Overloaded(Overloaded),
    /// Opening the underlying stores failed, or a page a query needed
    /// did not read or decode.
    Storage(StorageError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded(o) => o.fmt(f),
            ServiceError::Storage(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<Overloaded> for ServiceError {
    fn from(o: Overloaded) -> Self {
        ServiceError::Overloaded(o)
    }
}

impl From<StorageError> for ServiceError {
    fn from(e: StorageError) -> Self {
        ServiceError::Storage(e)
    }
}

/// One answered query.
#[derive(Debug)]
pub struct QueryResponse {
    /// The result pairs, when collection was requested (empty
    /// otherwise — the stats still count them).
    pub pairs: Vec<(DataId, DataId)>,
    /// The paper's accounting for this query: bit-identical to a
    /// private `BufferPool` oracle of the same logical capacity.
    pub stats: JoinStats,
    /// Times the query's cursor parked on an in-flight read.
    pub parks: u64,
    /// The query's stage split (zeros when run unrecorded).
    pub span: SpanReport,
}

/// A long-lived join service over two persisted trees (module docs).
///
/// What stays resident: the two file headers' facts and root summaries
/// ([`TreeRoot`]), the frame pool's decoded frames, and per running
/// query the decoded nodes of the pages its logical buffers hold. No
/// in-memory tree.
pub struct JoinService {
    roots: [TreeRoot; 2],
    /// Page reads `open` made outside the frame pool (the two roots).
    open_reads: u64,
    cache: Arc<SharedPageCache>,
    handle_pages: usize,
    admission: Admission,
    registry: Arc<Registry>,
    metrics: ServiceMetrics,
    /// Summed per-query logical `disk_accesses` — the "logical" side
    /// of the physical-vs-logical export.
    logical_reads: AtomicU64,
}

impl JoinService {
    /// Opens the trees at `r_path`/`s_path` — each file's header and
    /// root page, nothing else — and provisions the shared cache and
    /// admission layer.
    pub fn open(r_path: &Path, s_path: &Path, cfg: ServiceConfig) -> Result<Self, ServiceError> {
        let (mut r_file, mut s_file) = (PageFile::open(r_path)?, PageFile::open(s_path)?);
        let roots = [TreeRoot::load(&mut r_file)?, TreeRoot::load(&mut s_file)?];
        let open_reads = r_file.reads() + s_file.reads();
        let heights = roots.map(|t| t.height as usize);
        let cache_pages = if cfg.cache_pages > 0 {
            cfg.cache_pages
        } else {
            (r_file.page_count() + s_file.page_count()) as usize
        };
        let cache = SharedPageCache::open(
            &[r_path.to_path_buf(), s_path.to_path_buf()],
            cache_pages,
            &heights,
            cfg.cache,
        )?;
        let handle_pages = if cfg.handle_pages > 0 {
            cfg.handle_pages
        } else {
            cache_pages
        };
        let registry = Arc::new(Registry::new());
        let metrics = ServiceMetrics::register(&registry);
        let admission = Admission::with_gauges(
            cfg.max_in_flight,
            cfg.max_queue,
            metrics.in_flight.clone(),
            metrics.queue_depth.clone(),
        );
        Ok(JoinService {
            roots,
            open_reads,
            cache,
            handle_pages,
            admission,
            registry,
            metrics,
            logical_reads: AtomicU64::new(0),
        })
    }

    /// Runs one join, recording telemetry. `collect_pairs` controls
    /// whether the result pairs are materialized into the response.
    pub fn execute(
        &self,
        plan: JoinPlan,
        collect_pairs: bool,
    ) -> Result<QueryResponse, ServiceError> {
        self.execute_with::<Live>(plan, collect_pairs)
    }

    /// The identical query path with recording compiled out (zero
    /// clock reads, zero metric touches) — the uninstrumented baseline
    /// the CI overhead guard compares against.
    pub fn execute_unrecorded(
        &self,
        plan: JoinPlan,
        collect_pairs: bool,
    ) -> Result<QueryResponse, ServiceError> {
        self.execute_with::<Disabled>(plan, collect_pairs)
    }

    /// [`JoinService::execute`], generic over the recording switch.
    pub fn execute_with<R: Recorder>(
        &self,
        plan: JoinPlan,
        collect_pairs: bool,
    ) -> Result<QueryResponse, ServiceError> {
        let mut pairs = Vec::new();
        let (stats, parks, span) = self.run::<R, _>(plan, |a, b| {
            if collect_pairs {
                pairs.push((a, b));
            }
        })?;
        Ok(QueryResponse {
            pairs,
            stats,
            parks,
            span,
        })
    }

    /// Streams result pairs into `sink` instead of materializing them.
    /// The sink runs inside the join stage; a sink that panics unwinds
    /// through admission safely (the permit releases on drop).
    pub fn execute_streaming<F: FnMut(DataId, DataId)>(
        &self,
        plan: JoinPlan,
        sink: F,
    ) -> Result<(JoinStats, SpanReport), ServiceError> {
        let (stats, _, span) = self.run::<Live, F>(plan, sink)?;
        Ok((stats, span))
    }

    fn run<R: Recorder, F: FnMut(DataId, DataId)>(
        &self,
        plan: JoinPlan,
        mut sink: F,
    ) -> Result<(JoinStats, u64, SpanReport), ServiceError> {
        let t_total = now_if::<R>();
        let permit = match self.admission.acquire() {
            Ok(p) => p,
            Err(overloaded) => {
                R::add(&self.metrics.queries_overloaded, 1);
                return Err(overloaded.into());
            }
        };
        let queue_us = permit.waited().as_micros().min(u64::MAX as u128) as u64;

        // plan: session handle + cursor construction (schedule
        // materialization included).
        let t_plan = now_if::<R>();
        let handle = self.cache.handle(self.handle_pages);
        let mut access = InstrumentedAccess::<_, R>::new(handle);
        let [r, s] = &self.roots;
        let mut cursor = JoinCursor::from_roots(r, s, plan, &mut access);
        let plan_us = us_since(t_plan);

        // drive: join compute + blocked-on-read time, separated below.
        let t_drive = now_if::<R>();
        for (a, b) in &mut cursor {
            sink(a, b);
        }
        if let Some(e) = cursor.take_error() {
            R::add(&self.metrics.queries_failed, 1);
            return Err(e.into());
        }
        let stats = cursor.stats();
        let parks = cursor.parks();
        drop(cursor);
        let drive_us = us_since(t_drive);
        let io_us = access.blocked_nanos() / 1_000;
        let join_us = drive_us.saturating_sub(io_us);
        self.logical_reads
            .fetch_add(stats.io.disk_accesses, Ordering::Relaxed);

        // emit: response assembly + telemetry recording.
        let t_emit = now_if::<R>();
        R::observe(&self.metrics.queue_wait_us, queue_us);
        for (hist, v) in self
            .metrics
            .stage_us
            .iter()
            .zip([queue_us, plan_us, io_us, join_us])
        {
            R::observe(hist, v);
        }
        R::observe(&self.metrics.pairs, stats.result_pairs);
        R::add(&self.metrics.parks, parks);
        R::add(&self.metrics.queries_ok, 1);
        drop(permit);
        let emit_us = us_since(t_emit);
        let total_us = us_since(t_total);
        R::observe(&self.metrics.stage_us[4], emit_us);
        R::observe(&self.metrics.query_us, total_us);

        Ok((
            stats,
            parks,
            SpanReport {
                queue_us,
                plan_us,
                io_us,
                join_us,
                emit_us,
                total_us,
            },
        ))
    }

    /// Pulls the storage-layer counters into the registry and renders
    /// the full text exposition.
    pub fn telemetry_text(&self) -> String {
        self.export();
        self.registry.render_text()
    }

    /// Pulls the storage-layer counters (cache + completion queue)
    /// into the registry without rendering.
    pub fn export(&self) {
        export_cache(
            &self.registry,
            &self.cache,
            self.logical_reads.load(Ordering::Relaxed),
        );
        export_queue(&self.registry, self.cache.queue());
    }

    /// The metrics registry (push families live here; call
    /// [`JoinService::export`] first for the pull families).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The shared frame pool queries run over.
    pub fn cache(&self) -> &Arc<SharedPageCache> {
        &self.cache
    }

    /// The admission layer (bounds and live levels).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Warm fraction of the cache's materialize calls so far.
    pub fn hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }

    /// Page reads [`JoinService::open`] made besides the file headers:
    /// one root page per tree. Everything else is read through the frame
    /// pool, by the queries that need it.
    pub fn open_reads(&self) -> u64 {
        self.open_reads
    }

    /// Opens a [`Session`]: one plan, queried repeatedly.
    pub fn session(&self, plan: JoinPlan) -> Session<'_> {
        Session {
            service: self,
            plan,
            collect_pairs: false,
        }
    }
}

/// A session-scoped plan: the plan is fixed once, every
/// [`Session::query`] reuses it over the service's warm cache.
#[derive(Clone, Copy)]
pub struct Session<'s> {
    service: &'s JoinService,
    plan: JoinPlan,
    collect_pairs: bool,
}

impl Session<'_> {
    /// Whether queries materialize their pairs into the response.
    pub fn collect_pairs(mut self, yes: bool) -> Self {
        self.collect_pairs = yes;
        self
    }

    /// Runs the session's plan once.
    pub fn query(&self) -> Result<QueryResponse, ServiceError> {
        self.service.execute(self.plan, self.collect_pairs)
    }

    /// The session's plan.
    pub fn plan(&self) -> JoinPlan {
        self.plan
    }
}
