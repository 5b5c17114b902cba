//! The submission/completion queue and the completion-driven file backend.
//!
//! This is the io_uring-shaped core of the overlap story: demand misses
//! and read-schedule hints become *submissions* — `submit(store, page)` →
//! [`Ticket`] — serviced by per-lane worker threads over real
//! [`PageFile`] handles, and the executor checks tickets
//! ([`CompletionQueue::is_complete`]) or parks on them
//! ([`CompletionQueue::await_ticket`]) instead of blocking inside
//! `access()`. A *lane* is one physical file (one per store here; one per
//! shard file in [`crate::ShardedFileAccess`]), so submissions to
//! different files proceed in parallel while each lane stays FIFO —
//! except that a demand miss adopting a still-queued submission promotes
//! it to the front of its lane ([`crate::inflight::InflightTables`]).
//!
//! ## Accounting invariants
//!
//! The backend charges [`IoStats`] *synchronously* in `access()` through
//! the shared [`crate::pool::hierarchy_access`] chokepoint — identical, in
//! order and in value, to [`crate::BufferPool`] and
//! [`crate::FileNodeAccess`]. Only the *physical read* is asynchronous.
//! Every submission is consumed by exactly one charged miss (hints beyond
//! the pipeline window are dropped at submission time, never
//! read-then-discarded), so once [`CompletionQueue::drain`] returns, the
//! lane read counters sum to exactly the reads the charges promised.
//!
//! A failed worker read completes its ticket (so no waiter hangs) and
//! poisons the queue; the next wait/drain panics, preserving
//! [`crate::FileNodeAccess`]'s "storage broke mid-join" contract. The
//! exception is a *kept* read ([`CompletionQueue::submit_frame`], the
//! shared page cache's frame reads): its error travels back with the
//! ticket, so only the query that needed the page fails.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::access::{NodeAccess, Ticket};
use crate::codec::StorageError;
use crate::file::{validate_stores, PageFile};
use crate::inflight::{InflightTables, Phase};
use crate::lru::{BufKey, EvictionPolicy, LruBuffer};
use crate::page::PageId;
use crate::path::PathBuffer;
use crate::pool::IoStats;

/// Why a queue lock can fail: a thread panicked while holding it.
const POISONED: &str = "completion queue state lock poisoned by a panicking thread";

/// Test hook: per-page extra latency applied by the worker *before* the
/// physical read — lets the adversarial-order suites force completions
/// into any order (reversed, starved, random) without touching the files.
pub type DelayFn = Arc<dyn Fn(BufKey) -> Option<Duration> + Send + Sync>;

/// Configuration of a [`CompletionQueue`] and its owning backends.
#[derive(Clone)]
pub struct CompletionConfig {
    /// Worker threads per submission lane (minimum 1).
    pub workers_per_lane: usize,
    /// Maximum unconsumed submissions across the queue; *hints* beyond
    /// this are dropped at submission (demand always submits).
    pub window: usize,
    /// Optional per-page completion delay (tests only).
    pub delay: Option<DelayFn>,
}

impl Default for CompletionConfig {
    fn default() -> Self {
        CompletionConfig {
            workers_per_lane: 2,
            window: 32,
            delay: None,
        }
    }
}

impl fmt::Debug for CompletionConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionConfig")
            .field("workers_per_lane", &self.workers_per_lane)
            .field("window", &self.window)
            .field("delay", &self.delay.as_ref().map(|_| "fn"))
            .finish()
    }
}

/// Shared state between submitters, waiters and lane workers.
struct CqShared {
    state: Mutex<InflightTables>,
    /// Workers sleep here for submissions.
    wakeup: Condvar,
    /// Waiters ([`CompletionQueue::await_ticket`], drain, reset) sleep
    /// here for completions.
    complete: Condvar,
    /// Mirror of the completion frontier for the lock-free poll fast
    /// path: every ticket below this is complete.
    done_floor: AtomicU64,
    /// Mirror of `InflightTables::outstanding`.
    outstanding: AtomicUsize,
    /// Completed pages whose reads succeeded, per lane.
    reads: Vec<AtomicU64>,
    /// Total `is_complete` calls — the busy-spin budget tests meter.
    polls: AtomicU64,
    /// Summed submit→complete latency in nanoseconds (queue wait
    /// included), over `lag_samples` completions.
    lag_nanos: AtomicU64,
    lag_samples: AtomicU64,
    /// Worst single submit→complete latency seen, in nanoseconds.
    lag_max_nanos: AtomicU64,
    /// Sticky read-failure flag; surfaced as a panic at the next wait.
    failed: AtomicBool,
    delay: Option<DelayFn>,
}

/// Owns the worker threads; dropped exactly once, when the last
/// [`CompletionQueue`] clone goes away.
struct QueueCore {
    shared: Arc<CqShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for QueueCore {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.wakeup.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A cloneable handle to one submission/completion queue. Clones share
/// the lanes, tickets and workers — shard-parallel join workers each hold
/// one and submit on their own lanes; the workers shut down when the last
/// clone drops.
#[derive(Clone)]
pub struct CompletionQueue {
    core: Arc<QueueCore>,
}

impl fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("lanes", &self.lane_count())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl CompletionQueue {
    /// Opens one queue over `lane_paths`: lane `i` reads the page file at
    /// `lane_paths[i]`, with `workers_per_lane` dedicated threads each
    /// holding its own read-only [`PageFile`] handle (true per-file read
    /// parallelism; handles inherit [`crate::file::READ_LATENCY_ENV`]).
    pub fn open(
        lane_paths: &[PathBuf],
        workers_per_lane: usize,
        delay: Option<DelayFn>,
    ) -> Result<Self, StorageError> {
        let per_lane = workers_per_lane.max(1);
        // Open every handle before spawning anything, so a bad path is a
        // constructor error, not a dead worker.
        let mut handles = Vec::with_capacity(lane_paths.len() * per_lane);
        for (lane, path) in lane_paths.iter().enumerate() {
            for _ in 0..per_lane {
                handles.push((lane, PageFile::open(path)?));
            }
        }
        let shared = Arc::new(CqShared {
            state: Mutex::new(InflightTables::new(lane_paths.len())),
            wakeup: Condvar::new(),
            complete: Condvar::new(),
            done_floor: AtomicU64::new(1),
            outstanding: AtomicUsize::new(0),
            reads: (0..lane_paths.len()).map(|_| AtomicU64::new(0)).collect(),
            polls: AtomicU64::new(0),
            lag_nanos: AtomicU64::new(0),
            lag_samples: AtomicU64::new(0),
            lag_max_nanos: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            delay,
        });
        let workers = handles
            .into_iter()
            .map(|(lane, file)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared, lane, file))
            })
            .collect();
        Ok(CompletionQueue {
            core: Arc::new(QueueCore { shared, workers }),
        })
    }

    #[inline]
    fn shared(&self) -> &CqShared {
        &self.core.shared
    }

    /// Number of submission lanes.
    #[inline]
    pub fn lane_count(&self) -> usize {
        self.shared().reads.len()
    }

    /// Submits a read-ahead hint for `key` (slot `local` of `lane`'s
    /// file), unless the key is already submitted or the pipeline already
    /// holds `window` unconsumed submissions. Returns whether a
    /// submission was made.
    pub fn submit_hint(&self, lane: usize, key: BufKey, local: PageId, window: usize) -> bool {
        let sh = self.shared();
        let mut st = sh.state.lock().unwrap();
        if st.is_submitted(key) || st.pipeline_len() >= window {
            return false;
        }
        st.submit(lane, key, local);
        sh.outstanding.store(st.outstanding, Ordering::Relaxed);
        drop(st);
        // All lane workers share one wakeup condvar but each claims only
        // its own lane: notify_one could wake a wrong-lane worker, which
        // would re-sleep and strand the job (a lost wakeup = a ticket
        // that never completes = a parked cursor that never resumes).
        sh.wakeup.notify_all();
        true
    }

    /// A demand miss for `key`: adopts the existing submission if one is
    /// unconsumed (promoting it past queued read-ahead on its lane), or
    /// submits a fresh read. Returns the ticket the caller's frame parks
    /// on, and whether the adopted read was already started or staged by
    /// a hint (`true` = the hint paid; `false` = demand pays).
    pub fn adopt_or_submit(&self, lane: usize, key: BufKey, local: PageId) -> (Ticket, bool) {
        let sh = self.shared();
        let mut st = sh.state.lock().unwrap();
        if let Some(entry) = st.consume(key) {
            (Ticket(entry.ticket), entry.phase != Phase::Queued)
        } else {
            // A demand submission is already charged to its caller, so it
            // must not be adoptable by a later re-miss of the same key
            // (see [`InflightTables::submit_demand`]).
            let ticket = st.submit_demand(lane, key, local);
            sh.outstanding.store(st.outstanding, Ordering::Relaxed);
            drop(st);
            // notify_all for the same lost-wakeup reason as `submit_hint`.
            sh.wakeup.notify_all();
            (Ticket(ticket), false)
        }
    }

    /// Submits a read of `key` (slot `local` of `lane`'s file) whose bytes
    /// the caller collects with [`CompletionQueue::take_page`] once the
    /// ticket completes. Never adoptable (the caller is its own
    /// single-flight authority); `front` puts it ahead of the lane's
    /// queued jobs, as a demand, instead of behind them, as a read-ahead.
    pub(crate) fn submit_frame(
        &self,
        lane: usize,
        key: BufKey,
        local: PageId,
        front: bool,
    ) -> Ticket {
        let sh = self.shared();
        let mut st = sh.state.lock().expect(POISONED);
        let ticket = st.submit_frame(lane, key, local, front);
        sh.outstanding.store(st.outstanding, Ordering::Relaxed);
        drop(st);
        // notify_all for the same lost-wakeup reason as `submit_hint`.
        sh.wakeup.notify_all();
        Ticket(ticket)
    }

    /// Moves `ticket`'s job to the front of `lane` if no worker has
    /// claimed it yet (a read-ahead that demand caught up with).
    pub(crate) fn promote(&self, lane: usize, ticket: Ticket) {
        self.shared()
            .state
            .lock()
            .expect(POISONED)
            .promote(lane, ticket.0);
    }

    /// The bytes (or the read error) of a completed
    /// [`CompletionQueue::submit_frame`] read; `None` if it was abandoned
    /// by [`CompletionQueue::reset`] or taken already.
    pub(crate) fn take_page(&self, ticket: Ticket) -> Option<Result<Vec<u8>, StorageError>> {
        self.shared()
            .state
            .lock()
            .expect(POISONED)
            .take_page(ticket.0)
    }

    /// Reader threads across all lanes.
    #[inline]
    pub(crate) fn readers(&self) -> usize {
        self.core.workers.len()
    }

    /// Polls a ticket. Lock-free when the completion frontier has already
    /// passed it; every call is counted (see
    /// [`CompletionQueue::poll_count`]).
    pub fn is_complete(&self, ticket: Ticket) -> bool {
        if ticket.is_none() {
            return true;
        }
        let sh = self.shared();
        sh.polls.fetch_add(1, Ordering::Relaxed);
        if ticket.0 < sh.done_floor.load(Ordering::Acquire) {
            return true;
        }
        sh.state.lock().unwrap().is_done(ticket.0)
    }

    /// Blocks until `ticket` completes. Panics if any read failed — the
    /// "storage broke mid-join" contract of the blocking backends.
    pub fn await_ticket(&self, ticket: Ticket) {
        if ticket.is_none() {
            return;
        }
        let sh = self.shared();
        let mut st = sh.state.lock().unwrap();
        while !st.is_done(ticket.0) {
            st = sh.complete.wait(st).unwrap();
        }
        drop(st);
        self.check_failed();
    }

    /// Whether every submission up to **and including** `ticket` has
    /// completed — the emission-gate predicate ([`NodeAccess::is_settled`]).
    /// Completions arrive out of submission order, so this is strictly
    /// stronger than [`CompletionQueue::is_complete`]; it is lock-free
    /// whenever it returns `true` (the frontier mirror suffices) and
    /// counted like any other poll.
    pub fn is_settled(&self, ticket: Ticket) -> bool {
        if ticket.is_none() {
            return true;
        }
        let sh = self.shared();
        sh.polls.fetch_add(1, Ordering::Relaxed);
        if ticket.0 < sh.done_floor.load(Ordering::Acquire) {
            return true;
        }
        ticket.0 < sh.state.lock().unwrap().done_floor()
    }

    /// Blocks until [`CompletionQueue::is_settled`] holds for `ticket`.
    /// Panics if any read failed (the mid-join contract).
    pub fn await_settled(&self, ticket: Ticket) {
        if ticket.is_none() {
            return;
        }
        let sh = self.shared();
        let mut st = sh.state.lock().unwrap();
        while ticket.0 >= st.done_floor() {
            st = sh.complete.wait(st).unwrap();
        }
        drop(st);
        self.check_failed();
    }

    /// Blocks until every submission has completed — the honesty point at
    /// which lane reads equal the charges that promised them.
    pub fn drain(&self) {
        let sh = self.shared();
        let mut st = sh.state.lock().unwrap();
        while st.outstanding > 0 {
            st = sh.complete.wait(st).unwrap();
        }
        drop(st);
        self.check_failed();
    }

    /// Submissions not yet completed (queued + being read).
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.shared().outstanding.load(Ordering::Relaxed)
    }

    /// Unconsumed submissions (the window the hint bound applies to).
    pub fn pipeline_len(&self) -> usize {
        self.shared().state.lock().unwrap().pipeline_len()
    }

    /// Completed-but-unconsumed submissions (staged pages).
    pub fn staged_len(&self) -> usize {
        self.shared().state.lock().unwrap().staged_len()
    }

    /// Successful reads performed on `lane` so far.
    #[inline]
    pub fn lane_reads(&self, lane: usize) -> u64 {
        self.shared().reads[lane].load(Ordering::Relaxed)
    }

    /// Successful reads across all lanes.
    pub fn total_reads(&self) -> u64 {
        self.shared()
            .reads
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .sum()
    }

    /// Total `is_complete` calls so far (busy-spin metering).
    #[inline]
    pub fn poll_count(&self) -> u64 {
        self.shared().polls.load(Ordering::Relaxed)
    }

    /// Submissions currently queued on `lane` — waiting for a worker,
    /// not yet being read (one term of [`CompletionQueue::in_flight`]).
    pub fn lane_depth(&self, lane: usize) -> usize {
        self.shared().state.lock().unwrap().lane_depth(lane)
    }

    /// Submit→complete latency accounting across all completions so
    /// far: queue wait plus read service time, per completed job.
    pub fn completion_lag(&self) -> CompletionLag {
        let sh = self.shared();
        CompletionLag {
            total_nanos: sh.lag_nanos.load(Ordering::Relaxed),
            samples: sh.lag_samples.load(Ordering::Relaxed),
            max_nanos: sh.lag_max_nanos.load(Ordering::Relaxed),
        }
    }

    /// Abandons queued submissions, waits out in-progress reads, forgets
    /// staged completions and zeroes the read/poll counters — a cold
    /// queue for the next measurement. Ticket numbering continues
    /// (completed stays completed).
    pub fn reset(&self) {
        let sh = self.shared();
        let mut st = sh.state.lock().unwrap();
        st.abandon_queued();
        sh.done_floor.store(st.done_floor(), Ordering::Release);
        while st.outstanding > 0 {
            st = sh.complete.wait(st).unwrap();
        }
        st.clear_consumed();
        sh.done_floor.store(st.done_floor(), Ordering::Release);
        sh.outstanding.store(0, Ordering::Relaxed);
        drop(st);
        self.check_failed();
        for r in &sh.reads {
            r.store(0, Ordering::Relaxed);
        }
        sh.polls.store(0, Ordering::Relaxed);
        sh.lag_nanos.store(0, Ordering::Relaxed);
        sh.lag_samples.store(0, Ordering::Relaxed);
        sh.lag_max_nanos.store(0, Ordering::Relaxed);
    }

    fn check_failed(&self) {
        if self.shared().failed.load(Ordering::Relaxed) {
            panic!("completion-queue page read failed mid-join");
        }
    }
}

/// Submit→complete latency totals of a [`CompletionQueue`] (queue wait
/// plus read service time, accumulated per completed job).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompletionLag {
    /// Summed lag over all completions, nanoseconds.
    pub total_nanos: u64,
    /// Completions accumulated into `total_nanos`.
    pub samples: u64,
    /// Worst single completion lag, nanoseconds.
    pub max_nanos: u64,
}

impl CompletionLag {
    /// Mean submit→complete latency in nanoseconds (0 with no samples).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.samples).unwrap_or(0)
    }
}

/// One lane worker: claim the lane's oldest submission, read it with this
/// worker's own file handle (injected latency and the test delay hook
/// apply here), complete the ticket, repeat until shutdown.
fn worker_loop(shared: Arc<CqShared>, lane: usize, mut file: PageFile) {
    let mut buf = Vec::new();
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.claim(lane) {
                    break job;
                }
                st = shared.wakeup.wait(st).unwrap();
            }
        };
        if let Some(delay) = &shared.delay {
            if let Some(d) = delay(job.key) {
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
            }
        }
        // A demand read can land on a page a concurrent updater appended
        // through its own rw handle: the slot bytes hit the disk on
        // append, but this worker's header (cached at open) — and the
        // on-disk header, until the updater flushes — still carry the old
        // page count. Retry once against the physical file length before
        // declaring the read failed.
        let read = file
            .read_page_into(job.local, &mut buf)
            .or_else(|_| file.read_slot_fresh(job.local, &mut buf));
        if read.is_ok() {
            shared.reads[lane].fetch_add(1, Ordering::Relaxed);
        }
        // A kept read hands its bytes — or its error — to the owner, who
        // fails only the reader that needed them; any other failed read
        // poisons the queue.
        let page = match (job.keep, read) {
            (true, read) => Some(read.map(|()| std::mem::take(&mut buf))),
            (false, Ok(())) => None,
            (false, Err(_)) => {
                shared.failed.store(true, Ordering::Relaxed);
                None
            }
        };
        let lag = job.submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        shared.lag_nanos.fetch_add(lag, Ordering::Relaxed);
        shared.lag_samples.fetch_add(1, Ordering::Relaxed);
        shared.lag_max_nanos.fetch_max(lag, Ordering::Relaxed);
        let mut st = shared.state.lock().unwrap();
        if let Some(page) = page {
            st.deliver(job.ticket, page);
        }
        st.complete(&job);
        shared.done_floor.store(st.done_floor(), Ordering::Release);
        shared.outstanding.store(st.outstanding, Ordering::Relaxed);
        drop(st);
        shared.complete.notify_all();
    }
}

/// The completion-driven file backend: the §4.1 buffer hierarchy of
/// [`crate::FileNodeAccess`] (bit-identical [`IoStats`] by construction,
/// charged synchronously in schedule order), but every miss *submits* its
/// physical read to a [`CompletionQueue`] — one lane per store — and
/// returns immediately with a ticket for the executor to park on.
pub struct CompletionFileAccess {
    /// Store metadata handles (page sizes, counters); the *reads* happen
    /// on the queue workers' own handles.
    files: Vec<PageFile>,
    queue: CompletionQueue,
    lru: LruBuffer,
    paths: Vec<PathBuffer>,
    stats: IoStats,
    window: usize,
    last_miss: Ticket,
    /// Misses whose read a hint had already started or finished.
    staged_hits: u64,
    /// Misses that submitted (or adopted a still-queued) read themselves.
    demand_reads: u64,
}

impl fmt::Debug for CompletionFileAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionFileAccess")
            .field("stores", &self.files.len())
            .field("window", &self.window)
            .field("stats", &self.stats)
            .finish()
    }
}

impl CompletionFileAccess {
    /// Backend over `files` (store `i` = lane `i`) with an LRU buffer of
    /// `cap_pages` and one path buffer per entry of `heights`.
    pub fn with_capacity_pages(
        files: Vec<PageFile>,
        cap_pages: usize,
        heights: &[usize],
        policy: EvictionPolicy,
        cfg: CompletionConfig,
    ) -> Result<Self, StorageError> {
        validate_stores(&files, heights, PageFile::page_bytes)?;
        let paths: Vec<PathBuf> = files.iter().map(|f| f.path().to_path_buf()).collect();
        let queue = CompletionQueue::open(&paths, cfg.workers_per_lane, cfg.delay)?;
        Ok(CompletionFileAccess {
            files,
            queue,
            lru: LruBuffer::with_policy(cap_pages, policy),
            paths: heights.iter().map(|&h| PathBuffer::new(h)).collect(),
            stats: IoStats::default(),
            window: cfg.window.max(1),
            last_miss: Ticket::NONE,
            staged_hits: 0,
            demand_reads: 0,
        })
    }

    /// [`CompletionFileAccess::with_capacity_pages`] with the capacity
    /// given as a byte budget over the files' logical page size.
    pub fn new(
        files: Vec<PageFile>,
        buffer_bytes: usize,
        heights: &[usize],
        policy: EvictionPolicy,
        cfg: CompletionConfig,
    ) -> Result<Self, StorageError> {
        let page_bytes = files
            .first()
            .map(PageFile::page_bytes)
            .ok_or_else(|| StorageError::Corrupt("no page files".into()))?;
        Self::with_capacity_pages(files, buffer_bytes / page_bytes, heights, policy, cfg)
    }

    /// Statistics so far.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// The queue this backend submits to.
    #[inline]
    pub fn queue(&self) -> &CompletionQueue {
        &self.queue
    }

    /// The backing (metadata) file of `store`.
    #[inline]
    pub fn file(&self, store: u8) -> &PageFile {
        &self.files[store as usize]
    }

    /// The underlying LRU buffer (for inspection in tests).
    #[inline]
    pub fn lru(&self) -> &LruBuffer {
        &self.lru
    }

    /// Misses served by a hint-started read (the prefetcher paid).
    #[inline]
    pub fn staged_hits(&self) -> u64 {
        self.staged_hits
    }

    /// Misses that had to submit (or wait out a queued) read themselves.
    #[inline]
    pub fn demand_reads(&self) -> u64 {
        self.demand_reads
    }

    /// Physical page reads completed by the queue workers so far.
    pub fn file_reads(&self) -> u64 {
        self.queue.total_reads()
    }

    /// Completed-but-unconsumed hint reads.
    pub fn staged_pages(&self) -> usize {
        self.queue.staged_len()
    }

    /// Drains the queue and zeroes every counter — buffers, [`IoStats`],
    /// LRU channels, queue reads/polls — so the next run starts cold.
    pub fn reset(&mut self) {
        self.queue.reset();
        self.lru.clear();
        self.lru.reset_io();
        for p in &mut self.paths {
            p.clear();
        }
        for f in &mut self.files {
            f.reset_io();
        }
        self.stats = IoStats::default();
        self.last_miss = Ticket::NONE;
        self.staged_hits = 0;
        self.demand_reads = 0;
    }
}

impl NodeAccess for CompletionFileAccess {
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        let miss = crate::pool::hierarchy_access(
            &mut self.lru,
            &mut self.paths,
            &mut self.stats,
            store,
            page,
            depth,
        );
        if miss {
            let key = BufKey::new(store, page);
            let (ticket, hinted) = self.queue.adopt_or_submit(store as usize, key, page);
            if hinted {
                self.staged_hits += 1;
            } else {
                self.demand_reads += 1;
            }
            self.last_miss = ticket;
        }
        miss
    }

    fn pin(&mut self, store: u8, page: PageId) {
        self.lru.pin(BufKey::new(store, page));
    }

    fn unpin(&mut self, store: u8, page: PageId) {
        self.lru.unpin(BufKey::new(store, page));
    }

    fn io_stats(&self) -> IoStats {
        self.stats
    }

    fn wants_hints(&self) -> bool {
        true
    }

    fn will_access(&mut self, store: u8, page: PageId, _depth: usize) {
        let key = BufKey::new(store, page);
        // Skip pages a demand access would not read anyway; the queue
        // itself dedupes against in-flight submissions and enforces the
        // window bound.
        if self.lru.contains(key) || self.paths[store as usize].contains(page) {
            return;
        }
        self.queue
            .submit_hint(store as usize, key, page, self.window);
    }

    fn completion_driven(&self) -> bool {
        true
    }

    fn last_miss_ticket(&self) -> Ticket {
        self.last_miss
    }

    fn is_complete(&self, ticket: Ticket) -> bool {
        self.queue.is_complete(ticket)
    }

    fn await_ticket(&self, ticket: Ticket) {
        self.queue.await_ticket(ticket)
    }

    fn is_settled(&self, ticket: Ticket) -> bool {
        self.queue.is_settled(ticket)
    }

    fn await_settled(&self, ticket: Ticket) {
        self.queue.await_settled(ticket)
    }

    fn in_flight(&self) -> usize {
        self.queue.in_flight()
    }

    fn drain_completions(&self) {
        self.queue.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{self, META_BYTES};
    use crate::temp::TempDir;
    use crate::FileNodeAccess;

    fn demo_file(dir: &TempDir, name: &str, pages: u32) -> PageFile {
        let slot = codec::slot_bytes_for(2);
        let mut f = PageFile::create(dir.file(name), 1024, slot).unwrap();
        let mut buf = Vec::new();
        for i in 0..pages {
            let node = codec::DiskNode {
                level: 0,
                entries: vec![codec::DiskEntry {
                    rect: [f64::from(i), 0.0, f64::from(i) + 1.0, 1.0],
                    child: u64::from(i),
                }],
            };
            codec::encode_node(&node, slot, &mut buf).unwrap();
            f.append_page(&buf).unwrap();
        }
        f.set_meta([7; META_BYTES]);
        f.flush().unwrap();
        f
    }

    fn completion_access(dir: &TempDir, pages: u32, cfg: CompletionConfig) -> CompletionFileAccess {
        let f = demo_file(dir, "t.rsj", pages);
        CompletionFileAccess::with_capacity_pages(vec![f], 2, &[2], EvictionPolicy::Lru, cfg)
            .unwrap()
    }

    #[test]
    fn charges_match_the_blocking_backend_and_reads_settle_at_drain() {
        let dir = TempDir::new("cq").unwrap();
        let mut acc = completion_access(&dir, 6, CompletionConfig::default());
        let f2 = demo_file(&dir, "o.rsj", 6);
        let mut oracle =
            FileNodeAccess::with_capacity_pages(vec![f2], 2, &[2], EvictionPolicy::Lru).unwrap();
        let seq = [
            (PageId(0), 0),
            (PageId(1), 1),
            (PageId(2), 1),
            (PageId(1), 1),
            (PageId(4), 1),
            (PageId(0), 0),
        ];
        for &(p, d) in &seq {
            assert_eq!(acc.access(0, p, d), oracle.access(0, p, d), "page {p}");
        }
        assert_eq!(acc.stats(), oracle.stats());
        acc.drain_completions();
        assert_eq!(
            acc.file_reads(),
            acc.stats().disk_accesses,
            "every charge became exactly one physical read"
        );
        assert!(acc.is_complete(acc.last_miss_ticket()));
    }

    #[test]
    fn hints_stage_reads_that_demand_adopts() {
        let dir = TempDir::new("cq").unwrap();
        let mut acc = completion_access(&dir, 4, CompletionConfig::default());
        acc.will_access(0, PageId(3), 1);
        // Wait for the hint's read to stage.
        for _ in 0..500 {
            if acc.staged_pages() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(acc.staged_pages(), 1);
        assert!(acc.access(0, PageId(3), 1), "still a charged miss");
        assert_eq!(acc.staged_hits(), 1);
        assert_eq!(acc.demand_reads(), 0);
        assert!(
            acc.is_complete(acc.last_miss_ticket()),
            "adopted ticket was already complete"
        );
    }

    #[test]
    fn await_ticket_blocks_until_a_delayed_completion() {
        let dir = TempDir::new("cq").unwrap();
        let cfg = CompletionConfig {
            delay: Some(Arc::new(|_| Some(Duration::from_millis(20)))),
            ..CompletionConfig::default()
        };
        let mut acc = completion_access(&dir, 4, cfg);
        assert!(acc.access(0, PageId(2), 1));
        let t = acc.last_miss_ticket();
        acc.await_ticket(t);
        assert!(acc.is_complete(t));
        assert_eq!(acc.file_reads(), 1);
    }

    #[test]
    fn hint_window_bounds_the_pipeline() {
        let dir = TempDir::new("cq").unwrap();
        let cfg = CompletionConfig {
            window: 2,
            // Hold completions so the pipeline cannot drain under us.
            delay: Some(Arc::new(|_| Some(Duration::from_millis(50)))),
            ..CompletionConfig::default()
        };
        let mut acc = completion_access(&dir, 8, cfg);
        for p in 0..8 {
            acc.will_access(0, PageId(p), 1);
        }
        assert!(acc.queue().pipeline_len() <= 2);
        acc.drain_completions();
        assert!(acc.file_reads() <= 2, "over-window hints were never read");
    }

    #[test]
    fn reset_restores_a_cold_backend() {
        let dir = TempDir::new("cq").unwrap();
        let mut acc = completion_access(&dir, 4, CompletionConfig::default());
        acc.will_access(0, PageId(3), 1);
        acc.access(0, PageId(1), 1);
        acc.reset();
        assert_eq!(acc.stats(), IoStats::default());
        assert_eq!(acc.file_reads(), 0);
        assert_eq!(acc.staged_pages(), 0);
        assert_eq!((acc.staged_hits(), acc.demand_reads()), (0, 0));
        assert_eq!(acc.queue().poll_count(), 0);
        assert!(acc.access(0, PageId(1), 1), "cold again after reset");
        assert_eq!(acc.demand_reads(), 1);
    }

    #[test]
    fn mismatched_page_sizes_are_rejected() {
        let dir = TempDir::new("cq").unwrap();
        let a = demo_file(&dir, "a.rsj", 1);
        let slot = codec::slot_bytes_for(2);
        let b = PageFile::create(dir.file("b.rsj"), 2048, slot).unwrap();
        assert!(matches!(
            CompletionFileAccess::with_capacity_pages(
                vec![a, b],
                4,
                &[1, 1],
                EvictionPolicy::Lru,
                CompletionConfig::default(),
            )
            .unwrap_err(),
            StorageError::PageSizeMismatch { .. }
        ));
    }

    #[test]
    fn drop_with_pending_submissions_does_not_hang() {
        let dir = TempDir::new("cq").unwrap();
        let cfg = CompletionConfig {
            delay: Some(Arc::new(|_| Some(Duration::from_millis(5)))),
            ..CompletionConfig::default()
        };
        let mut acc = completion_access(&dir, 8, cfg);
        for p in 0..8 {
            acc.will_access(0, PageId(p), 1);
        }
        drop(acc); // joins workers without draining the queue
    }

    #[test]
    fn out_of_order_completions_fold_into_the_poll_fast_path() {
        let dir = TempDir::new("cq").unwrap();
        // First submitted page completes last.
        let cfg = CompletionConfig {
            workers_per_lane: 2,
            delay: Some(Arc::new(|key: BufKey| {
                (key.page == PageId(0)).then(|| Duration::from_millis(30))
            })),
            ..CompletionConfig::default()
        };
        let mut acc = completion_access(&dir, 4, cfg);
        assert!(acc.access(0, PageId(0), 1));
        let slow = acc.last_miss_ticket();
        assert!(acc.access(0, PageId(1), 1));
        let fast = acc.last_miss_ticket();
        assert!(slow < fast);
        acc.await_ticket(fast);
        assert!(acc.is_complete(fast), "later ticket completed first");
        acc.await_ticket(slow);
        assert!(acc.is_complete(slow));
        assert_eq!(acc.file_reads(), 2);
    }
}
