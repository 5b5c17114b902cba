//! The submission/completion queue behind the shared page cache.
//!
//! Frame reads of [`crate::SharedPageCache`] become *submissions* —
//! `submit_frame(lane, key)` → [`Ticket`] — serviced by per-lane worker
//! threads over their own [`PageFile`] handles. A reader that needs the
//! bytes checks the ticket ([`CompletionQueue::is_complete`]) or parks on
//! it ([`CompletionQueue::await_ticket`]) and then collects the outcome.
//! A *lane* is one physical file (one per store), so reads of different
//! files proceed in parallel while each lane stays FIFO — except that a
//! demand is queued ahead of read-ahead on its lane, and a read-ahead
//! that demand catches up with is promoted to the front.
//!
//! Every read hands its bytes — or its error — back with its ticket, so
//! a page that fails to read fails only the reader that needed it; the
//! queue stays up. Once [`CompletionQueue::drain`] returns, the lane read
//! counters cover every submitted read that succeeded.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::access::Ticket;
use crate::codec::StorageError;
use crate::file::PageFile;
use crate::inflight::InflightTables;
use crate::lru::BufKey;
use crate::page::PageId;

/// Why a queue lock can fail: a thread panicked while holding it.
const POISONED: &str = "completion queue state lock poisoned by a panicking thread";

/// Test hook: per-page extra latency applied by the worker *before* the
/// physical read — lets the adversarial-order suites force completions
/// into any order (reversed, starved, random) without touching the files.
pub type DelayFn = Arc<dyn Fn(BufKey) -> Option<Duration> + Send + Sync>;

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
    /// Summed submit→complete latency in nanoseconds (queue wait
    /// included), over `lag_samples` completions.
    lag_nanos: AtomicU64,
    lag_samples: AtomicU64,
    /// Worst single submit→complete latency seen, in nanoseconds.
    lag_max_nanos: AtomicU64,
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
/// the lanes, tickets and workers; the workers shut down when the last
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
            lag_nanos: AtomicU64::new(0),
            lag_samples: AtomicU64::new(0),
            lag_max_nanos: AtomicU64::new(0),
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

    /// Submits a read of `key` (slot `local` of `lane`'s file) whose bytes
    /// the caller collects with [`CompletionQueue::take_page`] once the
    /// ticket completes. `front` puts it ahead of the lane's queued jobs,
    /// as a demand, instead of behind them, as a read-ahead.
    pub(crate) fn submit_frame(
        &self,
        lane: usize,
        key: BufKey,
        local: PageId,
        front: bool,
    ) -> Ticket {
        let sh = self.shared();
        let mut st = sh.state.lock().expect(POISONED);
        let ticket = st.submit(lane, key, local, front);
        sh.outstanding.store(st.outstanding, Ordering::Relaxed);
        drop(st);
        // All lane workers share one wakeup condvar but each claims only
        // its own lane: notify_one could wake a wrong-lane worker, which
        // would re-sleep and strand the job (a lost wakeup = a ticket
        // that never completes = a reader that never resumes).
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

    /// Polls a ticket. Lock-free when the completion frontier has already
    /// passed it.
    pub fn is_complete(&self, ticket: Ticket) -> bool {
        if ticket.is_none() {
            return true;
        }
        let sh = self.shared();
        if ticket.0 < sh.done_floor.load(Ordering::Acquire) {
            return true;
        }
        sh.state.lock().expect(POISONED).is_done(ticket.0)
    }

    /// Blocks until `ticket` completes (successfully or not — the outcome
    /// travels with [`CompletionQueue::take_page`]).
    pub fn await_ticket(&self, ticket: Ticket) {
        if ticket.is_none() {
            return;
        }
        let sh = self.shared();
        let mut st = sh.state.lock().expect(POISONED);
        while !st.is_done(ticket.0) {
            st = sh.complete.wait(st).expect(POISONED);
        }
    }

    /// Blocks until every submission has completed — the honesty point at
    /// which lane reads cover every submitted read.
    pub fn drain(&self) {
        let sh = self.shared();
        let mut st = sh.state.lock().expect(POISONED);
        while st.outstanding > 0 {
            st = sh.complete.wait(st).expect(POISONED);
        }
    }

    /// Submissions not yet completed (queued + being read).
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.shared().outstanding.load(Ordering::Relaxed)
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

    /// Submissions currently queued on `lane` — waiting for a worker,
    /// not yet being read (one term of [`CompletionQueue::in_flight`]).
    pub fn lane_depth(&self, lane: usize) -> usize {
        self.shared().state.lock().expect(POISONED).lane_depth(lane)
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
    /// uncollected outcomes and zeroes the read and lag counters — a cold
    /// queue for the next measurement. Ticket numbering continues
    /// (completed stays completed).
    pub fn reset(&self) {
        let sh = self.shared();
        let mut st = sh.state.lock().expect(POISONED);
        st.abandon_queued();
        sh.done_floor.store(st.done_floor(), Ordering::Release);
        while st.outstanding > 0 {
            st = sh.complete.wait(st).expect(POISONED);
        }
        st.clear_pages();
        sh.done_floor.store(st.done_floor(), Ordering::Release);
        sh.outstanding.store(0, Ordering::Relaxed);
        drop(st);
        for r in &sh.reads {
            r.store(0, Ordering::Relaxed);
        }
        sh.lag_nanos.store(0, Ordering::Relaxed);
        sh.lag_samples.store(0, Ordering::Relaxed);
        sh.lag_max_nanos.store(0, Ordering::Relaxed);
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
            let mut st = shared.state.lock().expect(POISONED);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.claim(lane) {
                    break job;
                }
                st = shared.wakeup.wait(st).expect(POISONED);
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
        // The bytes — or the error — go back to the submitter, who fails
        // only the reader that needed them.
        let page = read.map(|()| std::mem::take(&mut buf));
        let lag = job.submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        shared.lag_nanos.fetch_add(lag, Ordering::Relaxed);
        shared.lag_samples.fetch_add(1, Ordering::Relaxed);
        shared.lag_max_nanos.fetch_max(lag, Ordering::Relaxed);
        let mut st = shared.state.lock().expect(POISONED);
        st.deliver(job.ticket, page);
        st.complete(&job);
        shared.done_floor.store(st.done_floor(), Ordering::Release);
        shared.outstanding.store(st.outstanding, Ordering::Relaxed);
        drop(st);
        shared.complete.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{self, META_BYTES};
    use crate::temp::TempDir;

    fn demo_file(dir: &TempDir, name: &str, pages: u32) -> PathBuf {
        let slot = codec::slot_bytes_for(2);
        let path = dir.file(name);
        let mut f = PageFile::create(&path, 1024, slot).unwrap();
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
        path
    }

    fn queue(dir: &TempDir, pages: u32, delay: Option<DelayFn>) -> CompletionQueue {
        CompletionQueue::open(&[demo_file(dir, "t.rsj", pages)], 2, delay).unwrap()
    }

    fn submit(q: &CompletionQueue, page: u32) -> Ticket {
        q.submit_frame(0, BufKey::new(0, PageId(page)), PageId(page), false)
    }

    #[test]
    fn frame_reads_hand_back_their_bytes_or_their_error() {
        let dir = TempDir::new("cq").unwrap();
        let q = queue(&dir, 4, None);
        let ok = submit(&q, 2);
        let bad = submit(&q, 9);
        q.drain();
        assert!(q.is_complete(ok) && q.is_complete(bad));
        assert!(q.take_page(ok).unwrap().is_ok());
        assert!(q.take_page(ok).is_none(), "taken exactly once");
        assert!(q.take_page(bad).unwrap().is_err(), "the error travels back");
        assert_eq!(q.total_reads(), 1, "only the successful read counts");
        let again = submit(&q, 3);
        q.await_ticket(again);
        assert!(
            q.take_page(again).unwrap().is_ok(),
            "a failure never poisons the queue"
        );
    }

    #[test]
    fn out_of_order_completions_fold_into_the_poll_fast_path() {
        let dir = TempDir::new("cq").unwrap();
        // The first submitted page completes last.
        let delay: DelayFn =
            Arc::new(|key: BufKey| (key.page == PageId(0)).then(|| Duration::from_millis(30)));
        let q = queue(&dir, 4, Some(delay));
        let slow = submit(&q, 0);
        let fast = submit(&q, 1);
        assert!(slow < fast);
        q.await_ticket(fast);
        assert!(q.is_complete(fast), "later ticket completed first");
        q.await_ticket(slow);
        assert!(q.is_complete(slow));
        assert_eq!(q.total_reads(), 2);
    }

    #[test]
    fn reset_abandons_queued_reads_and_zeroes_the_counters() {
        let dir = TempDir::new("cq").unwrap();
        let delay: DelayFn = Arc::new(|_| Some(Duration::from_millis(5)));
        let q = queue(&dir, 8, Some(delay));
        let tickets: Vec<Ticket> = (0..8).map(|p| submit(&q, p)).collect();
        q.reset();
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.total_reads(), 0);
        assert_eq!(q.completion_lag().samples, 0);
        for t in tickets {
            assert!(q.is_complete(t), "no waiter can hang on an abandoned read");
            assert!(q.take_page(t).is_none(), "outcomes are forgotten");
        }
    }

    #[test]
    fn drop_with_pending_submissions_does_not_hang() {
        let dir = TempDir::new("cq").unwrap();
        let delay: DelayFn = Arc::new(|_| Some(Duration::from_millis(5)));
        let q = queue(&dir, 8, Some(delay));
        for p in 0..8 {
            submit(&q, p);
        }
        drop(q); // joins the workers without draining the lanes
    }
}
