//! Per-query spans: wall time split into queue/plan/io/join/emit.
//!
//! The stage boundaries, and what each honestly measures:
//!
//! ```text
//! ──┤ queue ├──┤ plan ├──┤───────────── drive ─────────────├──┤ emit ├──
//!               handle +      ┌───────────┬───────────┐       response
//!   admission   cursor        │   join    │    io     │       assembly +
//!   wait        construction  │ (compute) │ (blocked) │       recording
//!                             └───────────┴───────────┘
//! ```
//!
//! * **queue** — time parked in the admission wait queue;
//! * **plan** — opening the session's cache handle and building the
//!   cursor (schedule materialization included);
//! * **io** — wall time the driver was *blocked on reads*: the summed
//!   durations of `await_ticket` measured inside [`InstrumentedAccess`]
//!   — for the frame-pool backend, the waits for a demanded page whose
//!   read (or read-ahead) is still in flight. Submission itself is
//!   asynchronous and costs nanoseconds; what hurts a query is waiting,
//!   and that is exactly what this stage counts;
//! * **join** — drive-loop time minus io: comparisons, sweeps, scratch
//!   work, and the per-pair sink;
//! * **emit** — response assembly and telemetry recording after the
//!   last pair.
//!
//! With the [`Disabled`](rsj_telemetry::Disabled) recorder every clock
//! read above compiles out and the span reports zeros.

use std::cell::Cell;
use std::marker::PhantomData;
use std::time::Instant;

use rsj_storage::{IoStats, NodeAccess, PageId, PageNode, PageRef, Ticket};
use rsj_telemetry::Recorder;

/// One query's stage split, all in microseconds. `total_us` is
/// measured end to end (admission through emit) and can exceed the
/// stage sum by the unattributed gaps between clock reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanReport {
    pub queue_us: u64,
    pub plan_us: u64,
    pub io_us: u64,
    pub join_us: u64,
    pub emit_us: u64,
    pub total_us: u64,
}

/// `Instant::now()` only when the recorder is live.
#[inline]
pub(crate) fn now_if<R: Recorder>() -> Option<Instant> {
    if R::ENABLED {
        Some(Instant::now())
    } else {
        None
    }
}

/// Microseconds since `start` (0 when recording is off).
#[inline]
pub(crate) fn us_since(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_micros().min(u64::MAX as u128) as u64)
}

/// A [`NodeAccess`] wrapper that accumulates the wall time its owner
/// spends *blocked* inside the backend — the span's io stage. Pure
/// forwarding otherwise: accounting ([`IoStats`]) is bit-identical to
/// the wrapped backend by construction, which the service conformance
/// test pins against the `BufferPool` oracle.
pub struct InstrumentedAccess<A, R: Recorder> {
    inner: A,
    /// Nanoseconds spent inside blocking waits. `Cell`: the blocking
    /// methods take `&self`, and a query's access is single-threaded.
    blocked_nanos: Cell<u64>,
    _recorder: PhantomData<R>,
}

impl<A: NodeAccess, R: Recorder> InstrumentedAccess<A, R> {
    pub fn new(inner: A) -> Self {
        InstrumentedAccess {
            inner,
            blocked_nanos: Cell::new(0),
            _recorder: PhantomData,
        }
    }

    /// Total wall time spent blocked on reads, in nanoseconds (0 with
    /// recording off).
    pub fn blocked_nanos(&self) -> u64 {
        self.blocked_nanos.get()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Consumes the wrapper, returning the wrapped backend.
    pub fn into_inner(self) -> A {
        self.inner
    }

    #[inline]
    fn timed<T>(&self, f: impl FnOnce(&A) -> T) -> T {
        if R::ENABLED {
            let start = Instant::now();
            let out = f(&self.inner);
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.blocked_nanos.set(self.blocked_nanos.get() + ns);
            out
        } else {
            f(&self.inner)
        }
    }
}

impl<A: NodeAccess, R: Recorder> NodeAccess for InstrumentedAccess<A, R> {
    #[inline]
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        self.inner.access(store, page, depth)
    }

    #[inline]
    fn pin(&mut self, store: u8, page: PageId) {
        self.inner.pin(store, page)
    }

    #[inline]
    fn unpin(&mut self, store: u8, page: PageId) {
        self.inner.unpin(store, page)
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    #[inline]
    fn page_node(&mut self, store: u8, page: PageId) -> PageNode {
        self.inner.page_node(store, page)
    }

    fn wants_hints(&self) -> bool {
        self.inner.wants_hints()
    }

    fn hint(&mut self, upcoming: &[PageRef]) {
        self.inner.hint(upcoming)
    }

    fn await_ticket(&self, ticket: Ticket) {
        self.timed(|a| a.await_ticket(ticket))
    }
}
