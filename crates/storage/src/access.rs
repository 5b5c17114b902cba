//! The page-access abstraction at the storage/tree boundary.
//!
//! The executor *reports* every logical page access so the buffer
//! hierarchy can answer the paper's question: "would this access have
//! gone to disk?" [`NodeAccess`] is that reporting interface. Where the
//! node contents come from is the backend's call
//! ([`NodeAccess::page_node`]): the accounting backends leave them to the
//! in-memory tree (charge-free borrows, [`crate::PageStore::peek`]), while
//! [`crate::SharedCacheFileAccess`] hands the executor the node decoded
//! from the very bytes its miss read. Implementations:
//!
//! * [`crate::BufferPool`] — the sequential stack of §4.1 (path buffer →
//!   LRU → disk), owned by one executor: the accounting oracle;
//! * [`crate::FileNodeAccess`] — the same hierarchy over real page files
//!   (single or sharded, [`crate::ShardedFileAccess`]), where every miss
//!   performs an actual, blocking read: the blocking reference;
//! * [`crate::SharedCacheFileAccess`] — a handle onto the shared frame
//!   cache over the completion queue, serving decoded nodes and hiding
//!   read latency by reading ahead: the production backend, and the one
//!   buffer concurrent workers share (each worker keeps private path
//!   buffers and a private logical LRU, as each drives its own
//!   traversal).
//!
//! `&mut A` also implements the trait, so an executor can borrow a caller's
//! accountant instead of owning it and the caller can run several cursors
//! against one accountant in turn.
//!
//! ## Read-schedule hints
//!
//! SJ3–SJ5 compute the order in which child pages will be visited *before*
//! descending (the §4.3 read schedule). [`NodeAccess::hint`] lets the
//! executor hand that tail of the schedule to the backend as **advisory**
//! information. Its one consumer is [`crate::SharedCacheFileAccess`],
//! which reads upcoming pages ahead of demand (overlapping I/O with
//! computation); hints carry no accounting weight — `disk_accesses` is
//! charged by the demand [`NodeAccess::access`] exactly as the paper
//! charges it, whether or not a read-ahead completed first. The
//! executor's contract is that every hinted page is subsequently demanded
//! (hints are a prefix of the true access sequence, never phantom reads),
//! assuming the join runs to completion. Executors materialize a schedule
//! only when [`NodeAccess::wants_hints`] says the backend will use it, so
//! the other backends pay nothing for it.
//!
//! A page whose read is still in flight is reported as
//! [`PageNode::Pending`] with a [`Ticket`]; the executor parks on it with
//! [`NodeAccess::await_ticket`] and asks again.

use std::sync::Arc;

use crate::codec::{DiskNode, StorageError};
use crate::page::PageId;
use crate::pool::IoStats;

/// Identifies one submitted asynchronous page read. Tickets are issued in
/// submission order, starting at 1; [`Ticket::NONE`] (0) is the "no read
/// pending" sentinel and is always complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ticket(pub u64);

impl Ticket {
    /// The "no read pending" sentinel; always complete.
    pub const NONE: Ticket = Ticket(0);

    /// Whether this is the [`Ticket::NONE`] sentinel.
    #[inline]
    pub const fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// One upcoming page access of a read schedule: which store, which page,
/// at which depth (0 = root) it will be charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRef {
    /// Which participating tree/store the page belongs to.
    pub store: u8,
    /// The page within that store.
    pub page: PageId,
    /// Distance from the root at which the access will be charged.
    pub depth: usize,
}

impl PageRef {
    /// Creates a schedule entry.
    #[inline]
    pub const fn new(store: u8, page: PageId, depth: usize) -> Self {
        PageRef { store, page, depth }
    }
}

/// What a backend hands the executor for a page it charged
/// ([`NodeAccess::page_node`]).
#[derive(Debug)]
pub enum PageNode {
    /// The backend holds no page contents: read the in-memory tree.
    InMemory,
    /// The node decoded from the page's bytes, every directory entry's
    /// child range-checked against its store ([`crate::codec::child_page`]).
    Ready(Arc<DiskNode>),
    /// The page's read is still in flight: wait for the ticket
    /// ([`NodeAccess::await_ticket`]), then ask again.
    Pending(Ticket),
    /// The page's bytes could not be read or do not decode.
    Failed(StorageError),
}

/// Records logical page accesses and pinning against a buffer hierarchy.
///
/// `store` tags which participating tree/store a page belongs to (pages of
/// different trees sharing one buffer must not collide); `depth` is the
/// page's distance from its tree's root, used for path-buffer bookkeeping.
pub trait NodeAccess {
    /// Records an access to `page` of `store` at `depth` (0 = root).
    /// Returns `true` if the access had to go to disk.
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool;

    /// Pins `store`'s `page`, preventing its eviction. Pins nest.
    fn pin(&mut self, store: u8, page: PageId);

    /// Releases one pin of `store`'s `page`.
    fn unpin(&mut self, store: u8, page: PageId);

    /// I/O statistics accumulated by this accountant so far.
    fn io_stats(&self) -> IoStats;

    /// The contents of `store`'s `page`, which the executor charged
    /// through [`NodeAccess::access`] and has not stepped past. Default:
    /// [`PageNode::InMemory`] — the accounting backends leave contents
    /// to the in-memory tree.
    fn page_node(&mut self, _store: u8, _page: PageId) -> PageNode {
        PageNode::InMemory
    }

    /// Whether this backend does anything with read-schedule hints right
    /// now. Executors ask before materializing each schedule and skip it
    /// when this is `false` (the default), so accounting-only backends —
    /// and a read-ahead backend over a warm pool — pay nothing for the
    /// hint machinery.
    fn wants_hints(&self) -> bool {
        false
    }

    /// Advisory: the tail of the read schedule — the upcoming accesses in
    /// the order the executor plans to make them (module docs,
    /// "Read-schedule hints"). Must not change any accounting. Default:
    /// no-op.
    fn hint(&mut self, _upcoming: &[PageRef]) {}

    /// Blocks until the read behind `ticket` (from
    /// [`PageNode::Pending`]) has completed. No accounting moves — the
    /// miss was charged when it happened. Default: no-op (a backend that
    /// never reports a pending page never issues a ticket).
    fn await_ticket(&self, _ticket: Ticket) {}
}

/// The write half of the page-access boundary: dirty-page registration
/// with deferred write-back.
///
/// A mutation path calls [`NodeAccess::access`] for every page it reads on
/// the way down (charged like any other access) and then
/// [`NodeAccessMut::write`] for every page it changed, handing over the
/// page's encoded payload. The backend keeps the page buffered **dirty**;
/// the physical write happens when the dirty page is *evicted* (pin-aware:
/// a pinned dirty page is never a victim) or at
/// [`NodeAccessMut::flush_writes`] — classic write-back, so a page mutated
/// many times between evictions costs one physical write. Every physical
/// write-back charges one [`IoStats::page_writes`].
///
/// Accounting-only backends ([`crate::BufferPool`]) implement the same
/// protocol without materializing bytes: they charge `page_writes` where a
/// real backend would write, which makes them the write-path accounting
/// oracle exactly as they are the read-path one.
pub trait NodeAccessMut: NodeAccess {
    /// Registers `page` of `store` as mutated, with its current encoded
    /// payload. The page becomes buffer-resident (without hit/miss
    /// accounting — the caller materialized it) and dirty.
    fn write(&mut self, store: u8, page: PageId, payload: &[u8]);

    /// Drops any dirty state of `page` without writing it back — the page
    /// was released and its content is dead (the free-list marker is
    /// written by the file layer, not by buffer write-back).
    fn discard(&mut self, store: u8, page: PageId);

    /// Writes back every dirty page (charging `page_writes` per page) and
    /// clears the dirty set. Does *not* persist file headers — that is the
    /// owner's close/flush protocol, which knows the metadata.
    fn flush_writes(&mut self) -> Result<(), StorageError>;
}

impl<A: NodeAccess + ?Sized> NodeAccess for &mut A {
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        (**self).access(store, page, depth)
    }

    fn pin(&mut self, store: u8, page: PageId) {
        (**self).pin(store, page)
    }

    fn unpin(&mut self, store: u8, page: PageId) {
        (**self).unpin(store, page)
    }

    fn io_stats(&self) -> IoStats {
        (**self).io_stats()
    }

    fn page_node(&mut self, store: u8, page: PageId) -> PageNode {
        (**self).page_node(store, page)
    }

    fn wants_hints(&self) -> bool {
        (**self).wants_hints()
    }

    fn hint(&mut self, upcoming: &[PageRef]) {
        (**self).hint(upcoming)
    }

    fn await_ticket(&self, ticket: Ticket) {
        (**self).await_ticket(ticket)
    }
}

impl<A: NodeAccessMut + ?Sized> NodeAccessMut for &mut A {
    fn write(&mut self, store: u8, page: PageId, payload: &[u8]) {
        (**self).write(store, page, payload)
    }

    fn discard(&mut self, store: u8, page: PageId) {
        (**self).discard(store, page)
    }

    fn flush_writes(&mut self) -> Result<(), StorageError> {
        (**self).flush_writes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufferPool;

    fn drive(acc: &mut impl NodeAccess) -> IoStats {
        acc.access(0, PageId(1), 0);
        acc.access(0, PageId(1), 0);
        acc.pin(0, PageId(1));
        acc.unpin(0, PageId(1));
        acc.io_stats()
    }

    #[test]
    fn buffer_pool_implements_the_trait() {
        let mut pool = BufferPool::with_capacity_pages(4, &[2]);
        let stats = drive(&mut pool);
        assert_eq!(stats.disk_accesses, 1);
        assert_eq!(stats.total_accesses(), 2);
    }

    #[test]
    fn mut_reference_forwards() {
        let mut pool = BufferPool::with_capacity_pages(4, &[2]);
        let stats = drive(&mut &mut pool);
        assert_eq!(stats, pool.stats());
        assert_eq!(stats.disk_accesses, 1);
    }

    #[test]
    fn hints_are_accounting_neutral_on_default_impls() {
        let mut pool = BufferPool::with_capacity_pages(4, &[2]);
        let before = pool.stats();
        assert!(!pool.wants_hints());
        pool.hint(&[PageRef::new(0, PageId(3), 1), PageRef::new(0, PageId(4), 1)]);
        assert_eq!(pool.stats(), before, "hints must not charge anything");
        assert!(pool.access(0, PageId(3), 1), "hinted page is still cold");
    }
}
