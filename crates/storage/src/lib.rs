//! Paged storage substrate for the SIGMOD'93 spatial-join reproduction.
//!
//! The paper measures I/O cost in the *number of disk accesses* needed to
//! fetch R\*-tree pages into a bounded buffer (§4.1, §4.3). This crate
//! provides exactly that machinery, deterministic and in-memory:
//!
//! * [`PageStore`] — a simulated disk of fixed-size pages; every read that
//!   misses the buffers is charged as one disk access.
//! * [`LruBuffer`] — the system buffer of §4.1 ("LRU-buffer, follows the
//!   last recently used policy") with the *pinning* extension of §4.3 that
//!   SJ4/SJ5 rely on: a pinned page is never chosen as eviction victim.
//! * [`PathBuffer`] — the tree-private buffer of §4.1 ("a so-called path
//!   buffer accommodating all nodes of the path which was accessed last").
//! * [`BufferPool`] — composes the two lookup layers (path buffer first,
//!   then LRU, then "disk") and tallies [`IoStats`].
//! * [`NodeAccess`] — the pluggable page-access interface the join
//!   executors charge against; implemented by [`BufferPool`] (the
//!   accounting oracle), [`FileNodeAccess`] (the blocking reference) and
//!   [`SharedCacheFileAccess`] (the production backend, and the one
//!   buffer concurrent join workers share).
//! * [`CostModel`] — the paper's linear execution-time estimate: 15 ms
//!   positioning per access, 5 ms per KByte transferred, 3.9 µs per
//!   floating-point comparison (§4.1, Figure 2).
//! * [`HeapFile`] — a slotted-page heap file for exact object geometry,
//!   used by the refinement step of the ID-/object-spatial-joins.
//!
//! Pages carry arbitrary payloads (`PageStore<T>`); the R\*-tree crate
//! instantiates `T = Node`. Since the metric of interest is page *accesses*,
//! not bytes moved, payloads are not serialized — the page-size parameter
//! only determines node capacity and transfer cost.
//!
//! The **persistence subsystem** makes the disk real:
//!
//! * [`codec`] — the endian-stable binary page format (header with magic/
//!   version/page sizes, fixed-size node slots) and its typed
//!   [`StorageError`]s;
//! * [`PageFile`] — a page file over `std::fs::File` with read/write
//!   counters; one tree is one page file;
//! * [`FileNodeAccess`] — the file-backed [`NodeAccess`] backend: the same
//!   path-buffer → LRU hierarchy as [`BufferPool`] (bit-identical
//!   `disk_accesses` at equal capacity), but every miss performs an actual,
//!   blocking page read from the backing file; a read that fails reaches
//!   the executor as a typed error ([`PageNode::Failed`]);
//! * [`SharedPageCache`] / [`SharedCacheFileAccess`] — the production
//!   backend: a latched shared frame cache over the [`CompletionQueue`]
//!   (one reader lane per store): sharded, pin-counted frames walking an
//!   Empty → Reading → Resident → Dirty state machine and holding the
//!   decoded node of their bytes, single-flight physical reads across
//!   concurrent demanders, and warm frames that outlive a single join —
//!   while every worker keeps private path buffers and a private logical
//!   LRU, so its [`IoStats`] stay bit-identical to a private-buffer
//!   worker, and hands its executor the nodes its misses read
//!   ([`NodeAccess::page_node`]). Each handle hides read latency one way
//!   only: it reads ahead along the executor's announced §4.3 schedule
//!   ([`NodeAccess::hint`]);
//! * [`TempDir`] — a dependency-free scratch-directory helper for tests
//!   and benches (the environment has no `tempfile` crate).
//!
//! The **write path** makes the persistent structures updatable in place:
//!
//! * [`NodeAccessMut`] — the write half of the access boundary: dirty-page
//!   registration with pin-aware write-back on eviction and explicit
//!   flush, charged in [`IoStats::page_writes`] ([`BufferPool`] is the
//!   accounting oracle, the file backends write for real);
//! * a persistent **free-page list** in [`PageFile`] — header-chained
//!   marker slots, `allocate`/`release` with reuse-before-append,
//!   validated on open;
//! * [`UpdateBackend`] — the trait the R\*-tree crate's `OpenTree`
//!   drives incremental `insert`/`delete` through;
//! * [`EntryFormat`] — the on-disk entry layout: 40-byte f64 entries by
//!   default, or the paper's literal 20-byte f32 entries (outward-rounded)
//!   behind a header flag;
//! * [`BulkPageWriter`] — the streaming bulk-build write path: append-
//!   order page emission into a [`PageFile`] with one reused codec
//!   scratch buffer; the header is written only by `finish`, so a build
//!   that crashes mid-emission reads back as a typed error;
//! * [`PageStore`] grows the same reuse-before-append free list plus
//!   opt-in [`PageEvent`] tracking, keeping the in-memory allocator in
//!   lockstep with the files.

pub mod access;
pub mod bulk;
pub mod cache;
pub mod codec;
pub mod completion;
pub mod cost;
pub mod file;
pub mod heapfile;
mod inflight;
pub mod lru;
pub mod page;
pub mod path;
pub mod pool;
pub mod temp;
pub mod writeback;

pub use access::{NodeAccess, NodeAccessMut, PageNode, PageRef, Ticket};
pub use bulk::BulkPageWriter;
pub use cache::{CacheConfig, FrameState, SharedCacheFileAccess, SharedPageCache};
pub use codec::{DiskEntry, DiskNode, EntryFormat, FileHeader, StorageError};
pub use completion::{CompletionLag, CompletionQueue};
pub use cost::CostModel;
pub use file::{FileNodeAccess, PageFile, READ_LATENCY_ENV};
pub use heapfile::{HeapFile, RecordId};
pub use lru::{Access, EvictionPolicy, LruBuffer};
pub use page::{PageEvent, PageId, PageStore};
pub use path::PathBuffer;
pub use pool::{BufKey, BufferPool, IoStats};
pub use temp::TempDir;
pub use writeback::UpdateBackend;
