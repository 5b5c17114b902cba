//! The latched shared page cache: pin-counted frames over the
//! submission/completion queue, so file-backed parallel joins share one
//! warm buffer — and, since the write latch landed, so background
//! updaters can mutate pages *under* that join traffic.
//!
//! This is the one buffer parallel workers share (the §6 deployment where
//! a page faulted by one worker is a buffer hit for the next). Without
//! it every worker owns a private LRU over its own file handles, so the
//! upper-level pages every subtree task touches are physically read N
//! times, and nothing stays warm between requests. [`SharedPageCache`]
//! closes that gap: one sharded frame table holds the page budget for
//! the whole deployment, frames carry a state machine, a pin counter and
//! a write latch (the kv-store `PAGE_BUSY`/`PAGE_WAIT` blueprint), and
//! all physical reads flow through one [`CompletionQueue`] with a lane
//! per store. Frames hold *decoded nodes*: the bytes a read brings in
//! are decoded once ([`codec::decode_node_fmt`], every directory entry's
//! child range-checked with [`codec::child_page`]) and served to every
//! reader of the frame, so a join over the cache consumes the pages it
//! reads instead of an in-memory copy of the tree.
//!
//! ## Frame states
//!
//! ```text
//!              materialize (miss)           read completes
//!   Empty ───────────────────────▶ Reading ───────────────▶ Resident
//!     ▲        submit + pin                  (settle)       │      ▲
//!     │                               begin_write           │      │
//!     │                        (waits: no pin, no read)     ▼      │ clear_dirty /
//!     │ evict (unpinned only)                            Writing   │ flush_dirty
//!     │                               complete_write        │      │
//!     ├────────────────────────────────────────────────── Dirty ───┘
//!     │ evict while Dirty: the payload moves to the DRAIN —
//!     ▼ bytes are never dropped
//!   drain (BufKey → bytes) ── flush_dirty / take_dirty_evicted ──▶ file
//! ```
//!
//! * **Empty → Reading**: a miss installs the frame, pins it for the
//!   duration of the read (a reading frame is never an eviction victim)
//!   and submits a single pread to the queue — ahead of queued
//!   read-ahead on its lane; a handle's read-ahead enters the same way
//!   behind it. Concurrent demanders of the same key — from any worker —
//!   find the frame in `Reading` and adopt the *same* in-flight ticket
//!   instead of issuing a duplicate pread: single-flight. A reader that
//!   needs the node pins the frame until it has taken it.
//! * **Reading → Resident**: settled lazily, the next time the shard is
//!   touched (or explicitly by [`SharedPageCache::drain`]); the read pin
//!   is released and the bytes are decoded into the frame's node — or,
//!   if they do not read or decode, into the error every reader of the
//!   frame gets, typed, without poisoning the queue. Every public entry
//!   point settles first, so state observations within one shard-lock
//!   hold can never disagree.
//! * **Resident/Dirty/Empty → Writing → Dirty**: the write latch.
//!   [`SharedPageCache::write`] waits until the frame holds no pin and no
//!   read is in flight (**writers wait on pins**), marks the frame
//!   `Writing`, and installs the new bytes as the frame's dirty payload;
//!   the old decoded node goes with the old bytes, and the next demand
//!   decodes the new ones — no reader is served a stale node.
//!   While a frame is `Writing`, `materialize` and `pin` park on the
//!   shard's latch condvar (**readers wait on the write latch**).
//! * **Dirty eviction carries the payload.** Evicting a dirty frame
//!   moves its bytes into the shard's *drain*; they leave the cache only
//!   through [`SharedPageCache::flush_dirty`] (which writes them through
//!   a caller-supplied writer) or [`SharedPageCache::take_dirty_evicted`]
//!   (which hands `(key, bytes)` pairs to an owner who writes them back
//!   itself). A re-demand of a drained page is served *from the drain*,
//!   node decoded from the drained bytes — reading the file would
//!   resurrect stale bytes.
//! * Eviction skips pinned frames ([`LruBuffer`] semantics: pinned
//!   overflow beyond capacity is legal, trimmed as pins release).
//!
//! ## Logical vs physical accounting
//!
//! Each worker drives the cache through a [`SharedCacheFileAccess`]
//! handle carrying **private path buffers and a private logical LRU** —
//! the full §4.1 decision hierarchy of [`crate::BufferPool`], charged
//! through the same `pool::hierarchy_access` chokepoint. A
//! handle's [`IoStats`] is therefore bit-identical to a private-buffer
//! worker of the same capacity *by construction*, independent of what
//! other workers do. Only on a charged logical miss does the handle
//! consult the shared frame layer, where the *physical* story is
//! decided: a resident or in-flight frame costs nothing
//! ([`SharedCacheFileAccess::warm_hits`]); an empty frame submits one
//! pread ([`SharedCacheFileAccess::cold_faults`], counted in
//! [`SharedPageCache::physical_reads`]). A handle's read-ahead is a pread
//! paid in advance for a miss its schedule says is coming, and consumed
//! by exactly that miss. Hence the measurable dedup:
//! `physical_reads ≤ Σ per-worker disk_accesses`, strictly `<` whenever
//! workers overlap — and a warm pool serves repeat joins at near-zero
//! physical reads while their logical charges stay exactly the paper's.
//!
//! The write path mirrors the split. A handle opened through
//! [`SharedPageCache::update_handle`] owns the read-write [`PageFile`] of
//! its store and implements [`crate::NodeAccessMut`]/[`UpdateBackend`]:
//! its *logical* `page_writes` replay the [`crate::BufferPool`] oracle
//! bit-for-bit (install + dirty, charged at private eviction or flush),
//! while the *bytes* ride the shared frames and reach the disk once, at
//! [`SharedPageCache::flush_dirty`] — counted in
//! [`SharedPageCache::physical_writes`], so
//! `physical_writes ≤ Σ per-worker page_writes` for the same reason the
//! read inequality holds.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::access::{NodeAccess, NodeAccessMut, PageNode, PageRef, Ticket};
use crate::codec::{self, DiskNode, EntryFormat, StorageError};
use crate::completion::{CompletionQueue, DelayFn};
use crate::file::{validate_stores, PageFile};
use crate::lru::{EvictionPolicy, LruBuffer};
use crate::page::PageId;
use crate::path::PathBuffer;
use crate::pool::{BufKey, IoStats};
use crate::writeback::UpdateBackend;

/// Path-buffer height of a store opened for updates: an updatable tree
/// can grow past its open-time height (a root split shifts every depth),
/// so the buffer is sized for any height the tree can reach — the same
/// bound the rtree crate's `OpenTree` uses (`MAX_HEIGHT`), which keeps
/// the update handle's logical charges aligned with the
/// [`crate::FileNodeAccess`] oracle.
const UPDATE_MAX_HEIGHT: usize = 64;

/// Floor of the node-table sweep thresholds (frame shards and handles):
/// tables this small are never swept.
const SWEEP_MIN: usize = 32;

/// Upper bound for [`auto_shard_count`]: past this, extra shards only
/// fragment the page budget without reducing contention further.
const MAX_SHARDS: usize = 32;

/// Shard count sized to the deployment: the worker count rounded up to a
/// power of two (so [`shard_of`]'s multiplicative hash spreads evenly),
/// capped at [`MAX_SHARDS`] — and never more shards than the cache has
/// frames, so small pools do not split into zero-capacity slices.
fn auto_shard_count(workers: usize, cap_pages: usize) -> usize {
    workers
        .max(1)
        .next_power_of_two()
        .min(MAX_SHARDS)
        .min(cap_pages.max(1))
}

/// The frame shard of `key` among `shards`: Fibonacci hashing of the
/// packed `(store, page)` (store in the high half) — multiply by 2⁶⁴/φ,
/// keep the high bits. Deterministic across platforms, and well spread
/// even for the dense sequential page ids the allocators hand out.
fn shard_of(key: BufKey, shards: usize) -> usize {
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    let packed = (u64::from(key.store) << 32) | u64::from(key.page.0);
    (packed.wrapping_mul(GOLDEN) >> 32) as usize % shards
}

/// A frame's decoded node, or why its bytes do not decode.
type FrameNode = Result<Arc<DiskNode>, String>;

/// A page's frame as a reader holds it: the decoded node, or the ticket
/// of its read still in flight.
enum FrameRead {
    Node(FrameNode),
    Reading(Ticket),
}

/// Observable state of one cache frame (see the module diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameState {
    /// Not resident, no read in flight, no payload pending.
    Empty,
    /// A single-flight pread is in flight; the frame is read-pinned.
    Reading,
    /// Bytes are resident and clean; the frame serves their decoded
    /// node.
    Resident,
    /// The cache holds bytes newer than the file (write-back pending) —
    /// either as a dirty resident frame or as an evicted payload waiting
    /// in the drain.
    Dirty,
    /// A writer holds the frame's write latch; readers wait.
    Writing,
}

/// Configuration of a [`SharedPageCache`].
#[derive(Clone)]
pub struct CacheConfig {
    /// Expected worker fleet size — sizes the shard count (the fleet
    /// rounded up to a power of two, at most 32 and at most the pool's
    /// frames) unless `shards` overrides it.
    pub workers: usize,
    /// Explicit shard count (0 = auto from `workers` and the capacity).
    pub shards: usize,
    /// Queue reader threads per store lane (minimum 1).
    pub workers_per_lane: usize,
    /// Optional per-page completion delay (tests only).
    pub delay: Option<DelayFn>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            workers: 4,
            shards: 0,
            workers_per_lane: 2,
            delay: None,
        }
    }
}

impl CacheConfig {
    /// Frames one cold handle keeps reading ahead of its join over
    /// `stores` page files: twice the queue's readers, so every reader
    /// has a next page queued while it serves the current one. A pool of
    /// the handle's pages, plus the trees' path depths, plus this window
    /// never has read-ahead crowd out a frame the join still needs.
    pub fn read_ahead_window(&self, stores: usize) -> usize {
        2 * stores * self.workers_per_lane.max(1)
    }
}

impl fmt::Debug for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheConfig")
            .field("workers", &self.workers)
            .field("shards", &self.shards)
            .field("workers_per_lane", &self.workers_per_lane)
            .field("delay", &self.delay.as_ref().map(|_| "fn"))
            .finish()
    }
}

/// One shard of the frame table: residency, recency, pins and dirty bits
/// live in the intrusive [`LruBuffer`]; `reading` carries the in-flight
/// ticket of every frame currently in [`FrameState::Reading`] (each such
/// frame also holds one read pin in the LRU, so it cannot be evicted
/// under it); `payloads` holds the bytes of every dirty *resident*
/// frame, `drained` the bytes of dirty frames the LRU has evicted —
/// together they are the no-lost-payloads contract.
struct FrameShard {
    lru: LruBuffer,
    reading: HashMap<BufKey, Ticket>,
    /// Encoded bytes of every dirty resident frame.
    payloads: HashMap<BufKey, Vec<u8>>,
    /// Decoded node of each resident frame, decoded once per physical
    /// read (at settle) or per write (on first demand after it). Entries
    /// of evicted frames linger until the next sweep and are never
    /// served: a frame's residency is decided by `lru`, and every path
    /// that makes a frame resident again replaces its entry.
    nodes: HashMap<BufKey, FrameNode>,
    /// Bytes of dirty frames evicted since the last flush/drain — the
    /// write-back worklist, payloads included.
    drained: HashMap<BufKey, Vec<u8>>,
    /// Frames a writer currently holds the write latch of.
    writing: HashSet<BufKey>,
    /// Writers parked on the shard latch waiting for a pin release —
    /// tells `unpin` when a notify is worth it.
    write_waiters: usize,
    /// Scratch for draining the LRU's dirty-eviction queue.
    evicted: Vec<BufKey>,
}

/// One frame shard plus its latch condvar: writers park here while the
/// frame is pinned, readers while it is `Writing`.
struct Shard {
    frames: Mutex<FrameShard>,
    latch: Condvar,
}

/// The sharded, pin-counted concurrent frame cache. Cheap to share via
/// [`Arc`]; it outlives any single join, which is the whole point —
/// successive requests hit warm frames. Workers access it through
/// [`SharedCacheFileAccess`] handles.
pub struct SharedPageCache {
    shards: Vec<Shard>,
    queue: CompletionQueue,
    /// Preads submitted by cache-level misses (every one becomes exactly
    /// one physical read on a queue lane).
    physical: AtomicU64,
    /// Pages written to disk through [`SharedPageCache::flush_dirty`].
    physical_writes: AtomicU64,
    /// Physical preads split by store (index = store = lane).
    physical_by_store: Vec<AtomicU64>,
    /// Materialize calls served by a resident frame.
    frame_hits: AtomicU64,
    /// Materialize calls that adopted another worker's in-flight read
    /// (the single-flight saving, made visible).
    adoptions: AtomicU64,
    /// Materialize calls served from the dirty-eviction drain.
    drain_hits: AtomicU64,
    heights: Vec<usize>,
    page_bytes: usize,
    /// The backing files, by store — [`SharedPageCache::update_handle`]
    /// opens its read-write handle from here.
    paths: Vec<PathBuf>,
    /// Entry format of each store's file (frame decoding).
    formats: Vec<EntryFormat>,
    /// Page count of each store, grown by writes past the end: every
    /// decoded directory entry's child must lie below it.
    page_counts: Vec<AtomicU32>,
    /// Frames a cold handle reads ahead of its join
    /// ([`CacheConfig::read_ahead_window`]).
    read_ahead_window: usize,
}

impl fmt::Debug for SharedPageCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedPageCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity())
            .field("physical_reads", &self.physical_reads())
            .field("physical_writes", &self.physical_writes())
            .finish()
    }
}

/// Locks a frame shard, recovering from a poisoned mutex: every mutation
/// under the lock leaves the frame table structurally consistent between
/// statements, so a worker that panicked mid-critical-section can at
/// worst leak a stale recency order or an extra read pin — no reason to
/// cascade-abort the rest of the fleet.
fn lock_frames(shard: &Shard) -> MutexGuard<'_, FrameShard> {
    shard.frames.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parks on the shard latch (poison-recovering, same rationale as
/// [`lock_frames`]).
fn wait_latch<'a>(
    shard: &'a Shard,
    guard: MutexGuard<'a, FrameShard>,
) -> MutexGuard<'a, FrameShard> {
    shard
        .latch
        .wait(guard)
        .unwrap_or_else(PoisonError::into_inner)
}

impl SharedPageCache {
    /// Opens one cache over the page files at `paths` (store `i` = lane
    /// `i`), holding `cap_pages` frames split over the shards, for trees
    /// of the given `heights`. The files are validated (consistent page
    /// size) and then read only by the queue's own lane workers.
    pub fn open(
        paths: &[PathBuf],
        cap_pages: usize,
        heights: &[usize],
        cfg: CacheConfig,
    ) -> Result<Arc<Self>, StorageError> {
        let files = paths
            .iter()
            .map(PageFile::open)
            .collect::<Result<Vec<_>, _>>()?;
        validate_stores(&files, heights)?;
        let page_bytes = files
            .first()
            .map(PageFile::page_bytes)
            .ok_or_else(|| StorageError::Corrupt("no page files".into()))?;
        let formats = files.iter().map(PageFile::entry_format).collect();
        let page_counts = files
            .iter()
            .map(|f| AtomicU32::new(f.page_count()))
            .collect();
        drop(files);
        let read_ahead_window = cfg.read_ahead_window(paths.len());
        let queue = CompletionQueue::open(paths, cfg.workers_per_lane, cfg.delay)?;
        let n = if cfg.shards > 0 {
            cfg.shards
        } else {
            auto_shard_count(cfg.workers, cap_pages)
        };
        let shards = (0..n)
            .map(|i| {
                let cap = cap_pages / n + usize::from(i < cap_pages % n);
                Shard {
                    frames: Mutex::new(FrameShard {
                        lru: LruBuffer::with_policy(cap, EvictionPolicy::Lru),
                        reading: HashMap::new(),
                        payloads: HashMap::new(),
                        nodes: HashMap::new(),
                        drained: HashMap::new(),
                        writing: HashSet::new(),
                        write_waiters: 0,
                        evicted: Vec::new(),
                    }),
                    latch: Condvar::new(),
                }
            })
            .collect();
        Ok(Arc::new(SharedPageCache {
            shards,
            queue,
            physical: AtomicU64::new(0),
            physical_writes: AtomicU64::new(0),
            physical_by_store: paths.iter().map(|_| AtomicU64::new(0)).collect(),
            frame_hits: AtomicU64::new(0),
            adoptions: AtomicU64::new(0),
            drain_hits: AtomicU64::new(0),
            heights: heights.to_vec(),
            page_bytes,
            paths: paths.to_vec(),
            formats,
            page_counts,
            read_ahead_window,
        }))
    }

    /// A worker's view: private path buffers (sized from the cache's
    /// heights), a private logical LRU of `cap_pages` and zeroed
    /// [`IoStats`] over the shared frame layer. Read-only — see
    /// [`SharedPageCache::update_handle`] for the write path.
    pub fn handle(self: &Arc<Self>, cap_pages: usize) -> SharedCacheFileAccess {
        SharedCacheFileAccess {
            cache: Arc::clone(self),
            lru: LruBuffer::with_policy(cap_pages, EvictionPolicy::Lru),
            paths: self.heights.iter().map(|&h| PathBuffer::new(h)).collect(),
            files: self.heights.iter().map(|_| None).collect(),
            stats: IoStats::default(),
            warm_hits: 0,
            cold_faults: 0,
            read_aheads: 0,
            evicted: Vec::new(),
            serves_nodes: true,
            held: HashMap::new(),
            sweep_at: SWEEP_MIN,
            ahead: HashMap::new(),
            schedule: Vec::new(),
            next: 0,
            window: self.read_ahead_window,
            pins: Vec::new(),
        }
    }

    /// A worker's view *with the write path open* for `store`: the
    /// returned handle owns a read-write [`PageFile`] on that store (the
    /// handle its [`UpdateBackend`] impl serves) and a path buffer sized
    /// for any height an updated tree can grow to. Logical write charges
    /// replay the [`crate::BufferPool`] oracle; payload bytes ride the
    /// shared frames until [`crate::NodeAccessMut::flush_writes`] pushes
    /// them through [`SharedPageCache::flush_dirty`].
    pub fn update_handle(
        self: &Arc<Self>,
        store: u8,
        cap_pages: usize,
    ) -> Result<SharedCacheFileAccess, StorageError> {
        let path = self.paths.get(store as usize).ok_or_else(|| {
            StorageError::Corrupt(format!(
                "store {store} out of range of a {}-store cache",
                self.paths.len()
            ))
        })?;
        let mut h = self.handle(cap_pages);
        h.paths[store as usize] = PathBuffer::new(UPDATE_MAX_HEIGHT);
        h.files[store as usize] = Some(PageFile::open_rw(path)?);
        // The updater's tree twin supplies contents; a frame held for a
        // reader that never comes would block the updater's own writes.
        h.serves_nodes = false;
        Ok(h)
    }

    #[inline]
    fn shard(&self, key: BufKey) -> &Shard {
        &self.shards[shard_of(key, self.shards.len())]
    }

    /// Flips every completed `Reading` frame in `s` to `Resident` and
    /// releases its read pin. Cheap: the in-flight set is bounded by the
    /// queue depth and the completed check is lock-free once the
    /// completion frontier has passed a ticket. Every public entry point
    /// settles on entry — the uniform discipline that keeps frame-state
    /// observations coherent within one lock hold.
    fn settle(&self, s: &mut FrameShard) {
        if s.reading.is_empty() {
            return;
        }
        let done: Vec<(BufKey, Ticket)> = s
            .reading
            .iter()
            .filter(|&(_, &t)| self.queue.is_complete(t))
            .map(|(&k, &t)| (k, t))
            .collect();
        for (key, ticket) in done {
            s.reading.remove(&key);
            s.lru.unpin(key);
            let node = match self.queue.take_page(ticket) {
                Some(Ok(bytes)) => self.decode(key, &bytes),
                Some(Err(e)) => Err(e.to_string()),
                None => Err("read abandoned by a queue reset".into()),
            };
            self.keep_node(s, key, node);
        }
    }

    /// Decodes the bytes of `key`'s page: the codec's node decoding plus
    /// the range check of every directory entry's child page.
    fn decode(&self, key: BufKey, bytes: &[u8]) -> FrameNode {
        let store = key.store as usize;
        let count = self.page_counts[store].load(Ordering::Relaxed);
        codec::decode_node_fmt(bytes, self.formats[store])
            .and_then(|node| {
                if node.level > 0 {
                    for e in &node.entries {
                        codec::child_page(e, count)?;
                    }
                }
                Ok(Arc::new(node))
            })
            .map_err(|e| e.to_string())
    }

    /// Files `node` as `key`'s decoded frame contents, sweeping the
    /// entries of evicted frames once they outnumber the resident ones.
    fn keep_node(&self, s: &mut FrameShard, key: BufKey, node: FrameNode) {
        s.nodes.insert(key, node);
        if s.nodes.len() > 2 * s.lru.len().max(s.lru.capacity()) + SWEEP_MIN {
            let lru = &s.lru;
            s.nodes.retain(|&k, _| lru.contains(k));
        }
    }

    /// The decoded node of resident `key`: decoded at settle for a read
    /// frame, on first demand for a written one.
    fn resident_node(&self, s: &mut FrameShard, key: BufKey) -> FrameNode {
        if let Some(node) = s.nodes.get(&key) {
            return node.clone();
        }
        let node = match s.payloads.get(&key) {
            Some(bytes) => self.decode(key, bytes),
            None => Err("resident frame holds no bytes".into()),
        };
        self.keep_node(s, key, node.clone());
        node
    }

    /// Decodes a dirty resident frame's payload before the payload goes
    /// (written back or abandoned), so the frame keeps serving its node.
    fn retire_payload(&self, s: &mut FrameShard, key: BufKey) {
        if let Some(bytes) = s.payloads.remove(&key) {
            if !s.nodes.contains_key(&key) {
                let node = self.decode(key, &bytes);
                self.keep_node(s, key, node);
            }
        }
    }

    /// Moves the payloads of freshly evicted dirty frames into the
    /// shard's drain — called after every LRU operation that can evict.
    /// This is the fix for the lost-payload bug: the bytes leave the
    /// frame table only *together with* their key, never behind it.
    fn harvest(&self, s: &mut FrameShard) {
        if !s.lru.has_dirty_evicted() {
            return;
        }
        let mut keys = std::mem::take(&mut s.evicted);
        s.lru.take_dirty_evicted(&mut keys);
        for key in keys.drain(..) {
            // Dirty frames always carry a payload: the only dirty-marking
            // entry point is `complete_write`, which stores the bytes.
            if let Some(p) = s.payloads.remove(&key) {
                s.drained.insert(key, p);
            }
        }
        s.evicted = keys;
    }

    /// Serves one charged logical miss for `(store, page)`: returns the
    /// ticket the caller's cursor may park on and whether a *fresh*
    /// physical read was submitted (`false` = the frame was already
    /// resident, in flight, or waiting in the drain — a warm hit, the
    /// cross-worker saving). Waits out a concurrent writer first
    /// (readers wait on the write latch).
    pub fn materialize(&self, store: u8, page: PageId) -> (Ticket, bool) {
        match self.demand(BufKey::new(store, page), false) {
            (FrameRead::Reading(ticket), fresh) => (ticket, fresh),
            (FrameRead::Node(_), fresh) => (Ticket::NONE, fresh),
        }
    }

    /// [`SharedPageCache::materialize`], handing back the frame itself: its
    /// node when resident, else the in-flight ticket — in which case
    /// `hold` adds a pin the caller releases ([`SharedPageCache::take`])
    /// once it has the node, so the frame cannot be evicted in between.
    fn demand(&self, key: BufKey, hold: bool) -> (FrameRead, bool) {
        let shard = self.shard(key);
        let mut s = lock_frames(shard);
        while s.writing.contains(&key) {
            s = wait_latch(shard, s);
        }
        self.settle(&mut s);
        if let Some(&ticket) = s.reading.get(&key) {
            // Single-flight: adopt the in-flight read, touch recency.
            s.lru.access(key);
            if hold {
                s.lru.pin(key);
            }
            self.adoptions.fetch_add(1, Ordering::Relaxed);
            return (FrameRead::Reading(ticket), false);
        }
        if s.lru.contains(key) {
            s.lru.access(key);
            self.frame_hits.fetch_add(1, Ordering::Relaxed);
            return (FrameRead::Node(self.resident_node(&mut s, key)), false);
        }
        if let Some(bytes) = s.drained.get(&key) {
            // Evicted-dirty re-demand: the newest bytes sit in the drain,
            // not the file — a pread would resurrect stale data.
            // Reinstall as a dirty resident, no physical read.
            let node = self.decode(key, bytes);
            s.lru.install(key);
            if s.lru.mark_dirty(key) {
                let p = s.drained.remove(&key).expect("checked above");
                s.payloads.insert(key, p);
                self.keep_node(&mut s, key, node.clone());
            }
            // else: the install was evicted on the spot (every other
            // slot pinned) — the payload simply stays in the drain,
            // still Dirty, still flushable.
            self.harvest(&mut s);
            self.drain_hits.fetch_add(1, Ordering::Relaxed);
            return (FrameRead::Node(node), false);
        }
        // Empty → Reading: install the frame, read-pin it so eviction
        // skips it, submit exactly one pread on the store's lane, ahead
        // of any queued read-ahead. The frame table is the single-flight
        // authority, so the queue's own adoption table stays out of it.
        let ticket = self.submit(&mut s, key, hold, true);
        (FrameRead::Reading(ticket), true)
    }

    /// Empty → Reading (see [`SharedPageCache::demand`]); `front` queues
    /// the read ahead of the lane's read-ahead instead of behind it.
    fn submit(&self, s: &mut FrameShard, key: BufKey, hold: bool, front: bool) -> Ticket {
        s.lru.install(key);
        s.lru.pin(key);
        if hold {
            s.lru.pin(key);
        }
        self.harvest(s);
        let ticket = self.queue.submit_frame(key, front);
        s.reading.insert(key, ticket);
        self.physical.fetch_add(1, Ordering::Relaxed);
        self.physical_by_store[key.store as usize].fetch_add(1, Ordering::Relaxed);
        ticket
    }

    /// Read-ahead of `key`: if its frame is empty, submits the read
    /// behind the lane's demands, pinned for the caller until it
    /// demands the page ([`SharedPageCache::take`] releases the pin).
    /// `None` — nothing submitted — when the frame is resident, in
    /// flight, drained or being written.
    fn read_ahead(&self, key: BufKey) -> Option<Ticket> {
        let mut s = lock_frames(self.shard(key));
        if s.writing.contains(&key) {
            return None;
        }
        self.settle(&mut s);
        if s.reading.contains_key(&key) || s.lru.contains(key) || s.drained.contains_key(&key) {
            return None;
        }
        Some(self.submit(&mut s, key, true, false))
    }

    /// The node of a frame the caller holds a pin on
    /// ([`SharedPageCache::demand`] with `hold`, or
    /// [`SharedPageCache::read_ahead`]), releasing that pin; `None` while
    /// the read is still in flight (the pin stays).
    fn take(&self, key: BufKey) -> Option<FrameNode> {
        let shard = self.shard(key);
        let mut s = lock_frames(shard);
        self.settle(&mut s);
        if s.reading.contains_key(&key) {
            return None;
        }
        let node = if s.lru.contains(key) {
            self.resident_node(&mut s, key)
        } else {
            Err("frame dropped by a cache clear while a reader held it".into())
        };
        s.lru.unpin(key);
        self.harvest(&mut s);
        let notify = s.write_waiters > 0;
        drop(s);
        if notify {
            shard.latch.notify_all();
        }
        Some(node)
    }

    /// Adds one pin to the frame of `(store, page)` if it is resident or
    /// in flight. Unlike the logical buffers, pinning never *creates* a
    /// frame — a frame with no read behind it would be a phantom warm
    /// hit and break read honesty. Settles first, so a frame whose read
    /// just completed is pinned as a resident (not double-pinned under
    /// its stale read pin); waits out a concurrent writer. Returns
    /// whether the pin landed.
    pub fn pin(&self, store: u8, page: PageId) -> bool {
        let key = BufKey::new(store, page);
        let shard = self.shard(key);
        let mut s = lock_frames(shard);
        while s.writing.contains(&key) {
            s = wait_latch(shard, s);
        }
        self.settle(&mut s);
        let resident = s.lru.contains(key);
        if resident {
            s.lru.pin(key);
        }
        resident
    }

    /// Releases one pin of `(store, page)` (no-op if absent), waking any
    /// writer parked on the pin.
    pub fn unpin(&self, store: u8, page: PageId) {
        let key = BufKey::new(store, page);
        let shard = self.shard(key);
        let mut s = lock_frames(shard);
        self.settle(&mut s);
        s.lru.unpin(key);
        self.harvest(&mut s);
        let notify = s.write_waiters > 0;
        drop(s);
        if notify {
            shard.latch.notify_all();
        }
    }

    /// Latched write of `(store, page)`: waits until the frame holds no
    /// pin and no read is in flight, takes the write latch, installs
    /// `payload` as the frame's dirty bytes, releases the latch. The
    /// bytes reach the file at [`SharedPageCache::flush_dirty`] (or via
    /// [`SharedPageCache::take_dirty_evicted`] after an eviction) — never
    /// silently dropped. If the frame cannot be held at all (every slot
    /// pinned by other frames), the payload goes straight to the drain.
    pub fn write(&self, store: u8, page: PageId, payload: &[u8]) {
        let key = BufKey::new(store, page);
        self.begin_write(key);
        self.complete_write(key, payload);
    }

    /// Acquires the write latch of `key`'s frame: writers wait on pins
    /// (and on each other); an in-flight read is awaited off-lock via
    /// its ticket.
    fn begin_write(&self, key: BufKey) {
        let shard = self.shard(key);
        let mut s = lock_frames(shard);
        loop {
            self.settle(&mut s);
            if s.writing.contains(&key) {
                s = wait_latch(shard, s);
                continue;
            }
            if let Some(&ticket) = s.reading.get(&key) {
                // The frame holds a read pin until the ticket settles —
                // park on the queue (off-lock), then re-evaluate.
                drop(s);
                self.queue.await_ticket(ticket);
                s = lock_frames(shard);
                continue;
            }
            if s.lru.pin_count(key) > 0 {
                s.write_waiters += 1;
                s = wait_latch(shard, s);
                s.write_waiters -= 1;
                continue;
            }
            s.writing.insert(key);
            return;
        }
    }

    /// Installs the new bytes, releases the write latch, wakes waiters.
    /// The frame's decoded node is dropped with the old bytes; the next
    /// demand decodes the new ones.
    fn complete_write(&self, key: BufKey, payload: &[u8]) {
        let shard = self.shard(key);
        let mut s = lock_frames(shard);
        self.settle(&mut s);
        self.page_counts[key.store as usize].fetch_max(key.page.0 + 1, Ordering::Relaxed);
        s.nodes.remove(&key);
        s.lru.install(key);
        if s.lru.mark_dirty(key) {
            let dst = s.payloads.entry(key).or_default();
            dst.clear();
            dst.extend_from_slice(payload);
            // A stale drained copy (evicted before this write) is
            // superseded by the fresh resident payload.
            s.drained.remove(&key);
        } else {
            // The install itself was evicted on the spot (every other
            // slot pinned): the payload still must not be lost — it goes
            // straight to the drain.
            s.payloads.remove(&key);
            s.drained.insert(key, payload.to_vec());
        }
        self.harvest(&mut s);
        s.writing.remove(&key);
        drop(s);
        shard.latch.notify_all();
    }

    /// Clears the dirty state of a frame *without* writing — the owner
    /// already wrote the bytes back (or abandoned them). Drops the
    /// payload, resident or drained.
    pub fn clear_dirty(&self, store: u8, page: PageId) {
        let key = BufKey::new(store, page);
        let mut s = lock_frames(self.shard(key));
        self.settle(&mut s);
        s.lru.clear_dirty(key);
        self.retire_payload(&mut s, key);
        s.drained.remove(&key);
    }

    /// Dirty frames evicted since the last call, across all shards,
    /// **payloads included** — the write-back worklist. The caller MUST
    /// write these back (their bytes are gone from the cache once
    /// taken); [`SharedPageCache::flush_dirty`] does it in one step for
    /// owners holding the file. Deterministic order (sorted by key).
    pub fn take_dirty_evicted(&self) -> Vec<(BufKey, Vec<u8>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut s = lock_frames(shard);
            self.settle(&mut s);
            self.harvest(&mut s);
            out.extend(s.drained.drain());
        }
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// Writes every pending dirty payload of `store` through `write` —
    /// drained (evicted) pages first, then dirty residents in the LRU's
    /// deterministic recency order — charging
    /// [`SharedPageCache::physical_writes`] once per page and cleaning
    /// each frame as it lands. Error-safe: pages written before a
    /// failure are clean, the failing page and the rest keep their
    /// payloads — a retry resumes where this stopped.
    pub fn flush_dirty(
        &self,
        store: u8,
        mut write: impl FnMut(PageId, &[u8]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        for shard in &self.shards {
            let mut s = lock_frames(shard);
            self.settle(&mut s);
            self.harvest(&mut s);
            let mut drained: Vec<BufKey> = s
                .drained
                .keys()
                .copied()
                .filter(|k| k.store == store)
                .collect();
            drained.sort_unstable();
            for key in drained {
                let buf = &s.drained[&key];
                write(key.page, buf)?;
                self.physical_writes.fetch_add(1, Ordering::Relaxed);
                s.drained.remove(&key);
            }
            for key in s.lru.dirty_keys() {
                if key.store != store {
                    continue;
                }
                let buf = s
                    .payloads
                    .get(&key)
                    .expect("dirty resident frame must carry a payload");
                write(key.page, buf)?;
                self.physical_writes.fetch_add(1, Ordering::Relaxed);
                self.retire_payload(&mut s, key);
                s.lru.clear_dirty(key);
            }
        }
        Ok(())
    }

    /// The observable state of the frame of `(store, page)`. Settles the
    /// shard first, so a completed read reports `Resident`. An evicted
    /// dirty page whose payload waits in the drain reports `Dirty`: the
    /// cache still holds bytes newer than the file.
    pub fn frame_state(&self, store: u8, page: PageId) -> FrameState {
        let key = BufKey::new(store, page);
        let mut s = lock_frames(self.shard(key));
        self.settle(&mut s);
        if s.writing.contains(&key) {
            FrameState::Writing
        } else if s.reading.contains_key(&key) {
            FrameState::Reading
        } else if s.lru.is_dirty(key) || s.drained.contains_key(&key) {
            FrameState::Dirty
        } else if s.lru.contains(key) {
            FrameState::Resident
        } else {
            FrameState::Empty
        }
    }

    /// Nested pin count of the frame of `(store, page)` — includes the
    /// read pin while the frame is `Reading`. Settles first (uniform
    /// discipline), so a completed read's pin is not miscounted.
    pub fn pin_count(&self, store: u8, page: PageId) -> u32 {
        let key = BufKey::new(store, page);
        let mut s = lock_frames(self.shard(key));
        self.settle(&mut s);
        s.lru.pin_count(key)
    }

    /// Physical preads submitted by cache misses so far. After
    /// [`SharedPageCache::drain`], equals the queue's completed read
    /// count — every submission became exactly one pread.
    #[inline]
    pub fn physical_reads(&self) -> u64 {
        self.physical.load(Ordering::Relaxed)
    }

    /// Pages physically written through [`SharedPageCache::flush_dirty`]
    /// so far. Always `≤ Σ` per-handle logical `page_writes`: the shared
    /// frames absorb repeated logical writes of the same page the way
    /// they absorb repeated logical reads.
    #[inline]
    pub fn physical_writes(&self) -> u64 {
        self.physical_writes.load(Ordering::Relaxed)
    }

    /// Physical preads split by store (index = store = lane). Sums to
    /// [`SharedPageCache::physical_reads`].
    pub fn physical_reads_by_store(&self) -> Vec<u64> {
        self.physical_by_store
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Materialize calls served by an already-resident frame.
    #[inline]
    pub fn frame_hits(&self) -> u64 {
        self.frame_hits.load(Ordering::Relaxed)
    }

    /// Materialize calls that adopted another worker's in-flight read
    /// instead of issuing a duplicate pread (single-flight savings).
    #[inline]
    pub fn adoptions(&self) -> u64 {
        self.adoptions.load(Ordering::Relaxed)
    }

    /// Materialize calls served from the dirty-eviction drain (newest
    /// bytes recovered without touching the file).
    #[inline]
    pub fn drain_hits(&self) -> u64 {
        self.drain_hits.load(Ordering::Relaxed)
    }

    /// Frames evicted across all shards since open (or the last
    /// [`SharedPageCache::clear`]'s LRU reset).
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| lock_frames(s).lru.evictions())
            .sum()
    }

    /// Dirty payloads parked in the eviction drain right now — the
    /// write-back backlog eviction has produced.
    pub fn drain_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let mut s = lock_frames(shard);
                self.harvest(&mut s);
                s.drained.len()
            })
            .sum()
    }

    /// Fraction of materialize calls served without a physical read
    /// (resident frame, adopted in-flight read, or drain). 1.0 when
    /// every request was warm; 0.0 with no traffic.
    pub fn hit_ratio(&self) -> f64 {
        let warm = self.frame_hits() + self.adoptions() + self.drain_hits();
        let total = warm + self.physical_reads();
        if total == 0 {
            0.0
        } else {
            warm as f64 / total as f64
        }
    }

    /// Dirty payloads the cache currently holds (resident + drained) —
    /// what a full [`SharedPageCache::flush_dirty`] sweep would write.
    pub fn pending_write_back(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let mut s = lock_frames(shard);
                self.settle(&mut s);
                self.harvest(&mut s);
                s.payloads.len() + s.drained.len()
            })
            .sum()
    }

    /// The completion queue all physical reads flow through.
    #[inline]
    pub fn queue(&self) -> &CompletionQueue {
        &self.queue
    }

    /// Total frame capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_frames(s).lru.capacity())
            .sum()
    }

    /// Number of frame shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Frames currently resident or in flight.
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(|s| lock_frames(s).lru.len()).sum()
    }

    /// Tree heights the cache was opened for (path-buffer sizing).
    #[inline]
    pub fn heights(&self) -> &[usize] {
        &self.heights
    }

    /// Logical page size of the underlying stores.
    #[inline]
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Waits out every in-flight read and settles all shards: afterwards
    /// no frame is `Reading` and `physical_reads` equals the queue's
    /// completed reads (the honesty point).
    pub fn drain(&self) {
        self.queue.drain();
        for shard in &self.shards {
            let mut s = lock_frames(shard);
            self.settle(&mut s);
        }
    }

    /// Zeroes the physical-read/-write and queue counters while keeping
    /// every frame resident (dirty payloads included) — the *warm* reset
    /// between measured runs.
    pub fn reset_stats(&self) {
        self.drain();
        self.queue.reset();
        self.physical.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.reset_telemetry();
    }

    fn reset_telemetry(&self) {
        for c in &self.physical_by_store {
            c.store(0, Ordering::Relaxed);
        }
        self.frame_hits.store(0, Ordering::Relaxed);
        self.adoptions.store(0, Ordering::Relaxed);
        self.drain_hits.store(0, Ordering::Relaxed);
    }

    /// Drops every frame and zeroes the counters — a cold cache. Pending
    /// dirty payloads are discarded *without* write-back (same contract
    /// as [`LruBuffer::clear`]): owners flush first.
    pub fn clear(&self) {
        self.drain();
        for shard in &self.shards {
            let mut s = lock_frames(shard);
            s.lru.clear();
            s.lru.reset_io();
            s.reading.clear();
            s.payloads.clear();
            s.nodes.clear();
            s.drained.clear();
            s.writing.clear();
            drop(s);
            // Writers parked on vanished pins must re-evaluate.
            shard.latch.notify_all();
        }
        self.queue.reset();
        self.physical.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.reset_telemetry();
    }
}

/// One worker's backend over a [`SharedPageCache`]: the production file
/// backend. Private path buffers, private logical LRU, private
/// [`IoStats`] — charged through `pool::hierarchy_access`
/// exactly like [`crate::BufferPool`], so the logical accounting is
/// bit-identical to a private-buffer worker of the same capacity — while
/// every charged miss is *served* by the shared frame layer
/// (single-flight physical reads, warm frames across workers and across
/// requests). A miss never blocks in `access()`: the executor waits only
/// when it needs the node of a page still being read.
///
/// Handles from [`SharedPageCache::update_handle`] additionally own the
/// read-write [`PageFile`] of their store and drive updates through the
/// [`crate::NodeAccessMut`]/[`UpdateBackend`] impls below.
///
/// ## Contents and read-ahead
///
/// A read handle serves its executor the nodes its misses read
/// ([`NodeAccess::page_node`]): it keeps the decoded node of every page
/// its private LRU and path buffers hold, so a logical hit never touches
/// the shared pool, and pins the frame of each miss still in flight
/// until the executor takes its node. Because the executor needs a
/// page's entries before it can step into that page, latency is hidden
/// by read-ahead along the announced §4.3 schedule
/// ([`NodeAccess::hint`]): once the handle has paid for a read of its
/// own, it submits pinned, uncharged reads for the upcoming scheduled
/// pages that are neither in its private buffers nor already framed, at
/// most twice as many at once as the queue has readers — one read in
/// service and one queued behind it per reader, so no reader idles
/// between completions even when the schedule dwells on one store's
/// lane (an SJ4 drain reads one side only). Each one is consumed
/// by the charged miss of the same page (every scheduled page is
/// demanded, and first as a miss), so `physical_reads ≤ Σ
/// disk_accesses` still holds; a join cut short releases the rest when
/// its handle drops.
pub struct SharedCacheFileAccess {
    cache: Arc<SharedPageCache>,
    /// Private *logical* LRU — accounting only; bytes live in the shared
    /// frames and, decoded, in `held`.
    lru: LruBuffer,
    paths: Vec<PathBuffer>,
    /// Read-write file handles, by store — `Some` only for stores opened
    /// through [`SharedPageCache::update_handle`].
    files: Vec<Option<PageFile>>,
    stats: IoStats,
    /// Charged misses served by a frame already resident or in flight.
    warm_hits: u64,
    /// Charged misses that paid for the physical read themselves
    /// (demand or this handle's read-ahead).
    cold_faults: u64,
    /// Read-ahead reads this handle submitted.
    read_aheads: u64,
    /// Scratch for draining the private LRU's dirty evictions.
    evicted: Vec<BufKey>,
    /// Whether this handle serves page contents (read handles). Update
    /// handles only charge and write: their tree twin supplies contents.
    serves_nodes: bool,
    /// Per page: its node, or the in-flight ticket of a frame this handle
    /// pinned until it takes the node. Nodes of pages in neither the
    /// private LRU nor a path buffer are swept past `sweep_at` entries.
    held: HashMap<BufKey, FrameRead>,
    sweep_at: usize,
    /// Read-ahead frames this handle submitted and pinned, not yet
    /// demanded.
    ahead: HashMap<BufKey, Ticket>,
    /// The latest announced schedule tail, and the next entry read-ahead
    /// considers.
    schedule: Vec<PageRef>,
    next: usize,
    /// Most read-ahead frames outstanding at once: twice the queue's
    /// reader count.
    window: usize,
    /// Shared-frame pins this handle holds for its executor (released on
    /// drop).
    pins: Vec<BufKey>,
}

impl fmt::Debug for SharedCacheFileAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCacheFileAccess")
            .field("stats", &self.stats)
            .field("warm_hits", &self.warm_hits)
            .field("cold_faults", &self.cold_faults)
            .finish()
    }
}

impl SharedCacheFileAccess {
    /// Statistics recorded through this handle.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// The cache this handle charges against.
    #[inline]
    pub fn cache(&self) -> &Arc<SharedPageCache> {
        &self.cache
    }

    /// Charged misses a warm or in-flight frame served
    /// (`warm_hits + cold_faults == disk_accesses`).
    #[inline]
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits
    }

    /// Charged misses that paid for their own pread (on demand, or
    /// ahead of it).
    #[inline]
    pub fn cold_faults(&self) -> u64 {
        self.cold_faults
    }

    /// Read-ahead reads this handle submitted along its schedule (each
    /// later consumed by the charged miss of its page, counted in
    /// [`SharedCacheFileAccess::cold_faults`]).
    #[inline]
    pub fn read_aheads(&self) -> u64 {
        self.read_aheads
    }

    /// Logical write-back accounting, bit-identical to
    /// [`crate::BufferPool`]: every dirty page the *private* LRU evicted
    /// would have been written by a shared-nothing backend — charge it.
    /// A no-op on read-only handles (nothing private is ever dirty), so
    /// join statistics are untouched.
    fn charge_private_dirty_evictions(&mut self) {
        if self.lru.has_dirty_evicted() {
            self.evicted.clear();
            self.lru.take_dirty_evicted(&mut self.evicted);
            self.stats.page_writes += self.evicted.len() as u64;
        }
    }

    /// Serves a charged miss of `key` from the shared frames: this
    /// handle's own read-ahead if it submitted one, else a demand.
    fn serve_miss(&mut self, key: BufKey) {
        if let Some(FrameRead::Reading(_)) = self.held.remove(&key) {
            // An earlier charge of this page was never taken: release
            // its pin, the demand below pins afresh.
            self.cache.unpin(key.store, key.page);
        }
        if let Some(ticket) = self.ahead.remove(&key) {
            self.cache.queue.promote(key.store as usize, ticket);
            self.cold_faults += 1;
            self.held.insert(key, FrameRead::Reading(ticket));
            return;
        }
        let (read, fresh) = self.cache.demand(key, self.serves_nodes);
        if fresh {
            self.cold_faults += 1;
        } else {
            self.warm_hits += 1;
        }
        if self.serves_nodes {
            self.held.insert(key, read);
        }
    }

    /// Submits read-ahead along the schedule until `window` frames are
    /// outstanding.
    fn read_ahead(&mut self) {
        while self.ahead.len() < self.window && self.next < self.schedule.len() {
            let r = self.schedule[self.next];
            self.next += 1;
            let key = BufKey::new(r.store, r.page);
            if self.lru.contains(key)
                || self.paths[r.store as usize].contains(r.page)
                || self.held.contains_key(&key)
                || self.ahead.contains_key(&key)
            {
                continue;
            }
            if let Some(ticket) = self.cache.read_ahead(key) {
                self.ahead.insert(key, ticket);
                self.read_aheads += 1;
            }
        }
    }

    /// Drops the nodes of pages that left both the private LRU and the
    /// path buffers, once the table has doubled since the last sweep.
    fn sweep(&mut self) {
        if self.held.len() <= self.sweep_at {
            return;
        }
        let (lru, paths) = (&self.lru, &self.paths);
        self.held.retain(|&k, h| {
            matches!(h, FrameRead::Reading(_))
                || lru.contains(k)
                || paths[k.store as usize].contains(k.page)
        });
        self.sweep_at = (2 * self.held.len()).max(SWEEP_MIN);
    }
}

impl Drop for SharedCacheFileAccess {
    fn drop(&mut self) {
        let held = self.held.iter().filter_map(|(&k, h)| match h {
            FrameRead::Reading(_) => Some(k),
            FrameRead::Node(_) => None,
        });
        for key in held
            .chain(self.ahead.keys().copied())
            .chain(self.pins.drain(..))
        {
            self.cache.unpin(key.store, key.page);
        }
    }
}

impl NodeAccess for SharedCacheFileAccess {
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        let miss = crate::pool::hierarchy_access(
            &mut self.lru,
            &mut self.paths,
            &mut self.stats,
            store,
            page,
            depth,
        );
        self.charge_private_dirty_evictions();
        if miss {
            self.serve_miss(BufKey::new(store, page));
            if self.serves_nodes {
                self.read_ahead();
                self.sweep();
            }
        }
        miss
    }

    fn pin(&mut self, store: u8, page: PageId) {
        // Logical pin mirrors the BufferPool oracle (it shapes eviction
        // decisions, hence the charge sequence); the shared-layer pin
        // keeps the frame eviction-proof for every worker.
        self.lru.pin(BufKey::new(store, page));
        self.charge_private_dirty_evictions();
        if self.cache.pin(store, page) {
            self.pins.push(BufKey::new(store, page));
        }
    }

    fn unpin(&mut self, store: u8, page: PageId) {
        let key = BufKey::new(store, page);
        self.lru.unpin(key);
        self.charge_private_dirty_evictions();
        // Only release a shared pin this handle actually holds.
        if let Some(i) = self.pins.iter().position(|&k| k == key) {
            self.pins.swap_remove(i);
            self.cache.unpin(store, page);
        }
    }

    fn io_stats(&self) -> IoStats {
        self.stats
    }

    fn page_node(&mut self, store: u8, page: PageId) -> PageNode {
        if !self.serves_nodes {
            return PageNode::InMemory;
        }
        let key = BufKey::new(store, page);
        loop {
            match self.held.get(&key) {
                Some(FrameRead::Node(Ok(node))) => return PageNode::Ready(Arc::clone(node)),
                Some(FrameRead::Node(Err(msg))) => {
                    return PageNode::Failed(StorageError::Corrupt(format!(
                        "page {page} of store {store}: {msg}"
                    )))
                }
                Some(&FrameRead::Reading(ticket)) => match self.cache.take(key) {
                    Some(node) => {
                        self.held.insert(key, FrameRead::Node(node));
                    }
                    None => return PageNode::Pending(ticket),
                },
                None => {
                    // Not charged through this handle since it was last
                    // held (e.g. a page its executor pinned into the
                    // private LRU): fetch it without a charge.
                    let read = self.cache.demand(key, true).0;
                    self.held.insert(key, read);
                }
            }
        }
    }

    /// Only once this handle has paid for a read: over a warm pool there
    /// is nothing to read ahead.
    fn wants_hints(&self) -> bool {
        self.serves_nodes && self.cold_faults > 0
    }

    fn hint(&mut self, upcoming: &[PageRef]) {
        self.schedule.clear();
        self.schedule.extend_from_slice(upcoming);
        self.next = 0;
        self.read_ahead();
    }

    fn await_ticket(&self, ticket: Ticket) {
        self.cache.queue.await_ticket(ticket)
    }
}

impl NodeAccessMut for SharedCacheFileAccess {
    /// Registers a mutated page: the *logical* charge replays
    /// [`crate::BufferPool::mark_dirty`] bit-for-bit against the private
    /// LRU (install + dirty; write-through charge when nothing can stay
    /// resident; eviction charges drained after), while the *bytes* take
    /// the latched shared-frame path ([`SharedPageCache::write`]).
    fn write(&mut self, store: u8, page: PageId, payload: &[u8]) {
        let key = BufKey::new(store, page);
        self.lru.install(key);
        if !self.lru.mark_dirty(key) {
            self.stats.page_writes += 1; // write-through, no residency
        }
        self.charge_private_dirty_evictions();
        self.cache.write(store, page, payload);
    }

    fn discard(&mut self, store: u8, page: PageId) {
        self.lru.clear_dirty(BufKey::new(store, page));
        self.cache.clear_dirty(store, page);
    }

    /// Charges one logical write per remaining private dirty page (the
    /// [`crate::BufferPool::flush_writes`] image), then pushes every
    /// pending payload of the stores this handle owns through
    /// [`SharedPageCache::flush_dirty`] into the real files.
    fn flush_writes(&mut self) -> Result<(), StorageError> {
        for key in self.lru.dirty_keys() {
            self.lru.clear_dirty(key);
            self.stats.page_writes += 1;
        }
        let cache = Arc::clone(&self.cache);
        for (store, slot) in self.files.iter_mut().enumerate() {
            if let Some(file) = slot {
                cache.flush_dirty(store as u8, |page, buf| file.write_page(page, buf))?;
            }
        }
        Ok(())
    }
}

impl UpdateBackend for SharedCacheFileAccess {
    fn store_file(&self, store: u8) -> &PageFile {
        self.files[store as usize]
            .as_ref()
            .expect("store has no write handle: open it via SharedPageCache::update_handle")
    }

    fn store_file_mut(&mut self, store: u8) -> &mut PageFile {
        self.files[store as usize]
            .as_mut()
            .expect("store has no write handle: open it via SharedPageCache::update_handle")
    }

    fn supports_writes(&self) -> bool {
        self.files.iter().any(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{self, META_BYTES};
    use crate::temp::TempDir;
    use crate::BufferPool;
    use std::time::Duration;

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

    fn cache(
        dir: &TempDir,
        pages: u32,
        cap: usize,
        delay: Option<DelayFn>,
    ) -> Arc<SharedPageCache> {
        let path = demo_file(dir, "t.rsj", pages);
        SharedPageCache::open(
            &[path],
            cap,
            &[2],
            CacheConfig {
                // One shard: deterministic eviction order for the tests.
                shards: 1,
                delay,
                ..CacheConfig::default()
            },
        )
        .unwrap()
    }

    /// A valid encoded node payload that fits the demo file's slots.
    fn node_bytes(tag: u32) -> Vec<u8> {
        let slot = codec::slot_bytes_for(2);
        let node = codec::DiskNode {
            level: 0,
            entries: vec![codec::DiskEntry {
                rect: [f64::from(tag), 2.0, f64::from(tag) + 3.0, 5.0],
                child: u64::from(tag),
            }],
        };
        let mut buf = Vec::new();
        codec::encode_node(&node, slot, &mut buf).unwrap();
        buf
    }

    #[test]
    fn frame_walks_the_state_machine() {
        let dir = TempDir::new("cache").unwrap();
        let slow: DelayFn = Arc::new(|_| Some(Duration::from_millis(15)));
        let c = cache(&dir, 4, 4, Some(slow));
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Empty);
        let (ticket, fresh) = c.materialize(0, PageId(1));
        assert!(fresh);
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Reading);
        assert!(
            c.pin_count(0, PageId(1)) > 0,
            "reading frames carry a read pin"
        );
        c.queue().await_ticket(ticket);
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Resident);
        assert_eq!(c.pin_count(0, PageId(1)), 0, "read pin released at settle");
        c.write(0, PageId(1), b"fresh bytes");
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Dirty);
        c.clear_dirty(0, PageId(1));
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Resident);
        assert_eq!(c.physical_reads(), 1);
    }

    #[test]
    fn pin_lands_immediately_after_completion() {
        // Regression: `pin` used to skip `settle`, so a frame whose read
        // had completed (but not yet settled) kept its stale read pin —
        // a later pin stacked on top of it and the count drifted.
        let dir = TempDir::new("cache").unwrap();
        let slow: DelayFn = Arc::new(|_| Some(Duration::from_millis(10)));
        let c = cache(&dir, 4, 4, Some(slow));
        let (ticket, fresh) = c.materialize(0, PageId(2));
        assert!(fresh);
        // Wait for the completion *without* touching the shard, so the
        // frame is complete-but-unsettled when pin arrives.
        c.queue().await_ticket(ticket);
        c.pin(0, PageId(2));
        assert_eq!(
            c.pin_count(0, PageId(2)),
            1,
            "settle must release the read pin before the explicit pin"
        );
        assert_eq!(c.frame_state(0, PageId(2)), FrameState::Resident);
        c.unpin(0, PageId(2));
        assert_eq!(c.pin_count(0, PageId(2)), 0);
    }

    #[test]
    fn concurrent_demanders_share_one_read() {
        let dir = TempDir::new("cache").unwrap();
        let slow: DelayFn = Arc::new(|_| Some(Duration::from_millis(25)));
        let c = cache(&dir, 4, 4, Some(slow));
        let tickets: Vec<(Ticket, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&c);
                    scope.spawn(move || c.materialize(0, PageId(2)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh = tickets.iter().filter(|&&(_, f)| f).count();
        assert_eq!(fresh, 1, "exactly one demander submits");
        let t = tickets.iter().find(|&&(_, f)| f).unwrap().0;
        for &(ticket, f) in &tickets {
            if !f {
                assert_eq!(ticket, t, "adopters park on the single in-flight ticket");
            }
        }
        c.drain();
        assert_eq!(c.physical_reads(), 1);
        assert_eq!(c.queue().total_reads(), 1, "one pread for four demanders");
    }

    #[test]
    fn eviction_skips_pinned_frames() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 2, None);
        c.materialize(0, PageId(0));
        c.drain();
        c.pin(0, PageId(0));
        for p in 1..6u32 {
            c.materialize(0, PageId(p));
        }
        c.drain();
        assert_eq!(
            c.frame_state(0, PageId(0)),
            FrameState::Resident,
            "pinned frame survives eviction pressure"
        );
        c.unpin(0, PageId(0));
        for p in 6..8u32 {
            c.materialize(0, PageId(p));
        }
        c.drain();
        assert_eq!(
            c.frame_state(0, PageId(0)),
            FrameState::Empty,
            "unpinned frame is evictable again"
        );
        // A re-miss after eviction is a fresh physical read.
        let (_, fresh) = c.materialize(0, PageId(0));
        assert!(fresh);
    }

    #[test]
    fn pinning_an_absent_frame_creates_nothing() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        c.pin(0, PageId(3));
        assert_eq!(c.frame_state(0, PageId(3)), FrameState::Empty);
        let (_, fresh) = c.materialize(0, PageId(3));
        assert!(fresh, "no phantom warm hit");
    }

    #[test]
    fn dirty_eviction_carries_the_payload() {
        // THE bug this PR fixes: evicting a dirty frame used to surface
        // only the key — the bytes were already recycled. Now the drain
        // holds (key, payload) pairs until the owner writes them back.
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 2, None);
        c.materialize(0, PageId(0));
        c.materialize(0, PageId(1));
        c.drain();
        c.write(0, PageId(0), b"payload-zero");
        // Pressure: two more pages push out the clean frame, then the
        // dirty one.
        c.materialize(0, PageId(2));
        c.materialize(0, PageId(3));
        c.drain();
        assert_eq!(
            c.frame_state(0, PageId(0)),
            FrameState::Dirty,
            "a drained payload still reports Dirty: the cache holds newer bytes"
        );
        let taken = c.take_dirty_evicted();
        assert_eq!(
            taken,
            vec![(BufKey::new(0, PageId(0)), b"payload-zero".to_vec())],
            "eviction must surface the payload with the key"
        );
        assert!(c.take_dirty_evicted().is_empty(), "taken means taken");
        assert_eq!(c.frame_state(0, PageId(0)), FrameState::Empty);
    }

    #[test]
    fn evicted_dirty_page_redemands_from_the_drain() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 2, None);
        c.materialize(0, PageId(0));
        c.materialize(0, PageId(1));
        c.drain();
        c.write(0, PageId(0), b"drain me");
        c.materialize(0, PageId(2));
        c.materialize(0, PageId(3)); // evicts dirty page 0 into the drain
        c.drain();
        let before = c.physical_reads();
        let (ticket, fresh) = c.materialize(0, PageId(0));
        assert!(!fresh, "the newest bytes sit in the drain, not the file");
        assert_eq!(ticket, Ticket::NONE);
        assert_eq!(c.physical_reads(), before, "no pread of stale file bytes");
        assert_eq!(c.frame_state(0, PageId(0)), FrameState::Dirty);
        // The preserved payload flushes intact.
        let mut written = Vec::new();
        c.flush_dirty(0, |page, buf| {
            written.push((page, buf.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(written, vec![(PageId(0), b"drain me".to_vec())]);
        assert_eq!(c.physical_writes(), 1);
        assert_eq!(
            c.frame_state(0, PageId(0)),
            FrameState::Resident,
            "flushed frame is clean and still warm"
        );
        assert_eq!(c.pending_write_back(), 0);
    }

    #[test]
    fn write_to_an_unholdable_frame_goes_straight_to_the_drain() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 1, None);
        c.materialize(0, PageId(1));
        c.drain();
        c.pin(0, PageId(1)); // the only frame slot is now pinned
        c.write(0, PageId(2), b"homeless");
        let taken = c.take_dirty_evicted();
        assert_eq!(
            taken,
            vec![(BufKey::new(0, PageId(2)), b"homeless".to_vec())],
            "an unbufferable write must still surface its payload"
        );
        c.unpin(0, PageId(1));
    }

    #[test]
    fn drained_redemand_with_no_free_slot_keeps_the_payload_flushable() {
        // Regression: re-demanding a drained page while every slot is
        // pinned used to move the payload into the resident-payload map
        // without residency — invisible to flush, leaked forever. It must
        // stay in the drain instead.
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 1, None);
        c.materialize(0, PageId(1));
        c.drain();
        c.pin(0, PageId(1)); // the only slot is pinned for the duration
        c.write(0, PageId(2), b"parked");
        assert_eq!(c.frame_state(0, PageId(2)), FrameState::Dirty);
        let (ticket, fresh) = c.materialize(0, PageId(2));
        assert!(!fresh, "drained payload serves the re-demand");
        assert_eq!(ticket, Ticket::NONE);
        assert_eq!(c.frame_state(0, PageId(2)), FrameState::Dirty);
        let mut written = Vec::new();
        c.flush_dirty(0, |page, buf| {
            written.push((page, buf.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(written, vec![(PageId(2), b"parked".to_vec())]);
        assert_eq!(c.pending_write_back(), 0, "nothing may leak");
        c.unpin(0, PageId(1));
    }

    #[test]
    fn write_latch_waits_for_pins() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        c.materialize(0, PageId(1));
        c.drain();
        c.pin(0, PageId(1));
        let writer = std::thread::spawn({
            let c = Arc::clone(&c);
            move || c.write(0, PageId(1), b"after the pin")
        });
        // The writer must park: the frame stays clean while pinned.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            c.frame_state(0, PageId(1)),
            FrameState::Resident,
            "a pinned frame must not be mutated"
        );
        c.unpin(0, PageId(1));
        writer.join().unwrap();
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Dirty);
        let taken = c.take_dirty_evicted();
        assert!(taken.is_empty(), "still resident, nothing drained");
        c.clear_dirty(0, PageId(1));
    }

    #[test]
    fn fresh_write_supersedes_a_drained_copy() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 2, None);
        c.materialize(0, PageId(0));
        c.materialize(0, PageId(1));
        c.drain();
        c.write(0, PageId(0), b"stale");
        c.materialize(0, PageId(2));
        c.materialize(0, PageId(3)); // dirty page 0 -> drain
        c.drain();
        c.write(0, PageId(0), b"current");
        let taken = c.take_dirty_evicted();
        assert!(
            taken.is_empty(),
            "the stale drained copy must be superseded, not resurface: {taken:?}"
        );
        let mut written = Vec::new();
        c.flush_dirty(0, |page, buf| {
            written.push((page, buf.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(written, vec![(PageId(0), b"current".to_vec())]);
    }

    #[test]
    fn flush_dirty_failure_is_retryable_without_losing_payloads() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 4, None);
        c.materialize(0, PageId(0));
        c.materialize(0, PageId(1));
        c.drain();
        c.write(0, PageId(0), b"a");
        c.write(0, PageId(1), b"b");
        let err = c.flush_dirty(0, |_, _| Err(StorageError::Corrupt("disk full".into())));
        assert!(err.is_err());
        assert_eq!(c.pending_write_back(), 2, "payloads survive the failure");
        let mut written = Vec::new();
        c.flush_dirty(0, |page, buf| {
            written.push((page, buf.to_vec()));
            Ok(())
        })
        .unwrap();
        written.sort();
        assert_eq!(
            written,
            vec![(PageId(0), b"a".to_vec()), (PageId(1), b"b".to_vec())]
        );
        assert_eq!(c.pending_write_back(), 0);
    }

    #[test]
    fn handles_charge_like_the_buffer_pool_oracle() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 8, None);
        let mut oracle = BufferPool::with_capacity_pages(2, &[2]);
        let mut h = c.handle(2);
        let seq = [
            (PageId(0), 0),
            (PageId(1), 1),
            (PageId(2), 1),
            (PageId(1), 1),
            (PageId(4), 1),
            (PageId(0), 0),
        ];
        for &(p, d) in &seq {
            assert_eq!(h.access(0, p, d), oracle.access(0, p, d), "page {p}");
        }
        assert_eq!(
            h.stats(),
            oracle.stats(),
            "logical accounting is bit-identical"
        );
        assert_eq!(
            h.warm_hits() + h.cold_faults(),
            h.stats().disk_accesses,
            "every charged miss was served exactly once"
        );
        c.drain();
        assert_eq!(
            c.queue().total_reads(),
            c.physical_reads(),
            "every submission became exactly one pread"
        );

        // A second worker re-walking the sequence charges identically
        // (private decision state) but reads nothing: the pool is warm.
        let before = c.physical_reads();
        let mut h2 = c.handle(2);
        for &(p, d) in &seq {
            h2.access(0, p, d);
        }
        assert_eq!(h2.stats(), h.stats(), "same logical charges for worker 2");
        assert_eq!(h2.cold_faults(), 0, "warm frames serve every miss");
        assert_eq!(c.physical_reads(), before, "no new physical reads");
    }

    #[test]
    fn update_handle_accounts_like_the_buffer_pool_oracle() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 8, None);
        let mut h = c.update_handle(0, 2).unwrap();
        let mut oracle = BufferPool::with_capacity_pages(2, &[UPDATE_MAX_HEIGHT]);
        // An update-shaped charge sequence: descend (access), mutate
        // (write), with enough distinct pages to force private dirty
        // evictions — where the deferred write charges land.
        let script = [
            (PageId(0), 0, false),
            (PageId(1), 1, true),
            (PageId(2), 1, true),
            (PageId(3), 1, true),
            (PageId(1), 1, false),
            (PageId(0), 0, true),
        ];
        for &(p, d, w) in &script {
            assert_eq!(h.access(0, p, d), oracle.access(0, p, d), "page {p}");
            if w {
                let bytes = node_bytes(p.0);
                NodeAccessMut::write(&mut h, 0, p, &bytes);
                NodeAccessMut::write(&mut oracle, 0, p, &bytes);
            }
        }
        assert_eq!(
            h.stats(),
            oracle.stats(),
            "write charges are bit-identical to the BufferPool oracle"
        );
        NodeAccessMut::flush_writes(&mut h).unwrap();
        NodeAccessMut::flush_writes(&mut oracle).unwrap();
        assert_eq!(h.stats(), oracle.stats(), "flush charges match too");
        assert!(
            c.physical_writes() <= h.stats().page_writes,
            "physical writes ({}) must not exceed logical charges ({})",
            c.physical_writes(),
            h.stats().page_writes
        );
        assert_eq!(c.pending_write_back(), 0, "flush drained every payload");
    }

    #[test]
    fn update_handle_rejects_an_out_of_range_store() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        assert!(matches!(
            c.update_handle(7, 4).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn clear_goes_cold_and_reset_stats_stays_warm() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        let mut h = c.handle(4);
        for p in 0..4u32 {
            h.access(0, PageId(p), 1);
        }
        c.reset_stats();
        assert_eq!(c.physical_reads(), 0);
        assert_eq!(c.resident_pages(), 4, "reset_stats keeps the frames warm");
        let (_, fresh) = c.materialize(0, PageId(0));
        assert!(!fresh, "still warm after a stats reset");
        c.clear();
        assert_eq!(c.resident_pages(), 0);
        let (_, fresh) = c.materialize(0, PageId(0));
        assert!(fresh, "cold after clear");
    }

    #[test]
    fn mismatched_page_sizes_are_rejected() {
        let dir = TempDir::new("cache").unwrap();
        let a = demo_file(&dir, "a.rsj", 1);
        let slot = codec::slot_bytes_for(2);
        let b = dir.file("b.rsj");
        PageFile::create(&b, 2048, slot).unwrap().flush().unwrap();
        assert!(matches!(
            SharedPageCache::open(&[a, b], 4, &[1, 1], CacheConfig::default()).unwrap_err(),
            StorageError::PageSizeMismatch { .. }
        ));
    }

    /// The node a read handle serves for `page`, waiting out its read.
    fn served(h: &mut SharedCacheFileAccess, page: PageId) -> Arc<DiskNode> {
        loop {
            match h.page_node(0, page) {
                PageNode::Ready(node) => return node,
                PageNode::Pending(ticket) => h.await_ticket(ticket),
                other => panic!("page {page}: {other:?}"),
            }
        }
    }

    #[test]
    fn handles_serve_the_nodes_their_misses_read() {
        let dir = TempDir::new("cache").unwrap();
        let slow: DelayFn = Arc::new(|_| Some(Duration::from_millis(5)));
        let c = cache(&dir, 4, 4, Some(slow));
        let mut h = c.handle(2);
        assert!(h.access(0, PageId(2), 1));
        let node = served(&mut h, PageId(2));
        assert_eq!(
            (node.level, node.entries[0].child),
            (0, 2),
            "page 2's bytes"
        );
        assert_eq!(
            c.pin_count(0, PageId(2)),
            0,
            "taking the node releases the hold"
        );
        // A logical hit is served from the handle, not the pool.
        let hits = c.frame_hits();
        assert!(!h.access(0, PageId(2), 1));
        assert!(Arc::ptr_eq(&served(&mut h, PageId(2)), &node));
        assert_eq!(c.frame_hits(), hits, "a logical hit never touches the pool");
    }

    #[test]
    fn a_rewritten_resident_frame_serves_its_new_node() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        let mut h = c.handle(4);
        h.access(0, PageId(1), 1);
        assert_eq!(served(&mut h, PageId(1)).entries[0].child, 1);
        c.write(0, PageId(1), &node_bytes(9));
        let mut fresh = c.handle(4);
        fresh.access(0, PageId(1), 1);
        assert_eq!(
            served(&mut fresh, PageId(1)).entries[0].child,
            9,
            "a demand after the write decodes the new bytes, never the stale node"
        );
        // Write-back keeps the frame serving the same (now clean) node.
        c.clear_dirty(0, PageId(1));
        let mut after = c.handle(4);
        after.access(0, PageId(1), 1);
        assert_eq!(served(&mut after, PageId(1)).entries[0].child, 9);
        assert_eq!(
            c.physical_reads(),
            1,
            "one read, then bytes from the writes"
        );
    }

    #[test]
    fn a_frame_reinstalled_from_the_drain_serves_its_new_node() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 8, 2, None);
        let mut h = c.handle(4);
        h.access(0, PageId(0), 1);
        assert_eq!(served(&mut h, PageId(0)).entries[0].child, 0);
        c.write(0, PageId(0), &node_bytes(7));
        c.materialize(0, PageId(2));
        c.materialize(0, PageId(3)); // evicts dirty page 0 into the drain
        c.drain();
        assert_eq!(c.frame_state(0, PageId(0)), FrameState::Dirty);
        let mut fresh = c.handle(4);
        fresh.access(0, PageId(0), 1);
        assert_eq!(
            served(&mut fresh, PageId(0)).entries[0].child,
            7,
            "the drained payload, not the file's (or the old frame's) bytes"
        );
        assert_eq!(c.drain_hits(), 1);
    }

    #[test]
    fn undecodable_bytes_fail_the_reader_typed() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        c.write(0, PageId(3), b"not a node");
        let mut h = c.handle(4);
        h.access(0, PageId(3), 1);
        assert!(matches!(
            h.page_node(0, PageId(3)),
            PageNode::Failed(StorageError::Corrupt(_))
        ));
        // The queue is not poisoned: other pages keep serving.
        h.access(0, PageId(1), 1);
        assert_eq!(served(&mut h, PageId(1)).entries[0].child, 1);
    }

    #[test]
    fn update_handles_neither_hold_frames_nor_serve_nodes() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        let mut u = c.update_handle(0, 4).unwrap();
        assert!(!u.wants_hints());
        u.access(0, PageId(1), 1);
        assert!(matches!(u.page_node(0, PageId(1)), PageNode::InMemory));
        c.drain();
        assert_eq!(c.pin_count(0, PageId(1)), 0, "no pin blocks its own writes");
    }

    #[test]
    fn dropping_a_handle_releases_every_pin_it_holds() {
        let dir = TempDir::new("cache").unwrap();
        let slow: DelayFn = Arc::new(|_| Some(Duration::from_millis(5)));
        let c = cache(&dir, 4, 4, Some(slow));
        let mut h = c.handle(4);
        h.access(0, PageId(1), 1); // held until its node is taken
        h.access(0, PageId(2), 1);
        served(&mut h, PageId(2));
        h.pin(0, PageId(2));
        drop(h);
        c.drain();
        assert_eq!(c.pin_count(0, PageId(1)), 0);
        assert_eq!(c.pin_count(0, PageId(2)), 0);
    }

    #[test]
    fn poisoned_frame_shard_recovers() {
        let dir = TempDir::new("cache").unwrap();
        let c = cache(&dir, 4, 4, None);
        c.materialize(0, PageId(1));
        let poisoner = std::thread::spawn({
            let c = Arc::clone(&c);
            move || {
                let _guard = c.shards[0].frames.lock().unwrap();
                panic!("worker dies holding the frame lock");
            }
        });
        assert!(poisoner.join().is_err());
        c.drain();
        assert_eq!(c.frame_state(0, PageId(1)), FrameState::Resident);
        let (_, fresh) = c.materialize(0, PageId(2));
        assert!(fresh, "the pool keeps serving after a worker panic");
    }

    #[test]
    fn shard_count_tracks_workers_without_degenerate_slices() {
        // Worker count rounds up to a power of two…
        assert_eq!(auto_shard_count(1, 1024), 1);
        assert_eq!(auto_shard_count(3, 1024), 4);
        assert_eq!(auto_shard_count(6, 1024), 8);
        // …capped so huge fleets don't fragment the budget…
        assert_eq!(auto_shard_count(100, 1024), MAX_SHARDS);
        // …and a small pool never splits below one frame per shard.
        assert_eq!(auto_shard_count(8, 3), 3);
        assert_eq!(auto_shard_count(8, 0), 1);

        let dir = TempDir::new("cache").unwrap();
        let path = demo_file(&dir, "t.rsj", 8);
        let auto = |workers, cap| {
            let cfg = CacheConfig {
                workers,
                ..CacheConfig::default()
            };
            SharedPageCache::open(std::slice::from_ref(&path), cap, &[2], cfg).unwrap()
        };
        let c = auto(16, 4);
        assert_eq!(c.shard_count(), 4, "capacity bounds the shard count");
        assert_eq!(c.capacity(), 4);
        assert_eq!(auto(3, 64).shard_count(), 4);
    }

    #[test]
    fn sequential_pages_spread_over_frame_shards() {
        // The page allocators hand out dense sequential ids; the frame
        // hash must not collapse them onto a few shards, and the same
        // page of two stores must be free to land apart.
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for page in 0..800u32 {
            counts[shard_of(BufKey::new(0, PageId(page)), shards)] += 1;
        }
        for (b, &n) in counts.iter().enumerate() {
            assert!((50..=150).contains(&n), "shard {b} got {n} of 800 pages");
        }
        assert!((0..64u32).any(|p| {
            shard_of(BufKey::new(0, PageId(p)), shards)
                != shard_of(BufKey::new(1, PageId(p)), shards)
        }));
        assert_eq!(shard_of(BufKey::new(3, PageId(9)), 1), 0);
    }
}
