//! Persistent page files and the file-backed [`NodeAccess`] implementation.
//!
//! [`PageFile`] owns a real `std::fs::File` in the format of
//! [`crate::codec`]: header, then fixed-size page slots. Reads and writes
//! go through `seek` + `read_exact`/`write_all` and are counted, so a
//! cold-opened tree pays genuine file I/O for every buffer miss.
//!
//! [`FileNodeAccess`] is the second [`NodeAccess`] backend (after
//! [`crate::BufferPool`]): the same §4.1
//! buffer hierarchy — per-tree path buffer first, then the shared LRU
//! buffer — but every miss performs an actual page read from the backing
//! file instead of merely bumping a counter. Given the same LRU capacity
//! it reports *bit-identical* `disk_accesses` to [`crate::BufferPool`]
//! (the storage-conformance suite enforces this across SJ1–SJ5); what
//! changes is that the misses are real.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::access::{NodeAccess, NodeAccessMut, PageNode};
use crate::codec::{
    self, EntryFormat, FileHeader, StorageError, HEADER_BYTES, META_BYTES, SLOT_HEADER_BYTES,
};
use crate::lru::{BufKey, EvictionPolicy, LruBuffer};
use crate::page::PageId;
use crate::path::PathBuffer;
use crate::pool::IoStats;
use crate::writeback::{DirtyPages, FreeChain, UpdateBackend};

/// A page file: fixed header plus `page_count` slots of `slot_bytes` each.
///
/// The header (including the page count and the owner metadata) lives in
/// memory and is persisted by [`PageFile::flush`]; `create → append_page*
/// → set_meta → flush` is the write protocol (the R-tree crate's
/// `save_to` drives it). Read/write counters mirror [`crate::PageStore`]'s.
///
/// **Free-page list** (write path): released slots are chained through the
/// file — each free slot stores the next free page, the header stores the
/// chain head — and [`PageFile::allocate`] reuses them LIFO *before*
/// appending, so delete-heavy churn does not grow the file monotonically.
/// The chain is mirrored in memory (`free`), rebuilt and validated on
/// open, and persisted incrementally: [`PageFile::release`] writes the
/// slot's marker at release time, the header's `free_head` lands on disk
/// at the next [`PageFile::flush`].
#[derive(Debug)]
pub struct PageFile {
    file: File,
    path: PathBuf,
    header: FileHeader,
    /// In-memory mirror of the on-disk free chain (head last,
    /// reused first) — see [`FreeChain`].
    free: FreeChain,
    reads: u64,
    writes: u64,
    /// Slot-sized zero block reused for write padding, so the steady-state
    /// append/overwrite path allocates nothing (lazily sized on first use
    /// — read-only files never pay for it).
    pad: Vec<u8>,
    /// Scratch for free-chain marker encoding.
    marker: Vec<u8>,
    /// Injected latency per counted page read (see
    /// [`PageFile::set_read_latency`]); `None` = no injection.
    read_latency: Option<Duration>,
}

/// Environment variable naming the injected per-read latency in
/// microseconds. Read once per [`PageFile`] construction, so handles
/// opened by completion-queue workers inherit the same knob. `0`, unset,
/// or unparsable mean "no injection".
pub const READ_LATENCY_ENV: &str = "RSJ_READ_LATENCY_US";

/// The per-read latency currently requested via [`READ_LATENCY_ENV`].
fn env_read_latency() -> Option<Duration> {
    let us: u64 = std::env::var(READ_LATENCY_ENV).ok()?.parse().ok()?;
    (us > 0).then(|| Duration::from_micros(us))
}

impl PageFile {
    /// Creates (truncating) a page file with the given logical page size
    /// and physical slot size and writes the initial header.
    pub fn create(
        path: impl AsRef<Path>,
        page_bytes: usize,
        slot_bytes: usize,
    ) -> Result<Self, StorageError> {
        Self::create_with_format(path, page_bytes, slot_bytes, EntryFormat::F64)
    }

    /// [`PageFile::create`] with an explicit on-disk entry format (the
    /// format is recorded in the header's flag word; the page file itself
    /// never interprets slot contents).
    pub fn create_with_format(
        path: impl AsRef<Path>,
        page_bytes: usize,
        slot_bytes: usize,
        format: EntryFormat,
    ) -> Result<Self, StorageError> {
        if page_bytes == 0 {
            return Err(StorageError::Corrupt("page size of zero".into()));
        }
        if slot_bytes < SLOT_HEADER_BYTES {
            return Err(StorageError::Corrupt(format!(
                "slot size {slot_bytes} below the {SLOT_HEADER_BYTES}-byte slot header"
            )));
        }
        let header = FileHeader {
            flags: format.flags(),
            page_bytes: u32::try_from(page_bytes)
                .map_err(|_| StorageError::Corrupt("page size exceeds u32".into()))?,
            slot_bytes: u32::try_from(slot_bytes)
                .map_err(|_| StorageError::Corrupt("slot size exceeds u32".into()))?,
            page_count: 0,
            free_head: None,
            meta: [0; META_BYTES],
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        file.write_all(&header.encode())?;
        Ok(PageFile {
            file,
            path: path.as_ref().to_path_buf(),
            header,
            free: FreeChain::default(),
            reads: 0,
            writes: 0,
            pad: Vec::new(),
            marker: Vec::new(),
            read_latency: env_read_latency(),
        })
    }

    /// Opens an existing page file read-only, validating magic, version
    /// and length. Read-only is deliberate: this open path serves
    /// `open_from`/`FileNodeAccess`, which never write, so saved trees on
    /// read-only media stay usable; write operations against a file
    /// opened this way fail with [`StorageError::Io`].
    /// [`PageFile::open_rw`] holds a writable handle for the update path.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(path, false)
    }

    /// Opens an existing page file read-write — the handle incremental
    /// updates ([`PageFile::allocate`] / [`PageFile::release`] /
    /// [`PageFile::write_page`]) run against.
    pub fn open_rw(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(path, true)
    }

    fn open_with(path: impl AsRef<Path>, writable: bool) -> Result<Self, StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(writable)
            .open(path.as_ref())?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_BYTES as u64 {
            return Err(StorageError::Truncated {
                expected_bytes: HEADER_BYTES as u64,
                found_bytes: file_len,
            });
        }
        let mut buf = [0u8; HEADER_BYTES];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut buf)?;
        let header = FileHeader::decode(&buf, file_len)?;
        let mut pf = PageFile {
            file,
            path: path.as_ref().to_path_buf(),
            header,
            free: FreeChain::default(),
            reads: 0,
            writes: 0,
            pad: Vec::new(),
            marker: Vec::new(),
            read_latency: env_read_latency(),
        };
        let chain = pf.walk_free_chain()?;
        pf.free.restore(chain);
        Ok(pf)
    }

    /// Rebuilds the in-memory free list from the on-disk chain via the
    /// shared walker ([`FreeChain::walk`]), uncounted — chain recovery is
    /// open-time work, not join or update I/O.
    fn walk_free_chain(&mut self) -> Result<Vec<PageId>, StorageError> {
        let (head, page_count, format) = (
            self.header.free_head,
            self.header.page_count,
            self.header.entry_format(),
        );
        FreeChain::walk(head, page_count, format, |id, buf| {
            self.read_slot_uncounted(id, buf)
        })
    }

    /// Reads one slot without touching the read counter — open-time chain
    /// recovery only.
    fn read_slot_uncounted(&mut self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        let off = self.slot_offset(id)?;
        buf.resize(self.slot_bytes(), 0);
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(buf)?;
        Ok(())
    }

    /// The path this file lives at.
    #[inline]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Logical page size in bytes (the accounting unit).
    #[inline]
    pub fn page_bytes(&self) -> usize {
        self.header.page_bytes as usize
    }

    /// Physical bytes per page slot.
    #[inline]
    pub fn slot_bytes(&self) -> usize {
        self.header.slot_bytes as usize
    }

    /// Number of pages.
    #[inline]
    pub fn page_count(&self) -> u32 {
        self.header.page_count
    }

    /// The owner metadata blob.
    #[inline]
    pub fn meta(&self) -> &[u8; META_BYTES] {
        &self.header.meta
    }

    /// Replaces the owner metadata (persisted on [`PageFile::flush`]).
    pub fn set_meta(&mut self, meta: [u8; META_BYTES]) {
        self.header.meta = meta;
    }

    /// The on-disk entry format recorded in the header.
    #[inline]
    pub fn entry_format(&self) -> EntryFormat {
        self.header.entry_format()
    }

    /// Head of the free chain (the page the next [`PageFile::allocate`]
    /// reuses), if any.
    #[inline]
    pub fn free_head(&self) -> Option<PageId> {
        self.free.head()
    }

    /// The free list, oldest release first (last element = chain head).
    #[inline]
    pub fn free_pages(&self) -> &[PageId] {
        self.free.as_slice()
    }

    /// Number of free (reusable) page slots.
    #[inline]
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Allocates a slot for `payload`: pops the free-chain head and
    /// overwrites it in place if a released page exists
    /// (**reuse-before-append**), appends a fresh slot otherwise. Charges
    /// one write either way.
    pub fn allocate(&mut self, payload: &[u8]) -> Result<PageId, StorageError> {
        match self.free.pop() {
            Some(id) => {
                if let Err(e) = self.write_page(id, payload) {
                    self.free.undo_pop(id); // failed: the slot is still free
                    return Err(e);
                }
                self.free.commit_pop(id);
                self.header.free_head = self.free.head();
                Ok(id)
            }
            None => self.append_page(payload),
        }
    }

    /// Releases a page onto the free chain: overwrites its slot with a
    /// chain marker linking to the previous head and makes it the new
    /// head. Charges one write. Double releases and out-of-range pages
    /// are typed errors.
    pub fn release(&mut self, id: PageId) -> Result<(), StorageError> {
        let off = self.slot_offset(id)?;
        if self.free.contains(id) {
            return Err(StorageError::Corrupt(format!("double release of {id}")));
        }
        let slot = self.slot_bytes();
        let mut marker = std::mem::take(&mut self.marker);
        codec::encode_free_page(self.free.head(), slot, &mut marker)?;
        let res = self.write_slot_at(off, &marker);
        self.marker = marker;
        res?;
        self.free.push_released(id)?;
        self.header.free_head = Some(id);
        Ok(())
    }

    /// Registers `free` as this file's free list (oldest release first)
    /// without writing anything — for save paths that already encoded the
    /// chain markers into the corresponding slots. The head is persisted
    /// with the next [`PageFile::flush`].
    pub fn set_free_list(&mut self, free: &[PageId]) -> Result<(), StorageError> {
        for &id in free {
            if id.0 >= self.header.page_count {
                return Err(StorageError::Corrupt(format!(
                    "free list references page {id} out of range of a {}-page file",
                    self.header.page_count
                )));
            }
        }
        if let Err(e) = self.free.set_list(free) {
            self.header.free_head = None;
            return Err(e);
        }
        self.header.free_head = self.free.head();
        Ok(())
    }

    /// Errors if the file's logical page size differs from `expected` —
    /// trees joined through one buffer must share a page size.
    pub fn check_page_bytes(&self, expected: usize) -> Result<(), StorageError> {
        if self.page_bytes() != expected {
            return Err(StorageError::PageSizeMismatch {
                expected: expected as u32,
                found: self.header.page_bytes,
            });
        }
        Ok(())
    }

    fn slot_offset(&self, id: PageId) -> Result<u64, StorageError> {
        if id.0 >= self.header.page_count {
            return Err(StorageError::Corrupt(format!(
                "page {id} out of range of a {}-page file",
                self.header.page_count
            )));
        }
        Ok(HEADER_BYTES as u64 + u64::from(id.0) * u64::from(self.header.slot_bytes))
    }

    /// Writes `payload` at `off`, zero-padded to the slot size, reusing
    /// the file's pad block instead of allocating per write.
    fn write_slot_at(&mut self, off: u64, payload: &[u8]) -> Result<(), StorageError> {
        let slot = self.slot_bytes();
        if payload.len() > slot {
            return Err(StorageError::NodeTooLarge {
                need: payload.len(),
                slot,
            });
        }
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(payload)?;
        if payload.len() < slot {
            if self.pad.len() < slot {
                self.pad.resize(slot, 0);
            }
            self.file.write_all(&self.pad[..slot - payload.len()])?;
        }
        self.writes += 1;
        Ok(())
    }

    /// Appends one encoded page (at most `slot_bytes` long; zero-padded)
    /// and returns its id. Charges one write.
    pub fn append_page(&mut self, payload: &[u8]) -> Result<PageId, StorageError> {
        let id = PageId(self.header.page_count);
        let off = HEADER_BYTES as u64 + u64::from(id.0) * u64::from(self.header.slot_bytes);
        self.write_slot_at(off, payload)?;
        self.header.page_count += 1;
        Ok(id)
    }

    /// Overwrites an existing page in place. Charges one write.
    pub fn write_page(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError> {
        let off = self.slot_offset(id)?;
        self.write_slot_at(off, payload)
    }

    /// Reads one slot into `buf` (resized to `slot_bytes`). Charges one
    /// read. When a read latency is injected, the sleep happens *before*
    /// the read, modelling positioning time; open-time chain recovery
    /// stays undelayed, matching its uncounted status.
    pub fn read_page_into(&mut self, id: PageId, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        if let Some(lat) = self.read_latency {
            std::thread::sleep(lat);
        }
        let off = self.slot_offset(id)?;
        buf.resize(self.slot_bytes(), 0);
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(buf)?;
        self.reads += 1;
        Ok(())
    }

    /// Reads one slot bounds-checked against the *physical* file length
    /// instead of the header page count cached at open. Charges one read,
    /// skips the injected latency (it is a retry, not a fresh
    /// positioning). The completion-queue lane workers fall back to this
    /// when a demand read lands on a page a concurrent updater appended
    /// through its own handle: the slot bytes are on disk the moment
    /// `append_page` returns, but neither this handle's cached header nor
    /// the on-disk header (stale until the updater flushes) knows the new
    /// count — only the file length does.
    pub(crate) fn read_slot_fresh(
        &mut self,
        id: PageId,
        buf: &mut Vec<u8>,
    ) -> Result<(), StorageError> {
        let slot = self.slot_bytes();
        let off = HEADER_BYTES as u64 + u64::from(id.0) * u64::from(self.header.slot_bytes);
        let len = self.file.metadata()?.len();
        if off + slot as u64 > len {
            return Err(StorageError::Corrupt(format!(
                "page {id} beyond the physical end of a {len}-byte file"
            )));
        }
        buf.resize(slot, 0);
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(buf)?;
        self.reads += 1;
        Ok(())
    }

    /// Injects (or clears) an artificial latency charged on every counted
    /// page read — the knob that makes latency *hiding* measurable on page
    /// caches and fast NVMe. Handles pick up a default from
    /// [`READ_LATENCY_ENV`] at construction; this setter overrides it per
    /// handle.
    pub fn set_read_latency(&mut self, latency: Option<Duration>) {
        self.read_latency = latency.filter(|l| !l.is_zero());
    }

    /// The injected per-read latency currently in force on this handle.
    #[inline]
    pub fn read_latency(&self) -> Option<Duration> {
        self.read_latency
    }

    /// Reads one slot into a fresh buffer. Charges one read.
    pub fn read_page(&mut self, id: PageId) -> Result<Vec<u8>, StorageError> {
        let mut buf = Vec::new();
        self.read_page_into(id, &mut buf)?;
        Ok(buf)
    }

    /// Persists the in-memory header (page count, metadata) to disk.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&self.header.encode())?;
        self.file.flush()?;
        Ok(())
    }

    /// Page reads charged so far.
    #[inline]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Page writes charged so far.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Resets the read/write counters (e.g. after building, before
    /// measuring — same contract as [`crate::PageStore::reset_io`]).
    pub fn reset_io(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }
}

/// Shared constructor validation of the file backends ([`FileNodeAccess`],
/// [`crate::SharedPageCache`]): one backing store per tree height, and
/// every store on one logical page size.
pub(crate) fn validate_stores(stores: &[PageFile], heights: &[usize]) -> Result<(), StorageError> {
    if stores.len() != heights.len() {
        return Err(StorageError::Corrupt(format!(
            "{} backing stores but {} tree heights",
            stores.len(),
            heights.len()
        )));
    }
    if let Some((first, rest)) = stores.split_first() {
        for s in rest {
            s.check_page_bytes(first.page_bytes())?;
        }
    }
    Ok(())
}

/// The file-backed [`NodeAccess`] backend: path buffers + one LRU buffer
/// over a set of [`PageFile`]s, one per participating tree/store.
///
/// The access logic replays [`crate::BufferPool`]'s decision sequence
/// exactly — path probe, path install, LRU access — so with the same LRU
/// capacity the reported [`IoStats`] are identical; a miss additionally
/// performs a real, blocking page read from the backing file (visible in
/// [`PageFile::reads`]). A read that fails is kept, not raised: the
/// executor gets it as [`PageNode::Failed`] when it asks for that page's
/// node, and stops with a typed error.
#[derive(Debug)]
pub struct FileNodeAccess {
    files: Vec<PageFile>,
    lru: LruBuffer,
    paths: Vec<PathBuffer>,
    stats: IoStats,
    scratch: Vec<u8>,
    /// Pages whose last read failed, with the error until the executor
    /// has taken it.
    failed: HashMap<BufKey, Option<StorageError>>,
    /// Dirty-page payloads awaiting write-back ([`NodeAccessMut`]).
    dirty: DirtyPages,
}

impl FileNodeAccess {
    /// Backend over `files` (store `i` resolves to `files[i]`) with an LRU
    /// buffer of `cap_pages` and one path buffer per entry of `heights`.
    pub fn with_capacity_pages(
        files: Vec<PageFile>,
        cap_pages: usize,
        heights: &[usize],
        policy: EvictionPolicy,
    ) -> Result<Self, StorageError> {
        validate_stores(&files, heights)?;
        Ok(FileNodeAccess {
            files,
            lru: LruBuffer::with_policy(cap_pages, policy),
            paths: heights.iter().map(|&h| PathBuffer::new(h)).collect(),
            stats: IoStats::default(),
            scratch: Vec::new(),
            failed: HashMap::new(),
            dirty: DirtyPages::default(),
        })
    }

    /// [`FileNodeAccess::with_capacity_pages`] with the capacity given as
    /// a byte budget over the files' logical page size (the paper quotes
    /// buffer sizes in KBytes).
    pub fn new(
        files: Vec<PageFile>,
        buffer_bytes: usize,
        heights: &[usize],
        policy: EvictionPolicy,
    ) -> Result<Self, StorageError> {
        let page_bytes = files
            .first()
            .map(PageFile::page_bytes)
            .ok_or_else(|| StorageError::Corrupt("no page files".into()))?;
        Self::with_capacity_pages(files, buffer_bytes / page_bytes, heights, policy)
    }

    /// Statistics so far.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// The backing file of `store` (counter inspection, reopening).
    #[inline]
    pub fn file(&self, store: u8) -> &PageFile {
        &self.files[store as usize]
    }

    /// The backing file of `store`, mutably — the update path allocates
    /// and releases pages through this.
    #[inline]
    pub fn file_mut(&mut self, store: u8) -> &mut PageFile {
        &mut self.files[store as usize]
    }

    /// Number of dirty pages currently buffered (awaiting write-back).
    #[inline]
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Writes back every dirty page the LRU evicted since the last drain.
    /// A write-back failure panics: the storage broke mid-operation and
    /// the buffered payload has nowhere else to go.
    fn write_back_evicted(&mut self) {
        let files = &mut self.files;
        self.dirty
            .write_back_evicted(&mut self.lru, &mut self.stats, |key, buf| {
                files[key.store as usize].write_page(key.page, buf)
            })
            .expect("dirty-page write-back failed");
    }

    /// The underlying LRU buffer (for inspection in tests).
    #[inline]
    pub fn lru(&self) -> &LruBuffer {
        &self.lru
    }

    /// Empties all buffers and zeroes *every* I/O counter — the
    /// [`IoStats`] tallies, the LRU hit/miss/eviction counters, and the
    /// read/write counters of all backing files — so consecutive bench
    /// runs start genuinely cold. Un-flushed dirty pages are
    /// **discarded** (callers on the update path flush first; a reset is
    /// a measurement boundary, not a durability point), and so are kept
    /// read failures.
    pub fn reset(&mut self) {
        self.lru.clear();
        self.lru.reset_io();
        self.dirty.clear();
        self.failed.clear();
        for p in &mut self.paths {
            p.clear();
        }
        for f in &mut self.files {
            f.reset_io();
        }
        self.stats = IoStats::default();
    }

    /// Consumes the backend, returning the page files.
    pub fn into_files(self) -> Vec<PageFile> {
        self.files
    }
}

impl NodeAccess for FileNodeAccess {
    fn access(&mut self, store: u8, page: PageId, depth: usize) -> bool {
        let miss = crate::pool::hierarchy_access(
            &mut self.lru,
            &mut self.paths,
            &mut self.stats,
            store,
            page,
            depth,
        );
        // An insertion may have evicted a dirty page: write it back
        // before anything else touches the file.
        self.write_back_evicted();
        if miss {
            // The honest part: a miss is a real read from the file, into
            // the backend's one reusable scratch buffer (steady-state
            // misses allocate nothing).
            let key = BufKey::new(store, page);
            match self.files[store as usize].read_page_into(page, &mut self.scratch) {
                Ok(()) if self.failed.is_empty() => {}
                Ok(()) => {
                    self.failed.remove(&key);
                }
                Err(e) => {
                    self.failed.insert(key, Some(e));
                }
            }
        }
        miss
    }

    fn pin(&mut self, store: u8, page: PageId) {
        self.lru.pin(BufKey::new(store, page));
        self.write_back_evicted();
    }

    fn unpin(&mut self, store: u8, page: PageId) {
        self.lru.unpin(BufKey::new(store, page));
        self.write_back_evicted();
    }

    fn io_stats(&self) -> IoStats {
        self.stats
    }

    /// [`PageNode::Failed`] for a page whose read failed — the error
    /// itself the first time, a reminder after — and
    /// [`PageNode::InMemory`] otherwise: the bytes this backend reads
    /// pace the join, the in-memory tree supplies the node.
    fn page_node(&mut self, store: u8, page: PageId) -> PageNode {
        if self.failed.is_empty() {
            return PageNode::InMemory;
        }
        match self.failed.get_mut(&BufKey::new(store, page)) {
            None => PageNode::InMemory,
            Some(e) => PageNode::Failed(e.take().unwrap_or_else(|| {
                StorageError::Corrupt(format!("page {page} of store {store} failed to read"))
            })),
        }
    }
}

impl NodeAccessMut for FileNodeAccess {
    fn write(&mut self, store: u8, page: PageId, payload: &[u8]) {
        // The page's contents are now the payload: a failed earlier read
        // of it no longer stands.
        if !self.failed.is_empty() {
            self.failed.remove(&BufKey::new(store, page));
        }
        let files = &mut self.files;
        self.dirty
            .stash(
                BufKey::new(store, page),
                payload,
                &mut self.lru,
                &mut self.stats,
                |key, buf| files[key.store as usize].write_page(key.page, buf),
            )
            .expect("dirty-page write-through failed");
        self.write_back_evicted();
    }

    fn discard(&mut self, store: u8, page: PageId) {
        self.dirty.discard(BufKey::new(store, page), &mut self.lru);
    }

    fn flush_writes(&mut self) -> Result<(), StorageError> {
        let files = &mut self.files;
        self.dirty
            .flush_all(&mut self.lru, &mut self.stats, |key, buf| {
                files[key.store as usize].write_page(key.page, buf)
            })
    }
}

impl UpdateBackend for FileNodeAccess {
    fn store_file(&self, store: u8) -> &PageFile {
        self.file(store)
    }

    fn store_file_mut(&mut self, store: u8) -> &mut PageFile {
        self.file_mut(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::temp::TempDir;

    fn demo_file(dir: &TempDir, name: &str, pages: u32) -> PageFile {
        let slot = codec::slot_bytes_for(2);
        let mut f = PageFile::create(dir.file(name), 1024, slot).unwrap();
        let mut buf = Vec::new();
        for i in 0..pages {
            let node = codec::DiskNode {
                level: 0,
                entries: vec![codec::DiskEntry {
                    rect: [i as f64, 0.0, i as f64 + 1.0, 1.0],
                    child: u64::from(i),
                }],
            };
            codec::encode_node(&node, slot, &mut buf).unwrap();
            f.append_page(&buf).unwrap();
        }
        f.set_meta([9; META_BYTES]);
        f.flush().unwrap();
        f
    }

    #[test]
    fn create_append_reopen_read() {
        let dir = TempDir::new("pagefile").unwrap();
        let path = {
            let f = demo_file(&dir, "t.rsj", 3);
            f.path().to_path_buf()
        };
        let mut f = PageFile::open(&path).unwrap();
        assert_eq!(f.page_count(), 3);
        assert_eq!(f.page_bytes(), 1024);
        assert_eq!(f.meta(), &[9; META_BYTES]);
        let node = codec::decode_node(&f.read_page(PageId(2)).unwrap()).unwrap();
        assert_eq!(node.entries[0].child, 2);
        assert_eq!(f.reads(), 1);
        f.reset_io();
        assert_eq!(f.reads(), 0);
    }

    #[test]
    fn out_of_range_read_is_a_typed_error() {
        let dir = TempDir::new("pagefile").unwrap();
        let mut f = demo_file(&dir, "t.rsj", 2);
        assert!(matches!(
            f.read_page(PageId(2)).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn a_retired_sharded_manifest_is_a_typed_error() {
        // The manifest of the retired sharded layout: magic "RSJS",
        // version 2, shard count, page count, free head, then one shard
        // byte per page.
        let dir = TempDir::new("pagefile").unwrap();
        let manifest = |pages: u32| {
            let mut bytes = b"RSJS".to_vec();
            bytes.extend_from_slice(&[2, 0, 0, 0]);
            bytes.extend_from_slice(&4u32.to_le_bytes());
            bytes.extend_from_slice(&pages.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend((0..pages).map(|p| (p % 4) as u8));
            let path = dir.file(&format!("m{pages}.rsj"));
            std::fs::write(&path, bytes).unwrap();
            path
        };
        assert!(matches!(
            PageFile::open(manifest(60)).unwrap_err(),
            StorageError::BadMagic { found } if &found == b"RSJS"
        ));
        assert!(matches!(
            PageFile::open(manifest(10)).unwrap_err(),
            StorageError::Truncated { .. }
        ));
    }

    #[test]
    fn page_size_check() {
        let dir = TempDir::new("pagefile").unwrap();
        let f = demo_file(&dir, "t.rsj", 1);
        assert!(f.check_page_bytes(1024).is_ok());
        assert!(matches!(
            f.check_page_bytes(4096).unwrap_err(),
            StorageError::PageSizeMismatch {
                expected: 4096,
                found: 1024
            }
        ));
    }

    #[test]
    fn write_page_overwrites_in_place() {
        let dir = TempDir::new("pagefile").unwrap();
        let mut f = demo_file(&dir, "t.rsj", 2);
        let slot = f.slot_bytes();
        let node = codec::DiskNode {
            level: 0,
            entries: vec![codec::DiskEntry {
                rect: [9.0, 9.0, 10.0, 10.0],
                child: 99,
            }],
        };
        let mut buf = Vec::new();
        codec::encode_node(&node, slot, &mut buf).unwrap();
        f.write_page(PageId(0), &buf).unwrap();
        assert_eq!(f.writes(), 3, "two appends plus one overwrite");
        let got = codec::decode_node(&f.read_page(PageId(0)).unwrap()).unwrap();
        assert_eq!(got, node);
    }

    #[test]
    fn file_access_counts_like_buffer_pool_and_reads_for_real() {
        let dir = TempDir::new("fna").unwrap();
        let f = demo_file(&dir, "t.rsj", 4);
        let mut acc =
            FileNodeAccess::with_capacity_pages(vec![f], 2, &[2], EvictionPolicy::Lru).unwrap();
        let mut pool = crate::BufferPool::with_capacity_pages(2, &[2]);
        // Same access sequence against both accountants.
        let seq = [
            (PageId(0), 0),
            (PageId(1), 1),
            (PageId(2), 1),
            (PageId(1), 1),
        ];
        for &(p, d) in &seq {
            let a = acc.access(0, p, d);
            let b = pool.access(0, p, d);
            assert_eq!(a, b, "page {p} depth {d}");
        }
        assert_eq!(acc.stats(), pool.stats());
        // Every miss was a real file read.
        assert_eq!(acc.file(0).reads(), acc.stats().disk_accesses);
    }

    #[test]
    fn reset_clears_every_counter() {
        let dir = TempDir::new("fna").unwrap();
        let f = demo_file(&dir, "t.rsj", 3);
        let mut acc =
            FileNodeAccess::with_capacity_pages(vec![f], 1, &[1], EvictionPolicy::Lru).unwrap();
        acc.access(0, PageId(0), 0);
        acc.access(0, PageId(1), 0);
        acc.access(0, PageId(0), 0);
        assert!(acc.file(0).reads() > 0);
        assert!(acc.lru().misses() > 0);
        acc.reset();
        assert_eq!(acc.stats(), IoStats::default());
        assert_eq!(acc.file(0).reads(), 0);
        assert_eq!(
            (acc.lru().hits(), acc.lru().misses(), acc.lru().evictions()),
            (0, 0, 0)
        );
        assert!(acc.access(0, PageId(0), 0), "cold again after reset");
    }

    #[test]
    fn a_failed_read_is_kept_and_served_as_a_typed_failure() {
        let dir = TempDir::new("fna").unwrap();
        let f = demo_file(&dir, "t.rsj", 3);
        let mut acc =
            FileNodeAccess::with_capacity_pages(vec![f], 1, &[1], EvictionPolicy::Lru).unwrap();
        assert!(acc.access(0, PageId(0), 0));
        assert!(matches!(acc.page_node(0, PageId(0)), PageNode::InMemory));
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.file("t.rsj"))
            .unwrap()
            .set_len(HEADER_BYTES as u64)
            .unwrap();
        assert!(acc.access(0, PageId(1), 0), "still charged as a miss");
        assert!(matches!(
            acc.page_node(0, PageId(1)),
            PageNode::Failed(StorageError::Io(_))
        ));
        assert!(
            matches!(acc.page_node(0, PageId(1)), PageNode::Failed(_)),
            "the page stays failed"
        );
        assert!(acc.access(0, PageId(2), 0));
        acc.write(0, PageId(1), &node_payload(7, codec::slot_bytes_for(2)));
        assert!(
            matches!(acc.page_node(0, PageId(1)), PageNode::InMemory),
            "a write supersedes the failed read"
        );
        assert!(matches!(acc.page_node(0, PageId(2)), PageNode::Failed(_)));
        acc.reset();
        assert!(matches!(acc.page_node(0, PageId(2)), PageNode::InMemory));
    }

    #[test]
    fn mismatched_page_sizes_are_rejected() {
        let dir = TempDir::new("fna").unwrap();
        let a = demo_file(&dir, "a.rsj", 1);
        let slot = codec::slot_bytes_for(2);
        let b = PageFile::create(dir.file("b.rsj"), 2048, slot).unwrap();
        assert!(matches!(
            FileNodeAccess::with_capacity_pages(vec![a, b], 4, &[1, 1], EvictionPolicy::Lru)
                .unwrap_err(),
            StorageError::PageSizeMismatch { .. }
        ));
    }

    // --- Write path (PR 5): free-page list and dirty write-back.

    fn node_payload(tag: u32, slot: usize) -> Vec<u8> {
        let node = codec::DiskNode {
            level: 0,
            entries: vec![codec::DiskEntry {
                rect: [f64::from(tag); 4],
                child: u64::from(tag),
            }],
        };
        let mut buf = Vec::new();
        codec::encode_node(&node, slot, &mut buf).unwrap();
        buf
    }

    #[test]
    fn release_then_allocate_reuses_before_append() {
        let dir = TempDir::new("freelist").unwrap();
        let mut f = demo_file(&dir, "t.rsj", 4);
        let slot = f.slot_bytes();
        assert_eq!(f.free_count(), 0);
        f.release(PageId(1)).unwrap();
        f.release(PageId(3)).unwrap();
        assert_eq!(f.free_head(), Some(PageId(3)));
        assert_eq!(f.free_pages(), &[PageId(1), PageId(3)]);
        // Reuse LIFO: 3 first, then 1, then append.
        assert_eq!(f.allocate(&node_payload(30, slot)).unwrap(), PageId(3));
        assert_eq!(f.allocate(&node_payload(10, slot)).unwrap(), PageId(1));
        assert_eq!(f.allocate(&node_payload(40, slot)).unwrap(), PageId(4));
        assert_eq!(f.page_count(), 5, "one append after two reuses");
        let got = codec::decode_node(&f.read_page(PageId(3)).unwrap()).unwrap();
        assert_eq!(got.entries[0].child, 30);
    }

    #[test]
    fn free_chain_survives_reopen() {
        let dir = TempDir::new("freelist").unwrap();
        let path = {
            let mut f = demo_file(&dir, "t.rsj", 5);
            f.release(PageId(2)).unwrap();
            f.release(PageId(0)).unwrap();
            f.release(PageId(4)).unwrap();
            f.flush().unwrap();
            f.path().to_path_buf()
        };
        // Read-only open sees the same chain.
        let f = PageFile::open(&path).unwrap();
        assert_eq!(f.free_pages(), &[PageId(2), PageId(0), PageId(4)]);
        drop(f);
        // Writable reopen allocates in the same LIFO order.
        let mut f = PageFile::open_rw(&path).unwrap();
        let slot = f.slot_bytes();
        assert_eq!(f.allocate(&node_payload(1, slot)).unwrap(), PageId(4));
        assert_eq!(f.allocate(&node_payload(2, slot)).unwrap(), PageId(0));
        f.flush().unwrap();
        drop(f);
        let f = PageFile::open(&path).unwrap();
        assert_eq!(f.free_pages(), &[PageId(2)]);
    }

    #[test]
    fn double_release_and_out_of_range_are_typed_errors() {
        let dir = TempDir::new("freelist").unwrap();
        let mut f = demo_file(&dir, "t.rsj", 2);
        f.release(PageId(0)).unwrap();
        assert!(matches!(
            f.release(PageId(0)).unwrap_err(),
            StorageError::Corrupt(_)
        ));
        assert!(matches!(
            f.release(PageId(9)).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn duplicate_free_list_entries_are_rejected() {
        let dir = TempDir::new("freelist").unwrap();
        let mut f = demo_file(&dir, "t.rsj", 3);
        assert!(matches!(
            f.set_free_list(&[PageId(1), PageId(1)]).unwrap_err(),
            StorageError::Corrupt(_)
        ));
        // The failed install leaves a coherent (empty) chain behind.
        assert_eq!(f.free_count(), 0);
        assert_eq!(f.free_head(), None);
        f.set_free_list(&[PageId(1), PageId(2)]).unwrap();
        assert_eq!(f.free_head(), Some(PageId(2)));
    }

    #[test]
    fn corrupt_free_chain_is_rejected_on_open() {
        use std::io::{Seek, SeekFrom, Write};
        let dir = TempDir::new("freelist").unwrap();
        let path = {
            let mut f = demo_file(&dir, "t.rsj", 3);
            f.release(PageId(1)).unwrap();
            f.flush().unwrap();
            f.path().to_path_buf()
        };
        // Point the marker of page 1 at itself: a cycle.
        let (slot, off) = {
            let f = PageFile::open(&path).unwrap();
            (f.slot_bytes() as u64, HEADER_BYTES as u64)
        };
        let mut raw = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        raw.seek(SeekFrom::Start(off + slot + 4)).unwrap();
        raw.write_all(&2u32.to_le_bytes()).unwrap(); // next = page 1 (self)
        drop(raw);
        assert!(matches!(
            PageFile::open(&path).unwrap_err(),
            StorageError::Corrupt(_)
        ));
        // And a chain head pointing at a live page is rejected too.
        let mut raw = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        raw.seek(SeekFrom::Start(20)).unwrap();
        raw.write_all(&1u32.to_le_bytes()).unwrap(); // head = page 0 (live)
        drop(raw);
        assert!(matches!(
            PageFile::open(&path).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn dirty_write_back_reaches_the_file_on_eviction_and_flush() {
        let dir = TempDir::new("wb").unwrap();
        let path = demo_file(&dir, "t.rsj", 4).path().to_path_buf();
        let slot = PageFile::open(&path).unwrap().slot_bytes();
        let mut acc = FileNodeAccess::with_capacity_pages(
            vec![PageFile::open_rw(&path).unwrap()],
            1,
            &[1],
            EvictionPolicy::Lru,
        )
        .unwrap();
        // Mutate page 0; the write is deferred...
        acc.write(0, PageId(0), &node_payload(100, slot));
        assert_eq!(acc.dirty_len(), 1);
        assert_eq!(acc.stats().page_writes, 0);
        // ...until eviction pressure pushes it out.
        acc.access(0, PageId(1), 0);
        assert_eq!(acc.dirty_len(), 0);
        assert_eq!(acc.stats().page_writes, 1);
        // Mutate page 2 and flush explicitly.
        acc.access(0, PageId(2), 0);
        acc.write(0, PageId(2), &node_payload(200, slot));
        acc.flush_writes().unwrap();
        assert_eq!(acc.stats().page_writes, 2);
        drop(acc);
        let mut f = PageFile::open(&path).unwrap();
        let n0 = codec::decode_node(&f.read_page(PageId(0)).unwrap()).unwrap();
        let n2 = codec::decode_node(&f.read_page(PageId(2)).unwrap()).unwrap();
        assert_eq!(n0.entries[0].child, 100);
        assert_eq!(n2.entries[0].child, 200);
    }

    #[test]
    fn discard_suppresses_the_write_back() {
        let dir = TempDir::new("wb").unwrap();
        let path = demo_file(&dir, "t.rsj", 2).path().to_path_buf();
        let slot = PageFile::open(&path).unwrap().slot_bytes();
        let mut acc = FileNodeAccess::with_capacity_pages(
            vec![PageFile::open_rw(&path).unwrap()],
            2,
            &[1],
            EvictionPolicy::Lru,
        )
        .unwrap();
        acc.write(0, PageId(1), &node_payload(99, slot));
        acc.discard(0, PageId(1));
        acc.flush_writes().unwrap();
        assert_eq!(acc.stats().page_writes, 0);
        let mut f = PageFile::open(&path).unwrap();
        let n1 = codec::decode_node(&f.read_page(PageId(1)).unwrap()).unwrap();
        assert_eq!(n1.entries[0].child, 1, "original content untouched");
    }
}
