//! Write-back machinery of the blocking file backend, and the trait the
//! update path is generic over.
//!
//! The accounting backends ([`crate::BufferPool`]) model write-back as a
//! counter; a file backend must hold the actual bytes of every dirty page
//! until the write happens. `DirtyPages` is that payload table of
//! [`crate::FileNodeAccess`]: `stash` registers a mutated page's encoded
//! bytes, `write_back_evicted` drains the LRU's dirty-eviction queue into
//! physical writes, and `flush_all` writes whatever is still dirty.
//!
//! [`UpdateBackend`] ties a write-capable access backend to the
//! [`PageFile`] of each store; the R\*-tree crate's `OpenTree` drives
//! updates through it.

use std::collections::{HashMap, HashSet};

use crate::access::NodeAccessMut;
use crate::codec::{EntryFormat, StorageError};
use crate::file::PageFile;
use crate::lru::{BufKey, LruBuffer};
use crate::page::PageId;
use crate::pool::IoStats;

/// The in-memory mirror of [`PageFile`]'s persistent free-page chain:
/// the LIFO list (last element = chain head) and its set twin, kept
/// coherent in one place — O(1) double-release detection, duplicate
/// rejection, and the pop/undo protocol around a fallible slot write.
/// The physical marker writes stay with the file.
#[derive(Debug, Default)]
pub(crate) struct FreeChain {
    list: Vec<PageId>,
    set: HashSet<PageId>,
}

impl FreeChain {
    /// The chain head — the next page a reuse pops.
    pub fn head(&self) -> Option<PageId> {
        self.list.last().copied()
    }

    /// The chain, oldest release first (head last).
    pub fn as_slice(&self) -> &[PageId] {
        &self.list
    }

    /// Number of free pages.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if `id` is on the chain.
    pub fn contains(&self, id: PageId) -> bool {
        self.set.contains(&id)
    }

    /// Pops the head for reuse. The caller overwrites the slot and then
    /// either [`FreeChain::commit_pop`]s (write succeeded) or
    /// [`FreeChain::undo_pop`]s (slot is still free).
    pub fn pop(&mut self) -> Option<PageId> {
        self.list.pop()
    }

    /// Finalizes a [`FreeChain::pop`] after the slot write succeeded.
    pub fn commit_pop(&mut self, id: PageId) {
        self.set.remove(&id);
    }

    /// Reverts a [`FreeChain::pop`] after the slot write failed.
    pub fn undo_pop(&mut self, id: PageId) {
        self.list.push(id);
    }

    /// Links `id` as the new head, rejecting double releases. The caller
    /// has already written `id`'s marker (with the *previous* head as its
    /// `next`).
    pub fn push_released(&mut self, id: PageId) -> Result<(), StorageError> {
        if !self.set.insert(id) {
            return Err(StorageError::Corrupt(format!("double release of {id}")));
        }
        self.list.push(id);
        Ok(())
    }

    /// Replaces the chain wholesale (save paths that wrote the markers
    /// themselves); duplicates are a typed error and leave the chain
    /// empty.
    pub fn set_list(&mut self, ids: &[PageId]) -> Result<(), StorageError> {
        self.list = ids.to_vec();
        self.set = self.list.iter().copied().collect();
        if self.set.len() != self.list.len() {
            self.list.clear();
            self.set.clear();
            return Err(StorageError::Corrupt(
                "free list contains a page twice".into(),
            ));
        }
        Ok(())
    }

    /// Installs a chain recovered from disk (already walk-validated:
    /// a chain cannot physically contain duplicates — it would cycle).
    pub fn restore(&mut self, list: Vec<PageId>) {
        self.set = list.iter().copied().collect();
        debug_assert_eq!(self.set.len(), list.len());
        self.list = list;
    }

    /// Walks and validates a persisted chain from `head` — every link in
    /// range, landing on a genuine free marker, terminating (cycle-
    /// guarded by the page count) — and returns it oldest-release-first
    /// (head last), ready for [`FreeChain::restore`]. `read_slot` reads
    /// the raw slot of a page id.
    pub fn walk(
        head: Option<PageId>,
        page_count: u32,
        format: EntryFormat,
        mut read_slot: impl FnMut(PageId, &mut Vec<u8>) -> Result<(), StorageError>,
    ) -> Result<Vec<PageId>, StorageError> {
        let mut rev = Vec::new();
        let mut cur = head;
        let mut buf = Vec::new();
        while let Some(id) = cur {
            if rev.len() as u64 > u64::from(page_count) {
                return Err(StorageError::Corrupt("free chain contains a cycle".into()));
            }
            if id.0 >= page_count {
                return Err(StorageError::Corrupt(format!(
                    "free chain links page {id} out of range of a {page_count}-page file"
                )));
            }
            read_slot(id, &mut buf)?;
            match crate::codec::decode_page_fmt(&buf, format)? {
                crate::codec::DiskPage::Free { next } => {
                    rev.push(id);
                    cur = next;
                }
                crate::codec::DiskPage::Node(_) => {
                    return Err(StorageError::Corrupt(format!(
                        "free chain links live page {id}"
                    )));
                }
            }
        }
        rev.reverse();
        Ok(rev)
    }
}

/// The dirty-payload table of a write-back buffer (module docs).
#[derive(Debug, Default)]
pub(crate) struct DirtyPages {
    /// Encoded payload per dirty resident page.
    payloads: HashMap<BufKey, Vec<u8>>,
    /// Recycled payload buffers — steady-state updates allocate nothing.
    spare: Vec<Vec<u8>>,
    /// Drain scratch for the LRU's dirty-eviction queue.
    evicted: Vec<BufKey>,
}

impl DirtyPages {
    /// Registers `key` as dirty with `payload`, installing it
    /// counter-neutrally in `lru` (overwrites any previous payload). If
    /// the buffer cannot hold the page at all — zero capacity, or every
    /// slot pinned — the install evicts it on the spot and there is no
    /// residency to defer under: the payload **writes through** instead
    /// (charged as one `page_writes`, like the eviction it is).
    pub fn stash(
        &mut self,
        key: BufKey,
        payload: &[u8],
        lru: &mut LruBuffer,
        stats: &mut IoStats,
        write: impl FnMut(BufKey, &[u8]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        lru.install(key);
        if lru.mark_dirty(key) {
            let buf = self
                .payloads
                .entry(key)
                .or_insert_with(|| self.spare.pop().unwrap_or_default());
            buf.clear();
            buf.extend_from_slice(payload);
            Ok(())
        } else {
            // The install itself was evicted (clean, so not queued for
            // write-back): write through now.
            let mut write = write;
            write(key, payload)?;
            stats.page_writes += 1;
            Ok(())
        }
    }

    /// Drops `key`'s dirty state without writing (released page).
    pub fn discard(&mut self, key: BufKey, lru: &mut LruBuffer) {
        lru.clear_dirty(key);
        if let Some(buf) = self.payloads.remove(&key) {
            self.spare.push(buf);
        }
        self.evicted.retain(|&k| k != key);
    }

    /// Writes back every dirty page the LRU has evicted since the last
    /// drain, charging one `page_writes` each. Error-safe: a failed write
    /// leaves the failing page (payload included) and everything after it
    /// queued, so a caller that recovers (e.g. frees disk space) simply
    /// calls again.
    pub fn write_back_evicted(
        &mut self,
        lru: &mut LruBuffer,
        stats: &mut IoStats,
        mut write: impl FnMut(BufKey, &[u8]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        if !lru.has_dirty_evicted() && self.evicted.is_empty() {
            return Ok(()); // the hot path: nothing pending
        }
        lru.take_dirty_evicted(&mut self.evicted);
        let mut done = 0;
        let res = loop {
            let Some(&key) = self.evicted.get(done) else {
                break Ok(());
            };
            let buf = self
                .payloads
                .get(&key)
                .expect("dirty-evicted page must have a stashed payload");
            if let Err(e) = write(key, buf) {
                break Err(e);
            }
            stats.page_writes += 1;
            let buf = self.payloads.remove(&key).expect("present above");
            self.spare.push(buf);
            done += 1;
        };
        self.evicted.drain(..done);
        res
    }

    /// Writes back every still-dirty resident page (in the LRU's
    /// deterministic recency order), charging one `page_writes` each, and
    /// clears the dirty set. Error-safe: pages written before a failure
    /// are clean, the failing page and the rest stay dirty with their
    /// payloads — a retry resumes where this stopped.
    pub fn flush_all(
        &mut self,
        lru: &mut LruBuffer,
        stats: &mut IoStats,
        mut write: impl FnMut(BufKey, &[u8]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        // Evicted-but-unwritten pages (a previous failure) come first.
        self.write_back_evicted(lru, stats, &mut write)?;
        for key in lru.dirty_keys() {
            let buf = self
                .payloads
                .get(&key)
                .expect("dirty resident page must have a stashed payload");
            write(key, buf)?;
            stats.page_writes += 1;
            let buf = self.payloads.remove(&key).expect("present above");
            self.spare.push(buf);
            lru.clear_dirty(key);
        }
        debug_assert!(self.payloads.is_empty(), "payloads without dirty bits");
        Ok(())
    }

    /// Number of dirty pages currently staged.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Discards all staged payloads without writing (backend reset).
    pub fn clear(&mut self) {
        for (_, buf) in self.payloads.drain() {
            self.spare.push(buf);
        }
        self.evicted.clear();
    }
}

/// A write-capable access backend over one [`PageFile`] per store —
/// what an incrementally-updated tree drives its I/O through.
pub trait UpdateBackend: NodeAccessMut {
    /// The backing file of `store`.
    fn store_file(&self, store: u8) -> &PageFile;

    /// The backing file of `store`, mutably (allocate/release/metadata).
    fn store_file_mut(&mut self, store: u8) -> &mut PageFile;

    /// Whether this backend *instance* accepts writes. A type can be
    /// write-capable while a particular instance is not (a read handle of
    /// the shared page cache holds no write handle); update drivers check
    /// this up front and refuse the backend with a typed error instead of
    /// panicking mid-update.
    fn supports_writes(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u32) -> BufKey {
        BufKey::new(0, PageId(n))
    }

    fn no_write(_: BufKey, _: &[u8]) -> Result<(), StorageError> {
        panic!("write-through not expected here");
    }

    #[test]
    fn stash_write_back_flush_lifecycle() {
        let mut dirty = DirtyPages::default();
        let mut lru = LruBuffer::new(1);
        let mut stats = IoStats::default();
        let mut written: Vec<(BufKey, Vec<u8>)> = Vec::new();

        lru.access(k(1));
        dirty
            .stash(k(1), b"one", &mut lru, &mut stats, no_write)
            .unwrap();
        assert_eq!(dirty.len(), 1);
        // Second stash of the same key overwrites, no growth.
        dirty
            .stash(k(1), b"one!", &mut lru, &mut stats, no_write)
            .unwrap();
        assert_eq!(dirty.len(), 1);

        lru.access(k(2)); // evicts dirty 1
        dirty
            .write_back_evicted(&mut lru, &mut stats, |key, buf| {
                written.push((key, buf.to_vec()));
                Ok(())
            })
            .unwrap();
        assert_eq!(written, vec![(k(1), b"one!".to_vec())]);
        assert_eq!(stats.page_writes, 1);
        assert_eq!(dirty.len(), 0);

        dirty
            .stash(k(2), b"two", &mut lru, &mut stats, no_write)
            .unwrap();
        dirty
            .flush_all(&mut lru, &mut stats, |key, buf| {
                written.push((key, buf.to_vec()));
                Ok(())
            })
            .unwrap();
        assert_eq!(written.last().unwrap(), &(k(2), b"two".to_vec()));
        assert_eq!(stats.page_writes, 2);
        assert!(!lru.is_dirty(k(2)), "flush cleans the page");
    }

    #[test]
    fn discard_prevents_the_write() {
        let mut dirty = DirtyPages::default();
        let mut lru = LruBuffer::new(4);
        let mut stats = IoStats::default();
        dirty
            .stash(k(1), b"x", &mut lru, &mut stats, no_write)
            .unwrap();
        dirty.discard(k(1), &mut lru);
        dirty
            .flush_all(&mut lru, &mut stats, |_, _| {
                panic!("nothing to write");
            })
            .unwrap();
        assert_eq!(stats.page_writes, 0);
    }

    #[test]
    fn unbufferable_page_writes_through_immediately() {
        // Zero-capacity buffer: install evicts the key on the spot, so
        // the payload must reach the file now, not get lost.
        let mut dirty = DirtyPages::default();
        let mut lru = LruBuffer::new(0);
        let mut stats = IoStats::default();
        let mut written = Vec::new();
        dirty
            .stash(k(1), b"thru", &mut lru, &mut stats, |key, buf| {
                written.push((key, buf.to_vec()));
                Ok(())
            })
            .unwrap();
        assert_eq!(written, vec![(k(1), b"thru".to_vec())]);
        assert_eq!(stats.page_writes, 1);
        assert_eq!(dirty.len(), 0, "nothing deferred");
        // All-pinned buffer behaves the same.
        let mut lru = LruBuffer::new(1);
        lru.access(k(9));
        lru.pin(k(9));
        dirty
            .stash(k(2), b"thru2", &mut lru, &mut stats, |key, buf| {
                written.push((key, buf.to_vec()));
                Ok(())
            })
            .unwrap();
        assert_eq!(written.last().unwrap(), &(k(2), b"thru2".to_vec()));
        assert_eq!(stats.page_writes, 2);
    }

    #[test]
    fn failed_write_back_is_retryable_without_losing_payloads() {
        let mut dirty = DirtyPages::default();
        let mut lru = LruBuffer::new(2);
        let mut stats = IoStats::default();
        dirty
            .stash(k(1), b"a", &mut lru, &mut stats, no_write)
            .unwrap();
        dirty
            .stash(k(2), b"b", &mut lru, &mut stats, no_write)
            .unwrap();
        // First flush attempt: every write fails (disk full).
        let err = dirty.flush_all(&mut lru, &mut stats, |_, _| {
            Err(StorageError::Corrupt("disk full".into()))
        });
        assert!(err.is_err());
        assert_eq!(stats.page_writes, 0);
        assert_eq!(dirty.len(), 2, "payloads survive the failure");
        // Retry succeeds and writes both.
        let mut written = Vec::new();
        dirty
            .flush_all(&mut lru, &mut stats, |key, buf| {
                written.push((key, buf.to_vec()));
                Ok(())
            })
            .unwrap();
        assert_eq!(written.len(), 2);
        assert_eq!(stats.page_writes, 2);
        assert_eq!(dirty.len(), 0);

        // Same for an eviction-driven write-back: the failed page stays
        // queued and a later call (or flush) picks it up.
        let mut lru = LruBuffer::new(1);
        lru.access(k(3));
        dirty
            .stash(k(3), b"c", &mut lru, &mut stats, no_write)
            .unwrap();
        lru.access(k(4)); // evicts dirty 3
        let err = dirty.write_back_evicted(&mut lru, &mut stats, |_, _| {
            Err(StorageError::Corrupt("disk full".into()))
        });
        assert!(err.is_err());
        let mut written = Vec::new();
        dirty
            .flush_all(&mut lru, &mut stats, |key, buf| {
                written.push((key, buf.to_vec()));
                Ok(())
            })
            .unwrap();
        assert_eq!(written, vec![(k(3), b"c".to_vec())]);
    }
}
