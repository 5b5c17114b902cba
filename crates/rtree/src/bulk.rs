//! Bulk loading: STR and Hilbert packing, in memory or streamed to disk.
//!
//! Not part of the 1993 paper (an extension): bulk loading builds a
//! well-clustered tree in O(n log n) without going through one-at-a-time
//! insertion, which matters when the experiment harness builds trees over
//! hundreds of thousands of rectangles for many (page size × policy)
//! combinations. It also serves as a *tree quality* ablation point: the
//! benchmark suite compares join cost over R\*-inserted, Guttman-inserted,
//! and bulk-loaded trees.
//!
//! * **STR** (Sort-Tile-Recursive, Leutenegger et al. 1997): sort by centre
//!   x, cut into √P vertical slabs, sort each slab by centre y, pack runs.
//! * **Hilbert packing** (Kamel & Faloutsos 1993): sort by the Hilbert value
//!   of the centre, pack consecutive runs.
//!
//! Two build paths share the ordering and group-cut machinery:
//!
//! * [`str_load`] / [`hilbert_load`] — the in-memory loaders: pack level
//!   by level into a [`PageStore`] and return an [`RTree`]. The STR
//!   variant re-tiles each directory level, which polishes the upper
//!   directory slightly.
//! * [`load_to_file`] — the **streaming** loader:
//!   a level-streaming packer emits every finished node exactly once,
//!   bottom-up, through a [`rsj_storage::BulkPageWriter`], so peak
//!   resident *node* memory is one forming node per level — O(M × height)
//!   entries — regardless of input size. Upper levels keep the order the
//!   packing below induces (Leutenegger's original formulation; no
//!   re-tiling pass, which would require materializing a level). The root
//!   is the last page emitted and the header is written only on success,
//!   so a build that dies mid-stream reads back as a typed
//!   [`StorageError`], never a half tree. Files open through the ordinary
//!   [`RTree::open_from`] and serve every file backend unchanged.
//!
//! The ordering pass is parallel for either path: chunked per-worker
//! stable sorts merged by key (and, for STR, the per-slab y-sorts fan out
//! across workers). Parallel order output is bit-identical to the
//! sequential order — sorts are stable and the sort key is a strictly
//! monotone `u64` image of the coordinate — so worker count never changes
//! the tree.
//!
//! Input rectangles must be finite: a NaN or infinite coordinate is
//! reported up front as [`BulkError::NonFiniteRect`] with the offending
//! index instead of panicking mid-sort.

use std::path::Path;

use crate::node::{DataId, Entry, Node};
use crate::params::RTreeParams;
use crate::persist;
use crate::tree::RTree;
use rsj_geom::{hilbert, Rect};
use rsj_storage::codec::{self, DiskNode, EntryFormat};
use rsj_storage::{BulkPageWriter, PageFile, PageId, PageStore, StorageError};

/// Default fraction of M that packed nodes are filled to. Partial fill
/// leaves room for later dynamic inserts; 0.7 is in line with the storage
/// utilization that dynamic R\*-insertion reaches.
pub const DEFAULT_FILL: f64 = 0.7;

/// Inputs below this size are sorted sequentially even when workers are
/// available — thread spawn and merge overhead dominate under it.
const PAR_SORT_MIN: usize = 8 * 1024;

/// How a bulk build orders the data entries before packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkLayout {
    /// Sort-Tile-Recursive tiling.
    Str,
    /// Hilbert-curve order of rectangle centres.
    Hilbert,
}

/// Why a bulk build refused or failed.
#[derive(Debug)]
pub enum BulkError {
    /// `items[index]` has a NaN or infinite coordinate. Detected up front:
    /// non-finite values have no total order, so they would otherwise
    /// scramble (pre-validation: panic) the sort passes.
    NonFiniteRect {
        /// Index into the caller's item slice.
        index: usize,
    },
    /// The streaming write path failed.
    Storage(StorageError),
}

impl std::fmt::Display for BulkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BulkError::NonFiniteRect { index } => {
                write!(f, "rectangle at index {index} has a non-finite coordinate")
            }
            BulkError::Storage(e) => write!(f, "bulk build I/O failed: {e}"),
        }
    }
}

impl std::error::Error for BulkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BulkError::Storage(e) => Some(e),
            BulkError::NonFiniteRect { .. } => None,
        }
    }
}

impl From<StorageError> for BulkError {
    fn from(e: StorageError) -> Self {
        BulkError::Storage(e)
    }
}

/// Knobs of a streaming bulk build.
#[derive(Debug, Clone, Copy)]
pub struct BulkConfig {
    /// Target node fill as a fraction of M (clamped to keep every node
    /// between `m` and `M` entries).
    pub fill: f64,
    /// Sort workers; `0` picks the available parallelism.
    pub workers: usize,
    /// On-disk entry format of the produced file.
    pub format: EntryFormat,
}

impl Default for BulkConfig {
    fn default() -> Self {
        BulkConfig {
            fill: DEFAULT_FILL,
            workers: 0,
            format: EntryFormat::F64,
        }
    }
}

/// What a streaming build did — the bench's build-throughput and
/// memory-contract numbers come from here.
#[derive(Debug, Clone, Copy)]
pub struct BulkStats {
    /// Pages emitted (== the produced file's page count).
    pub pages: u32,
    /// Height of the built tree.
    pub height: u32,
    /// Peak entries resident in the packer across all level buffers — the
    /// streaming memory contract bounds this by `M × height`.
    pub peak_resident_entries: usize,
}

/// Builds an R-tree over `items` with the STR algorithm.
///
/// `fill` is the target node fill as a fraction of M; it is clamped so that
/// every node ends up with between `m` and `M` entries.
///
/// # Errors
/// [`BulkError::NonFiniteRect`] if any rectangle has a NaN or infinite
/// coordinate.
pub fn str_load(
    params: RTreeParams,
    items: &[(Rect, DataId)],
    fill: f64,
) -> Result<RTree, BulkError> {
    validate_items(items)?;
    Ok(Loader::new(params, fill).build(items, BulkLayout::Str, auto_workers(items.len())))
}

/// Builds an R-tree over `items` by Hilbert-sorting centres and packing.
///
/// # Errors
/// [`BulkError::NonFiniteRect`] if any rectangle has a NaN or infinite
/// coordinate.
pub fn hilbert_load(
    params: RTreeParams,
    items: &[(Rect, DataId)],
    fill: f64,
) -> Result<RTree, BulkError> {
    validate_items(items)?;
    Ok(Loader::new(params, fill).build(items, BulkLayout::Hilbert, auto_workers(items.len())))
}

/// Streams a bulk build straight into a page file at `path`: order pass,
/// then bottom-up level-streaming packing through a [`BulkPageWriter`] —
/// the whole tree is never resident (see [`BulkStats::peak_resident_entries`]).
/// The produced file opens through [`RTree::open_from`].
pub fn load_to_file(
    params: RTreeParams,
    items: &[(Rect, DataId)],
    layout: BulkLayout,
    cfg: BulkConfig,
    path: impl AsRef<Path>,
) -> Result<(PageFile, BulkStats), BulkError> {
    validate_items(items)?;
    let workers = if cfg.workers == 0 {
        auto_workers(items.len())
    } else {
        cfg.workers
    };
    let mut entries: Vec<Entry> = items.iter().map(|&(r, id)| Entry::data(r, id)).collect();
    match layout {
        BulkLayout::Str => str_order(&mut entries, workers),
        BulkLayout::Hilbert => hilbert_order(&mut entries, workers),
    }
    let slot = codec::slot_bytes_for_fmt(params.max_entries, cfg.format);
    let mut writer = BulkPageWriter::create_file(path, params.page_bytes, slot, cfg.format)?;
    let mut packer = StreamPacker::new(&mut writer, &params, node_cap(&params, cfg.fill));
    packer.start(entries.len());
    for e in entries {
        packer.push(0, e)?;
    }
    let (root, stats) = packer.finish()?;
    let file = writer.finish(persist::encode_meta_parts(root, items.len(), &params))?;
    Ok((file, stats))
}

/// [`load_to_file`] with the STR layout and default config.
pub fn str_load_to_file(
    params: RTreeParams,
    items: &[(Rect, DataId)],
    fill: f64,
    path: impl AsRef<Path>,
) -> Result<(PageFile, BulkStats), BulkError> {
    load_to_file(
        params,
        items,
        BulkLayout::Str,
        BulkConfig {
            fill,
            ..Default::default()
        },
        path,
    )
}

/// [`load_to_file`] with the Hilbert layout and default config.
pub fn hilbert_load_to_file(
    params: RTreeParams,
    items: &[(Rect, DataId)],
    fill: f64,
    path: impl AsRef<Path>,
) -> Result<(PageFile, BulkStats), BulkError> {
    load_to_file(
        params,
        items,
        BulkLayout::Hilbert,
        BulkConfig {
            fill,
            ..Default::default()
        },
        path,
    )
}

/// Rejects non-finite rectangles before any ordering pass runs.
fn validate_items(items: &[(Rect, DataId)]) -> Result<(), BulkError> {
    for (index, (r, _)) in items.iter().enumerate() {
        if !(r.xl.is_finite() && r.yl.is_finite() && r.xu.is_finite() && r.yu.is_finite()) {
            return Err(BulkError::NonFiniteRect { index });
        }
    }
    Ok(())
}

/// Packed-node capacity for a fill factor, clamped to `[max(m,1), M]`.
fn node_cap(params: &RTreeParams, fill: f64) -> usize {
    ((params.max_entries as f64 * fill).round() as usize)
        .clamp(params.min_entries.max(1), params.max_entries)
}

/// Sort workers to use for `n` items when the caller did not pin a count.
fn auto_workers(n: usize) -> usize {
    if n < PAR_SORT_MIN {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8)
}

/// Size of the next group cut from an ordered run of `remaining` entries:
/// a full `node_cap` while at least `node_cap + m` remain (the leftover
/// can always still form a legal node), otherwise an even two-way split of
/// an overfull tail, otherwise everything. Shared by the in-memory
/// [`Loader`] and the streaming [`StreamPacker`], so both cut identical
/// group boundaries.
fn cut_size(remaining: usize, node_cap: usize, m: usize, max: usize) -> usize {
    if remaining >= node_cap + m {
        node_cap
    } else if remaining > max {
        remaining / 2
    } else {
        remaining
    }
}

struct Loader {
    params: RTreeParams,
    node_cap: usize,
}

impl Loader {
    fn new(params: RTreeParams, fill: f64) -> Self {
        let cap = node_cap(&params, fill);
        Loader {
            params,
            node_cap: cap,
        }
    }

    fn build(&self, items: &[(Rect, DataId)], layout: BulkLayout, workers: usize) -> RTree {
        if items.is_empty() {
            return RTree::new(self.params);
        }
        let mut store: PageStore<Node> = PageStore::new(self.params.page_bytes);
        // Order the data entries spatially.
        let mut entries: Vec<Entry> = items.iter().map(|&(r, id)| Entry::data(r, id)).collect();
        match layout {
            BulkLayout::Str => str_order(&mut entries, workers),
            BulkLayout::Hilbert => hilbert_order(&mut entries, workers),
        }
        // Pack level by level until a single node remains.
        let mut level = 0u32;
        let mut current = entries;
        loop {
            if current.len() <= self.params.max_entries {
                let root = store.alloc(Node {
                    level,
                    entries: current,
                });
                return RTree {
                    store,
                    root,
                    params: self.params,
                    len: items.len(),
                };
            }
            let mut next: Vec<Entry> = Vec::new();
            for group in self.pack_groups(current) {
                let bb = mbr_of_entries(&group);
                let page = store.alloc(Node {
                    level,
                    entries: group,
                });
                next.push(Entry::dir(bb, page));
            }
            // Upper levels keep the ordering induced by the packing below;
            // for STR re-tiling on the coarser level improves the directory.
            if let BulkLayout::Str = layout {
                str_order(&mut next, workers);
            }
            current = next;
            level += 1;
        }
    }

    /// Cuts an ordered entry run into groups of `node_cap`, rebalancing the
    /// tail so no group falls under the minimum fill.
    fn pack_groups(&self, mut entries: Vec<Entry>) -> Vec<Vec<Entry>> {
        let (m, max) = (self.params.min_entries, self.params.max_entries);
        let mut groups = Vec::with_capacity(entries.len() / self.node_cap + 1);
        while !entries.is_empty() {
            let take = cut_size(entries.len(), self.node_cap, m, max);
            let rest = entries.split_off(take);
            groups.push(entries);
            entries = rest;
        }
        // Real invariant, not a debug assertion: an illegal group here
        // would silently persist as a malformed node and only surface as a
        // validator error much later (or in somebody else's reopened
        // file).
        for (i, g) in groups.iter().enumerate() {
            assert!(
                g.len() >= m && g.len() <= max,
                "pack_groups produced an illegal group: group {i} of {} holds {} entries \
                 outside [{m}, {max}] (node_cap {})",
                groups.len(),
                g.len(),
                self.node_cap,
            );
        }
        groups
    }
}

/// MBR of a group by folding — no intermediate rect vector.
fn mbr_of_entries(entries: &[Entry]) -> Rect {
    let mut out = Rect::empty();
    for e in entries {
        out.expand(&e.rect);
    }
    out
}

// ---------------------------------------------------------------------------
// Ordering passes (sequential and parallel — bit-identical output).
// ---------------------------------------------------------------------------

/// Strictly monotone `u64` image of a finite `f64`: sign-flipped IEEE bits
/// (with `-0.0` collapsed onto `0.0`, matching `partial_cmp`). Stable
/// sorts by this key order exactly like comparing the floats.
fn f64_key(v: f64) -> u64 {
    let v = if v == 0.0 { 0.0 } else { v };
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Stable sort of `entries` by a `u64` key: sequential for one worker or
/// small inputs, otherwise chunked per-worker stable sorts merged by key
/// (ties resolve to the earlier chunk, preserving stability — the merged
/// order is bit-identical to the sequential stable sort).
fn sort_entries_by_key(entries: &mut [Entry], key: impl Fn(&Entry) -> u64 + Sync, workers: usize) {
    let n = entries.len();
    if workers <= 1 || n < PAR_SORT_MIN {
        entries.sort_by_cached_key(&key);
        return;
    }
    let chunk = n.div_ceil(workers);
    let chunks: Vec<Vec<(u64, Entry)>> = std::thread::scope(|s| {
        let key = &key;
        let handles: Vec<_> = entries
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || {
                    let mut v: Vec<(u64, Entry)> = c.iter().map(|e| (key(e), *e)).collect();
                    v.sort_by_key(|p| p.0); // stable within the chunk
                    v
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sort worker panicked"))
            .collect()
    });
    let mut pos = vec![0usize; chunks.len()];
    for slot in entries.iter_mut() {
        let mut best = usize::MAX;
        for (ci, c) in chunks.iter().enumerate() {
            if pos[ci] < c.len() && (best == usize::MAX || c[pos[ci]].0 < chunks[best][pos[best]].0)
            {
                best = ci;
            }
        }
        *slot = chunks[best][pos[best]].1;
        pos[best] += 1;
    }
}

/// Orders entries with Sort-Tile-Recursive tiling. The x-sort runs as one
/// (possibly parallel) keyed sort; the per-slab y-sorts are independent
/// and fan out across the workers.
fn str_order(entries: &mut [Entry], workers: usize) {
    let n = entries.len();
    if n <= 1 {
        return;
    }
    let slabs = (n as f64).sqrt().ceil() as usize;
    let slab_size = n.div_ceil(slabs);
    sort_entries_by_key(entries, |e| f64_key(e.rect.center().x), workers);
    let y_key = |e: &Entry| f64_key(e.rect.center().y);
    if workers <= 1 || n < PAR_SORT_MIN {
        for chunk in entries.chunks_mut(slab_size) {
            chunk.sort_by_cached_key(y_key);
        }
    } else {
        let mut slab_refs: Vec<&mut [Entry]> = entries.chunks_mut(slab_size).collect();
        let per = slab_refs.len().div_ceil(workers);
        std::thread::scope(|s| {
            for group in slab_refs.chunks_mut(per) {
                s.spawn(move || {
                    for slab in group.iter_mut() {
                        slab.sort_by_cached_key(y_key);
                    }
                });
            }
        });
    }
}

/// Orders entries by the Hilbert index of their centre.
fn hilbert_order(entries: &mut [Entry], workers: usize) {
    let frame = mbr_of_entries(entries);
    sort_entries_by_key(
        entries,
        |e| hilbert::hilbert_center(&e.rect, &frame, 16),
        workers,
    );
}

// ---------------------------------------------------------------------------
// The level-streaming packer.
// ---------------------------------------------------------------------------

/// Per-level forming buffer of the streaming packer.
struct LevelBuf {
    /// The group currently forming (never exceeds one node's entries).
    buf: Vec<Entry>,
    /// Entries this level has yet to emit (total per the level plan minus
    /// groups already cut) — drives [`cut_size`] exactly like the
    /// in-memory loader's remaining-run length.
    remaining: usize,
}

/// Streams ordered data entries into finished pages, bottom-up: each level
/// holds only its one forming group; a completed group is emitted through
/// the writer immediately and its directory entry cascades upward. The
/// per-level totals are precomputed from the input count alone
/// ([`level_counts`]), so cut boundaries — including the root decision —
/// match the in-memory loader's for the same ordered input.
struct StreamPacker<'w> {
    writer: &'w mut BulkPageWriter,
    cap: usize,
    m: usize,
    max: usize,
    levels: Vec<LevelBuf>,
    /// Reused on-disk node (entry vec included) across emissions.
    scratch: DiskNode,
    resident: usize,
    peak: usize,
}

/// Entry totals per level for `n` data entries: level 0 holds `n`; each
/// further level holds one entry per group the level below cuts; the first
/// level with at most `max` entries is the root. (`n = 0` still yields one
/// empty root leaf.)
fn level_counts(n: usize, cap: usize, m: usize, max: usize) -> Vec<usize> {
    let mut counts = vec![n];
    let mut total = n;
    while total > max {
        let mut groups = 0usize;
        let mut rem = total;
        while rem > 0 {
            rem -= cut_size(rem, cap, m, max);
            groups += 1;
        }
        counts.push(groups);
        total = groups;
    }
    counts
}

impl<'w> StreamPacker<'w> {
    fn new(writer: &'w mut BulkPageWriter, params: &RTreeParams, cap: usize) -> Self {
        StreamPacker {
            writer,
            cap,
            m: params.min_entries,
            max: params.max_entries,
            levels: Vec::new(),
            scratch: DiskNode {
                level: 0,
                entries: Vec::new(),
            },
            resident: 0,
            peak: 0,
        }
    }

    fn start(&mut self, n: usize) {
        self.levels = level_counts(n, self.cap, self.m, self.max)
            .into_iter()
            .map(|remaining| LevelBuf {
                buf: Vec::new(),
                remaining,
            })
            .collect();
    }

    /// Emits the whole forming buffer of `level` as one page and returns
    /// the parent directory entry.
    fn emit_group(&mut self, level: usize) -> Result<Entry, StorageError> {
        let lb = &mut self.levels[level];
        let bb = mbr_of_entries(&lb.buf);
        self.scratch.level = level as u32;
        self.scratch.entries.clear();
        self.scratch
            .entries
            .extend(lb.buf.iter().map(persist::disk_entry));
        lb.remaining -= lb.buf.len();
        self.resident -= lb.buf.len();
        lb.buf.clear();
        let page = self.writer.emit(&self.scratch)?;
        Ok(Entry::dir(bb, page))
    }

    /// Pushes one entry at `level`, cascading completed groups upward.
    /// The root level only accumulates — [`Self::finish`] emits it last.
    fn push(&mut self, mut level: usize, mut e: Entry) -> Result<(), StorageError> {
        loop {
            let top = level == self.levels.len() - 1;
            let lb = &mut self.levels[level];
            lb.buf.push(e);
            self.resident += 1;
            self.peak = self.peak.max(self.resident);
            if top || lb.buf.len() < cut_size(lb.remaining, self.cap, self.m, self.max) {
                return Ok(());
            }
            e = self.emit_group(level)?;
            level += 1;
        }
    }

    /// Drains every level bottom-up and emits the root as the final page.
    fn finish(mut self) -> Result<(PageId, BulkStats), StorageError> {
        let top = self.levels.len() - 1;
        for level in 0..top {
            while !self.levels[level].buf.is_empty() {
                // At drain time every entry this level will ever see is
                // buffered, so the cut can be smaller than the buffer:
                // split the forming group per the tail rule and cascade.
                let cut = cut_size(self.levels[level].remaining, self.cap, self.m, self.max);
                let tail = self.levels[level].buf.split_off(cut);
                let parent = self.emit_group(level)?;
                self.levels[level].buf = tail;
                self.push(level + 1, parent)?;
            }
        }
        // The root is whatever the top level accumulated (for a root leaf:
        // all data entries) — emitted last, so root id == page count - 1.
        self.scratch.level = top as u32;
        self.scratch.entries.clear();
        self.scratch
            .entries
            .extend(self.levels[top].buf.iter().map(persist::disk_entry));
        let root = self.writer.emit(&self.scratch)?;
        Ok((
            root,
            BulkStats {
                pages: self.writer.emitted(),
                height: self.levels.len() as u32,
                peak_resident_entries: self.peak,
            },
        ))
    }
}

/// Convenience: pick the page id of the root after loading (used in tests).
pub fn root_of(tree: &RTree) -> PageId {
    tree.root()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::InsertPolicy;
    use rsj_storage::TempDir;

    fn items(n: u64) -> Vec<(Rect, DataId)> {
        (0..n)
            .map(|i| {
                let x = ((i * 2654435761) % 1000) as f64;
                let y = ((i * 40503) % 1000) as f64;
                (Rect::from_corners(x, y, x + 3.0, y + 3.0), DataId(i))
            })
            .collect()
    }

    fn params() -> RTreeParams {
        RTreeParams::explicit(320, 16, 6, InsertPolicy::RStar)
    }

    fn sorted_ids(t: &RTree) -> Vec<u64> {
        let mut ids: Vec<u64> = t.data_entries().iter().map(|(_, d)| d.0).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn str_load_is_valid_and_complete() {
        let data = items(1000);
        let t = str_load(params(), &data, DEFAULT_FILL).unwrap();
        t.validate().unwrap();
        assert_eq!(t.len(), 1000);
        assert_eq!(sorted_ids(&t), (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn hilbert_load_is_valid_and_complete() {
        let data = items(1000);
        let t = hilbert_load(params(), &data, DEFAULT_FILL).unwrap();
        t.validate().unwrap();
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let t = str_load(params(), &[], DEFAULT_FILL).unwrap();
        t.validate().unwrap();
        assert!(t.is_empty());
        let one = items(1);
        let t = str_load(params(), &one, DEFAULT_FILL).unwrap();
        t.validate().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn non_finite_rect_is_a_typed_error_not_a_panic() {
        // Regression: a single NaN used to blow up inside the sort
        // comparator ("no NaN"); now it is reported with its index before
        // any ordering runs.
        for bad in [
            Rect {
                xl: f64::NAN,
                yl: 0.0,
                xu: 1.0,
                yu: 1.0,
            },
            Rect {
                xl: 0.0,
                yl: 0.0,
                xu: f64::INFINITY,
                yu: 1.0,
            },
        ] {
            let mut data = items(100);
            data[37].0 = bad;
            for layout in [BulkLayout::Str, BulkLayout::Hilbert] {
                let res = match layout {
                    BulkLayout::Str => str_load(params(), &data, DEFAULT_FILL),
                    BulkLayout::Hilbert => hilbert_load(params(), &data, DEFAULT_FILL),
                };
                match res {
                    Err(BulkError::NonFiniteRect { index }) => assert_eq!(index, 37),
                    other => panic!("expected NonFiniteRect, got {other:?}"),
                }
            }
            let dir = TempDir::new("rtree-bulk").unwrap();
            match str_load_to_file(params(), &data, DEFAULT_FILL, dir.file("bad.rsj")) {
                Err(BulkError::NonFiniteRect { index }) => assert_eq!(index, 37),
                other => panic!("expected NonFiniteRect, got {other:?}"),
            }
        }
    }

    #[test]
    fn boundary_sizes_produce_legal_fills() {
        // Sizes around multiples of the node capacity stress the tail
        // rebalancing.
        for n in [15u64, 16, 17, 31, 32, 33, 95, 96, 97, 256, 257] {
            let data = items(n);
            let t = str_load(params(), &data, DEFAULT_FILL).unwrap();
            t.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            let h = hilbert_load(params(), &data, DEFAULT_FILL).unwrap();
            h.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn pack_group_boundaries_hold_at_m_and_m_plus_min() {
        // The exact tail-rebalancing boundaries: n = M, M+1, M+m-1, M+m —
        // where the cut rule switches between "one root node", "even
        // two-way split" and "full group plus legal tail". Checked for
        // both layouts at full and default fill.
        let p = params();
        let (m, max) = (p.min_entries as u64, p.max_entries as u64);
        for n in [max, max + 1, max + m - 1, max + m] {
            for fill in [DEFAULT_FILL, 1.0] {
                for layout in [BulkLayout::Str, BulkLayout::Hilbert] {
                    let data = items(n);
                    let t = match layout {
                        BulkLayout::Str => str_load(p, &data, fill),
                        BulkLayout::Hilbert => hilbert_load(p, &data, fill),
                    }
                    .unwrap();
                    t.validate()
                        .unwrap_or_else(|e| panic!("n={n} fill={fill}: {e}"));
                    assert_eq!(t.len() as u64, n);
                    assert_eq!(sorted_ids(&t), (0..n).collect::<Vec<_>>());
                    t.for_each_node(|id, node| {
                        if id != t.root() {
                            assert!(
                                node.len() as u64 >= m,
                                "n={n} fill={fill}: node {id} under min fill"
                            );
                        }
                        assert!(node.len() as u64 <= max);
                    });
                }
            }
        }
    }

    #[test]
    fn parallel_order_is_bit_identical_to_sequential() {
        let data = items(20_000);
        let base: Vec<Entry> = data.iter().map(|&(r, id)| Entry::data(r, id)).collect();
        for workers in [2usize, 3, 8] {
            let mut seq = base.clone();
            let mut par = base.clone();
            str_order(&mut seq, 1);
            str_order(&mut par, workers);
            assert_eq!(seq, par, "STR order diverged at {workers} workers");
            let mut seq = base.clone();
            let mut par = base.clone();
            hilbert_order(&mut seq, 1);
            hilbert_order(&mut par, workers);
            assert_eq!(seq, par, "Hilbert order diverged at {workers} workers");
        }
    }

    #[test]
    fn full_fill_packs_tighter_than_partial() {
        let data = items(2000);
        let tight = str_load(params(), &data, 1.0).unwrap();
        let loose = str_load(params(), &data, 0.6).unwrap();
        assert!(tight.stats().data_pages < loose.stats().data_pages);
    }

    #[test]
    fn bulk_loaded_tree_answers_queries_correctly() {
        let data = items(800);
        let t = str_load(params(), &data, DEFAULT_FILL).unwrap();
        let w = Rect::from_corners(100.0, 100.0, 400.0, 420.0);
        let mut got = t.window_query(&w);
        got.sort();
        let mut want: Vec<DataId> = data
            .iter()
            .filter(|(r, _)| r.intersects(&w))
            .map(|&(_, id)| id)
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn str_tree_has_low_directory_overlap() {
        // Loose sanity check on tree quality: sibling leaves of an STR tree
        // over uniform data overlap very little.
        let data = items(3000);
        let t = str_load(params(), &data, DEFAULT_FILL).unwrap();
        let root = t.node(t.root());
        assert!(!root.is_leaf());
        let mut overlap = 0.0;
        let mut area = 0.0;
        for (i, a) in root.entries.iter().enumerate() {
            area += a.rect.area();
            for b in &root.entries[i + 1..] {
                overlap += a.rect.overlap_area(&b.rect);
            }
        }
        assert!(overlap < area * 0.5, "overlap {overlap} vs area {area}");
    }

    #[test]
    fn streamed_file_round_trips_and_respects_memory_contract() {
        let dir = TempDir::new("rtree-bulk").unwrap();
        for (layout, name) in [(BulkLayout::Str, "str"), (BulkLayout::Hilbert, "hil")] {
            for n in [0u64, 1, 16, 17, 300, 5000] {
                let data = items(n);
                let path = dir.file(&format!("{name}-{n}.rsj"));
                let (file, stats) =
                    load_to_file(params(), &data, layout, BulkConfig::default(), &path).unwrap();
                assert_eq!(file.page_count(), stats.pages);
                drop(file);
                let t = RTree::open_from(&path).unwrap();
                t.validate().unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
                assert_eq!(t.len() as u64, n);
                assert_eq!(sorted_ids(&t), (0..n).collect::<Vec<_>>());
                assert_eq!(t.height(), stats.height, "{name} n={n}");
                // Bottom-up emission: the root is the last page.
                assert_eq!(t.root(), PageId(stats.pages - 1), "{name} n={n}");
                // The streaming memory contract: one forming node per
                // level, never a whole level.
                assert!(
                    stats.peak_resident_entries <= params().max_entries * stats.height as usize,
                    "{name} n={n}: peak {} above M x height",
                    stats.peak_resident_entries
                );
            }
        }
    }

    #[test]
    fn streamed_hilbert_build_matches_in_memory_groups() {
        // Hilbert packing never reorders upper levels, so the streaming
        // packer must cut the exact same groups as the in-memory loader —
        // same page count, height, and per-level node sizes.
        let data = items(4000);
        let mem = hilbert_load(params(), &data, DEFAULT_FILL).unwrap();
        let dir = TempDir::new("rtree-bulk").unwrap();
        let path = dir.file("h.rsj");
        let (_, stats) = hilbert_load_to_file(params(), &data, DEFAULT_FILL, &path).unwrap();
        let streamed = RTree::open_from(&path).unwrap();
        assert_eq!(streamed.height(), mem.height());
        assert_eq!(stats.pages as usize, mem.allocated_pages());
        let sizes = |t: &RTree| {
            let mut v: Vec<(u32, usize)> = Vec::new();
            t.for_each_node(|_, n| v.push((n.level, n.len())));
            v.sort_unstable();
            v
        };
        assert_eq!(sizes(&streamed), sizes(&mem));
    }

    #[test]
    fn streamed_f32_file_round_trips_validly() {
        let dir = TempDir::new("rtree-bulk").unwrap();
        let data = items(1200);
        let path = dir.file("f32.rsj");
        let cfg = BulkConfig {
            format: EntryFormat::F32,
            ..Default::default()
        };
        load_to_file(params(), &data, BulkLayout::Str, cfg, &path).unwrap();
        let t = RTree::open_from(&path).unwrap();
        t.validate().unwrap();
        assert_eq!(t.len(), 1200);
    }

    #[test]
    fn level_counts_match_in_memory_packing() {
        let p = params();
        for fill in [0.5, DEFAULT_FILL, 1.0] {
            let cap = node_cap(&p, fill);
            for n in [1usize, 16, 17, 22, 100, 1000, 12345] {
                let counts = level_counts(n, cap, p.min_entries, p.max_entries);
                let data = items(n as u64);
                let t = str_load(p, &data, fill).unwrap();
                assert_eq!(
                    counts.len() as u32,
                    t.height(),
                    "n={n} fill={fill}: plan height"
                );
                assert_eq!(counts[0], n);
                assert!(*counts.last().unwrap() <= p.max_entries);
            }
        }
    }
}
