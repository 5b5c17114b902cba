//! The streaming join executor.
//!
//! [`JoinCursor`] runs the SJ1–SJ5 synchronized traversal as an
//! explicit-work-stack state machine and yields `(DataId, DataId)` result
//! pairs incrementally through [`Iterator`], instead of materializing the
//! whole result like the old recursive driver. Consumers that only count
//! never allocate the result; consumers that stream (refinement,
//! pipelined multi-way stages, network sinks) see the first pair after a
//! single root-to-leaf descent.
//!
//! The cursor is generic over two pluggable layers:
//!
//! * [`NodeAccess`] — the page-access boundary: sequential joins plug in a
//!   private [`rsj_storage::BufferPool`], parallel workers sharing one
//!   page cache a [`rsj_storage::SharedCacheFileAccess`] handle, and
//!   `&mut A` works for reusing one accountant across many cursors. A backend that reads real pages
//!   may also hand over their decoded nodes ([`NodeAccess::page_node`]):
//!   a cursor opened from the trees' roots alone
//!   ([`JoinCursor::from_roots`]) joins those, so no in-memory tree is
//!   needed at all.
//! * [`Meter`] — the comparison-accounting boundary: [`CmpCounter`]
//!   (constructors [`JoinCursor::new`]/[`JoinCursor::with_tasks`]) keeps
//!   the paper's CPU accounting bit-identical to the recursive oracle;
//!   the zero-sized [`NoOp`] meter ([`JoinCursor::raw`]/
//!   [`JoinCursor::raw_with_tasks`]) compiles the accounting out entirely
//!   — the production "raw" mode, same result-pair multiset with no
//!   metering overhead.
//!
//! **Zero allocation in steady state.** All per-node-pair buffers —
//! effective rectangles, restriction index lists, sweep output, z-order
//! keys, window-query hit lists and the vectors owned by suspended frames
//! — live in an `ExecScratch` arena owned by the cursor. Completed
//! frames return their vectors to the arena's pools, so after warm-up the
//! hot path performs no heap allocation (the paper's plane sweep needs
//! "no auxiliary data structure"; the executor now matches it).
//!
//! **Accounting parity.** With the counting meter, the state machine
//! replays the recursive driver's exact sequence of buffer operations —
//! the order of `access`/`pin`/`unpin` calls is observable through the
//! LRU, so each frame suspends and resumes precisely where the recursion
//! would. For every sequential plan the cursor reports bit-identical
//! `disk_accesses`, `join_comparisons` and `sort_comparisons` to
//! [`crate::exec::recursive_spatial_join`]; the differential tests in
//! [`crate::exec`] enforce this. The per-side remaining-degree tables
//! (which replace the old O(n²) `count_remaining` scans) and the
//! sort-and-group batched-window construction (which replaces a
//! `HashMap`) are pure data-structure swaps: they never change which
//! pages are touched in which order.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::exec::schedule::{self, DirPair, OrderScratch, ReadSchedule};
use crate::exec::{TAG_R, TAG_S};
use crate::plan::{DiffHeightPolicy, Enumerate, JoinPlan};
use crate::stats::JoinStats;
use crate::sweep::{sort_keyed_by_xl, sorted_intersection_test_keyed, KeyedRect};
use rsj_geom::{CmpCounter, Meter, NoOp, Rect};
use rsj_rtree::{DataId, Entry, Node, RTree, TreeRoot};
use rsj_storage::{DiskEntry, DiskNode, IoStats, NodeAccess, PageId, PageNode, StorageError};

/// A node the cursor reads: borrowed from the in-memory tree, or the
/// node a content-serving backend decoded from the page's bytes (whose
/// directory entries it range-checked).
#[derive(Debug, Clone)]
pub(crate) enum NodeRef<'t> {
    Tree(&'t Node),
    Page(Arc<DiskNode>),
}

impl NodeRef<'_> {
    #[inline]
    pub(crate) fn level(&self) -> u32 {
        match self {
            NodeRef::Tree(n) => n.level,
            NodeRef::Page(d) => d.level,
        }
    }

    #[inline]
    fn is_leaf(&self) -> bool {
        self.level() == 0
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            NodeRef::Tree(n) => n.entries.len(),
            NodeRef::Page(d) => d.entries.len(),
        }
    }

    /// MBR of entry `i`.
    #[inline]
    fn rect(&self, i: usize) -> Rect {
        match self {
            NodeRef::Tree(n) => n.entries[i].rect,
            NodeRef::Page(d) => d.entries[i].rect(),
        }
    }

    /// Child page of directory entry `i`.
    #[inline]
    pub(crate) fn child(&self, i: usize) -> PageId {
        match self {
            NodeRef::Tree(n) => RTree::child_page(&n.entries[i]),
            NodeRef::Page(d) => PageId(d.entries[i].child as u32),
        }
    }

    /// Data id of leaf entry `i`.
    #[inline]
    fn data(&self, i: usize) -> DataId {
        match self {
            NodeRef::Tree(n) => n.entries[i].child.data().expect("leaf entry"),
            NodeRef::Page(d) => DataId(d.entries[i].child),
        }
    }
}

/// An entry's MBR, whichever representation holds it.
trait EntryRect {
    fn rect(&self) -> Rect;
}

impl EntryRect for Entry {
    #[inline(always)]
    fn rect(&self) -> Rect {
        self.rect
    }
}

impl EntryRect for DiskEntry {
    #[inline(always)]
    fn rect(&self) -> Rect {
        let [xl, yl, xu, yu] = self.rect;
        Rect { xl, yl, xu, yu }
    }
}

/// One joined tree as the cursor starts from it: the root facts, plus the
/// in-memory tree when the caller holds one. With a tree, the cursor
/// joins that tree (the oracle, or a snapshot) and a content-serving
/// backend only paces it; without one, it joins the page bytes.
#[derive(Debug, Clone, Copy)]
struct Side<'t> {
    tree: Option<&'t RTree>,
    root: TreeRoot,
}

impl<'t> Side<'t> {
    fn tree(tree: &'t RTree) -> Self {
        Side {
            tree: Some(tree),
            root: TreeRoot::of(tree),
        }
    }

    /// Path-buffer depth of a node at `level` (the root is depth 0).
    #[inline]
    fn depth(&self, level: u32) -> usize {
        (self.root.height - 1 - level) as usize
    }
}

/// Which side of a directory pair is pinned during a drain.
#[derive(Debug, Clone, Copy)]
enum PinSide {
    /// Pin the R-side child; drain pairs with the same `ir`.
    R(usize),
    /// Pin the S-side child; drain pairs with the same `js`.
    S(usize),
}

/// Resume point of a directory/directory frame.
#[derive(Debug, Clone, Copy)]
enum DirState {
    /// Find the next unprocessed pair and descend into it.
    NextOuter,
    /// The subtree of pair `k` finished; decide on pinning.
    AfterOuter,
    /// Draining the pairs selected by the pinned side, from index `l`.
    Drain {
        side: PinSide,
        page: PageId,
        l: usize,
    },
}

/// Suspended directory/directory node pair (the `schedule_pairs` loop of
/// the recursion, unrolled into a resumable state).
///
/// `rem_r`/`rem_s` are the per-side remaining-degree tables: `rem_r[ir]`
/// counts the not-yet-processed pairs whose R entry is `ir` (likewise
/// `rem_s[js]`). Because the outer cursor `k` only ever moves forward past
/// completed pairs, every unprocessed pair lies at an index `> k`, so
/// these tables answer the §4.3 degree question ("number of intersections
/// […] not processed until now") in O(1) where the old code rescanned the
/// pair list twice per pair. Empty when the plan does not pin.
#[derive(Debug)]
struct DirFrame<'t> {
    rn: NodeRef<'t>,
    sn: NodeRef<'t>,
    pairs: Vec<DirPair>,
    done: Vec<bool>,
    rem_r: Vec<u32>,
    rem_s: Vec<u32>,
    k: usize,
    state: DirState,
}

impl DirFrame<'_> {
    /// Marks pair `idx` processed, maintaining the degree tables.
    #[inline]
    fn mark_done(&mut self, idx: usize) {
        self.done[idx] = true;
        if !self.rem_r.is_empty() {
            let p = self.pairs[idx];
            self.rem_r[p.ir] -= 1;
            self.rem_s[p.js] -= 1;
        }
    }
}

/// Resume point of a mixed directory × leaf frame (§4.4 policies).
#[derive(Debug)]
enum MixedState {
    /// Policy (a): one window query per pair, in order.
    PerPair { i: usize },
    /// Policy (b): one batched traversal per directory entry, in
    /// first-occurrence order. `windows` holds the `(leaf index, window)`
    /// batches back to back; `runs[i] = (dir entry, start, end)` delimits
    /// the batch of the `i`-th directory entry.
    Batched {
        windows: Vec<(usize, Rect)>,
        runs: Vec<(usize, u32, u32)>,
        i: usize,
    },
    /// Policy (c): sweep order with pinning — the outer loop.
    SweepOuter { done: Vec<bool>, k: usize },
    /// Policy (c): draining window queries of the pinned child `id`.
    SweepDrain {
        done: Vec<bool>,
        k: usize,
        id: usize,
        page: PageId,
        l: usize,
    },
}

/// Suspended directory × leaf node pair.
///
/// `rem[id]` counts the not-yet-processed pairs of directory entry `id`
/// (the sweep-pinned policy's degree table); empty for the other policies.
#[derive(Debug)]
struct MixedFrame<'t> {
    dir_tag: u8,
    dir: NodeRef<'t>,
    leaf: NodeRef<'t>,
    /// `(dir entry index, leaf entry index)`, sweep-ordered under
    /// plane-sweep enumeration.
    pairs: Vec<(usize, usize)>,
    rem: Vec<u32>,
    state: MixedState,
}

/// One unit of suspended work on the explicit stack.
#[derive(Debug)]
enum Frame<'t> {
    /// A node pair whose pages have been charged (at levels `rl`/`sl`)
    /// but not yet classified.
    Visit {
        rp: PageId,
        sp: PageId,
        rl: u32,
        sl: u32,
        rect: Rect,
    },
    Dir(DirFrame<'t>),
    Mixed(MixedFrame<'t>),
}

/// Reusable buffers for everything the executor would otherwise allocate
/// per node pair: the scratch arena of the hot path.
///
/// The `*_pool` fields recycle the vectors owned by suspended frames;
/// the rest are flat scratch space reused within one `visit` call. After
/// the deepest traversal level has been reached once, the cursor performs
/// no further heap allocation.
#[derive(Debug, Default)]
struct ExecScratch {
    /// Effective (ε-expanded) R-side rectangles tagged with entry indices,
    /// restriction-filtered; the sweep sorts and scans this contiguously.
    akeyed: Vec<KeyedRect>,
    /// S-side rectangles tagged with entry indices, restriction-filtered.
    bkeyed: Vec<KeyedRect>,
    /// Sort permutation scratch (counting-mode keyed sort).
    perm: Vec<usize>,
    /// Packed-key scratch (raw-mode keyed sort).
    packed: Vec<u128>,
    /// Keyed permutation-apply scratch.
    ktmp: Vec<KeyedRect>,
    /// Enumeration output: qualifying `(i, j)` pairs in schedule order.
    raw: Vec<(usize, usize)>,
    /// Scratch of the §4.3 pair-ordering step (z-order keys and
    /// permutation), owned by [`schedule::order_dir_pairs`].
    order: OrderScratch,
    /// The materialized schedule tail announced to hint-aware backends.
    sched: ReadSchedule,
    /// First-occurrence rank per directory entry (batched grouping).
    first_seen: Vec<u32>,
    /// Sorted copy of the mixed pairs during batched grouping.
    group: Vec<(usize, usize)>,
    /// Window-query hit list.
    hits: Vec<(Rect, DataId)>,
    /// Multi-window-query hit list.
    multi_hits: Vec<(usize, Rect, DataId)>,
    /// Recycled `DirFrame::pairs` vectors.
    dir_pool: Vec<Vec<DirPair>>,
    /// Recycled `done` bitmaps (directory and mixed frames).
    done_pool: Vec<Vec<bool>>,
    /// Recycled remaining-degree tables.
    rem_pool: Vec<Vec<u32>>,
    /// Recycled `MixedFrame::pairs` vectors.
    pair_pool: Vec<Vec<(usize, usize)>>,
    /// Recycled batched-window vectors.
    win_pool: Vec<Vec<(usize, Rect)>>,
    /// Recycled batched-run vectors.
    run_pool: Vec<Vec<(usize, u32, u32)>>,
}

impl ExecScratch {
    #[inline]
    fn take_dir(&mut self) -> Vec<DirPair> {
        let mut v = self.dir_pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    #[inline]
    fn take_done(&mut self) -> Vec<bool> {
        let mut v = self.done_pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    #[inline]
    fn take_rem(&mut self) -> Vec<u32> {
        let mut v = self.rem_pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    #[inline]
    fn take_pairs(&mut self) -> Vec<(usize, usize)> {
        let mut v = self.pair_pool.pop().unwrap_or_default();
        v.clear();
        v
    }
}

/// The effective rectangle of an entry MBR: virtually ε-expanded for
/// distance joins, the plain MBR otherwise.
#[inline(always)]
fn eff_rect(rect: Rect, eps: f64) -> Rect {
    if eps > 0.0 {
        rect.expanded(eps)
    } else {
        rect
    }
}

/// Fills `keyed` with the (effective) entry rectangles that pass the
/// search-space restriction, in entry order — the same tests in the same
/// order as the recursive driver's restriction scan.
#[inline]
fn restrict_into<E: EntryRect, M: Meter>(
    entries: &[E],
    eps: f64,
    restrict: bool,
    rect: &Rect,
    cmp: &mut M,
    keyed: &mut Vec<KeyedRect>,
) {
    keyed.clear();
    keyed.reserve(entries.len());
    if restrict {
        for (i, e) in entries.iter().enumerate() {
            let r = eff_rect(e.rect(), eps);
            if r.intersects_counted(rect, cmp) {
                keyed.push((r, i as u32));
            }
        }
    } else {
        keyed.extend(
            entries
                .iter()
                .enumerate()
                .map(|(i, e)| (eff_rect(e.rect(), eps), i as u32)),
        );
    }
}

/// [`restrict_into`] over either node representation (one dispatch per
/// node, not per entry).
#[inline]
fn restrict_node<M: Meter>(
    node: &NodeRef<'_>,
    eps: f64,
    restrict: bool,
    rect: &Rect,
    cmp: &mut M,
    keyed: &mut Vec<KeyedRect>,
) {
    match node {
        NodeRef::Tree(n) => restrict_into(&n.entries, eps, restrict, rect, cmp, keyed),
        NodeRef::Page(d) => restrict_into(&d.entries, eps, restrict, rect, cmp, keyed),
    }
}

/// Enumerates qualifying `(index into a, index into b)` pairs into `out` —
/// identical logic and counting to the recursive driver, but working on
/// contiguous keyed scratch arrays instead of allocating rect and index
/// vectors per node pair.
#[allow(clippy::too_many_arguments)]
fn enumerate_pairs<M: Meter>(
    plan: &JoinPlan,
    a: &NodeRef<'_>,
    a_eps: f64,
    b: &NodeRef<'_>,
    b_eps: f64,
    rect: &Rect,
    akeyed: &mut Vec<KeyedRect>,
    bkeyed: &mut Vec<KeyedRect>,
    perm: &mut Vec<usize>,
    packed: &mut Vec<u128>,
    ktmp: &mut Vec<KeyedRect>,
    cmp: &mut M,
    sort_cmp: &mut M,
    out: &mut Vec<(usize, usize)>,
) {
    restrict_node(a, a_eps, plan.restrict_space, rect, cmp, akeyed);
    restrict_node(b, b_eps, plan.restrict_space, rect, cmp, bkeyed);
    out.clear();
    match plan.enumerate {
        Enumerate::NestedLoop => {
            // SpatialJoin1: outer loop over S (here: `b`), inner over R.
            if M::COUNTING {
                for &(brect, j) in bkeyed.iter() {
                    for &(arect, i) in akeyed.iter() {
                        if arect.intersects_counted(&brect, cmp) {
                            out.push((i as usize, j as usize));
                        }
                    }
                }
            } else if plan.restrict_space {
                // Restriction survivors all overlap the shared search
                // space, so the short-circuit exits are coin flips — a
                // branchless test over the contiguous scratch beats the
                // mispredictions.
                for &(brect, j) in bkeyed.iter() {
                    for &(arect, i) in akeyed.iter() {
                        let hit = (arect.xl <= brect.xu)
                            & (brect.xl <= arect.xu)
                            & (arect.yl <= brect.yu)
                            & (brect.yl <= arect.yu);
                        if hit {
                            out.push((i as usize, j as usize));
                        }
                    }
                }
            } else {
                // Unrestricted scans are dominated by far-apart pairs that
                // fail the first x comparison predictably — keep the
                // short-circuit branch structure (spelled out so the
                // optimizer doesn't flatten it into straight-line code).
                for &(brect, j) in bkeyed.iter() {
                    for &(arect, i) in akeyed.iter() {
                        if arect.xl > brect.xu || brect.xl > arect.xu {
                            continue;
                        }
                        if (arect.yl <= brect.yu) & (brect.yl <= arect.yu) {
                            out.push((i as usize, j as usize));
                        }
                    }
                }
            }
        }
        Enumerate::PlaneSweep => {
            sort_keyed_by_xl(akeyed, perm, packed, ktmp, sort_cmp);
            sort_keyed_by_xl(bkeyed, perm, packed, ktmp, sort_cmp);
            sorted_intersection_test_keyed(akeyed, bkeyed, cmp, out);
        }
    }
}

/// A streaming MBR-spatial-join: yields `(Id(r), Id(s))` pairs one at a
/// time while charging all I/O to a caller-supplied [`NodeAccess`].
///
/// Construct with [`JoinCursor::new`] for a whole-tree counted join,
/// [`JoinCursor::with_tasks`] for an explicit task list (the parallel
/// worker unit), the [`JoinCursor::raw`]/[`JoinCursor::raw_with_tasks`]
/// twins for the meter-free raw mode, or [`JoinCursor::from_roots`] to
/// join persisted trees from their pages alone; iterate, then read
/// [`JoinCursor::stats`] (and [`JoinCursor::error`]).
///
/// **Where node contents come from.** One lookup serves every node the
/// cursor reads. Over in-memory trees it reads those trees — the oracle,
/// or the snapshot the caller asked to join — and a backend that reads
/// real pages ([`NodeAccess::page_node`]) only paces it: the cursor
/// still waits for each page's read before stepping into it. From roots
/// ([`JoinCursor::from_roots`]) it reads the nodes the backend decoded
/// from the bytes its misses read, and a child's level is checked
/// against its parent's. Either way, a page that fails to read or decode
/// stops the cursor with a typed error instead of a panic.
#[derive(Debug)]
pub struct JoinCursor<'t, A: NodeAccess, M: Meter = CmpCounter> {
    r: Side<'t>,
    s: Side<'t>,
    plan: JoinPlan,
    /// Virtual expansion of R-side rectangles (distance joins), else 0.
    eps: f64,
    zframe: Rect,
    access: A,
    cmp: M,
    sort_cmp: M,
    /// Pairs yielded through `Iterator::next` so far.
    emitted: u64,
    page_bytes: usize,
    tasks: VecDeque<(PageId, PageId, Rect)>,
    /// Whether starting a task charges its two page accesses (true for
    /// explicit task lists; the whole-tree constructor charges the roots
    /// itself, before the empty/disjoint check, like the recursion).
    charge_tasks: bool,
    /// The accountant's tallies at cursor construction: [`JoinCursor::stats`]
    /// reports the delta, so a borrowed accountant reused across cursors
    /// (e.g. a warm `&mut FileNodeAccess`) is not double-counted.
    io_baseline: IoStats,
    /// Times the cursor blocked on an in-flight read — cumulative over
    /// the cursor's life. Telemetry only: deliberately *not* part of
    /// [`JoinStats`], which is compared bit-identically across backends
    /// while parks vary with completion timing.
    parks: u64,
    /// The storage failure that stopped the cursor, if any.
    error: Option<StorageError>,
    stack: Vec<Frame<'t>>,
    pending: VecDeque<(DataId, DataId)>,
    scratch: ExecScratch,
}

/// A [`JoinCursor`] running with the zero-cost [`NoOp`] meter: the raw
/// production mode. Same result-pair multiset, no comparison accounting.
pub type RawJoinCursor<'t, A> = JoinCursor<'t, A, NoOp>;

impl<'t, A: NodeAccess> JoinCursor<'t, A> {
    /// Cursor over the full join of `r` and `s` under `plan`, charging all
    /// page accesses to `access` and metering comparisons with a
    /// [`CmpCounter`] — the reproduction-faithful counted mode. Both root
    /// pages are charged immediately (the recursion hands SpatialJoin1
    /// both root nodes), even when a tree is empty or the root MBRs are
    /// disjoint.
    pub fn new(r: &'t RTree, s: &'t RTree, plan: JoinPlan, access: A) -> Self {
        Self::metered(r, s, plan, access)
    }

    /// Counted cursor over an explicit list of `(R page, S page, search
    /// space)` tasks — the worker unit of the parallel join. Each task's
    /// two pages are charged when the task starts; root accesses are the
    /// caller's business.
    pub fn with_tasks(
        r: &'t RTree,
        s: &'t RTree,
        plan: JoinPlan,
        access: A,
        tasks: impl IntoIterator<Item = (PageId, PageId, Rect)>,
    ) -> Self {
        Self::metered_with_tasks(r, s, plan, access, tasks)
    }

    /// Counted cursor over two persisted trees known only by their roots
    /// ([`TreeRoot`]): every other node comes from the pages `access`
    /// reads, so `access` must serve page contents
    /// ([`NodeAccess::page_node`]) — otherwise the first visit fails with
    /// a typed error. Charges exactly like [`JoinCursor::new`] over the
    /// same trees.
    pub fn from_roots(r: &TreeRoot, s: &TreeRoot, plan: JoinPlan, access: A) -> Self {
        let side = |root: &TreeRoot| Side {
            tree: None,
            root: *root,
        };
        Self::start(side(r), side(s), plan, access)
    }
}

impl<'t, A: NodeAccess> RawJoinCursor<'t, A> {
    /// [`JoinCursor::new`] with the [`NoOp`] meter: comparison accounting
    /// compiles out entirely. `stats()` reports zero comparisons; I/O is
    /// still charged through `access` (pinning changes what the buffer
    /// does, not just what it reports).
    pub fn raw(r: &'t RTree, s: &'t RTree, plan: JoinPlan, access: A) -> Self {
        Self::metered(r, s, plan, access)
    }

    /// [`JoinCursor::with_tasks`] with the [`NoOp`] meter.
    pub fn raw_with_tasks(
        r: &'t RTree,
        s: &'t RTree,
        plan: JoinPlan,
        access: A,
        tasks: impl IntoIterator<Item = (PageId, PageId, Rect)>,
    ) -> Self {
        Self::metered_with_tasks(r, s, plan, access, tasks)
    }
}

impl<'t, A: NodeAccess, M: Meter> JoinCursor<'t, A, M> {
    /// Whole-tree cursor with an explicit meter type (see
    /// [`JoinCursor::new`] / [`JoinCursor::raw`] for the common cases).
    pub fn metered(r: &'t RTree, s: &'t RTree, plan: JoinPlan, access: A) -> Self {
        Self::start(Side::tree(r), Side::tree(s), plan, access)
    }

    fn start(r: Side<'t>, s: Side<'t>, plan: JoinPlan, access: A) -> Self {
        let mut cursor = Self::empty(r, s, plan, access, false);
        cursor.charge(TAG_R, r.root.root, r.root.height - 1);
        cursor.charge(TAG_S, s.root.root, s.root.height - 1);
        if r.root.len > 0 && s.root.len > 0 {
            if let Some(rect) = plan.search_space(&r.root.mbr, &s.root.mbr) {
                cursor.tasks.push_back((r.root.root, s.root.root, rect));
            }
        }
        cursor
    }

    /// Task-list cursor with an explicit meter type (see
    /// [`JoinCursor::with_tasks`] / [`JoinCursor::raw_with_tasks`]).
    pub fn metered_with_tasks(
        r: &'t RTree,
        s: &'t RTree,
        plan: JoinPlan,
        access: A,
        tasks: impl IntoIterator<Item = (PageId, PageId, Rect)>,
    ) -> Self {
        let mut cursor = Self::empty(Side::tree(r), Side::tree(s), plan, access, true);
        cursor.tasks.extend(tasks);
        if cursor.access.wants_hints() {
            // The whole task list is the outermost read schedule: each
            // task charges its two pages when it starts.
            cursor.scratch.sched.clear();
            schedule::push_tasks(&mut cursor.scratch.sched, r, s, &cursor.tasks);
            cursor.scratch.sched.announce(&mut cursor.access);
        }
        cursor
    }

    fn empty(r: Side<'t>, s: Side<'t>, plan: JoinPlan, access: A, charge_tasks: bool) -> Self {
        assert_eq!(
            r.root.params.page_bytes, s.root.params.page_bytes,
            "joined trees must share a page size"
        );
        let eps = plan.predicate.epsilon();
        assert!(
            eps >= 0.0 && eps.is_finite(),
            "distance-join epsilon must be finite and >= 0"
        );
        let io_baseline = access.io_stats();
        JoinCursor {
            r,
            s,
            plan,
            eps,
            zframe: r.root.mbr.union(&s.root.mbr),
            access,
            cmp: M::default(),
            sort_cmp: M::default(),
            emitted: 0,
            page_bytes: r.root.params.page_bytes,
            tasks: VecDeque::new(),
            charge_tasks,
            io_baseline,
            parks: 0,
            error: None,
            stack: Vec::new(),
            pending: VecDeque::new(),
            scratch: ExecScratch::default(),
        }
    }

    /// Statistics accumulated *by this cursor* so far: I/O is reported
    /// relative to the accountant's tallies at construction, so reusing
    /// one accountant across several cursors never double-counts.
    /// `result_pairs` counts pairs already yielded through the iterator.
    /// Totals are final once the iterator is exhausted; a cursor dropped
    /// mid-stream reports the partial work actually performed. A raw
    /// ([`NoOp`]-metered) cursor reports zero comparisons.
    pub fn stats(&self) -> JoinStats {
        let io = self.access.io_stats();
        JoinStats {
            join_comparisons: self.cmp.get(),
            sort_comparisons: self.sort_cmp.get(),
            io: IoStats {
                disk_accesses: io.disk_accesses - self.io_baseline.disk_accesses,
                path_hits: io.path_hits - self.io_baseline.path_hits,
                lru_hits: io.lru_hits - self.io_baseline.lru_hits,
                page_writes: io.page_writes - self.io_baseline.page_writes,
            },
            result_pairs: self.emitted,
            page_bytes: self.page_bytes,
        }
    }

    /// Times this cursor blocked on an in-flight read: waits for a page's
    /// node ([`PageNode::Pending`]). Always 0 for the accounting and
    /// blocking backends. Not part of [`JoinStats`] — parks depend on
    /// completion timing, which the bit-identical cross-backend
    /// accounting deliberately excludes.
    #[inline]
    pub fn parks(&self) -> u64 {
        self.parks
    }

    /// The storage failure that stopped this cursor, if one did: a page
    /// that failed to read or decode, or a node at the wrong level. The
    /// iterator ends at the failure; the pairs yielded before it are a
    /// partial result.
    pub fn error(&self) -> Option<&StorageError> {
        self.error.as_ref()
    }

    /// Takes the failure that stopped this cursor, if any.
    pub fn take_error(&mut self) -> Option<StorageError> {
        self.error.take()
    }

    /// Consumes the cursor, returning the page-access accountant.
    pub fn into_access(self) -> A {
        self.access
    }

    #[inline]
    fn side(&self, tag: u8) -> &Side<'t> {
        if tag == TAG_R {
            &self.r
        } else {
            &self.s
        }
    }

    /// Charges one page access for `tag`/`page`, a node at `level`.
    #[inline]
    fn charge(&mut self, tag: u8, page: PageId, level: u32) {
        let depth = self.side(tag).depth(level);
        self.access.access(tag, page, depth);
    }

    /// The one node lookup: the node of `tag`'s `page`, expected at
    /// `level` — from the in-memory tree when the cursor has one (after
    /// waiting out the backend's read of the page, if it reads pages),
    /// else from the backend's decoded page. Records the failure and
    /// returns `None` if the page cannot serve.
    fn node(&mut self, tag: u8, page: PageId, level: u32) -> Option<NodeRef<'t>> {
        let tree = self.side(tag).tree;
        let failure = loop {
            match self.access.page_node(tag, page) {
                PageNode::Pending(ticket) => {
                    self.parks += 1;
                    self.access.await_ticket(ticket);
                }
                PageNode::Failed(e) => break e,
                _ if tree.is_some() => return tree.map(|t| NodeRef::Tree(t.node(page))),
                PageNode::Ready(node) if node.level == level => {
                    return Some(NodeRef::Page(node));
                }
                PageNode::Ready(node) => {
                    break StorageError::Corrupt(format!(
                        "page {page} of store {tag} is a level-{} node where level {level} \
                         was expected",
                        node.level
                    ));
                }
                PageNode::InMemory => {
                    break StorageError::Corrupt(
                        "the backend serves no page contents and the cursor holds no \
                         in-memory tree"
                            .into(),
                    );
                }
            }
        };
        self.fail(failure);
        None
    }

    /// Stops the cursor on a storage failure (the first one is kept).
    #[cold]
    fn fail(&mut self, e: StorageError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    #[inline]
    fn emit(&mut self, rid: DataId, sid: DataId) {
        self.pending.push_back((rid, sid));
    }

    /// Final data-pair test beyond MBR intersection (see the recursion's
    /// twin for the predicate-by-predicate rationale).
    #[inline]
    fn leaf_predicate_holds(&mut self, r_rect: &Rect, s_rect: &Rect) -> bool {
        use crate::plan::JoinPredicate::*;
        match self.plan.predicate {
            Intersects | WithinDistance(_) => true,
            Contains => r_rect.contains_counted(s_rect, &mut self.cmp),
            Within => s_rect.contains_counted(r_rect, &mut self.cmp),
        }
    }

    /// Runs the enumeration for the node pair `(a, b)` into
    /// `scratch.raw`. `a_eps` is the R-side ε expansion (the side
    /// carrying it depends on the mixed-pair orientation).
    #[inline]
    fn enumerate_into_scratch(
        &mut self,
        a: &NodeRef<'_>,
        a_eps: f64,
        b: &NodeRef<'_>,
        b_eps: f64,
        rect: &Rect,
    ) {
        enumerate_pairs(
            &self.plan,
            a,
            a_eps,
            b,
            b_eps,
            rect,
            &mut self.scratch.akeyed,
            &mut self.scratch.bkeyed,
            &mut self.scratch.perm,
            &mut self.scratch.packed,
            &mut self.scratch.ktmp,
            &mut self.cmp,
            &mut self.sort_cmp,
            &mut self.scratch.raw,
        );
    }

    /// The level a task's page sits at: from the in-memory tree (task
    /// lists come with trees), or the root's for the whole-tree task.
    #[inline]
    fn task_level(&self, tag: u8, page: PageId) -> u32 {
        let side = self.side(tag);
        side.tree
            .map_or(side.root.height - 1, |t| t.node(page).level)
    }

    /// Advances the machine by one unit of work. Returns `false` when all
    /// tasks are exhausted, or the cursor has failed.
    #[inline]
    fn step(&mut self) -> bool {
        if self.error.is_some() {
            return false;
        }
        let Some(frame) = self.stack.pop() else {
            let Some((rp, sp, rect)) = self.tasks.pop_front() else {
                return false;
            };
            let (rl, sl) = (self.task_level(TAG_R, rp), self.task_level(TAG_S, sp));
            if self.charge_tasks {
                self.charge(TAG_R, rp, rl);
                self.charge(TAG_S, sp, sl);
            }
            self.stack.push(Frame::Visit {
                rp,
                sp,
                rl,
                sl,
                rect,
            });
            return true;
        };
        match frame {
            Frame::Visit {
                rp,
                sp,
                rl,
                sl,
                rect,
            } => self.visit(rp, sp, rl, sl, rect),
            Frame::Dir(f) => self.step_dir(f),
            Frame::Mixed(f) => self.step_mixed(f),
        }
        true
    }

    /// Classifies a charged node pair, runs the pair enumeration, and
    /// either drains it on the spot (leaf/leaf) or installs the matching
    /// resumable frame.
    fn visit(&mut self, rp: PageId, sp: PageId, rl: u32, sl: u32, rect: Rect) {
        let Some(rn) = self.node(TAG_R, rp, rl) else {
            return;
        };
        let Some(sn) = self.node(TAG_S, sp, sl) else {
            return;
        };
        match (rn.is_leaf(), sn.is_leaf()) {
            (true, true) => {
                self.enumerate_into_scratch(&rn, self.eps, &sn, 0.0, &rect);
                // Drain the whole leaf frame into `pending` in one step —
                // no suspended frame, no per-pair pop/re-push cycle.
                self.pending.reserve(self.scratch.raw.len());
                for idx in 0..self.scratch.raw.len() {
                    let (ir, js) = self.scratch.raw[idx];
                    if self.leaf_predicate_holds(&rn.rect(ir), &sn.rect(js)) {
                        self.emit(rn.data(ir), sn.data(js));
                    }
                }
            }
            (false, false) => {
                self.enumerate_into_scratch(&rn, self.eps, &sn, 0.0, &rect);
                let mut pairs = self.scratch.take_dir();
                for &(ir, js) in &self.scratch.raw {
                    // Qualifying pairs intersect — unless the page bytes
                    // hold coordinates no rectangle has (NaN).
                    let Some(rect) = eff_rect(rn.rect(ir), self.eps).intersection(&sn.rect(js))
                    else {
                        self.fail(StorageError::Corrupt(format!(
                            "directory entries {ir} of page {rp} and {js} of page {sp} \
                             qualify without intersecting"
                        )));
                        return;
                    };
                    pairs.push(DirPair { ir, js, rect });
                }
                // The §4.3 read schedule is decided here, before any
                // descent — ordering lives in the schedule module.
                schedule::order_dir_pairs(
                    &self.plan,
                    &self.zframe,
                    &mut pairs,
                    &mut self.scratch.order,
                    &mut self.sort_cmp,
                );
                if self.access.wants_hints() {
                    // Announce the frame's materialized schedule tail: the
                    // child pages of every pair, in schedule order.
                    let (rd, sd) = (self.r.depth(rl - 1), self.s.depth(sl - 1));
                    self.scratch.sched.clear();
                    schedule::push_dir_children(&mut self.scratch.sched, &rn, &sn, rd, sd, &pairs);
                    self.scratch.sched.announce(&mut self.access);
                }
                let mut done = self.scratch.take_done();
                done.resize(pairs.len(), false);
                let (mut rem_r, mut rem_s) = (self.scratch.take_rem(), self.scratch.take_rem());
                if self.plan.pins() {
                    rem_r.resize(rn.len(), 0);
                    rem_s.resize(sn.len(), 0);
                    for p in &pairs {
                        rem_r[p.ir] += 1;
                        rem_s[p.js] += 1;
                    }
                }
                self.stack.push(Frame::Dir(DirFrame {
                    rn,
                    sn,
                    pairs,
                    done,
                    rem_r,
                    rem_s,
                    k: 0,
                    state: DirState::NextOuter,
                }));
            }
            // Different heights: the shorter tree bottomed out (§4.4).
            (false, true) => self.visit_mixed(TAG_R, rn, TAG_S, sn, rect),
            (true, false) => self.visit_mixed(TAG_S, sn, TAG_R, rn, rect),
        }
    }

    fn visit_mixed(
        &mut self,
        dir_tag: u8,
        dir: NodeRef<'t>,
        leaf_tag: u8,
        leaf: NodeRef<'t>,
        rect: Rect,
    ) {
        // R-side rectangles carry the distance-join expansion, whichever
        // side of the mixed pair they are on.
        let dir_eps = if dir_tag == TAG_R { self.eps } else { 0.0 };
        let leaf_eps = if leaf_tag == TAG_R { self.eps } else { 0.0 };
        self.enumerate_into_scratch(&dir, dir_eps, &leaf, leaf_eps, &rect);
        let mut pairs = self.scratch.take_pairs();
        pairs.extend_from_slice(&self.scratch.raw);
        let mut rem = self.scratch.take_rem();
        let state = match self.plan.diff_height {
            DiffHeightPolicy::PerPair => MixedState::PerPair { i: 0 },
            DiffHeightPolicy::Batched => {
                // Group the leaf windows per directory entry, preserving
                // first-occurrence order: rank each directory entry by
                // first appearance, stable-sort a scratch copy of the
                // pairs by that rank, and cut the sorted run into batches.
                // Equivalent to the old HashMap grouping, without hashing.
                let scratch = &mut self.scratch;
                scratch.first_seen.clear();
                scratch.first_seen.resize(dir.len(), u32::MAX);
                let mut rank = 0u32;
                for &(id, _) in &pairs {
                    if scratch.first_seen[id] == u32::MAX {
                        scratch.first_seen[id] = rank;
                        rank += 1;
                    }
                }
                scratch.group.clear();
                scratch.group.extend_from_slice(&pairs);
                let first_seen = &scratch.first_seen;
                scratch.group.sort_by_key(|&(id, _)| first_seen[id]);
                let mut windows = scratch.win_pool.pop().unwrap_or_default();
                windows.clear();
                let mut runs = scratch.run_pool.pop().unwrap_or_default();
                runs.clear();
                for &(id, il) in &scratch.group {
                    let w = leaf.rect(il).expanded(self.eps);
                    match runs.last_mut() {
                        Some(&mut (last, _, ref mut end)) if last == id => *end += 1,
                        _ => {
                            let at = windows.len() as u32;
                            runs.push((id, at, at + 1));
                        }
                    }
                    windows.push((il, w));
                }
                MixedState::Batched {
                    windows,
                    runs,
                    i: 0,
                }
            }
            DiffHeightPolicy::SweepPinned => {
                rem.resize(dir.len(), 0);
                for &(id, _) in &pairs {
                    rem[id] += 1;
                }
                let mut done = self.scratch.take_done();
                done.resize(pairs.len(), false);
                MixedState::SweepOuter { done, k: 0 }
            }
        };
        if dir.level() > 0 && self.access.wants_hints() {
            // The frame's schedule: the subtree root under each pair's
            // directory entry, in the policy's query order (§4.4).
            let depth = self.side(dir_tag).depth(dir.level() - 1);
            let mut seen = self.scratch.take_done();
            let first_only = self.plan.diff_height != DiffHeightPolicy::PerPair;
            self.scratch.sched.clear();
            schedule::push_mixed_roots(
                &mut self.scratch.sched,
                dir_tag,
                &dir,
                depth,
                &pairs,
                first_only.then_some(&mut seen),
            );
            self.scratch.done_pool.push(seen);
            self.scratch.sched.announce(&mut self.access);
        }
        self.stack.push(Frame::Mixed(MixedFrame {
            dir_tag,
            dir,
            leaf,
            pairs,
            rem,
            state,
        }));
    }

    /// Charges the two child pages of a directory pair and pushes the
    /// child visit (the recursion's `process_dir_pair`). The parent frame
    /// must already be back on the stack.
    #[inline]
    fn descend(&mut self, (cr, rl): (PageId, u32), (cs, sl): (PageId, u32), rect: Rect) {
        self.charge(TAG_R, cr, rl);
        self.charge(TAG_S, cs, sl);
        self.stack.push(Frame::Visit {
            rp: cr,
            sp: cs,
            rl,
            sl,
            rect,
        });
    }

    /// Returns a completed directory frame's buffers to the arena.
    fn recycle_dir(&mut self, f: DirFrame<'t>) {
        self.scratch.dir_pool.push(f.pairs);
        self.scratch.done_pool.push(f.done);
        self.scratch.rem_pool.push(f.rem_r);
        self.scratch.rem_pool.push(f.rem_s);
    }

    /// Descends into pair `idx` of `f` after putting `f` back on the
    /// stack in `state`.
    #[inline]
    fn descend_pair(&mut self, mut f: DirFrame<'t>, idx: usize, state: DirState) {
        let pair = f.pairs[idx];
        let child_r = (f.rn.child(pair.ir), f.rn.level() - 1);
        let child_s = (f.sn.child(pair.js), f.sn.level() - 1);
        f.state = state;
        self.stack.push(Frame::Dir(f));
        self.descend(child_r, child_s, pair.rect);
    }

    fn step_dir(&mut self, mut f: DirFrame<'t>) {
        match f.state {
            DirState::NextOuter => {
                while f.k < f.pairs.len() && f.done[f.k] {
                    f.k += 1;
                }
                if f.k == f.pairs.len() {
                    self.recycle_dir(f);
                    return; // frame complete — stays popped
                }
                let k = f.k;
                self.descend_pair(f, k, DirState::AfterOuter);
            }
            DirState::AfterOuter => {
                f.mark_done(f.k);
                if !self.plan.pins() {
                    f.k += 1;
                    f.state = DirState::NextOuter;
                    self.stack.push(Frame::Dir(f));
                    return;
                }
                // Degree of both pages among the unprocessed pairs (§4.3),
                // read off the incrementally-maintained tables.
                let DirPair { ir, js, .. } = f.pairs[f.k];
                let deg_r = f.rem_r[ir];
                let deg_s = f.rem_s[js];
                if deg_r == 0 && deg_s == 0 {
                    f.k += 1;
                    f.state = DirState::NextOuter;
                    self.stack.push(Frame::Dir(f));
                    return;
                }
                let (side, tag, page) = if deg_r >= deg_s {
                    (PinSide::R(ir), TAG_R, f.rn.child(ir))
                } else {
                    (PinSide::S(js), TAG_S, f.sn.child(js))
                };
                self.access.pin(tag, page);
                if self.access.wants_hints() {
                    // The pin reorders the schedule: the drain's pairs run
                    // next, then the frame's other open pairs in order.
                    // Re-announce that tail in its actual order.
                    let (rd, sd) = (
                        self.r.depth(f.rn.level() - 1),
                        self.s.depth(f.sn.level() - 1),
                    );
                    let drains = |p: &DirPair| match side {
                        PinSide::R(ir) => p.ir == ir,
                        PinSide::S(js) => p.js == js,
                    };
                    let open = || {
                        f.pairs
                            .iter()
                            .enumerate()
                            .skip(f.k + 1)
                            .filter(|&(l, _)| !f.done[l])
                            .map(|(_, p)| p)
                    };
                    let tail = open()
                        .filter(|p| drains(p))
                        .chain(open().filter(|p| !drains(p)));
                    self.scratch.sched.clear();
                    schedule::push_dir_children(
                        &mut self.scratch.sched,
                        &f.rn,
                        &f.sn,
                        rd,
                        sd,
                        tail,
                    );
                    self.scratch.sched.announce(&mut self.access);
                }
                f.state = DirState::Drain {
                    side,
                    page,
                    l: f.k + 1,
                };
                self.stack.push(Frame::Dir(f));
            }
            DirState::Drain { side, page, mut l } => {
                // The degree table tells us when the drain is dry without
                // scanning the tail of the pair list.
                let (rem, tag) = match side {
                    PinSide::R(ir) => (f.rem_r[ir], TAG_R),
                    PinSide::S(js) => (f.rem_s[js], TAG_S),
                };
                if rem == 0 {
                    self.access.unpin(tag, page);
                    f.k += 1;
                    f.state = DirState::NextOuter;
                    self.stack.push(Frame::Dir(f));
                    return;
                }
                let matches = |p: &DirPair| match side {
                    PinSide::R(ir) => p.ir == ir,
                    PinSide::S(js) => p.js == js,
                };
                while f.done[l] || !matches(&f.pairs[l]) {
                    l += 1;
                }
                f.mark_done(l);
                self.descend_pair(
                    f,
                    l,
                    DirState::Drain {
                        side,
                        page,
                        l: l + 1,
                    },
                );
            }
        }
    }

    /// Returns a completed mixed frame's shared buffers to the arena.
    fn recycle_mixed(&mut self, pairs: Vec<(usize, usize)>, rem: Vec<u32>) {
        self.scratch.pair_pool.push(pairs);
        self.scratch.rem_pool.push(rem);
    }

    fn step_mixed(&mut self, mut f: MixedFrame<'t>) {
        match f.state {
            MixedState::PerPair { i } => {
                let Some(&(id, il)) = f.pairs.get(i) else {
                    self.recycle_mixed(f.pairs, f.rem);
                    return; // frame complete
                };
                self.window_query_pair(f.dir_tag, &f.dir, &f.leaf, id, il);
                f.state = MixedState::PerPair { i: i + 1 };
                self.stack.push(Frame::Mixed(f));
            }
            MixedState::Batched { windows, runs, i } => {
                let Some(&(id, start, end)) = runs.get(i) else {
                    self.scratch.win_pool.push(windows);
                    self.scratch.run_pool.push(runs);
                    self.recycle_mixed(f.pairs, f.rem);
                    return; // frame complete
                };
                let batch = &windows[start as usize..end as usize];
                self.multi_window_query(f.dir_tag, &f.dir, &f.leaf, id, batch);
                f.state = MixedState::Batched {
                    windows,
                    runs,
                    i: i + 1,
                };
                self.stack.push(Frame::Mixed(f));
            }
            MixedState::SweepOuter { mut done, mut k } => {
                while k < f.pairs.len() && done[k] {
                    k += 1;
                }
                if k == f.pairs.len() {
                    self.scratch.done_pool.push(done);
                    self.recycle_mixed(f.pairs, f.rem);
                    return; // frame complete
                }
                let (id, il) = f.pairs[k];
                done[k] = true;
                f.rem[id] -= 1;
                // The window query of pair k runs first either way (the
                // recursion queries, then pins for the drain).
                self.window_query_pair(f.dir_tag, &f.dir, &f.leaf, id, il);
                if f.rem[id] == 0 {
                    f.state = MixedState::SweepOuter { done, k: k + 1 };
                } else {
                    let page = f.dir.child(id);
                    self.access.pin(f.dir_tag, page);
                    f.state = MixedState::SweepDrain {
                        done,
                        k,
                        id,
                        page,
                        l: k + 1,
                    };
                }
                self.stack.push(Frame::Mixed(f));
            }
            MixedState::SweepDrain {
                mut done,
                k,
                id,
                page,
                mut l,
            } => {
                if f.rem[id] == 0 {
                    self.access.unpin(f.dir_tag, page);
                    f.state = MixedState::SweepOuter { done, k: k + 1 };
                    self.stack.push(Frame::Mixed(f));
                    return;
                }
                while done[l] || f.pairs[l].0 != id {
                    l += 1;
                }
                let (_, il) = f.pairs[l];
                done[l] = true;
                f.rem[id] -= 1;
                self.window_query_pair(f.dir_tag, &f.dir, &f.leaf, id, il);
                f.state = MixedState::SweepDrain {
                    done,
                    k,
                    id,
                    page,
                    l: l + 1,
                };
                self.stack.push(Frame::Mixed(f));
            }
        }
    }

    /// Policy (a)/(c) unit: one window query with the rect of `leaf`'s
    /// entry `il` into the subtree of `dir`'s entry `id`. Hits are
    /// emitted through the pending queue; I/O and comparisons are charged
    /// eagerly, so the buffer sees the same sequence as in the recursion.
    fn window_query_pair(
        &mut self,
        dir_tag: u8,
        dir: &NodeRef<'t>,
        leaf: &NodeRef<'t>,
        id: usize,
        il: usize,
    ) {
        let leaf_rect = leaf.rect(il);
        let leaf_id = leaf.data(il);
        // The ε expansion commutes across sides, so the query window
        // absorbs it regardless of which tree is the directory side.
        let window = leaf_rect.expanded(self.eps);
        let mut hits = std::mem::take(&mut self.scratch.hits);
        hits.clear();
        self.window_query(dir_tag, dir.child(id), dir.level() - 1, &window, &mut hits);
        self.pending.reserve(hits.len());
        for &(hit_rect, did) in &hits {
            let (r_rect, s_rect) = if dir_tag == TAG_R {
                (hit_rect, leaf_rect)
            } else {
                (leaf_rect, hit_rect)
            };
            if !self.leaf_predicate_holds(&r_rect, &s_rect) {
                continue;
            }
            if dir_tag == TAG_R {
                self.emit(did, leaf_id);
            } else {
                self.emit(leaf_id, did);
            }
        }
        self.scratch.hits = hits;
    }

    /// Policy (b) unit: all qualifying `leaf` windows of `dir`'s entry
    /// `id` in a single traversal.
    fn multi_window_query(
        &mut self,
        dir_tag: u8,
        dir: &NodeRef<'t>,
        leaf: &NodeRef<'t>,
        id: usize,
        windows: &[(usize, Rect)],
    ) {
        let mut hits = std::mem::take(&mut self.scratch.multi_hits);
        hits.clear();
        self.multi_window_query_from(dir_tag, dir.child(id), dir.level() - 1, windows, &mut hits);
        self.pending.reserve(hits.len());
        for &(il, hit_rect, did) in &hits {
            let leaf_rect = leaf.rect(il);
            let (r_rect, s_rect) = if dir_tag == TAG_R {
                (hit_rect, leaf_rect)
            } else {
                (leaf_rect, hit_rect)
            };
            if !self.leaf_predicate_holds(&r_rect, &s_rect) {
                continue;
            }
            let leaf_id = leaf.data(il);
            if dir_tag == TAG_R {
                self.emit(did, leaf_id);
            } else {
                self.emit(leaf_id, did);
            }
        }
        self.scratch.multi_hits = hits;
    }

    /// Window query over the subtree at `page` (a level-`level` node of
    /// `tag`'s tree): charges each node as it is visited, then tests its
    /// entries in order — the access and comparison sequence of the
    /// rtree crate's charged window query, over the cursor's node lookup.
    fn window_query(
        &mut self,
        tag: u8,
        page: PageId,
        level: u32,
        window: &Rect,
        out: &mut Vec<(Rect, DataId)>,
    ) {
        self.charge(tag, page, level);
        let Some(node) = self.node(tag, page, level) else {
            return;
        };
        for i in 0..node.len() {
            let rect = node.rect(i);
            if !rect.intersects_counted(window, &mut self.cmp) {
                continue;
            }
            if node.is_leaf() {
                out.push((rect, node.data(i)));
            } else {
                self.window_query(tag, node.child(i), level - 1, window, out);
                if self.error.is_some() {
                    return;
                }
            }
        }
    }

    /// Batched multi-window query (policy (b) of §4.4) over the subtree at
    /// `page`: a child is descended once if any window intersects its MBR,
    /// carrying only the windows that do — the rtree crate's charged
    /// multi-window query, over the cursor's node lookup.
    fn multi_window_query_from(
        &mut self,
        tag: u8,
        page: PageId,
        level: u32,
        windows: &[(usize, Rect)],
        out: &mut Vec<(usize, Rect, DataId)>,
    ) {
        if windows.is_empty() {
            return;
        }
        self.charge(tag, page, level);
        let Some(node) = self.node(tag, page, level) else {
            return;
        };
        if node.is_leaf() {
            for i in 0..node.len() {
                let rect = node.rect(i);
                for &(il, w) in windows {
                    if rect.intersects_counted(&w, &mut self.cmp) {
                        out.push((il, rect, node.data(i)));
                    }
                }
            }
            return;
        }
        let mut surviving = Vec::new();
        for i in 0..node.len() {
            let rect = node.rect(i);
            surviving.clear();
            for &(il, w) in windows {
                if rect.intersects_counted(&w, &mut self.cmp) {
                    surviving.push((il, w));
                }
            }
            if !surviving.is_empty() {
                self.multi_window_query_from(tag, node.child(i), level - 1, &surviving, out);
                if self.error.is_some() {
                    return;
                }
            }
        }
    }
}

impl<A: NodeAccess, M: Meter> Iterator for JoinCursor<'_, A, M> {
    type Item = (DataId, DataId);

    #[inline]
    fn next(&mut self) -> Option<(DataId, DataId)> {
        loop {
            if let Some(pair) = self.pending.pop_front() {
                self.emitted += 1;
                return Some(pair);
            }
            if !self.step() {
                return None;
            }
            if self.error.is_some() {
                // A failed step may have queued partial results.
                self.pending.clear();
                return None;
            }
        }
    }
}
