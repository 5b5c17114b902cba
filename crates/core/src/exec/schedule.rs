//! Read schedules: the §4.3 page-access order as a first-class artifact.
//!
//! The paper's SJ3–SJ5 win because the join decides the order in which
//! child pages will be visited *before* descending — sweep order, pinned
//! max-degree drains, or local z-order. Historically that decision lived
//! implicitly inside the cursor's state machine; this module makes it
//! explicit, in two halves:
//!
//! * **Ordering** — `order_dir_pairs` applies the plan's read schedule
//!   to the qualifying directory pairs of one node pair (today: the local
//!   z-order sort of SJ5/`zorder-nopin`; sweep order falls out of the
//!   plane-sweep enumeration itself). Comparator invocations are charged
//!   to the sort meter exactly as the recursive oracle charges them, so
//!   counted mode stays bit-identical.
//! * **Materialization** — [`ReadSchedule`] collects the upcoming
//!   `(store, page, depth)` accesses implied by the ordered pairs and
//!   hands them to the backend through [`NodeAccess::hint`]. This is the
//!   planner→pager channel: accounting backends ignore it (and the
//!   cursor skips building it when [`NodeAccess::wants_hints`] is false),
//!   while [`rsj_storage::SharedCacheFileAccess`] reads the scheduled
//!   pages ahead, overlapping the reads with the computation that happens
//!   between hint and demand.
//!
//! The executor's contract: every page pushed into a schedule that is
//! announced will subsequently be demanded through
//! [`NodeAccess::access`] (hints are a prefix-accurate subset of the true
//! access sequence, never phantom reads), provided the join runs to
//! completion. The property suite in `tests/prop_schedule.rs` enforces
//! this across plans, presets and buffer sizes.

use crate::exec::cursor::NodeRef;
use crate::exec::{TAG_R, TAG_S};
use crate::plan::JoinPlan;
use rsj_geom::{zorder, Meter, Rect};
use rsj_rtree::RTree;
use rsj_storage::{NodeAccess, PageId, PageRef};

/// A scheduled directory pair: entry indices plus the intersection of the
/// two entry rectangles (the restricted search space passed down).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirPair {
    pub ir: usize,
    pub js: usize,
    pub rect: Rect,
}

/// The materialized tail of a read schedule: the page accesses the
/// executor will make next, in order. Reused across frames (owned by the
/// cursor's scratch arena) — steady state allocates nothing.
#[derive(Debug, Default)]
pub struct ReadSchedule {
    refs: Vec<PageRef>,
}

impl ReadSchedule {
    /// Empties the schedule for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.refs.clear();
    }

    /// Appends one upcoming access.
    #[inline]
    pub fn push(&mut self, store: u8, page: PageId, depth: usize) {
        self.refs.push(PageRef::new(store, page, depth));
    }

    /// The scheduled accesses, in order.
    #[inline]
    pub fn as_refs(&self) -> &[PageRef] {
        &self.refs
    }

    /// Number of scheduled accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// True if nothing is scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Hands the schedule to the backend as one hint batch (no-op when
    /// empty).
    #[inline]
    pub fn announce<A: NodeAccess>(&self, access: &mut A) {
        if !self.refs.is_empty() {
            access.hint(&self.refs);
        }
    }
}

/// Scratch for the z-order scheduling sort, recycled across frames.
#[derive(Debug, Default)]
pub(crate) struct OrderScratch {
    /// Z-order keys of directory-pair intersection rectangles.
    zkeys: Vec<u64>,
    /// Sort permutation over the pair list.
    zperm: Vec<usize>,
    /// Permutation-apply scratch.
    ztmp: Vec<DirPair>,
}

/// Reorders `pairs` per the plan's §4.3 read schedule. For the
/// enumeration/sweep schedules this is the identity (the pairs already
/// arrive in enumeration order); for the z-order schedules the pairs are
/// sorted by the z-value of their intersection centre within `zframe`,
/// with comparator invocations charged like a sort — exactly as the
/// recursive oracle does it, so counted mode stays bit-identical.
pub(crate) fn order_dir_pairs<M: Meter>(
    plan: &JoinPlan,
    zframe: &Rect,
    pairs: &mut Vec<DirPair>,
    scratch: &mut OrderScratch,
    sort_cmp: &mut M,
) {
    if !plan.zorders() {
        return;
    }
    scratch.zkeys.clear();
    scratch
        .zkeys
        .extend(pairs.iter().map(|p| zorder::z_center(&p.rect, zframe, 16)));
    scratch.zperm.clear();
    scratch.zperm.extend(0..pairs.len());
    let keys = &scratch.zkeys;
    if M::COUNTING {
        scratch.zperm.sort_by(|&x, &y| {
            sort_cmp.bump();
            keys[x].cmp(&keys[y])
        });
    } else {
        scratch.zperm.sort_unstable_by_key(|&x| keys[x]);
    }
    scratch.ztmp.clear();
    scratch.ztmp.extend(scratch.zperm.iter().map(|&k| pairs[k]));
    std::mem::swap(pairs, &mut scratch.ztmp);
}

/// Pushes the child pages of directory pairs in schedule order: for each
/// pair, the R-side child then the S-side child, at the children's depth
/// — the access sequence [`descend`](crate::exec::JoinCursor) will
/// produce. `rn`/`sn` are the parent nodes the pair indices point into.
pub(crate) fn push_dir_children<'p>(
    out: &mut ReadSchedule,
    rn: &NodeRef<'_>,
    sn: &NodeRef<'_>,
    r_child_depth: usize,
    s_child_depth: usize,
    pairs: impl IntoIterator<Item = &'p DirPair>,
) {
    for p in pairs {
        out.push(TAG_R, rn.child(p.ir), r_child_depth);
        out.push(TAG_S, sn.child(p.js), s_child_depth);
    }
}

/// Pushes the subtree roots a mixed directory × leaf frame will query:
/// the directory child of each pair's entry, in the order the frame's
/// policy queries them — pair order for per-pair queries, with
/// consecutive repeats collapsed (a run of pairs on one entry descends
/// that child once per query, which the path buffer makes one access);
/// first-occurrence order when `seen` is given (the batched and the
/// sweep-pinned policies finish every pair of an entry before moving
/// on). `seen` is scratch, resized to the node's entry count.
pub(crate) fn push_mixed_roots(
    out: &mut ReadSchedule,
    dir_tag: u8,
    dir_node: &NodeRef<'_>,
    dir_child_depth: usize,
    pairs: &[(usize, usize)],
    seen: Option<&mut Vec<bool>>,
) {
    let mut push = |id| out.push(dir_tag, dir_node.child(id), dir_child_depth);
    match seen {
        Some(seen) => {
            seen.clear();
            seen.resize(dir_node.len(), false);
            for &(id, _) in pairs {
                if !std::mem::replace(&mut seen[id], true) {
                    push(id);
                }
            }
        }
        None => {
            let mut last = usize::MAX;
            for &(id, _) in pairs {
                if id != last {
                    push(id);
                    last = id;
                }
            }
        }
    }
}

/// Pushes the page pairs of an explicit task list (the parallel worker
/// unit): each task charges its R page then its S page when it starts.
pub(crate) fn push_tasks<'t>(
    out: &mut ReadSchedule,
    r: &RTree,
    s: &RTree,
    tasks: impl IntoIterator<Item = &'t (PageId, PageId, Rect)>,
) {
    for &(rp, sp, _) in tasks {
        out.push(TAG_R, rp, r.depth_of_level(r.node(rp).level));
        out.push(TAG_S, sp, s.depth_of_level(s.node(sp).level));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_geom::CmpCounter;

    fn pair(ir: usize, js: usize, x: f64, y: f64) -> DirPair {
        DirPair {
            ir,
            js,
            rect: Rect::from_corners(x, y, x + 1.0, y + 1.0),
        }
    }

    #[test]
    fn enumeration_schedules_leave_order_untouched() {
        let mut pairs = vec![pair(0, 1, 5.0, 5.0), pair(1, 0, 0.0, 0.0)];
        let mut scratch = OrderScratch::default();
        let mut cmp = CmpCounter::new();
        let frame = Rect::from_corners(0.0, 0.0, 10.0, 10.0);
        for plan in [
            JoinPlan::sj1(),
            JoinPlan::sj2(),
            JoinPlan::sj3(),
            JoinPlan::sj4(),
        ] {
            order_dir_pairs(&plan, &frame, &mut pairs, &mut scratch, &mut cmp);
            assert_eq!((pairs[0].ir, pairs[1].ir), (0, 1), "{}", plan.name());
        }
        assert_eq!(cmp.get(), 0, "no sort charged without a z-order plan");
    }

    #[test]
    fn zorder_schedule_sorts_and_charges_the_sort() {
        // Far-apart centres: the pair nearer the frame origin must come
        // first under local z-order.
        let mut pairs = vec![pair(0, 1, 9.0, 9.0), pair(1, 0, 0.0, 0.0)];
        let mut scratch = OrderScratch::default();
        let mut cmp = CmpCounter::new();
        let frame = Rect::from_corners(0.0, 0.0, 10.0, 10.0);
        order_dir_pairs(&JoinPlan::sj5(), &frame, &mut pairs, &mut scratch, &mut cmp);
        assert_eq!((pairs[0].ir, pairs[1].ir), (1, 0));
        assert!(cmp.get() > 0, "counted mode charges the schedule sort");
    }

    #[test]
    fn schedule_collects_and_announces() {
        use rsj_storage::NodeAccess;
        struct Recorder(Vec<PageRef>, u32);
        impl NodeAccess for Recorder {
            fn access(&mut self, _: u8, _: PageId, _: usize) -> bool {
                false
            }
            fn pin(&mut self, _: u8, _: PageId) {}
            fn unpin(&mut self, _: u8, _: PageId) {}
            fn io_stats(&self) -> rsj_storage::IoStats {
                rsj_storage::IoStats::default()
            }
            fn wants_hints(&self) -> bool {
                true
            }
            fn hint(&mut self, upcoming: &[PageRef]) {
                self.0.extend_from_slice(upcoming);
                self.1 += 1;
            }
        }
        let mut sched = ReadSchedule::default();
        let mut rec = Recorder(Vec::new(), 0);
        sched.announce(&mut rec);
        assert_eq!(rec.1, 0, "empty schedules are not announced");
        sched.push(TAG_R, PageId(3), 1);
        sched.push(TAG_S, PageId(4), 2);
        assert_eq!(sched.len(), 2);
        sched.announce(&mut rec);
        assert_eq!(rec.1, 1, "one batch per announce");
        assert_eq!(
            rec.0,
            vec![
                PageRef::new(TAG_R, PageId(3), 1),
                PageRef::new(TAG_S, PageId(4), 2)
            ]
        );
        sched.clear();
        assert!(sched.is_empty());
    }
}
