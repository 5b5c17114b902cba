//! Queries: window, point, containment, and the batched multi-window query.
//!
//! §3.2: "Let S be a query rectangle of a window query. Then, the query is
//! performed by starting in the root and computing all entries whose
//! rectangle intersects S. For these entries, the corresponding child nodes
//! are read into main memory and the query is performed like in the root
//! node unless it is a leaf node."
//!
//! Every traversal takes two hooks so callers can do the paper's
//! accounting:
//! * a [`CmpCounter`] charged by the counted rectangle tests, and
//! * an `on_access(page, level)` callback fired once per node visited, which
//!   the join crate routes into the shared [`rsj_storage::BufferPool`].
//!
//! The *multi-window* query implements policy (b) of §4.4 (spatial join of
//! trees with different heights): "for each entry E_R, all window queries
//! with query rectangles E_S.rect […] are performed in the subtree rooted in
//! E_R.ref in one step", guaranteeing each page of the subtree is read at
//! most once.

use crate::node::DataId;
use crate::tree::RTree;
use rsj_geom::{CmpCounter, Meter, Point, Rect};
use rsj_storage::PageId;

impl RTree {
    /// Window query over the whole tree: all data entries whose MBR
    /// intersects `window`. Convenience wrapper without accounting.
    pub fn window_query(&self, window: &Rect) -> Vec<DataId> {
        let mut cmp = CmpCounter::new();
        let mut out = Vec::new();
        self.window_query_from(self.root(), window, &mut cmp, &mut |_, _| {}, &mut out);
        out.into_iter().map(|(_, id)| id).collect()
    }

    /// Window query with full accounting, starting at the subtree rooted in
    /// `start`. Results are `(rect, id)` pairs.
    pub fn window_query_from<M: Meter>(
        &self,
        start: PageId,
        window: &Rect,
        cmp: &mut M,
        on_access: &mut dyn FnMut(PageId, u32),
        out: &mut Vec<(Rect, DataId)>,
    ) {
        let node = self.node(start);
        on_access(start, node.level);
        if node.is_leaf() {
            for e in &node.entries {
                if e.rect.intersects_counted(window, cmp) {
                    out.push((e.rect, e.child.data().expect("leaf entry")));
                }
            }
            return;
        }
        for e in &node.entries {
            if e.rect.intersects_counted(window, cmp) {
                self.window_query_from(Self::child_page(e), window, cmp, on_access, out);
            }
        }
    }

    /// Batched multi-window query (policy (b) of §4.4): runs all `windows`
    /// through the subtree rooted at `start` in a single traversal. Each
    /// window carries a caller-chosen tag; results are `(tag, rect, id)`.
    ///
    /// A child is descended once if *any* window intersects its MBR, and
    /// only the windows that do are propagated, so each subtree page is
    /// visited at most once regardless of how many windows qualify.
    pub fn multi_window_query_from<T: Copy, M: Meter>(
        &self,
        start: PageId,
        windows: &[(T, Rect)],
        cmp: &mut M,
        on_access: &mut dyn FnMut(PageId, u32),
        out: &mut Vec<(T, Rect, DataId)>,
    ) {
        if windows.is_empty() {
            return;
        }
        let node = self.node(start);
        on_access(start, node.level);
        if node.is_leaf() {
            for e in &node.entries {
                for (tag, w) in windows {
                    if e.rect.intersects_counted(w, cmp) {
                        out.push((*tag, e.rect, e.child.data().expect("leaf entry")));
                    }
                }
            }
            return;
        }
        let mut surviving: Vec<(T, Rect)> = Vec::new();
        for e in &node.entries {
            surviving.clear();
            for (tag, w) in windows {
                if e.rect.intersects_counted(w, cmp) {
                    surviving.push((*tag, *w));
                }
            }
            if !surviving.is_empty() {
                self.multi_window_query_from(Self::child_page(e), &surviving, cmp, on_access, out);
            }
        }
    }

    /// Point query: all data entries whose MBR contains `p`.
    pub fn point_query(&self, p: &Point) -> Vec<DataId> {
        self.window_query(&Rect::from_point(*p))
    }

    /// Containment query: all data entries whose MBR lies completely inside
    /// `window` (the containment join operator mentioned in §2.1).
    pub fn containment_query(&self, window: &Rect) -> Vec<DataId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root()];
        while let Some(page) = stack.pop() {
            let node = self.node(page);
            if node.is_leaf() {
                for e in &node.entries {
                    if window.contains(&e.rect) {
                        out.push(e.child.data().expect("leaf entry"));
                    }
                }
            } else {
                for e in &node.entries {
                    // Any child whose MBR intersects the window may hold
                    // contained entries.
                    if e.rect.intersects(window) {
                        stack.push(Self::child_page(e));
                    }
                }
            }
        }
        out
    }

    /// Number of data entries intersecting `window` (no materialization).
    pub fn count_in_window(&self, window: &Rect) -> usize {
        let mut n = 0;
        let mut stack = vec![self.root()];
        while let Some(page) = stack.pop() {
            let node = self.node(page);
            if node.is_leaf() {
                n += node
                    .entries
                    .iter()
                    .filter(|e| e.rect.intersects(window))
                    .count();
            } else {
                for e in &node.entries {
                    if e.rect.intersects(window) {
                        stack.push(Self::child_page(e));
                    }
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{InsertPolicy, RTreeParams};

    fn build_grid_tree() -> RTree {
        // 20 x 20 grid of 8x8 squares spaced 10 apart.
        let mut t = RTree::new(RTreeParams::explicit(320, 16, 6, InsertPolicy::RStar));
        for gx in 0..20u64 {
            for gy in 0..20u64 {
                let r = Rect::from_corners(
                    gx as f64 * 10.0,
                    gy as f64 * 10.0,
                    gx as f64 * 10.0 + 8.0,
                    gy as f64 * 10.0 + 8.0,
                );
                t.insert(r, DataId(gx * 100 + gy));
            }
        }
        t.validate().unwrap();
        t
    }

    fn naive_window(t: &RTree, w: &Rect) -> Vec<DataId> {
        let mut v: Vec<DataId> = t
            .data_entries()
            .into_iter()
            .filter(|(r, _)| r.intersects(w))
            .map(|(_, id)| id)
            .collect();
        v.sort();
        v
    }

    #[test]
    fn window_query_matches_naive_scan() {
        let t = build_grid_tree();
        for w in [
            Rect::from_corners(0., 0., 200., 200.),
            Rect::from_corners(15., 15., 42., 33.),
            Rect::from_corners(-50., -50., -1., -1.),
            Rect::from_corners(95., 95., 95., 95.),
        ] {
            let mut got = t.window_query(&w);
            got.sort();
            assert_eq!(got, naive_window(&t, &w), "window {w:?}");
        }
    }

    #[test]
    fn window_query_counts_accesses_and_comparisons() {
        let t = build_grid_tree();
        let mut cmp = CmpCounter::new();
        let mut pages = Vec::new();
        let mut out = Vec::new();
        let w = Rect::from_corners(0., 0., 50., 50.);
        t.window_query_from(t.root(), &w, &mut cmp, &mut |p, _| pages.push(p), &mut out);
        assert!(cmp.get() > 0);
        assert!(!pages.is_empty());
        assert_eq!(pages[0], t.root());
        assert!(pages.len() <= t.live_page_count());
    }

    #[test]
    fn multi_window_equals_separate_windows() {
        let t = build_grid_tree();
        let windows = [
            (0u32, Rect::from_corners(5., 5., 25., 25.)),
            (1u32, Rect::from_corners(100., 100., 130., 140.)),
            (2u32, Rect::from_corners(-10., -10., -5., -5.)),
            (3u32, Rect::from_corners(5., 5., 25., 25.)), // duplicate window
        ];
        let mut cmp = CmpCounter::new();
        let mut out = Vec::new();
        t.multi_window_query_from(t.root(), &windows, &mut cmp, &mut |_, _| {}, &mut out);
        for (tag, w) in &windows {
            let mut got: Vec<DataId> = out
                .iter()
                .filter(|(t_, _, _)| t_ == tag)
                .map(|(_, _, id)| *id)
                .collect();
            got.sort();
            assert_eq!(got, naive_window(&t, w), "tag {tag}");
        }
    }

    #[test]
    fn multi_window_visits_each_page_once() {
        let t = build_grid_tree();
        let windows: Vec<(u32, Rect)> = (0..10)
            .map(|i| {
                (
                    i,
                    Rect::from_corners(i as f64 * 15.0, 0.0, i as f64 * 15.0 + 30.0, 180.0),
                )
            })
            .collect();
        let mut cmp = CmpCounter::new();
        let mut visited = std::collections::HashMap::new();
        let mut out = Vec::new();
        t.multi_window_query_from(
            t.root(),
            &windows,
            &mut cmp,
            &mut |p, _| {
                *visited.entry(p).or_insert(0) += 1;
            },
            &mut out,
        );
        assert!(
            visited.values().all(|&c| c == 1),
            "a page was visited twice: {visited:?}"
        );
    }

    #[test]
    fn point_query_finds_containing_squares() {
        let t = build_grid_tree();
        let hits = t.point_query(&Point::new(14.0, 14.0));
        assert_eq!(hits, vec![DataId(101)]); // square (1,1) covers 10..18
        let gaps = t.point_query(&Point::new(9.0, 9.0)); // between squares
        assert!(gaps.is_empty());
    }

    #[test]
    fn containment_query_strict_subset_of_window() {
        let t = build_grid_tree();
        let w = Rect::from_corners(5.0, 5.0, 40.0, 40.0);
        let mut contained = t.containment_query(&w);
        contained.sort();
        // Squares fully inside: grid cells (gx,gy) with gx,gy in {1,2,3}
        // (cell k spans [10k, 10k+8], and [10,38] fits in [5,40]).
        let want: Vec<DataId> = (1..=3)
            .flat_map(|gx| (1..=3).map(move |gy| DataId(gx * 100 + gy)))
            .collect();
        assert_eq!(contained, want);
        let window_hits = t.window_query(&w);
        for id in &contained {
            assert!(window_hits.contains(id));
        }
        assert!(window_hits.len() > contained.len());
    }

    #[test]
    fn count_matches_query_len() {
        let t = build_grid_tree();
        for w in [
            Rect::from_corners(0., 0., 200., 200.),
            Rect::from_corners(33., 71., 90., 120.),
        ] {
            assert_eq!(t.count_in_window(&w), t.window_query(&w).len());
        }
    }

    #[test]
    fn empty_tree_queries() {
        let t = RTree::new(RTreeParams::explicit(320, 16, 6, InsertPolicy::RStar));
        assert!(t
            .window_query(&Rect::from_corners(0., 0., 1., 1.))
            .is_empty());
        assert_eq!(t.count_in_window(&Rect::from_corners(0., 0., 1., 1.)), 0);
    }
}
