//! Update-path conformance: incremental `insert`/`delete` through an open
//! page file must be indistinguishable — to queries, to joins, and to the
//! paper's I/O accounting — from the same updates applied to a purely
//! in-memory tree.
//!
//! For pseudo-random interleaved update sequences on presets A and B the
//! suite asserts:
//!
//! * `OpenTree` + `flush` + `open_from` yields a tree **page-for-page
//!   identical** to the in-memory oracle (same page ids, same free list);
//! * SJ1–SJ5 over the updated trees produce identical pair multisets AND
//!   identical `IoStats` whether the updated relation lives in memory
//!   (`BufferPool`), comes off the updated file (`FileNodeAccess`), or is
//!   joined from the updated files' roots alone through a
//!   `SharedPageCache` handle (nodes decoded from the pages it reads);
//! * free-list reuse really happens (deletions release pages, insertions
//!   reuse them, the file does not grow monotonically);
//! * the `sharded` backend conformance-matches on the updated files too;
//! * the sharded migration policy holds: pages stay in their birth shard,
//!   the manifest stays authoritative, fresh pages fall to the partition
//!   fallback — and none of it moves a single accounting number.

use rsj::prelude::*;
use rsj_core::exec::JoinCursor;
use rsj_core::spatial_join_with_access;
use rsj_storage::{
    partition, BufferPool, CacheConfig, IoStats, NodeAccess, PageId, ShardedPageFile,
    SharedPageCache, TempDir,
};

const PAGE: usize = 1024;
const CAP_PAGES: usize = 16;
const SHARDS: usize = 4;

fn build_tree(objs: &[rsj::datagen::SpatialObject]) -> RTree {
    let mut t = RTree::new(RTreeParams::for_page_size(PAGE));
    for o in objs {
        t.insert(o.mbr, DataId(o.id));
    }
    t
}

fn sorted_ids(pairs: &[(DataId, DataId)]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
    v.sort_unstable();
    v
}

fn plans() -> [(JoinPlan, &'static str); 5] {
    [
        (JoinPlan::sj1(), "SJ1"),
        (JoinPlan::sj2(), "SJ2"),
        (JoinPlan::sj3(), "SJ3"),
        (JoinPlan::sj4(), "SJ4"),
        (JoinPlan::sj5(), "SJ5"),
    ]
}

/// One update operation of the scripted workload.
#[derive(Clone, Copy)]
enum Op {
    Insert(Rect, DataId),
    Delete(Rect, DataId),
}

/// Deterministic pseudo-random interleaved update script over a preset
/// relation: deletes existing objects, inserts fresh ones (translated
/// copies), re-deletes some of the fresh ones — enough churn to exercise
/// splits, condense, root growth/shrink and free-list reuse.
fn update_script(objs: &[rsj::datagen::SpatialObject], ops: usize, seed: u64) -> Vec<Op> {
    let mut x = seed | 1;
    let mut rng = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut script = Vec::with_capacity(ops);
    let mut fresh: Vec<(Rect, DataId)> = Vec::new();
    let mut next_id = 1_000_000u64;
    for _ in 0..ops {
        match rng() % 3 {
            0 => {
                // Delete an existing (original) object.
                let o = &objs[(rng() as usize) % objs.len()];
                script.push(Op::Delete(o.mbr, DataId(o.id)));
            }
            1 => {
                // Insert a translated copy of an existing rectangle.
                let o = &objs[(rng() as usize) % objs.len()];
                let (dx, dy) = (
                    (rng() % 1000) as f64 / 1e6 - 0.0005,
                    (rng() % 1000) as f64 / 1e6 - 0.0005,
                );
                let r =
                    Rect::from_corners(o.mbr.xl + dx, o.mbr.yl + dy, o.mbr.xu + dx, o.mbr.yu + dy);
                let id = DataId(next_id);
                next_id += 1;
                fresh.push((r, id));
                script.push(Op::Insert(r, id));
            }
            _ => {
                // Delete a fresh object again (if any) — double churn.
                if let Some(k) = fresh.pop() {
                    script.push(Op::Delete(k.0, k.1));
                } else {
                    let o = &objs[(rng() as usize) % objs.len()];
                    script.push(Op::Delete(o.mbr, DataId(o.id)));
                }
            }
        }
    }
    script
}

fn apply_to_oracle(tree: &mut RTree, script: &[Op]) {
    for op in script {
        match *op {
            Op::Insert(r, id) => tree.insert(r, id),
            Op::Delete(r, id) => {
                tree.delete(&r, id);
            }
        }
    }
}

fn apply_to_open<B: rsj_storage::UpdateBackend>(open: &mut OpenTree<B>, script: &[Op]) {
    for op in script {
        match *op {
            Op::Insert(r, id) => open.insert(r, id).unwrap(),
            Op::Delete(r, id) => {
                open.delete(&r, id).unwrap();
            }
        }
    }
}

fn assert_page_identical(a: &RTree, b: &RTree, label: &str) {
    assert_eq!(a.allocated_pages(), b.allocated_pages(), "{label}: pages");
    assert_eq!(a.root(), b.root(), "{label}: root");
    assert_eq!(a.len(), b.len(), "{label}: len");
    assert_eq!(
        a.page_store().free_pages(),
        b.page_store().free_pages(),
        "{label}: free list"
    );
    for id in 0..a.allocated_pages() {
        let p = PageId(id as u32);
        assert_eq!(a.node(p), b.node(p), "{label}: page {p}");
    }
}

/// One cold counted join over an arbitrary backend.
fn run<A: NodeAccess>(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    access: A,
) -> (Vec<(u64, u64)>, IoStats, A) {
    let (res, access) = spatial_join_with_access(r, s, plan, true, access);
    (sorted_ids(&res.pairs), res.stats.io, access)
}

#[test]
fn updated_open_trees_join_identically_to_in_memory_oracles() {
    for (test, scale, seed) in [(TestId::A, 0.003, 7u64), (TestId::B, 0.003, 11)] {
        let data = rsj::datagen::preset(test, scale);
        let (r0, s0) = (build_tree(&data.r), build_tree(&data.s));
        let dir = TempDir::new("update-conf").unwrap();
        let (rp, sp) = (dir.file("r.rsj"), dir.file("s.rsj"));
        r0.save_to(&rp).unwrap();
        s0.save_to(&sp).unwrap();

        // Oracles: in-memory updates on BOTH relations.
        let (mut r_oracle, mut s_oracle) = (r0.clone(), s0.clone());
        let r_script = update_script(&data.r, 240, seed);
        let s_script = update_script(&data.s, 240, seed ^ 0xDEAD_BEEF);
        apply_to_oracle(&mut r_oracle, &r_script);
        apply_to_oracle(&mut s_oracle, &s_script);

        // Device under test: the same updates through the open files.
        let mut r_open = OpenFileTree::open(&rp, CAP_PAGES).unwrap();
        let mut s_open = OpenFileTree::open(&sp, CAP_PAGES).unwrap();
        apply_to_open(&mut r_open, &r_script);
        apply_to_open(&mut s_open, &s_script);
        let upd_io = r_open.io_stats();
        assert!(upd_io.disk_accesses > 0, "{test:?}: updates charge reads");
        r_open.flush().unwrap();
        s_open.flush().unwrap();
        assert!(
            r_open.io_stats().page_writes > 0,
            "{test:?}: updates write pages"
        );
        // Free-list reuse was exercised by the script.
        let real_writes = r_open.access().file(0).writes() + s_open.access().file(0).writes();
        assert!(real_writes > 0, "{test:?}: physical writes happened");
        drop(r_open);
        drop(s_open);

        // Reopened trees are page-identical to the oracles.
        let r_file = RTree::open_from(&rp).unwrap();
        let s_file = RTree::open_from(&sp).unwrap();
        r_file.validate().unwrap();
        s_file.validate().unwrap();
        assert_page_identical(&r_file, &r_oracle, &format!("{test:?}/R"));
        assert_page_identical(&s_file, &s_oracle, &format!("{test:?}/S"));

        // SJ1–SJ5: identical pairs AND identical IoStats, memory vs file
        // vs cache. The cache joins from the roots it reads off the
        // updated files, so no in-memory tree feeds that leg.
        let heights = [r_oracle.height() as usize, s_oracle.height() as usize];
        let root = |p: &std::path::Path| TreeRoot::load(&mut PageFile::open(p).unwrap()).unwrap();
        let (r_root, s_root) = (root(&rp), root(&sp));
        let cache = SharedPageCache::open(
            &[rp.clone(), sp.clone()],
            CAP_PAGES,
            &heights,
            CacheConfig {
                shards: 1,
                ..CacheConfig::default()
            },
        )
        .unwrap();
        for (plan, name) in plans() {
            let label = format!("{test:?}/{name}");
            let pool = BufferPool::with_capacity_pages(CAP_PAGES, &heights);
            let (want_pairs, want_io, _) = run(&r_oracle, &s_oracle, plan, pool);
            assert!(!want_pairs.is_empty(), "{label}: updated fixture joins");

            let files = vec![PageFile::open(&rp).unwrap(), PageFile::open(&sp).unwrap()];
            let access = FileNodeAccess::with_capacity_pages(
                files,
                CAP_PAGES,
                &heights,
                EvictionPolicy::Lru,
            )
            .unwrap();
            let (pairs, io, access) = run(&r_file, &s_file, plan, access);
            assert_eq!(pairs, want_pairs, "{label}: pairs");
            assert_eq!(io, want_io, "{label}: IoStats");
            let real = access.file(0).reads() + access.file(1).reads();
            assert_eq!(real, io.disk_accesses, "{label}: honest reads");

            // A cold cache handle over the updated files agrees too.
            cache.clear();
            let mut cursor =
                JoinCursor::from_roots(&r_root, &s_root, plan, cache.handle(CAP_PAGES));
            let pairs: Vec<_> = cursor.by_ref().collect();
            assert!(cursor.error().is_none(), "{label}: {:?}", cursor.error());
            assert_eq!(sorted_ids(&pairs), want_pairs, "{label}: cache pairs");
            assert_eq!(cursor.stats().io, want_io, "{label}: cache IoStats");
        }
    }
}

#[test]
fn delete_heavy_churn_is_bounded_by_free_list_reuse() {
    let data = rsj::datagen::preset(TestId::A, 0.003);
    let tree = build_tree(&data.r);
    let dir = TempDir::new("update-churn").unwrap();
    let path = dir.file("r.rsj");
    tree.save_to(&path).unwrap();
    let mut open = OpenFileTree::open(&path, CAP_PAGES).unwrap();
    let before = open.access().file(0).page_count();
    let n = data.r.len().min(200);
    let mut reused = 0usize;
    for round in 0..4 {
        for o in data.r.iter().take(n) {
            open.delete(&o.mbr, DataId(o.id)).unwrap();
        }
        let freed = open.tree().free_page_count();
        assert!(freed > 0, "round {round}: deletions must release pages");
        for o in data.r.iter().take(n) {
            open.insert(o.mbr, DataId(o.id)).unwrap();
        }
        reused += freed.saturating_sub(open.tree().free_page_count());
    }
    open.flush().unwrap();
    let after = open.access().file(0).page_count();
    assert!(reused > 0, "insertions must reuse released pages");
    assert!(
        u64::from(after) <= u64::from(before) + 16,
        "churn must not grow the file monotonically: {before} -> {after}"
    );
    drop(open);
    let back = RTree::open_from(&path).unwrap();
    back.validate().unwrap();
    assert_eq!(back.len(), tree.len());
}

#[test]
fn sharded_backend_conformance_and_migration_policy_on_updated_files() {
    let data = rsj::datagen::preset(TestId::A, 0.003);
    let (r0, s0) = (build_tree(&data.r), build_tree(&data.s));
    let dir = TempDir::new("update-sharded").unwrap();
    let (rb, sb) = (dir.file("r.sharded.rsj"), dir.file("s.sharded.rsj"));
    r0.save_sharded_to(&rb, SHARDS).unwrap();
    s0.save_sharded_to(&sb, SHARDS).unwrap();
    let initial_pages = r0.allocated_pages() as u32;

    let script = update_script(&data.r, 260, 41);
    let mut r_oracle = r0.clone();
    apply_to_oracle(&mut r_oracle, &script);
    let mut r_open = OpenShardedTree::open_sharded(&rb, CAP_PAGES).unwrap();
    apply_to_open(&mut r_open, &script);
    r_open.close().unwrap();

    // Reopen: page-identical to the oracle, across shards.
    let r_file = RTree::open_sharded_from(&rb).unwrap();
    r_file.validate().unwrap();
    assert_page_identical(&r_file, &r_oracle, "sharded/R");

    // Migration policy: the manifest is authoritative. After this much
    // churn, at least one live page sits on a shard a *fresh* subtree
    // partition would no longer choose (it stayed in its birth shard)...
    let manifest = ShardedPageFile::open(&rb).unwrap();
    let fresh_assignment = r_oracle.shard_assignment(SHARDS);
    let migrated = (0..r_oracle.allocated_pages())
        .filter(|&id| {
            let p = PageId(id as u32);
            manifest.shard_of(p).unwrap() != usize::from(fresh_assignment[id])
        })
        .count();
    assert!(
        migrated > 0,
        "churn this heavy must leave some page outside its fresh subtree shard"
    );
    // ...and pages appended during updates carry the partition fallback.
    assert!(manifest.page_count() >= initial_pages);
    for id in initial_pages..manifest.page_count() {
        let got = manifest.shard_of(PageId(id)).unwrap();
        assert_eq!(
            got,
            partition(u64::from(id), SHARDS),
            "fresh page {id} must use the partition fallback shard"
        );
    }
    drop(manifest);

    // And none of that moves the accounting: sharded joins on the updated
    // files match the in-memory oracle bit-for-bit.
    let heights = [r_oracle.height() as usize, s0.height() as usize];
    for (plan, name) in [(JoinPlan::sj2(), "SJ2"), (JoinPlan::sj4(), "SJ4")] {
        let pool = BufferPool::with_capacity_pages(CAP_PAGES, &heights);
        let (want_pairs, want_io, _) = run(&r_oracle, &s0, plan, pool);
        let access = ShardedFileAccess::with_capacity_pages(
            vec![
                ShardedPageFile::open(&rb).unwrap(),
                ShardedPageFile::open(&sb).unwrap(),
            ],
            CAP_PAGES,
            &heights,
            EvictionPolicy::Lru,
        )
        .unwrap();
        let (pairs, io, access) = run(&r_file, &s0, plan, access);
        assert_eq!(pairs, want_pairs, "{name}: sharded pairs on updated file");
        assert_eq!(io, want_io, "{name}: sharded IoStats on updated file");
        let real = access.file(0).reads() + access.file(1).reads();
        assert_eq!(real, io.disk_accesses, "{name}: honest reads");
    }
}

#[test]
fn post_update_cold_join_equals_a_freshly_saved_tree() {
    // The CI bench guard's counterpart in test form: a tree updated in
    // place and a fresh `save_to` of the identically-updated in-memory
    // tree are interchangeable — same cold SJ2 disk accesses.
    let data = rsj::datagen::preset(TestId::A, 0.003);
    let (r0, s0) = (build_tree(&data.r), build_tree(&data.s));
    let dir = TempDir::new("update-vs-fresh").unwrap();
    let (rp, sp) = (dir.file("r.rsj"), dir.file("s.rsj"));
    r0.save_to(&rp).unwrap();
    s0.save_to(&sp).unwrap();
    let script = update_script(&data.r, 220, 99);
    let mut oracle = r0.clone();
    apply_to_oracle(&mut oracle, &script);
    let mut open = OpenFileTree::open(&rp, CAP_PAGES).unwrap();
    apply_to_open(&mut open, &script);
    open.close().unwrap();

    let fresh_path = dir.file("r.fresh.rsj");
    oracle.save_to(&fresh_path).unwrap();

    let heights = [oracle.height() as usize, s0.height() as usize];
    let join_cold = |r_path: &std::path::Path| {
        let tree = RTree::open_from(r_path).unwrap();
        let access = FileNodeAccess::with_capacity_pages(
            vec![
                PageFile::open(r_path).unwrap(),
                PageFile::open(&sp).unwrap(),
            ],
            CAP_PAGES,
            &heights,
            EvictionPolicy::Lru,
        )
        .unwrap();
        run(&tree, &s0, JoinPlan::sj2(), access)
    };
    let (pairs_updated, io_updated, _) = join_cold(&rp);
    let (pairs_fresh, io_fresh, _) = join_cold(&fresh_path);
    assert_eq!(pairs_updated, pairs_fresh);
    assert_eq!(
        io_updated.disk_accesses, io_fresh.disk_accesses,
        "post-update cold SJ2 disk accesses equal a freshly saved tree's"
    );
    assert_eq!(io_updated, io_fresh, "full IoStats agree");
}
