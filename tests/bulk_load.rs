//! Bulk-built-file conformance: trees produced by the *streaming* bulk
//! loaders (`load_to_file` / `load_to_sharded` — pages emitted bottom-up
//! through `BulkPageWriter`, never a whole tree in RAM) must be
//! indistinguishable from their in-memory `str_load`/`hilbert_load`
//! counterparts once opened:
//!
//! * `RTree::open_from` / `open_sharded_from` loads are validator-clean
//!   and hold the identical data-entry multiset;
//! * SJ1–SJ5 over presets A and B produce pair multisets bit-identical to
//!   the in-memory join over the same items, through **every** file
//!   backend: plain file, sharded, and the latched shared page cache.
//!
//! Exact `IoStats` are *not* pinned against the in-memory tree: the
//! streaming STR build keeps the order its leaf packing induces for upper
//! levels (no re-tiling pass), so page layout — and with it buffer
//! behaviour — legitimately differs. Results may not.

use rsj::prelude::*;
use rsj::rtree::bulk::{self, BulkConfig, BulkLayout};
use rsj_core::spatial_join_with_access;
use rsj_storage::{
    BufferPool, CacheConfig, FileNodeAccess, NodeAccess, PageFile, ShardedFileAccess,
    ShardedPageFile, SharedPageCache, TempDir,
};

const PAGE: usize = 1024;
const CAP_PAGES: usize = 16;
const SHARDS: usize = 4;

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

fn run<A: NodeAccess>(r: &RTree, s: &RTree, plan: JoinPlan, access: A) -> Vec<(u64, u64)> {
    let (res, _) = spatial_join_with_access(r, s, plan, true, access);
    sorted_ids(&res.pairs)
}

struct Fixture {
    layout: BulkLayout,
    /// The in-memory bulk-loaded trees — the join oracle.
    r_mem: RTree,
    s_mem: RTree,
    _dir: TempDir,
    r_path: std::path::PathBuf,
    s_path: std::path::PathBuf,
    r_sharded: std::path::PathBuf,
    s_sharded: std::path::PathBuf,
    /// The streamed files reopened cold.
    r_file: RTree,
    s_file: RTree,
}

impl Fixture {
    fn new(test: TestId, scale: f64, layout: BulkLayout) -> Fixture {
        let data = rsj::datagen::preset(test, scale);
        let items = |objs: &[rsj::datagen::SpatialObject]| {
            objs.iter()
                .map(|o| (o.mbr, DataId(o.id)))
                .collect::<Vec<_>>()
        };
        let (items_r, items_s) = (items(&data.r), items(&data.s));
        let params = RTreeParams::for_page_size(PAGE);
        let mem = |it: &[(rsj_geom::Rect, DataId)]| match layout {
            BulkLayout::Str => bulk::str_load(params, it, bulk::DEFAULT_FILL).unwrap(),
            BulkLayout::Hilbert => bulk::hilbert_load(params, it, bulk::DEFAULT_FILL).unwrap(),
        };
        let (r_mem, s_mem) = (mem(&items_r), mem(&items_s));

        let dir = TempDir::new("bulk-conformance").unwrap();
        let (r_path, s_path) = (dir.file("r.rsj"), dir.file("s.rsj"));
        let (r_sharded, s_sharded) = (dir.file("r.sharded.rsj"), dir.file("s.sharded.rsj"));
        let cfg = BulkConfig::default();
        bulk::load_to_file(params, &items_r, layout, cfg, &r_path).unwrap();
        bulk::load_to_file(params, &items_s, layout, cfg, &s_path).unwrap();
        bulk::load_to_sharded(params, &items_r, layout, cfg, &r_sharded, SHARDS).unwrap();
        bulk::load_to_sharded(params, &items_s, layout, cfg, &s_sharded, SHARDS).unwrap();

        let r_file = RTree::open_from(&r_path).unwrap();
        let s_file = RTree::open_from(&s_path).unwrap();
        Fixture {
            layout,
            r_mem,
            s_mem,
            _dir: dir,
            r_path,
            s_path,
            r_sharded,
            s_sharded,
            r_file,
            s_file,
        }
    }

    fn heights(&self) -> [usize; 2] {
        [self.r_file.height() as usize, self.s_file.height() as usize]
    }

    fn files(&self) -> Vec<PageFile> {
        vec![
            PageFile::open(&self.r_path).unwrap(),
            PageFile::open(&self.s_path).unwrap(),
        ]
    }
}

/// Sorted data-entry multiset of a tree.
fn entry_multiset(t: &RTree) -> Vec<(u64, [u64; 4])> {
    let mut v: Vec<(u64, [u64; 4])> = t
        .data_entries()
        .iter()
        .map(|(r, d)| {
            (
                d.0,
                [
                    r.xl.to_bits(),
                    r.yl.to_bits(),
                    r.xu.to_bits(),
                    r.yu.to_bits(),
                ],
            )
        })
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn streamed_files_load_validator_clean_with_identical_entries() {
    for (test, layout) in [
        (TestId::A, BulkLayout::Str),
        (TestId::A, BulkLayout::Hilbert),
        (TestId::B, BulkLayout::Str),
        (TestId::B, BulkLayout::Hilbert),
    ] {
        let fx = Fixture::new(test, 0.003, layout);
        let tag = format!("{test:?}/{:?}", fx.layout);
        for (t, name) in [(&fx.r_file, "R"), (&fx.s_file, "S")] {
            t.validate().unwrap_or_else(|e| panic!("{tag}/{name}: {e}"));
        }
        assert_eq!(
            entry_multiset(&fx.r_file),
            entry_multiset(&fx.r_mem),
            "{tag}: R entries"
        );
        assert_eq!(
            entry_multiset(&fx.s_file),
            entry_multiset(&fx.s_mem),
            "{tag}: S entries"
        );
        // The sharded twin carries the same tree.
        let r_back = RTree::open_sharded_from(&fx.r_sharded).unwrap();
        r_back.validate().unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(
            entry_multiset(&r_back),
            entry_multiset(&fx.r_mem),
            "{tag}: sharded R entries"
        );
    }
}

#[test]
fn bulk_files_join_identically_across_all_backends() {
    for (test, layout) in [
        (TestId::A, BulkLayout::Str),
        (TestId::A, BulkLayout::Hilbert),
        (TestId::B, BulkLayout::Str),
        (TestId::B, BulkLayout::Hilbert),
    ] {
        let fx = Fixture::new(test, 0.003, layout);
        let cache = SharedPageCache::open(
            &[fx.r_path.clone(), fx.s_path.clone()],
            CAP_PAGES,
            &fx.heights(),
            CacheConfig {
                workers: 1,
                ..CacheConfig::default()
            },
        )
        .unwrap();
        let r_shard_tree = RTree::open_sharded_from(&fx.r_sharded).unwrap();
        let s_shard_tree = RTree::open_sharded_from(&fx.s_sharded).unwrap();
        for (plan, name) in plans() {
            let tag = format!("{test:?}/{:?}/{name}", fx.layout);

            // Oracle: the in-memory bulk tree through the BufferPool.
            let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.heights());
            let want = run(&fx.r_mem, &fx.s_mem, plan, pool);
            assert!(!want.is_empty(), "{tag}: fixture must join");

            // Plain file backend.
            let file = FileNodeAccess::with_capacity_pages(
                fx.files(),
                CAP_PAGES,
                &fx.heights(),
                EvictionPolicy::Lru,
            )
            .unwrap();
            assert_eq!(run(&fx.r_file, &fx.s_file, plan, file), want, "{tag}: file");

            // Sharded backend over the streamed sharded twins.
            let sharded = ShardedFileAccess::with_capacity_pages(
                vec![
                    ShardedPageFile::open(&fx.r_sharded).unwrap(),
                    ShardedPageFile::open(&fx.s_sharded).unwrap(),
                ],
                CAP_PAGES,
                &fx.heights(),
                EvictionPolicy::Lru,
            )
            .unwrap();
            assert_eq!(
                run(&r_shard_tree, &s_shard_tree, plan, sharded),
                want,
                "{tag}: sharded"
            );

            // Latched shared page cache.
            cache.clear();
            assert_eq!(
                run(&fx.r_file, &fx.s_file, plan, cache.handle(CAP_PAGES)),
                want,
                "{tag}: shared cache"
            );
        }
    }
}
