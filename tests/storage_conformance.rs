//! Storage-backend conformance: the [`rsj_storage::NodeAccess`]
//! implementations — the in-memory [`BufferPool`] and the persistent
//! [`FileNodeAccess`] over single page files and over
//! subtree-partitioned ones ([`ShardedFileAccess`]) — must be
//! interchangeable under every join algorithm. (The shared page cache has
//! its own suite, `tests/warm_cache.rs`.)
//!
//! For SJ1–SJ5 on presets A and B the suite asserts, at the same LRU
//! capacity and from a cold start:
//!
//! * identical result-pair **multisets** across all backends (the file
//!   backend joins trees that went through a `save_to`/`open_from` round
//!   trip, so this also covers persistence fidelity);
//! * identical **`disk_accesses`** (and path/LRU hit counts) — the buffer
//!   hierarchy is the same §4.1 stack everywhere, only what a miss *does*
//!   differs.
//!
//! The file backend is additionally checked for honesty (every reported
//! disk access is a real page read), warm-cache behavior (a second run
//! without a reset does fewer disk accesses; a reset restores the cold
//! counts exactly) and typed read failure (a page that cannot be read
//! stops the cursor with an error, never a panic; the drivers that
//! return a plain result panic with it instead of returning a short
//! one).

use rsj::prelude::*;
use rsj_core::spatial_join_with_access;
use rsj_storage::{
    BufferPool, FileNodeAccess, IoStats, NodeAccess, PageFile, ShardedFileAccess, StorageError,
    TempDir,
};

const PAGE: usize = 1024;
const CAP_PAGES: usize = 16;

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

/// One cold-start counted join over an arbitrary backend.
fn run<A: NodeAccess>(
    r: &RTree,
    s: &RTree,
    plan: JoinPlan,
    access: A,
) -> (Vec<(u64, u64)>, IoStats, A) {
    let (res, access) = spatial_join_with_access(r, s, plan, true, access);
    (sorted_ids(&res.pairs), res.stats.io, access)
}

/// Shard count the sharded fixture files are partitioned into.
const SHARDS: usize = 4;

struct Fixture {
    r: RTree,
    s: RTree,
    /// Keeps the on-disk files alive for the fixture's lifetime.
    _dir: TempDir,
    r_path: std::path::PathBuf,
    s_path: std::path::PathBuf,
    /// Sharded twins of the page files (subtree partition, 4 shards).
    r_sharded: std::path::PathBuf,
    s_sharded: std::path::PathBuf,
    /// The trees reopened cold from disk.
    r_file: RTree,
    s_file: RTree,
}

impl Fixture {
    fn new(test: TestId, scale: f64) -> Fixture {
        let data = rsj::datagen::preset(test, scale);
        let r = build_tree(&data.r);
        let s = build_tree(&data.s);
        let dir = TempDir::new("conformance").unwrap();
        let (r_path, s_path) = (dir.file("r.rsj"), dir.file("s.rsj"));
        r.save_to(&r_path).unwrap();
        s.save_to(&s_path).unwrap();
        let (r_sharded, s_sharded) = (dir.file("r.sharded.rsj"), dir.file("s.sharded.rsj"));
        r.save_sharded_to(&r_sharded, SHARDS).unwrap();
        s.save_sharded_to(&s_sharded, SHARDS).unwrap();
        let r_file = RTree::open_from(&r_path).unwrap();
        let s_file = RTree::open_from(&s_path).unwrap();
        Fixture {
            r,
            s,
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
        [self.r.height() as usize, self.s.height() as usize]
    }

    fn file_access(&self) -> FileNodeAccess {
        self.file_access_with_cap(CAP_PAGES)
    }

    fn file_access_with_cap(&self, cap_pages: usize) -> FileNodeAccess {
        let files = vec![
            PageFile::open(&self.r_path).unwrap(),
            PageFile::open(&self.s_path).unwrap(),
        ];
        FileNodeAccess::with_capacity_pages(files, cap_pages, &self.heights(), EvictionPolicy::Lru)
            .unwrap()
    }

    fn sharded_access(&self) -> ShardedFileAccess {
        let files = vec![
            rsj_storage::ShardedPageFile::open(&self.r_sharded).unwrap(),
            rsj_storage::ShardedPageFile::open(&self.s_sharded).unwrap(),
        ];
        ShardedFileAccess::with_capacity_pages(
            files,
            CAP_PAGES,
            &self.heights(),
            EvictionPolicy::Lru,
        )
        .unwrap()
    }
}

#[test]
fn backends_agree_on_pairs_and_disk_accesses() {
    for (test, scale) in [(TestId::A, 0.003), (TestId::B, 0.003)] {
        let fx = Fixture::new(test, scale);
        for (plan, name) in plans() {
            let label = format!("{test:?}/{name}");

            let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.heights());
            let (want_pairs, want_io, _) = run(&fx.r, &fx.s, plan, pool);
            assert!(!want_pairs.is_empty(), "{label}: fixture must join");

            // File backend over the reopened trees.
            let (pairs, io, access) = run(&fx.r_file, &fx.s_file, plan, fx.file_access());
            assert_eq!(pairs, want_pairs, "{label}: file-backend pairs");
            assert_eq!(io, want_io, "{label}: file-backend I/O");
            // Honesty: each reported disk access was a real page read.
            let real_reads = access.file(0).reads() + access.file(1).reads();
            assert_eq!(real_reads, io.disk_accesses, "{label}: real reads");
        }
    }
}

#[test]
fn file_backend_cold_warm_and_reset() {
    let fx = Fixture::new(TestId::A, 0.003);
    let plan = JoinPlan::sj2();
    // A buffer big enough for the whole working set: the warm run must
    // then be served from memory.
    let mut access = fx.file_access_with_cap(4096);

    let (cold_pairs, cold_io, a) = run(&fx.r_file, &fx.s_file, plan, access);
    access = a;
    assert!(cold_io.disk_accesses > 0, "cold start must hit the files");

    // Warm: same accountant, LRU still populated.
    let (warm_pairs, warm_io, a) = run(&fx.r_file, &fx.s_file, plan, access);
    access = a;
    assert_eq!(warm_pairs, cold_pairs);
    assert!(
        warm_io.disk_accesses < cold_io.disk_accesses,
        "warm run must reuse the buffer: {} vs {}",
        warm_io.disk_accesses,
        cold_io.disk_accesses
    );

    // Reset: everything cold again, including the page-file counters.
    access.reset();
    assert_eq!(access.file(0).reads(), 0);
    assert_eq!(access.file(1).reads(), 0);
    let (reset_pairs, reset_io, access) = run(&fx.r_file, &fx.s_file, plan, access);
    assert_eq!(reset_pairs, cold_pairs);
    assert_eq!(
        reset_io, cold_io,
        "a reset backend must replay the cold run"
    );
    assert_eq!(
        access.file(0).reads() + access.file(1).reads(),
        reset_io.disk_accesses
    );
}

#[test]
fn raw_cursor_runs_over_the_file_backend() {
    use rsj_core::exec::RawJoinCursor;
    let fx = Fixture::new(TestId::B, 0.002);
    let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.heights());
    let (want_pairs, want_io, _) = run(&fx.r, &fx.s, JoinPlan::sj4(), pool);

    let mut cursor = RawJoinCursor::raw(&fx.r_file, &fx.s_file, JoinPlan::sj4(), fx.file_access());
    let mut pairs: Vec<(u64, u64)> = (&mut cursor).map(|(a, b)| (a.0, b.0)).collect();
    pairs.sort_unstable();
    let stats = cursor.stats();
    assert_eq!(pairs, want_pairs, "raw file-backed pairs");
    assert_eq!(stats.io, want_io, "raw file-backed I/O");
    assert_eq!(stats.join_comparisons, 0, "raw mode reports no comparisons");
}

#[test]
fn parallel_and_multiway_run_over_the_file_backend() {
    use rsj_core::{multiway_join, multiway_join_with_access, parallel_spatial_join_with_access};

    let fx = Fixture::new(TestId::A, 0.003);
    let cfg = JoinConfig::with_buffer(CAP_PAGES * PAGE);

    // Parallel: file-backed shared-nothing, each worker with its own file
    // handles and a slice of the page budget — against the in-memory
    // shared-nothing deployment with the same per-worker budget.
    let workers = 4;
    // Both deployments clamp the worker count to the number of root-entry
    // tasks; the per-worker budgets below assume no clamping happens, so
    // pin that the fixture really feeds all four workers.
    let root_tasks: usize = {
        let rn = fx.r.node(fx.r.root());
        let sn = fx.s.node(fx.s.root());
        rn.entries
            .iter()
            .map(|er| {
                sn.entries
                    .iter()
                    .filter(|es| JoinPlan::sj4().search_space(&er.rect, &es.rect).is_some())
                    .count()
            })
            .sum()
    };
    assert!(
        root_tasks >= workers,
        "fixture must give every worker a task (got {root_tasks})"
    );
    let seq = rsj_core::spatial_join(&fx.r, &fx.s, JoinPlan::sj4(), &cfg);
    let par = parallel_spatial_join_with_access(
        &fx.r_file,
        &fx.s_file,
        JoinPlan::sj4(),
        true,
        workers,
        |_w| {
            let files = vec![
                PageFile::open(&fx.r_path).unwrap(),
                PageFile::open(&fx.s_path).unwrap(),
            ];
            FileNodeAccess::with_capacity_pages(
                files,
                CAP_PAGES / workers,
                &fx.heights(),
                EvictionPolicy::Lru,
            )
            .unwrap()
        },
    );
    assert_eq!(sorted_ids(&par.pairs), sorted_ids(&seq.pairs));
    let inmem = rsj_core::parallel_spatial_join(&fx.r, &fx.s, JoinPlan::sj4(), &cfg, workers);
    assert_eq!(
        par.stats.io.disk_accesses, inmem.stats.io.disk_accesses,
        "file-backed shared-nothing matches in-memory shared-nothing I/O"
    );

    // Multiway: three relations (S probed twice), each stage over a fresh
    // file-backed accountant.
    let trees = [&fx.r, &fx.s, &fx.s];
    let want = multiway_join(&trees, JoinPlan::sj4(), &cfg);
    let file_trees = [&fx.r_file, &fx.s_file, &fx.s_file];
    let got = multiway_join_with_access(&file_trees, JoinPlan::sj4(), |stage| {
        let (files, heights): (Vec<PageFile>, Vec<usize>) = if stage == 0 {
            (
                vec![
                    PageFile::open(&fx.r_path).unwrap(),
                    PageFile::open(&fx.s_path).unwrap(),
                ],
                fx.heights().to_vec(),
            )
        } else {
            (
                vec![PageFile::open(&fx.s_path).unwrap()],
                vec![fx.s.height() as usize],
            )
        };
        FileNodeAccess::with_capacity_pages(files, CAP_PAGES, &heights, EvictionPolicy::Lru)
            .unwrap()
    });
    let tuples = |res: &MultiwayResult| {
        let mut v: Vec<Vec<u64>> = res
            .tuples
            .iter()
            .map(|t| t.iter().map(|d| d.0).collect())
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(tuples(&got), tuples(&want));
    assert_eq!(got.io.disk_accesses, want.io.disk_accesses);
    assert_eq!(got.comparisons, want.comparisons);
}

#[test]
fn sharded_backend_agrees_on_pairs_and_disk_accesses() {
    // Sharding redistributes pages over physical files but preserves the
    // global page-id space, so traversal — and with it every buffer
    // decision — is identical to the single-file backend.
    for (test, scale) in [(TestId::A, 0.003), (TestId::B, 0.003)] {
        let fx = Fixture::new(test, scale);
        // The sharded files round-trip the trees page-identically.
        let r_back = RTree::open_sharded_from(&fx.r_sharded).unwrap();
        assert_eq!(r_back.len(), fx.r.len());
        assert_eq!(r_back.root(), fx.r.root());
        for id in 0..fx.r.page_store().len() {
            let p = rsj_storage::PageId(id as u32);
            assert_eq!(r_back.node(p), fx.r.node(p), "{test:?}: page {p}");
        }
        let s_back = RTree::open_sharded_from(&fx.s_sharded).unwrap();

        for (plan, name) in plans() {
            let label = format!("{test:?}/{name}");
            let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.heights());
            let (want_pairs, want_io, _) = run(&fx.r, &fx.s, plan, pool);

            let (pairs, io, access) = run(&r_back, &s_back, plan, fx.sharded_access());
            assert_eq!(pairs, want_pairs, "{label}: sharded pairs");
            assert_eq!(io, want_io, "{label}: sharded I/O");
            // Honesty: every reported disk access was a real page read
            // from some shard.
            let real_reads = access.file(0).reads() + access.file(1).reads();
            assert_eq!(real_reads, io.disk_accesses, "{label}: real reads");
            // The reads actually spread over the shard files.
            let touched = (0..SHARDS)
                .filter(|&i| access.file(0).shard_reads(i) > 0)
                .count();
            assert!(touched > 1, "{label}: all reads landed on one shard");
        }
    }
}

#[test]
fn sharded_parallel_workers_read_disjoint_subtree_files() {
    // The point of the subtree partition: shared-nothing workers joining
    // disjoint subtree pairs pull from disjoint physical files. Run the
    // file-backed parallel join with per-worker sharded handles and pin
    // that the summed I/O matches the in-memory shared-nothing run.
    use rsj_core::parallel_spatial_join_with_access;
    let fx = Fixture::new(TestId::A, 0.003);
    let workers = 4;
    let r_back = RTree::open_sharded_from(&fx.r_sharded).unwrap();
    let s_back = RTree::open_sharded_from(&fx.s_sharded).unwrap();
    let cfg = JoinConfig::with_buffer(CAP_PAGES * PAGE);
    let seq = rsj_core::parallel_spatial_join(&fx.r, &fx.s, JoinPlan::sj4(), &cfg, workers);
    let par =
        parallel_spatial_join_with_access(&r_back, &s_back, JoinPlan::sj4(), true, workers, |_w| {
            let files = vec![
                rsj_storage::ShardedPageFile::open(&fx.r_sharded).unwrap(),
                rsj_storage::ShardedPageFile::open(&fx.s_sharded).unwrap(),
            ];
            ShardedFileAccess::with_capacity_pages(
                files,
                CAP_PAGES / workers,
                &fx.heights(),
                EvictionPolicy::Lru,
            )
            .unwrap()
        });
    assert_eq!(sorted_ids(&par.pairs), sorted_ids(&seq.pairs));
    assert_eq!(
        par.stats.io.disk_accesses, seq.stats.io.disk_accesses,
        "sharded file-backed shared-nothing matches in-memory shared-nothing I/O"
    );
}

/// Cuts a page file back to its header: every page read then fails.
fn truncate_to_header(path: &std::path::Path) {
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .unwrap()
        .set_len(rsj_storage::codec::HEADER_BYTES as u64)
        .unwrap();
}

/// The message `f` panicked with, or `None` if it returned.
fn panic_message<T>(f: impl FnOnce() -> T) -> Option<String> {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
    Some(match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload
            .downcast::<&str>()
            .map(|m| m.to_string())
            .unwrap_or_default(),
    })
}

#[test]
fn file_backend_read_failure_panics_the_result_returning_drivers() {
    // The drivers that hand back a plain result have no error channel: a
    // failed read must not come back as an ordinary-looking short result.
    let fx = Fixture::new(TestId::A, 0.003);
    let plan = JoinPlan::sj4();
    let full = run(&fx.r_file, &fx.s_file, plan, fx.file_access()).0;
    assert!(!full.is_empty());
    let workers = 2;
    let seq = fx.file_access();
    let sharded = fx.sharded_access();
    let per_worker: Vec<_> = (0..workers)
        .map(|_| std::sync::Mutex::new(Some(fx.file_access())))
        .collect();
    // Stage 0 joins S with itself; the probe stage reads R.
    let stage0 = FileNodeAccess::with_capacity_pages(
        vec![
            PageFile::open(&fx.s_path).unwrap(),
            PageFile::open(&fx.s_path).unwrap(),
        ],
        CAP_PAGES,
        &[fx.s.height() as usize; 2],
        EvictionPolicy::Lru,
    )
    .unwrap();
    let probe = FileNodeAccess::with_capacity_pages(
        vec![PageFile::open(&fx.r_path).unwrap()],
        CAP_PAGES,
        &[fx.r.height() as usize],
        EvictionPolicy::Lru,
    )
    .unwrap();
    let mut stages = [Some(stage0), Some(probe)];
    let r_back = RTree::open_sharded_from(&fx.r_sharded).unwrap();
    let s_back = RTree::open_sharded_from(&fx.s_sharded).unwrap();
    truncate_to_header(&fx.r_path);
    for i in 0..SHARDS {
        truncate_to_header(&sharded.file(0).shard_file_path(i));
    }

    let storage_failure = |msg: Option<String>, what: &str| {
        let msg = msg.unwrap_or_else(|| panic!("{what}: returned a result"));
        assert!(msg.contains("storage failure"), "{what}: {msg}");
    };
    storage_failure(
        panic_message(|| spatial_join_with_access(&fx.r_file, &fx.s_file, plan, true, seq)),
        "sequential join over a truncated file",
    );
    storage_failure(
        panic_message(|| spatial_join_with_access(&r_back, &s_back, plan, true, sharded)),
        "sequential join over truncated shard files",
    );
    // A worker's failure reaches the caller as the worker's panic.
    let msg = panic_message(|| {
        rsj_core::parallel_spatial_join_with_access(
            &fx.r_file,
            &fx.s_file,
            plan,
            true,
            workers,
            |w| per_worker[w].lock().unwrap().take().unwrap(),
        )
    });
    assert!(
        msg.as_deref()
            .is_some_and(|m| m.contains("worker panicked")),
        "parallel join over a truncated file: {msg:?}"
    );
    let msg = panic_message(|| {
        rsj_core::multiway_join_with_access(&[&fx.s_file, &fx.s_file, &fx.r_file], plan, |k| {
            stages[k].take().unwrap()
        })
    });
    assert!(
        msg.as_deref()
            .is_some_and(|m| m.contains("page read failed")),
        "multi-way probe stage over a truncated file: {msg:?}"
    );
}

/// Runs SJ4 to the end and returns the pairs yielded and the failure
/// that stopped the cursor.
fn join_until_failure<A: NodeAccess>(r: &RTree, s: &RTree, access: A) -> (usize, StorageError) {
    let mut cursor = rsj_core::exec::JoinCursor::new(r, s, JoinPlan::sj4(), access);
    let pairs = (&mut cursor).count();
    let err = cursor
        .take_error()
        .expect("a failed read must stop the cursor");
    (pairs, err)
}

#[test]
fn file_backend_read_failure_is_a_typed_cursor_error_over_single_and_sharded_files() {
    // The backend opens fine; R's file then loses every page under it.
    // The blocking file backend keeps the failed read and the cursor —
    // which holds the in-memory trees — stops with it, typed, instead of
    // panicking or joining the tree the pages no longer back.
    let fx = Fixture::new(TestId::A, 0.003);
    let access = fx.file_access();
    truncate_to_header(&fx.r_path);
    let (pairs, err) = join_until_failure(&fx.r_file, &fx.s_file, access);
    assert_eq!(pairs, 0, "the R root never read");
    assert!(matches!(err, StorageError::Io(_)), "{err}");

    // Same over the sharded layout: every shard file of R truncated.
    let r_back = RTree::open_sharded_from(&fx.r_sharded).unwrap();
    let s_back = RTree::open_sharded_from(&fx.s_sharded).unwrap();
    let access = fx.sharded_access();
    for i in 0..SHARDS {
        truncate_to_header(&access.file(0).shard_file_path(i));
    }
    let (pairs, err) = join_until_failure(&r_back, &s_back, access);
    assert_eq!(pairs, 0, "the sharded R root never read");
    assert!(matches!(err, StorageError::Io(_)), "{err}");
}
