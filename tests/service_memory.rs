//! Out-of-core memory gate: a [`JoinService`] joins from the pages its
//! frame pool reads, so its peak resident memory follows the pool, not
//! the trees on disk.
//!
//! The test re-executes its own binary once per run, so each run's peak
//! resident set (`VmHWM` in `/proc/self/status`) belongs to one process
//! that did nothing but open the service and answer one query. Both runs
//! use the same pool; one joins trees about the size of the pool, the
//! other trees many times larger. The gate: the difference between the
//! two peaks is below a quarter of the difference between the two
//! runs' tree file bytes. A service that loaded the trees whole would
//! grow by about the tree bytes; one bounded by its pool grows by little.

use std::path::{Path, PathBuf};
use std::process::Command;

use rsj::prelude::*;
use rsj::rtree::bulk;
use rsj_storage::TempDir;

/// Selects the child role and names its two tree files.
const CHILD_ENV: &str = "RSJ_SERVICE_MEMORY_CHILD";
const TEST_NAME: &str = "peak_rss_follows_the_pool_not_the_trees";
const PAGE: usize = 4096;
/// Frame-pool capacity in pages, the same for both runs.
const CACHE_PAGES: usize = 64;

/// `n` unit-spaced squares on a grid; with `shift` 0.3 each square of
/// one relation meets exactly the same-index square of the other.
fn items(n: usize, shift: f64) -> Vec<(Rect, DataId)> {
    let side = (n as f64).sqrt().ceil() as usize;
    (0..n)
        .map(|i| {
            let (x, y) = ((i % side) as f64 + shift, (i / side) as f64 + shift);
            (Rect::from_corners(x, y, x + 0.6, y + 0.6), DataId(i as u64))
        })
        .collect()
}

/// Bulk-builds both relations of `n` rectangles straight to disk; the
/// paths and the two files' total bytes.
fn build(dir: &TempDir, tag: &str, n: usize) -> ([PathBuf; 2], u64) {
    let paths = [
        dir.file(&format!("{tag}-r.rsj")),
        dir.file(&format!("{tag}-s.rsj")),
    ];
    let mut bytes = 0;
    for (path, shift) in paths.iter().zip([0.0, 0.3]) {
        bulk::str_load_to_file(
            RTreeParams::for_page_size(PAGE),
            &items(n, shift),
            1.0,
            path,
        )
        .expect("bulk build");
        bytes += std::fs::metadata(path).expect("tree file").len();
    }
    (paths, bytes)
}

/// `VmHWM` of this process in KiB, if the platform reports it.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The child's whole life: open the service, count one query's pairs
/// without keeping them, report the pair count and the peak.
fn child(spec: &str) {
    let (r, s) = spec.split_once('\n').expect("two paths");
    let svc = JoinService::open(
        Path::new(r),
        Path::new(s),
        ServiceConfig {
            cache_pages: CACHE_PAGES,
            ..ServiceConfig::default()
        },
    )
    .expect("open service");
    let mut pairs = 0u64;
    svc.execute_streaming(JoinPlan::sj4(), |_, _| pairs += 1)
        .expect("query");
    println!(
        "child-report pairs={pairs} peak_kib={}",
        peak_rss_kib().expect("VmHWM")
    );
}

/// Runs one child over `paths`; its pair count and peak RSS in KiB.
fn run_child(paths: &[PathBuf; 2]) -> (u64, u64) {
    let spec = format!("{}\n{}", paths[0].display(), paths[1].display());
    let out = Command::new(std::env::current_exe().expect("test binary"))
        .args([TEST_NAME, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, spec)
        .output()
        .expect("child runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = stdout
        .lines()
        .find_map(|l| l.split_once("child-report ").map(|(_, report)| report))
        .unwrap_or_else(|| panic!("no child report in: {stdout}"));
    let field = |key: &str| -> u64 {
        report
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {key} in {report}"))
    };
    (field("pairs="), field("peak_kib="))
}

#[test]
fn peak_rss_follows_the_pool_not_the_trees() {
    if let Ok(spec) = std::env::var(CHILD_ENV) {
        child(&spec);
        return;
    }
    if peak_rss_kib().is_none() {
        eprintln!("skipping: /proc/self/status reports no VmHWM on this platform");
        return;
    }
    let dir = TempDir::new("service-memory").unwrap();
    // ~100 entries per 4 KiB page: 4,000 rectangles a side fill about
    // the pool's 64 pages in all (the join reads ~40 of them); 120,000 a
    // side are ~37 times the pool. Past a fixed amount of per-query
    // state, a pool-bounded service stays flat between the two.
    let (small_n, large_n) = (4_000, 120_000);
    let (small, small_bytes) = build(&dir, "small", small_n);
    let (large, large_bytes) = build(&dir, "large", large_n);
    let pool_bytes = (CACHE_PAGES * PAGE) as u64;
    assert!(
        large_bytes >= 8 * pool_bytes,
        "large trees must be at least 8x the pool: {large_bytes} vs {pool_bytes}"
    );
    assert!(
        small_bytes <= 2 * pool_bytes,
        "small trees must be about the pool: {small_bytes} vs {pool_bytes}"
    );

    let (small_pairs, small_kib) = run_child(&small);
    let (large_pairs, large_kib) = run_child(&large);
    assert_eq!(small_pairs, small_n as u64);
    assert_eq!(large_pairs, large_n as u64);

    let grown = large_kib.saturating_sub(small_kib) * 1024;
    let tree_growth = large_bytes - small_bytes;
    eprintln!(
        "peak RSS {small_kib} KiB -> {large_kib} KiB over trees of \
         {small_bytes} -> {large_bytes} bytes ({CACHE_PAGES}-page pool)"
    );
    assert!(
        grown < tree_growth / 4,
        "peak RSS grew {grown} bytes for {tree_growth} more bytes of tree"
    );
}
