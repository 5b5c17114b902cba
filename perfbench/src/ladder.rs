//! The layer ladder: one query run up the stack, rung by rung, so that a
//! layer's cost is the time difference between two adjacent rungs.
//!
//! raw kernel → counted cursor → `FileNodeAccess` → `SharedPageCache`
//! handle → `JoinService`, cold and warm, with and without injected read
//! latency. Rounds visit every rung once, in a fixed order, so machine
//! drift lands on all rungs alike; each rung reports its median and MAD
//! over the rounds, each layer the median of its per-round differences.
//!
//! "Cold" means fresh handles and an empty frame pool; "warm" means reused
//! handles and, for the frame pool, every page resident. The operating
//! system's page cache is warm for both: the injected latency stands in
//! for the device.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rsj_core::exec::JoinCursor;
use rsj_rtree::RTree;
use rsj_service::JoinService;
use rsj_storage::{
    CacheConfig, EvictionPolicy, FileNodeAccess, NodeAccess, PageFile, SharedPageCache,
    READ_LATENCY_ENV,
};

use crate::data::{plan, Oracle, HANDLE_PAGES};
use crate::stats::{mad, median};
use crate::trace::{Sheet, Tracer};

/// The rungs, in visiting order. A cold rung comes right before its warm
/// twin, which then finds what the cold run left behind.
const RUNGS: [&str; 11] = [
    "raw",
    "counted",
    "file_cold",
    "file_warm",
    "file_cold_ms.lat",
    "file_warm_ms.lat",
    "cache_cold",
    "cache_warm",
    "cache_cold_ms.lat",
    "service_cold",
    "service_warm",
];

fn metric_name(rung: &str) -> String {
    if rung.ends_with(".lat") {
        format!("ladder.{rung}")
    } else {
        format!("ladder.{rung}_ms")
    }
}

/// Everything the rungs run against.
pub struct Ladder<'a> {
    pub r: &'a RTree,
    pub s: &'a RTree,
    pub r_path: &'a Path,
    pub s_path: &'a Path,
    pub oracle: &'a Oracle,
    pub latency: Duration,
    /// A service whose frame pool holds the working set.
    pub svc: &'a JoinService,
}

fn open_files(paths: [&Path; 2], latency: Option<Duration>) -> Vec<PageFile> {
    paths
        .iter()
        .map(|p| {
            let mut f = PageFile::open(p).expect("open page file for the ladder");
            f.set_read_latency(latency);
            f
        })
        .collect()
}

/// Opens a working-set frame pool whose queue lanes sleep `latency` per
/// read (the lanes take the latency from the environment when they open
/// their files).
fn open_cache(
    paths: [&Path; 2],
    pages: usize,
    heights: &[usize],
    latency: Option<Duration>,
) -> Arc<SharedPageCache> {
    let before = std::env::var(READ_LATENCY_ENV).ok();
    match latency {
        Some(l) => std::env::set_var(READ_LATENCY_ENV, l.as_micros().to_string()),
        None => std::env::remove_var(READ_LATENCY_ENV),
    }
    let cache = SharedPageCache::open(
        &[paths[0].to_path_buf(), paths[1].to_path_buf()],
        pages,
        heights,
        CacheConfig {
            shards: 1,
            ..CacheConfig::default()
        },
    )
    .expect("open the ladder's frame pool");
    match before {
        Some(v) => std::env::set_var(READ_LATENCY_ENV, v),
        None => std::env::remove_var(READ_LATENCY_ENV),
    }
    cache
}

impl Ladder<'_> {
    /// Drives a counted cursor to the last pair and checks it.
    fn counted<A: NodeAccess>(&self, access: A) {
        let mut cursor = JoinCursor::new(self.r, self.s, plan(), access);
        let pairs = (&mut cursor).count() as u64;
        let st = cursor.stats();
        assert!(
            pairs == self.oracle.pairs
                && st.io == self.oracle.io
                && st.total_comparisons() == self.oracle.comparisons(),
            "ladder rung disagrees with the oracle"
        );
    }

    /// Runs rounds until `budget` is spent (at least `min_rounds`), then
    /// reports every rung and every layer delta into `sheet`.
    pub fn run(&self, budget: Duration, min_rounds: usize, tracer: &Tracer, sheet: &mut Sheet) {
        let heights = [self.r.height() as usize, self.s.height() as usize];
        let paths = [self.r_path, self.s_path];
        let lat = Some(self.latency);
        let ws = (PageFile::open(self.r_path).expect("open R").page_count()
            + PageFile::open(self.s_path).expect("open S").page_count()) as usize;
        let mut file_warm = FileNodeAccess::with_capacity_pages(
            open_files(paths, None),
            HANDLE_PAGES,
            &heights,
            EvictionPolicy::Lru,
        )
        .expect("file backend");
        let mut file_warm_lat = FileNodeAccess::with_capacity_pages(
            open_files(paths, lat),
            HANDLE_PAGES,
            &heights,
            EvictionPolicy::Lru,
        )
        .expect("file backend with latency");
        let cache = open_cache(paths, ws, &heights, None);
        let cache_lat = open_cache(paths, ws, &heights, lat);

        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < min_rounds || (start.elapsed() < budget && rounds < 25) {
            for (i, rung) in RUNGS.iter().enumerate() {
                let span = tracer.root(rung);
                let t = Instant::now();
                match *rung {
                    "raw" => {
                        let pool =
                            rsj_storage::BufferPool::with_capacity_pages(HANDLE_PAGES, &heights);
                        let mut cursor = JoinCursor::raw(self.r, self.s, plan(), pool);
                        let pairs = (&mut cursor).count() as u64;
                        assert_eq!(pairs, self.oracle.pairs, "raw rung pair count");
                    }
                    "counted" => {
                        self.counted(rsj_storage::BufferPool::with_capacity_pages(
                            HANDLE_PAGES,
                            &heights,
                        ));
                    }
                    "file_cold" | "file_cold_ms.lat" => {
                        let l = if rung.ends_with(".lat") { lat } else { None };
                        let acc = FileNodeAccess::with_capacity_pages(
                            open_files(paths, l),
                            HANDLE_PAGES,
                            &heights,
                            EvictionPolicy::Lru,
                        )
                        .expect("file backend");
                        self.counted(acc);
                    }
                    "file_warm" => {
                        file_warm.reset();
                        self.counted(&mut file_warm);
                    }
                    "file_warm_ms.lat" => {
                        file_warm_lat.reset();
                        self.counted(&mut file_warm_lat);
                    }
                    "cache_cold" | "cache_cold_ms.lat" => {
                        let c = if rung.ends_with(".lat") {
                            &cache_lat
                        } else {
                            &cache
                        };
                        c.clear();
                        let h = tracer.wrap(&span, "cache.handle", || c.handle(HANDLE_PAGES));
                        tracer.wrap(&span, "cursor.drive", || self.counted(h));
                    }
                    "cache_warm" => {
                        let h = tracer.wrap(&span, "cache.handle", || cache.handle(HANDLE_PAGES));
                        tracer.wrap(&span, "cursor.drive", || self.counted(h));
                    }
                    "service_cold" | "service_warm" => {
                        if *rung == "service_cold" {
                            self.svc.cache().clear();
                        }
                        let resp = tracer
                            .wrap(&span, "service.execute", || self.svc.execute(plan(), true));
                        let resp = resp.expect("ladder service query");
                        if let Err(e) = self.oracle.check(&resp.pairs, &resp.stats) {
                            panic!("ladder service rung: {e}");
                        }
                    }
                    other => unreachable!("unknown rung {other}"),
                }
                samples[i].push(t.elapsed().as_secs_f64() * 1e3);
                tracer.end(span);
            }
            rounds += 1;
        }

        for (rung, v) in RUNGS.iter().zip(&samples) {
            let name = metric_name(rung);
            sheet.put(name.clone(), median(v), "ms");
            sheet.put(format!("{name}.mad"), mad(v), "ms");
        }
        let col = |rung: &str| -> &Vec<f64> {
            &samples[RUNGS.iter().position(|r| *r == rung).expect("rung")]
        };
        let delta = |hi: &str, lo: &str| -> f64 {
            let d: Vec<f64> = col(hi).iter().zip(col(lo)).map(|(a, b)| a - b).collect();
            median(&d)
        };
        sheet.put("ladder.rounds", rounds as f64, "count");
        sheet.put("layer.meter_ms", delta("counted", "raw"), "ms");
        sheet.put("layer.file_ms", delta("file_cold", "counted"), "ms");
        sheet.put(
            "layer.file_ms.lat",
            delta("file_cold_ms.lat", "counted"),
            "ms",
        );
        sheet.put(
            "layer.completion_ms",
            delta("cache_cold_ms.lat", "file_cold_ms.lat"),
            "ms",
        );
        sheet.put("layer.frames_ms", delta("cache_warm", "counted"), "ms");
        sheet.put(
            "layer.service_ms",
            delta("service_warm", "cache_warm"),
            "ms",
        );
    }
}
