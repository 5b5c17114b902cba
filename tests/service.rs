//! Service conformance: [`JoinService`] answers queries over the warm
//! shared cache with the paper's accounting intact — per-query
//! [`JoinStats`] bit-identical to the private [`BufferPool`] oracle
//! *with telemetry enabled* — while the serving behaviors (warm zero
//! physical reads, bounded admission, typed overload, panic-safe
//! permits, text exposition) hold around it.

use std::sync::Arc;

use rsj::prelude::*;
use rsj_core::spatial_join_with_access;
use rsj_service::{JoinService, ServiceError};
use rsj_storage::{BufferPool, PageId, TempDir};
use rsj_telemetry::SampleValue;

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

struct Fixture {
    _dir: TempDir,
    r_path: std::path::PathBuf,
    s_path: std::path::PathBuf,
    r_file: RTree,
    s_file: RTree,
}

impl Fixture {
    fn new(test: TestId, scale: f64) -> Fixture {
        let data = rsj::datagen::preset(test, scale);
        let r = build_tree(&data.r);
        let s = build_tree(&data.s);
        let dir = TempDir::new("service").unwrap();
        let (r_path, s_path) = (dir.file("r.rsj"), dir.file("s.rsj"));
        r.save_to(&r_path).unwrap();
        s.save_to(&s_path).unwrap();
        let r_file = RTree::open_from(&r_path).unwrap();
        let s_file = RTree::open_from(&s_path).unwrap();
        Fixture {
            _dir: dir,
            r_path,
            s_path,
            r_file,
            s_file,
        }
    }

    fn heights(&self) -> [usize; 2] {
        [self.r_file.height() as usize, self.s_file.height() as usize]
    }

    fn service(&self, cfg: ServiceConfig) -> JoinService {
        JoinService::open(&self.r_path, &self.s_path, cfg).unwrap()
    }
}

/// For SJ1–SJ5, a recorded service query must return the same pairs and
/// a bit-identical [`JoinStats`] as the in-memory BufferPool oracle at
/// the same logical capacity: instrumentation (spans, histograms, the
/// access wrapper) must not move the paper's accounting by one count.
#[test]
fn service_stats_match_buffer_pool_oracle() {
    for (test, scale) in [(TestId::A, 0.003), (TestId::B, 0.003)] {
        let fx = Fixture::new(test, scale);
        let svc = fx.service(ServiceConfig {
            handle_pages: CAP_PAGES,
            ..ServiceConfig::default()
        });
        for (plan, name) in plans() {
            let tag = format!("{test:?}/{name}");
            let pool = BufferPool::with_capacity_pages(CAP_PAGES, &fx.heights());
            let (want, _) = spatial_join_with_access(&fx.r_file, &fx.s_file, plan, true, pool);
            assert!(!want.pairs.is_empty(), "{tag}: fixture must join");

            let got = svc.execute(plan, true).expect("service query");
            assert_eq!(
                sorted_ids(&got.pairs),
                sorted_ids(&want.pairs),
                "{tag}: pairs"
            );
            assert_eq!(got.stats, want.stats, "{tag}: JoinStats bit-identical");
        }
    }
}

/// Steady-state serving is free: after the cold query faults the
/// working set in, every further query does zero physical reads at
/// hit ratio 1.0 — and the unrecorded path behaves identically with a
/// zeroed span.
#[test]
fn warm_queries_do_zero_physical_reads() {
    let fx = Fixture::new(TestId::A, 0.003);
    let svc = fx.service(ServiceConfig::default());
    let plan = JoinPlan::sj4();

    let cold = svc.execute(plan, false).expect("cold query");
    assert!(svc.cache().physical_reads() > 0, "cold query must fault");
    assert!(cold.span.total_us > 0, "recorded span must tick");

    svc.cache().reset_stats();
    for _ in 0..3 {
        let warm = svc.execute(plan, false).expect("warm query");
        assert_eq!(warm.stats, cold.stats, "warm accounting identical");
    }
    let unrecorded = svc.execute_unrecorded(plan, false).expect("warm query");
    assert_eq!(unrecorded.stats, cold.stats);
    assert_eq!(
        unrecorded.span,
        SpanReport::default(),
        "disabled recorder must report a zero span"
    );
    assert_eq!(
        svc.cache().physical_reads(),
        0,
        "warm queries must perform zero physical reads"
    );
    assert_eq!(svc.hit_ratio(), 1.0, "warm hit ratio must be 1.0");
}

/// Opening reads each file's header and root page and nothing else:
/// every other page reaches memory through the frame pool, when a query
/// needs it.
#[test]
fn open_reads_the_header_and_root_only() {
    let fx = Fixture::new(TestId::A, 0.003);
    let svc = fx.service(ServiceConfig::default());
    assert_eq!(svc.open_reads(), 2, "one root page per tree");
    assert_eq!(svc.cache().physical_reads(), 0, "no frame read at open");
    assert_eq!(svc.cache().resident_pages(), 0);
}

/// A leaf page of R in the join result, and the index of one of its
/// entries whose data id takes part in `pairs`.
fn joined_leaf_entry(tree: &RTree, pairs: &[(DataId, DataId)]) -> (PageId, usize) {
    let joined: std::collections::HashSet<u64> = pairs.iter().map(|p| p.0 .0).collect();
    let mut found = None;
    tree.for_each_node(|page, node| {
        if found.is_none() && node.is_leaf() {
            if let Some(i) = node
                .entries
                .iter()
                .position(|e| e.child.data().is_some_and(|id| joined.contains(&id.0)))
            {
                found = Some((page, i));
            }
        }
    });
    found.expect("some leaf entry joins")
}

/// Rewrites page `page` of the file at `path` through `edit`.
fn edit_page(path: &std::path::Path, page: PageId, edit: impl FnOnce(&mut Vec<u8>)) {
    let mut file = PageFile::open_rw(path).unwrap();
    let mut bytes = file.read_page(page).unwrap();
    edit(&mut bytes);
    file.write_page(page, &bytes).unwrap();
    file.flush().unwrap();
}

/// The join consumes the page bytes: flipping one byte of a leaf
/// entry's data id in R's file changes the service's answer (or fails
/// it typed) — there is no in-memory copy to fall back on.
#[test]
fn flipping_a_data_id_byte_changes_the_answer() {
    let fx = Fixture::new(TestId::A, 0.003);
    let plan = JoinPlan::sj4();
    let before = fx
        .service(ServiceConfig::default())
        .execute(plan, true)
        .expect("pre-flip query");
    let (page, i) = joined_leaf_entry(&fx.r_file, &before.pairs);
    // Slot layout: level u32, count u32, then 40-byte entries whose last
    // 8 bytes are the child reference (the data id in a leaf).
    edit_page(&fx.r_path, page, |b| b[8 + i * 40 + 32] ^= 0x01);
    match fx.service(ServiceConfig::default()).execute(plan, true) {
        Ok(after) => assert_ne!(
            sorted_ids(&after.pairs),
            sorted_ids(&before.pairs),
            "the flipped id must show in the pair multiset"
        ),
        Err(e) => assert!(matches!(e, ServiceError::Storage(_)), "{e}"),
    }
}

/// A page that fails to decode mid-join fails only that query, typed:
/// the permit comes back, the failure is counted, and the next query
/// answers typed again instead of hanging.
#[test]
fn an_undecodable_page_fails_the_query_typed() {
    let fx = Fixture::new(TestId::A, 0.003);
    let plan = JoinPlan::sj4();
    let pairs = fx
        .service(ServiceConfig::default())
        .execute(plan, true)
        .expect("clean query")
        .pairs;
    let (page, _) = joined_leaf_entry(&fx.r_file, &pairs);
    // An entry count no slot can hold.
    edit_page(&fx.r_path, page, |b| {
        b[4..8].copy_from_slice(&u32::MAX.to_le_bytes())
    });
    let svc = fx.service(ServiceConfig::default());
    for round in 0..2 {
        match svc.execute(plan, true) {
            Err(ServiceError::Storage(StorageError::Corrupt(msg))) => {
                assert!(msg.contains(&page.to_string()), "round {round}: {msg}")
            }
            other => panic!("round {round}: want a typed storage error, got {other:?}"),
        }
        assert_eq!(svc.admission().in_flight(), 0, "round {round}: permit back");
    }
    let snap = svc.registry().snapshot();
    assert_eq!(
        snap.get("rsj_service_queries_total", &[("outcome", "error")])
            .cloned(),
        Some(SampleValue::Counter(2)),
    );
}

/// The push families count queries exactly, and the rendered exposition
/// carries the service and cache catalogues.
#[test]
fn telemetry_text_reports_the_catalogue() {
    let fx = Fixture::new(TestId::A, 0.003);
    let svc = fx.service(ServiceConfig::default());
    for _ in 0..4 {
        svc.execute(JoinPlan::sj2(), false).expect("query");
    }

    svc.export();
    let snap = svc.registry().snapshot();
    assert_eq!(
        snap.get("rsj_service_queries_total", &[("outcome", "ok")])
            .cloned(),
        Some(SampleValue::Counter(4)),
    );
    match snap.get("rsj_service_query_us", &[]) {
        Some(SampleValue::Histogram(h)) => {
            assert_eq!(h.count(), 4, "one latency sample per query");
            assert!(h.quantiles().p99 > 0);
        }
        other => panic!("query_us must be a histogram, got {other:?}"),
    }
    match snap.get("rsj_cache_reads", &[("kind", "logical")]) {
        Some(SampleValue::Gauge(logical)) => assert!(*logical > 0),
        other => panic!("logical reads gauge missing: {other:?}"),
    }

    let text = svc.telemetry_text();
    for family in [
        "rsj_service_queries_total",
        "rsj_service_queue_wait_us",
        "rsj_service_query_us",
        "rsj_service_stage_us",
        "rsj_service_pairs",
        "rsj_cache_hit_ratio",
        "rsj_cache_reads",
        "rsj_cache_physical_reads",
        "rsj_cq_completion_lag_us",
        "quantile=\"0.99\"",
    ] {
        assert!(text.contains(family), "exposition must carry {family}");
    }
}

/// With the pool and queue both full, a query is rejected with the
/// typed [`Overloaded`] — counted, immediate, and recoverable once the
/// permit frees.
#[test]
fn overloaded_is_typed_counted_and_recoverable() {
    let fx = Fixture::new(TestId::A, 0.003);
    let svc = fx.service(ServiceConfig {
        max_in_flight: 1,
        max_queue: 0,
        ..ServiceConfig::default()
    });
    let plan = JoinPlan::sj2();

    let permit = svc.admission().acquire().expect("hold the only slot");
    match svc.execute(plan, false) {
        Err(ServiceError::Overloaded(o)) => {
            assert_eq!(o.in_flight, 1);
            assert_eq!(o.queued, 0);
        }
        other => panic!("must reject while the slot is held, got {other:?}"),
    }
    drop(permit);

    svc.execute(plan, false).expect("slot freed, query runs");
    let snap = svc.registry().snapshot();
    assert_eq!(
        snap.get("rsj_service_queries_total", &[("outcome", "overloaded")])
            .cloned(),
        Some(SampleValue::Counter(1)),
    );
    assert_eq!(
        snap.get("rsj_service_queries_total", &[("outcome", "ok")])
            .cloned(),
        Some(SampleValue::Counter(1)),
    );
}

/// A client burst against a small pool: every query either completes
/// correctly or is rejected typed — and admission drains back to zero.
#[test]
fn burst_drains_clean() {
    let fx = Fixture::new(TestId::A, 0.003);
    let svc = Arc::new(fx.service(ServiceConfig {
        max_in_flight: 2,
        max_queue: 2,
        ..ServiceConfig::default()
    }));
    let plan = JoinPlan::sj4();
    let expect = svc.execute(plan, false).expect("probe").stats.result_pairs;

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || match svc.execute(plan, false) {
                Ok(resp) => {
                    assert_eq!(resp.stats.result_pairs, expect, "burst query must agree");
                    true
                }
                Err(ServiceError::Overloaded(_)) => false,
                Err(e) => panic!("only Overloaded is acceptable, got {e}"),
            })
        })
        .collect();
    let outcomes: Vec<bool> = clients
        .into_iter()
        .map(|c| c.join().expect("client must not die"))
        .collect();

    let ok = outcomes.iter().filter(|&&b| b).count() as u64;
    assert!(ok >= 2, "at least the pool width must complete");
    assert_eq!(svc.admission().in_flight(), 0, "admission must drain");
    assert_eq!(svc.admission().queue_depth(), 0);

    let snap = svc.registry().snapshot();
    assert_eq!(
        snap.get("rsj_service_queries_total", &[("outcome", "ok")])
            .cloned(),
        Some(SampleValue::Counter(ok + 1)), // + the probe
    );
    assert_eq!(
        snap.get("rsj_service_queries_total", &[("outcome", "overloaded")])
            .cloned(),
        Some(SampleValue::Counter(8 - ok)),
    );
}

/// A sink that panics mid-stream unwinds through the service without
/// leaking its permit: the next query gets the slot.
#[test]
fn panicking_sink_releases_its_permit() {
    let fx = Fixture::new(TestId::A, 0.003);
    let svc = Arc::new(fx.service(ServiceConfig {
        max_in_flight: 1,
        max_queue: 0,
        ..ServiceConfig::default()
    }));
    let plan = JoinPlan::sj2();

    let svc2 = Arc::clone(&svc);
    let worker = std::thread::spawn(move || {
        svc2.execute_streaming(plan, |_, _| panic!("sink died on the first pair"))
            .map(|_| ())
    });
    assert!(worker.join().is_err(), "the sink panic must propagate");
    assert_eq!(
        svc.admission().in_flight(),
        0,
        "panic must release the permit"
    );
    svc.execute(plan, false)
        .expect("slot must be free after the panic");
}
