//! Seeded end-to-end benchmark of the rsj spatial-join engine.
//!
//! ```text
//! perfbench --workload <cold_join|warm_serve>
//!           --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! Every workload runs SJ4 at 4 KB pages with a 128 KB (32-page) logical
//! buffer per query, generates its relations from `--seed`, checks every
//! timed join against an in-memory oracle, and prints one JSON result
//! line last. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! the same workload with spans on and prints the per-layer metrics.
//! See README.md in this directory for the workloads and metric map.

mod data;
mod ladder;
mod load;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rsj_rtree::{DataId, OpenCachedTree, RTree};
use rsj_service::{JoinService, ServiceConfig, SpanReport};
use rsj_storage::{PageFile, SharedPageCache, READ_LATENCY_ENV};

use data::{plan, Built, Oracle, Shape, HANDLE_PAGES};
use load::{open_loop, Phase};
use stats::{mean, median, quantile, windowed};
use trace::{Sheet, Tracer};

/// Client threads: at most the machine's two cores.
const CLIENTS: usize = 2;
/// Set-ups per run: at least `SETUP_REPS`, and more until `SETUP_SECS`
/// have passed; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_SECS: f64 = 1.0;
/// Per-read latency injected on `cold_join` (and on the ladder's `.lat`
/// rungs). A whole millisecond: each injected read is one sleep, and on a
/// shared VM a wake-up can come late by a fraction of a millisecond, which
/// would swamp a 100 µs sleep.
const COLD_LATENCY_US: u64 = 1000;
/// `cold_join` frame pool, in pages: far below the trees' page count.
const COLD_CACHE_PAGES: usize = 64;
/// `warm_serve` fixed arrival rate, queries per second.
const NOMINAL_QPS: f64 = 150.0;
/// The `max_qps` ladder: rungs from `LADDER_FROM` × the nominal rate up
/// in `LADDER_STEP` steps.
const LADDER_FROM: f64 = 2.6;
const LADDER_STEP: f64 = 1.06;
const LADDER_RUNGS: usize = 10;
/// Share of `--seconds` for the nominal phase of `warm_serve`; the two
/// ladder climbs share the rest.
const NOMINAL_SHARE: f64 = 0.5;
/// Latency and throughput are taken per window, `WINDOWS` to a phase, and
/// reported as the median over windows.
const WINDOWS: f64 = 8.0;
/// The latency limit of the ladder, on the p95 of a rung (a rung holds a
/// few hundred queries, so p95 is its highest percentile with at least
/// ten samples beyond it).
const LIMIT_MS: f64 = 40.0;
/// The update probe: script operations, and operations between flushes.
const UPDATE_OPS: u64 = 1024;
const FLUSH_EVERY: u64 = 256;
/// A serving run is invalid when its generator's median lag exceeds this
/// share of the median latency it measured.
const GEN_LAG_SHARE: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdJoin,
    WarmServe,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "cold_join" => Some(Workload::ColdJoin),
            "warm_serve" => Some(Workload::WarmServe),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdJoin => "cold_join",
            Workload::WarmServe => "warm_serve",
        }
    }

    fn shape(self, tiny: bool) -> Shape {
        match (self, tiny) {
            (Workload::ColdJoin, false) => Shape::ClusteredUniform { n: 40_000 },
            (Workload::ColdJoin, true) => Shape::ClusteredUniform { n: 4_000 },
            (_, false) => Shape::PresetA { scale: 0.05 },
            (_, true) => Shape::PresetA { scale: 0.004 },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--size" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    v => return Err(format!("--size takes full or tiny, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
    })
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

fn set_latency(latency: Option<Duration>) {
    match latency {
        Some(l) => std::env::set_var(READ_LATENCY_ENV, l.as_micros().to_string()),
        None => std::env::remove_var(READ_LATENCY_ENV),
    }
}

fn page_count(p: &Path) -> usize {
    PageFile::open(p).expect("open page file").page_count() as usize
}

fn open_service(b: &Built, cache_pages: usize, max_in_flight: usize) -> JoinService {
    JoinService::open(
        &b.r_path,
        &b.s_path,
        ServiceConfig {
            max_in_flight,
            max_queue: 16,
            cache_pages,
            handle_pages: HANDLE_PAGES,
            ..ServiceConfig::default()
        },
    )
    .expect("open the join service")
}

/// Frame-pool counters over an interval.
#[derive(Default, Clone, Copy)]
struct CacheCounters {
    physical_reads: u64,
    frame_hits: u64,
    adoptions: u64,
    drain_hits: u64,
    evictions: u64,
    lag_samples: u64,
    lag_total_ns: u64,
    lag_max_ns: u64,
}

impl CacheCounters {
    fn read(c: &SharedPageCache) -> Self {
        let lag = c.queue().completion_lag();
        CacheCounters {
            physical_reads: c.physical_reads(),
            frame_hits: c.frame_hits(),
            adoptions: c.adoptions(),
            drain_hits: c.drain_hits(),
            evictions: c.evictions(),
            lag_samples: lag.samples,
            lag_total_ns: lag.total_nanos,
            lag_max_ns: lag.max_nanos,
        }
    }

    /// Counters accumulated since `before` (a reading of the same pool).
    fn since(self, before: Self) -> Self {
        CacheCounters {
            physical_reads: self.physical_reads - before.physical_reads,
            frame_hits: self.frame_hits - before.frame_hits,
            adoptions: self.adoptions - before.adoptions,
            drain_hits: self.drain_hits - before.drain_hits,
            evictions: self.evictions - before.evictions,
            lag_samples: self.lag_samples - before.lag_samples,
            lag_total_ns: self.lag_total_ns - before.lag_total_ns,
            lag_max_ns: self.lag_max_ns,
        }
    }

    fn add(&mut self, o: Self) {
        self.physical_reads += o.physical_reads;
        self.frame_hits += o.frame_hits;
        self.adoptions += o.adoptions;
        self.drain_hits += o.drain_hits;
        self.evictions += o.evictions;
        self.lag_samples += o.lag_samples;
        self.lag_total_ns += o.lag_total_ns;
        self.lag_max_ns = self.lag_max_ns.max(o.lag_max_ns);
    }
}

/// What the update script did.
#[derive(Default)]
struct Updates {
    ops: u64,
    op_us: Vec<f64>,
    flush_ms: Vec<f64>,
    pending_max: usize,
    disk_reads: u64,
    page_writes: u64,
    physical_writes: u64,
}

/// The update probe: a seeded delete-then-reinsert script of
/// [`UPDATE_OPS`] operations on store 0 (R) of `cache`, flushing every
/// [`FLUSH_EVERY`] operations. Every delete removes an entry that is
/// present and its reinsert puts it back, so R keeps its size.
fn update_probe(
    cache: &std::sync::Arc<SharedPageCache>,
    items: &[(rsj_geom::Rect, DataId)],
    seed: u64,
    tracer: &Tracer,
) -> Updates {
    let writes_before = cache.physical_writes();
    let mut open = OpenCachedTree::open_cached(cache, 0, HANDLE_PAGES).expect("open R for updates");
    let mut u = Updates::default();
    while u.ops < UPDATE_OPS {
        let pick = data::mix(seed ^ 0xD1B5_4A32_D192_ED03, u.ops) % items.len() as u64;
        let (rect, id) = items[pick as usize];
        let span = tracer.root("update.op");
        let t = Instant::now();
        let hit = tracer.wrap(&span, "rtree.delete", || open.delete(&rect, id));
        assert!(
            hit.expect("delete through the frame pool"),
            "scripted delete missed"
        );
        u.op_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        tracer
            .wrap(&span, "rtree.insert", || open.insert(rect, id))
            .expect("insert through the frame pool");
        u.op_us.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.end(span);
        u.ops += 2;
        if u.ops % FLUSH_EVERY == 0 {
            u.pending_max = u.pending_max.max(cache.pending_write_back());
            let span = tracer.root("update.flush");
            let t = Instant::now();
            open.flush().expect("flush the updated tree");
            u.flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.end(span);
        }
    }
    let io = open.io_stats();
    u.disk_reads = io.disk_accesses;
    u.page_writes = io.page_writes;
    u.physical_writes = cache.physical_writes() - writes_before;
    u
}

/// Reopens R from its flushed file and checks the script left a valid
/// tree of the original size.
fn check_reopen(b: &Built) {
    let back = RTree::open_from(&b.r_path).expect("reopen R after the update script");
    if let Err(e) = back.validate() {
        fail(&format!("updated R fails validation after reopen: {e:?}"));
    }
    if back.len() != b.r_items.len() {
        fail(&format!(
            "updated R holds {} entries after reopen, the script implies {}",
            back.len(),
            b.r_items.len()
        ));
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

/// Everything a workload run reports.
struct Run {
    attempted: u64,
    failed: u64,
    sheet: Sheet,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A wrong answer anywhere (a panic on any thread) ends the run with a
    // non-zero exit and no result line.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        std::process::exit(1);
    }));
    std::env::remove_var(READ_LATENCY_ENV);

    let work = PathBuf::from(".perfbench-work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).expect("create the work directory");
    let tracer = Tracer::new(args.trace);
    let run = run_workload(&args, &work, &tracer);
    if args.trace {
        let out = PathBuf::from(".perfbench-work").join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer.write_out(&out).expect("write the span file");
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.len(),
            out.display()
        );
    }
    let _ = std::fs::remove_dir_all(&work);
    println!("{}", run.sheet.result_line(run.attempted, run.failed));
}

fn run_workload(args: &Args, work: &Path, tracer: &Tracer) -> Run {
    let shape = args.workload.shape(args.tiny);
    // Set-up, several times: generate, bulk-load and persist both sides.
    let mut setups = Vec::new();
    let mut built = None;
    let t0 = Instant::now();
    while setups.len() < SETUP_REPS || (!args.tiny && t0.elapsed().as_secs_f64() < SETUP_SECS) {
        let span = tracer.root("setup");
        let t = Instant::now();
        let b = data::build(shape, args.seed, work);
        setups.push((t.elapsed().as_secs_f64(), b.gen_s, b.bulk_s));
        tracer.end(span);
        built = Some(b);
    }
    let b = built.expect("at least one set-up");
    // The oracle, before any timing.
    let r = RTree::open_from(&b.r_path).expect("open R");
    let s = RTree::open_from(&b.s_path).expect("open S");
    let oracle = Oracle::compute(&r, &s);
    eprintln!(
        "perfbench: {} seed {}: {} pairs, {} disk accesses, {} comparisons, {} pages",
        args.workload.name(),
        args.seed,
        oracle.pairs,
        oracle.io.disk_accesses,
        oracle.comparisons(),
        b.pages
    );

    let mut sheet = Sheet::default();
    let setup_s = median(&setups.iter().map(|s| s.0).collect::<Vec<_>>());
    let main = match args.workload {
        Workload::ColdJoin => cold_join(args, &b, &oracle, tracer),
        Workload::WarmServe => warm_serve(args, &b, &oracle, tracer),
    };
    let attempted = main.attempted.max(1);
    let ok_frac = (main.attempted - main.failed) as f64 / attempted as f64;

    if !args.trace {
        sheet.put("setup_s", setup_s, "s");
        sheet.put("op_ms.p50", main.latency(0.5), "ms");
        sheet.put("throughput_per_s", main.throughput, "1/s");
        sheet.put("disk_accesses", oracle.io.disk_accesses as f64, "count");
        sheet.put("comparisons", oracle.comparisons() as f64, "count");
        sheet.put("ok_frac", ok_frac, "ratio");
        sheet.put("peak_rss_mb", peak_rss_mb(), "MB");
        return Run {
            attempted: main.attempted,
            failed: main.failed,
            sheet,
        };
    }

    // The traced run: per-layer metrics.
    let ops = main.counted_ops.max(1) as f64;
    let n = |v: u64| v as f64 / ops;
    sheet.put(
        "datagen.gen_ms",
        median(&setups.iter().map(|s| s.1 * 1e3).collect::<Vec<_>>()),
        "ms",
    );
    sheet.put(
        "rtree.bulk_ms",
        median(&setups.iter().map(|s| s.2 * 1e3).collect::<Vec<_>>()),
        "ms",
    );
    sheet.put("rtree.pages", b.pages as f64, "count");
    sheet.put("rtree.height", b.height as f64, "count");
    sheet.put(
        "core.join_comparisons",
        oracle.join_comparisons as f64,
        "count",
    );
    sheet.put(
        "core.sort_comparisons",
        oracle.sort_comparisons as f64,
        "count",
    );
    sheet.put("core.parks", mean(&main.parks), "count/op");
    sheet.put(
        "storage.disk_accesses",
        oracle.io.disk_accesses as f64,
        "count",
    );
    sheet.put("storage.path_hits", oracle.io.path_hits as f64, "count");
    sheet.put("storage.lru_hits", oracle.io.lru_hits as f64, "count");
    let c = main.cache;
    sheet.put("storage.physical_reads", n(c.physical_reads), "count/op");
    sheet.put("storage.frame_hits", n(c.frame_hits), "count/op");
    sheet.put("storage.adoptions", n(c.adoptions), "count/op");
    sheet.put("storage.drain_hits", n(c.drain_hits), "count/op");
    sheet.put("storage.evictions", n(c.evictions), "count/op");
    let useful = c.frame_hits + c.adoptions + c.drain_hits;
    let tries = useful + c.physical_reads;
    sheet.put(
        "storage.hit_ratio",
        if tries == 0 {
            0.0
        } else {
            useful as f64 / tries as f64
        },
        "ratio",
    );
    sheet.put(
        "storage.completion_lag_us.mean",
        if c.lag_samples == 0 {
            0.0
        } else {
            c.lag_total_ns as f64 / c.lag_samples as f64 / 1e3
        },
        "us",
    );
    sheet.put(
        "storage.completion_lag_us.max",
        c.lag_max_ns as f64 / 1e3,
        "us",
    );
    // Stage times come from the service's own span report in whole
    // microseconds; the short stages are given as means, whose digits
    // still move from run to run.
    let stage = |f: fn(&SpanReport) -> u64| -> Vec<f64> {
        main.spans.iter().map(|s| f(s) as f64).collect()
    };
    sheet.put("service.queue_us.p99", quantile(&main.queue_us, 0.99), "us");
    sheet.put("service.plan_us.mean", mean(&stage(|s| s.plan_us)), "us");
    sheet.put("service.io_us.mean", mean(&stage(|s| s.io_us)), "us");
    sheet.put("service.join_us.p50", median(&stage(|s| s.join_us)), "us");
    sheet.put("service.emit_us.mean", mean(&stage(|s| s.emit_us)), "us");
    sheet.put("service.overloaded", main.overloaded as f64, "count");
    sheet.put("failed_frac", 1.0 - ok_frac, "ratio");
    sheet.put("tail.op_ms.p90", main.latency(0.9), "ms");
    sheet.put("tail.op_ms.p99", quantile(&main.latency_ms, 0.99), "ms");
    sheet.put(
        "harness.generator_lag_ms.p99",
        quantile(&main.gen_lag_ms, 0.99),
        "ms",
    );

    // Opening: the whole-tree read, and the service on top of it, in the
    // workload's own latency setting.
    let latency =
        (args.workload == Workload::ColdJoin).then(|| Duration::from_micros(COLD_LATENCY_US));
    set_latency(latency);
    let mut open_ms = Vec::new();
    for _ in 0..3 {
        let span = tracer.root("rtree.open");
        let t = Instant::now();
        let pair = (
            RTree::open_from(&b.r_path).expect("open R"),
            RTree::open_from(&b.s_path).expect("open S"),
        );
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(span);
        drop(pair);
    }
    sheet.put("rtree.open_ms", median(&open_ms), "ms");
    let svc_open_ms = if main.open_ms.is_empty() {
        let mut v = Vec::new();
        for _ in 0..3 {
            let span = tracer.root("service.open");
            let t = Instant::now();
            let svc = open_service(&b, main.cache_pages, CLIENTS);
            v.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.end(span);
            drop(svc);
        }
        median(&v)
    } else {
        median(&main.open_ms)
    };
    set_latency(None);
    sheet.put("service.open_ms", svc_open_ms, "ms");

    // The ladder and the overhead pairs run over a working-set service.
    let ws = page_count(&b.r_path) + page_count(&b.s_path);
    let wsvc = open_service(&b, ws, CLIENTS);
    let budget = if args.tiny {
        Duration::from_millis(200)
    } else {
        Duration::from_secs_f64(args.seconds.min(30.0))
    };
    ladder::Ladder {
        r: &r,
        s: &s,
        r_path: &b.r_path,
        s_path: &b.s_path,
        oracle: &oracle,
        latency: Duration::from_micros(COLD_LATENCY_US),
        svc: &wsvc,
    }
    .run(budget, if args.tiny { 2 } else { 5 }, tracer, &mut sheet);
    let (telemetry, trace_overhead) = overhead_pairs(&wsvc, &oracle, tracer, args.tiny);
    sheet.put("service.telemetry_overhead", telemetry, "ratio");
    sheet.put("harness.trace_overhead", trace_overhead, "ratio");
    drop(wsvc);

    // Updates: a short probe on this workload's files, through a pool of
    // its size, then the reopen check. It rewrites R, so it runs last.
    let svc = open_service(&b, main.cache_pages, CLIENTS);
    let upd = update_probe(svc.cache(), &b.r_items, args.seed, tracer);
    drop(svc);
    check_reopen(&b);
    let per_op = |v: u64| v as f64 / upd.ops.max(1) as f64;
    sheet.put("rtree.update_us.p50", median(&upd.op_us), "us");
    sheet.put("rtree.update_us.p99", quantile(&upd.op_us, 0.99), "us");
    sheet.put(
        "rtree.update_disk_reads",
        per_op(upd.disk_reads),
        "count/op",
    );
    sheet.put(
        "rtree.update_page_writes",
        per_op(upd.page_writes),
        "count/op",
    );
    sheet.put(
        "storage.physical_writes",
        per_op(upd.physical_writes),
        "count/op",
    );
    sheet.put(
        "storage.pending_write_back.max",
        upd.pending_max as f64,
        "count",
    );
    sheet.put("storage.flush_ms.p50", median(&upd.flush_ms), "ms");

    Run {
        attempted: main.attempted,
        failed: main.failed,
        sheet,
    }
}

/// What a workload's measured phase produced.
struct Main {
    /// Per answered operation, ms: the cold open + join on `cold_join`,
    /// scheduled arrival to last pair on the serving workloads.
    latency_ms: Vec<f64>,
    /// Due time of each latency sample, s into its phase; empty for the
    /// closed-loop `cold_join`.
    due_s: Vec<f64>,
    /// Window length for the windowed medians, s.
    window_s: f64,
    throughput: f64,
    attempted: u64,
    failed: u64,
    overloaded: u64,
    parks: Vec<f64>,
    spans: Vec<SpanReport>,
    /// Arrival to admission, per operation, µs.
    queue_us: Vec<f64>,
    gen_lag_ms: Vec<f64>,
    /// `JoinService::open` times measured inside operations, ms.
    open_ms: Vec<f64>,
    /// Frame-pool counters, over `counted_ops` answered queries.
    cache: CacheCounters,
    counted_ops: u64,
    cache_pages: usize,
}

impl Main {
    fn new(cache_pages: usize) -> Self {
        Main {
            latency_ms: Vec::new(),
            due_s: Vec::new(),
            window_s: 1.0,
            throughput: 0.0,
            attempted: 0,
            failed: 0,
            overloaded: 0,
            parks: Vec::new(),
            spans: Vec::new(),
            queue_us: Vec::new(),
            gen_lag_ms: Vec::new(),
            open_ms: Vec::new(),
            cache: CacheCounters::default(),
            counted_ops: 0,
            cache_pages,
        }
    }

    /// The `q`-quantile of operation latency: over all operations for
    /// the closed loop, else the median over windows of each window's.
    fn latency(&self, q: f64) -> f64 {
        if self.due_s.is_empty() {
            quantile(&self.latency_ms, q)
        } else {
            windowed(
                self.due_s
                    .iter()
                    .copied()
                    .zip(self.latency_ms.iter().copied()),
                self.window_s,
                20,
                |v| quantile(v, q),
            )
        }
    }

    fn absorb(&mut self, p: Phase) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.overloaded += p.overloaded;
        self.parks.extend(p.parks.iter().map(|&x| x as f64));
        self.spans.extend(p.spans);
        self.queue_us.extend(p.queue_us);
    }
}

/// Refuses a serving run whose generator fell behind its schedule: its
/// latencies would describe the harness, not the service. Latency runs
/// from the due time, so a late generator inflates it; past
/// [`GEN_LAG_SHARE`] of the median that inflation is no longer noise.
/// (Not applied at `--size tiny`, whose sub-millisecond queries are
/// shorter than the sleep granularity of the generator.)
fn check_generator(lag_ms: &[f64], latency_ms: &[f64]) {
    let lag = median(lag_ms);
    let limit = GEN_LAG_SHARE * median(latency_ms);
    if lag > limit {
        fail(&format!(
            "run invalid: the load generator ran {lag:.3} ms late at the median \
             (limit {limit:.3} ms)"
        ));
    }
}

/// One operation = `JoinService::open` on the two bulk-built files plus
/// one `execute` to the last pair, closed loop, with a frame pool far
/// smaller than the trees and a fixed per-read latency injected.
fn cold_join(args: &Args, b: &Built, oracle: &Oracle, tracer: &Tracer) -> Main {
    set_latency(Some(Duration::from_micros(COLD_LATENCY_US)));
    let mut m = Main::new(COLD_CACHE_PAGES);
    let t0 = Instant::now();
    let mut last_end: Option<Instant> = None;
    while m.latency_ms.len() < 3 || t0.elapsed().as_secs_f64() < args.seconds {
        let begin = Instant::now();
        if let Some(e) = last_end {
            // Closed loop: the only delay the harness adds is its own
            // work between one operation's end and the next one's start.
            m.gen_lag_ms
                .push(begin.duration_since(e).as_secs_f64() * 1e3);
        }
        let root = tracer.root("cold_join.op");
        let waited = begin.elapsed();
        let svc = tracer.wrap(&root, "service.open", || {
            open_service(b, COLD_CACHE_PAGES, 1)
        });
        let opened = begin.elapsed();
        let res = tracer.wrap(&root, "service.execute", || svc.execute(plan(), true));
        let took = begin.elapsed();
        tracer.end(root);
        last_end = Some(Instant::now());
        m.attempted += 1;
        match res {
            Ok(resp) => {
                if let Err(e) = oracle.check(&resp.pairs, &resp.stats) {
                    fail(&format!("cold join: {e}"));
                }
                m.latency_ms.push(took.as_secs_f64() * 1e3);
                m.open_ms.push(opened.as_secs_f64() * 1e3);
                m.queue_us
                    .push(waited.as_secs_f64() * 1e6 + resp.span.queue_us as f64);
                m.spans.push(resp.span);
                m.parks.push(resp.parks as f64);
            }
            Err(rsj_service::ServiceError::Overloaded(_)) => {
                m.failed += 1;
                m.overloaded += 1;
            }
            Err(e) => fail(&format!("cold join failed: {e}")),
        }
        // Every operation opens a fresh pool, so its counters start at 0.
        svc.cache().drain();
        m.cache.add(CacheCounters::read(svc.cache()));
        drop(svc);
    }
    m.throughput = m.latency_ms.len() as f64 / t0.elapsed().as_secs_f64();
    m.counted_ops = m.latency_ms.len() as u64;
    set_latency(None);
    m
}

/// The highest rate whose p95 (or backlog) meets the limit, interpolated
/// between the last passing and the first failing point of `points`
/// (ascending rates, each with its [`worst`]).
fn knee(points: &[(f64, f64)]) -> f64 {
    let mut prev = (0.0, 0.0);
    for &(rate, worst) in points {
        if worst > LIMIT_MS {
            let frac = if worst.is_finite() {
                ((LIMIT_MS - prev.1) / (worst - prev.1)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            return prev.0 + (rate - prev.0) * frac;
        }
        prev = (rate, worst);
    }
    prev.0
}

/// A rung's p95, or its backlog if that is worse.
fn worst(p: &Phase) -> f64 {
    p.tail_ms(0.95).max(p.drain_ms)
}

/// Open-loop queries over a working-set frame pool: the nominal rate, then
/// the rate ladder for `max_qps`.
fn warm_serve(args: &Args, b: &Built, oracle: &Oracle, tracer: &Tracer) -> Main {
    let svc = open_service(b, 0, CLIENTS);
    // The frame-pool counters cover the whole stream, the warm-up that
    // fills the pool included.
    let before = CacheCounters::read(svc.cache());
    for _ in 0..3 {
        let resp = svc.execute(plan(), true).expect("warm-up query");
        if let Err(e) = oracle.check(&resp.pairs, &resp.stats) {
            fail(&format!("warm-up query: {e}"));
        }
    }
    let mut m = Main::new(0);
    let secs = args.seconds;
    let nominal = open_loop(
        &svc,
        oracle,
        NOMINAL_QPS,
        NOMINAL_SHARE * secs,
        CLIENTS,
        tracer,
    );
    m.gen_lag_ms.extend(&nominal.gen_lag_ms);
    if !args.tiny {
        check_generator(&nominal.gen_lag_ms, &nominal.latency_ms);
    }
    let fixed = (NOMINAL_QPS, worst(&nominal));
    m.latency_ms = nominal.latency_ms.clone();
    m.due_s = nominal.due_s.clone();
    m.window_s = NOMINAL_SHARE * secs / WINDOWS;
    m.absorb(nominal);
    // Two climbs; a burst of outside load can only end a climb early, so
    // the better climb is the estimate.
    let rung_secs = (1.0 - NOMINAL_SHARE) * secs / (2 * LADDER_RUNGS) as f64;
    let mut best: f64 = 0.0;
    for _ in 0..2 {
        let mut points = vec![fixed];
        let mut rate = LADDER_FROM * NOMINAL_QPS;
        for _ in 0..LADDER_RUNGS {
            if points.iter().any(|p| p.1 > LIMIT_MS) {
                break;
            }
            let rung = open_loop(&svc, oracle, rate, rung_secs, CLIENTS, tracer);
            points.push((rate, worst(&rung)));
            m.absorb(rung);
            rate *= LADDER_STEP;
        }
        let knee = knee(&points);
        eprintln!("perfbench: ladder climb (rate, worst ms) {points:?}: {knee:.1} qps");
        best = best.max(knee);
    }
    m.throughput = best;
    m.counted_ops = m.spans.len() as u64 + 3;
    m.cache = CacheCounters::read(svc.cache()).since(before);
    m
}

/// Interleaved pairs on a warm service: `execute` against
/// `execute_unrecorded` (telemetry on/off), and the same query with and
/// without harness spans. Each reports the median per-pair ratio of
/// on-time to off-time; the order inside a pair alternates.
fn overhead_pairs(svc: &JoinService, oracle: &Oracle, tracer: &Tracer, tiny: bool) -> (f64, f64) {
    let off = Tracer::new(false);
    let query = |t: &Tracer, recorded: bool| -> f64 {
        let root = t.root("overhead.query");
        let start = Instant::now();
        let resp = t.wrap(&root, "service.execute", || {
            if recorded {
                svc.execute(plan(), true)
            } else {
                svc.execute_unrecorded(plan(), true)
            }
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        t.end(root);
        let resp = resp.expect("overhead query");
        if let Err(e) = oracle.check(&resp.pairs, &resp.stats) {
            fail(&format!("overhead query: {e}"));
        }
        ms
    };
    query(&off, true);
    let (min_pairs, budget) = if tiny { (2, 0.2) } else { (9, 6.0) };
    let start = Instant::now();
    let (mut tel, mut tr) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < min_pairs || (start.elapsed().as_secs_f64() < budget && i < 201) {
        let first = i % 2 == 0;
        let (on, unrec) = if first {
            let a = query(&off, true);
            (a, query(&off, false))
        } else {
            let u = query(&off, false);
            (query(&off, true), u)
        };
        tel.push(on / unrec);
        let (traced, plain) = if first {
            let a = query(tracer, true);
            (a, query(&off, true))
        } else {
            let p = query(&off, true);
            (query(tracer, true), p)
        };
        tr.push(traced / plain);
        i += 1;
    }
    (median(&tel), median(&tr))
}
