#!/usr/bin/env python3
"""Perf regression guard over the quick-mode `exec` bench JSON.

Usage (from anywhere, after `RSJ_BENCH_QUICK=1 cargo bench -p rsj-bench
--bench exec` has written BENCH_exec.json at the repository root):

    python3 crates/bench/guard.py [path/to/BENCH_exec.json]

Exits non-zero with a message on the first violated clause. Also writes
the overlap block to BENCH_overlap.json next to the bench JSON.

Clauses:
1. the streaming cursor must not fall back behind the recursive driver
   (some headroom for CI-runner noise);
2. the file-backed SJ2 cold run must stay within 0.95x of the recorded
   baseline ratio against the in-memory counted cursor measured in the
   same run (baseline cold_over_cursor = 0.91; the median of the ratios
   of interleaved back-to-back cold-file / in-memory pairs);
3. the write path keeps saved-tree equivalence: a cold SJ2 over a file
   updated in place (dirty write-back + free-list reuse) costs exactly as
   many disk accesses as over a freshly saved tree with the same updates;
4. the f32 ablation halves the bytes on disk without moving the logical
   disk-access accounting;
5. read-ahead must actually hide the injected read latency: a cold
   single SharedPageCache handle runs SJ2 >= 1.5x faster than the
   blocking file backend under the same injected latency, cold-cache
   parallel joins (2 and 4 workers) stay <= 1.1x the blocking serial
   cold join, and read-ahead never moves the deterministic disk-access
   counts;
6. the latched shared page cache must keep the logical accounting
   bit-identical to the shared-nothing private buffers at equal budget
   while performing strictly fewer physical reads, a warm re-join over
   the serving pool must re-read at most 5% of the cold fill (in
   practice zero), and every serving client charges exactly the serial
   cold join's logical disk accesses;
7. the latched update path is invisible to the accounting: the same
   update script run through an OpenCachedTree on a live
   SharedPageCache, flushed, and cold-rejoined through the same cache
   costs exactly the fresh-save disk-access count, and the cache never
   performs more physical page writes than the updater was logically
   charged;
8. the out-of-core bulk build earns its keep: the streaming STR build
   runs >= 5x faster than the one-at-a-time R*-insert build of the same
   uniform dataset, its packer honors the streaming memory contract
   (peak resident entries <= M x height), and the skewed-scenario cold
   SJ2 over the bulk file yields exactly the insert-built file's pair
   count at no more disk accesses (both counts are deterministic);
9. the serving telemetry earns its keep without costing the engine: the
   instrumented cold SJ2 through the JoinService runs >= 0.95x the same
   query path with recording compiled out (the median of the ratios of
   interleaved back-to-back query pairs), warm service requests perform
   zero physical reads at hit ratio 1.0, the open-loop target-QPS run
   stays fully warm and rejects nothing at half capacity, and the
   overload probe's typed rejections confirm admission never blocks an
   over-limit caller.
"""

import json
import sys
from pathlib import Path


def main() -> None:
    root = Path(__file__).resolve().parents[2]
    bench_path = Path(sys.argv[1]) if len(sys.argv) > 1 else root / "BENCH_exec.json"
    with open(bench_path) as f:
        bench = json.load(f)

    # 1. cursor vs recursion
    ratio = bench["cursor_over_recursive"]
    print(f"cursor_over_recursive = {ratio}")
    if ratio < 0.95:
        sys.exit(f"perf regression: cursor at {ratio}x recursive (< 0.95)")
    print(f"raw_over_cursor = {bench['raw_over_cursor']}")

    # 2. file backend
    fb = bench["file_backend"]
    foc = fb["cold_over_cursor"]
    floor = 0.95 * 0.91  # 0.95x of the recorded baseline cold_over_cursor
    print(f"file cold_over_cursor = {foc} (floor {floor:.3f})")
    if foc < floor:
        sys.exit(f"perf regression: file-backed SJ2 cold at {foc}x cursor (< {floor:.3f})")

    # 3. + 7. write path
    upd = bench["update"]
    post, fresh = upd["post_update_cold"]["disk_accesses"], upd["fresh_save_cold"]["disk_accesses"]
    print(f"post-update cold SJ2 = {post}, freshly saved = {fresh}")
    if post != fresh:
        sys.exit(f"write path broke saved-tree equivalence: {post} vs {fresh} disk accesses")
    print(f"update throughput = {upd['updates_per_sec']:.0f} ops/s, "
          f"{upd['page_writes']} page writes, {upd['reused_slots']} slots reused")
    cu = upd["cached_update"]
    print(f"cached update: {cu['page_writes']} logical / {cu['physical_writes']} physical "
          f"writes, rejoin cold SJ2 = {cu['post_update_cold_disk']} disk accesses")
    if cu["post_update_cold_disk"] != fresh:
        sys.exit(f"latched write path broke saved-tree equivalence: rejoining the "
                 f"shared cache cost {cu['post_update_cold_disk']} vs {fresh} disk accesses")
    if cu["physical_writes"] > cu["page_writes"]:
        sys.exit(f"shared cache wrote more pages than it was charged: "
                 f"{cu['physical_writes']} physical vs {cu['page_writes']} logical")

    # 4. f32 ablation
    f32 = bench["f32_ablation"]
    print(f"f32 ablation: bytes_ratio = {f32['bytes_ratio']}, "
          f"pairs_delta = {f32['pairs_delta']}, max drift = {f32['max_coord_drift']}")
    if f32["bytes_ratio"] > 0.60:
        sys.exit(f"f32 format must roughly halve the file: ratio {f32['bytes_ratio']}")

    # 5. latency hiding
    ov = bench["overlap"]
    speedup = ov["cache_over_blocking"]
    print(f"overlap: cache_over_blocking = {speedup} "
          f"at {ov['latency_us']}us injected latency")
    if ov["cache_cold"]["disk_accesses"] != ov["blocking_cold"]["disk_accesses"]:
        sys.exit("read-ahead moved the disk-access accounting")
    if speedup < 1.5:
        sys.exit(f"latency hiding regression: cold cache-handle SJ2 "
                 f"only {speedup}x the blocking backend (< 1.5)")
    for point in ov["parallel"]:
        print(f"overlap: {point['workers']} cold-cache workers at "
              f"{point['over_blocking']}x the blocking serial cold join")
        if point["over_blocking"] > 1.1:
            sys.exit(f"parallel regression: {point['workers']} workers at "
                     f"{point['over_blocking']}x the serial cold join (> 1.1)")
    with open(bench_path.parent / "BENCH_overlap.json", "w") as f:
        json.dump(ov, f, indent=2)

    # 6. warm serving
    ws = bench["warm_serving"]
    eb = ws["equal_budget"]
    print(f"warm_serving: equal budget {eb['budget_pages']} pages, "
          f"private logical {eb['private']['logical_sum']}, shared "
          f"logical {eb['shared_cache']['logical_sum']}, shared "
          f"physical {eb['shared_cache']['physical_reads']}")
    if eb["shared_cache"]["logical_sum"] != eb["private"]["logical_sum"]:
        sys.exit("shared cache moved the logical disk-access accounting")
    if eb["shared_cache"]["physical_reads"] >= eb["private"]["logical_sum"]:
        sys.exit(f"shared cache failed to dedup: {eb['shared_cache']['physical_reads']} "
                 f"physical reads vs shared-nothing sum {eb['private']['logical_sum']}")
    sv = ws["serving"]
    print(f"warm_serving: {sv['clients']} clients x {sv['rounds']} rounds, "
          f"cold physical {sv['cold']['physical_reads']}, warm physical "
          f"{sv['warm']['physical_reads']}, p50 {sv['warm']['p50_ms']}ms, "
          f"p99 {sv['warm']['p99_ms']}ms")
    if sv["client_logical_disk"] != fb["cold"]["disk_accesses"]:
        sys.exit(f"serving client charged {sv['client_logical_disk']} logical disk "
                 f"accesses, serial cold join charges {fb['cold']['disk_accesses']}")
    if sv["warm"]["physical_reads"] > 0.05 * sv["cold"]["physical_reads"]:
        sys.exit(f"warm serving re-read {sv['warm']['physical_reads']} pages "
                 f"(> 5% of the {sv['cold']['physical_reads']}-page cold fill)")

    # 8. bulk build
    bs = bench["bulk_scale"]
    ub = bs["uniform_build"]
    print(f"bulk_scale: {ub['rects']} rects, streaming {ub['bulk_secs']}s "
          f"({ub['rects_per_sec']:.0f} rects/s), insert {ub['insert_secs']}s, "
          f"speedup {ub['speedup']}x, peak resident {ub['peak_resident_entries']} "
          f"entries (bound {ub['resident_entry_bound']})")
    if ub["speedup"] < 5.0:
        sys.exit(f"bulk build regression: streaming only {ub['speedup']}x "
                 f"the repeated-insert build (< 5)")
    if ub["peak_resident_entries"] > ub["resident_entry_bound"]:
        sys.exit(f"streaming memory contract broken: {ub['peak_resident_entries']} "
                 f"resident entries above the M x height bound {ub['resident_entry_bound']}")

    # 9. serving telemetry
    st = bench["serving_telemetry"]
    ratio = st["cold"]["instrumented_over_uninstrumented"]
    print(f"serving_telemetry: instrumented_over_uninstrumented = {ratio}, "
          f"per-store reads {st['physical_reads_by_store']}")
    if ratio < 0.95:
        sys.exit(f"telemetry overhead regression: instrumented cold SJ2 at "
                 f"{ratio}x the unrecorded path (< 0.95)")
    if st["warm"]["physical_reads"] != 0:
        sys.exit(f"warm service requests performed "
                 f"{st['warm']['physical_reads']} physical reads (expected 0)")
    if st["warm"]["hit_ratio"] != 1.0:
        sys.exit(f"warm service hit ratio {st['warm']['hit_ratio']} (expected 1.0)")
    tq = st["target_qps"]
    print(f"serving_telemetry: target {tq['target']} qps, achieved {tq['achieved']}, "
          f"{tq['ok']} ok / {tq['overloaded']} overloaded, open-loop p50 "
          f"{tq['latency_us']['p50']}us p99 {tq['latency_us']['p99']}us")
    if tq["ok"] + tq["overloaded"] != tq["requests"]:
        sys.exit("open-loop run lost requests: every query must resolve ok or typed-overloaded")
    probe = st["overload_probe"]
    if probe["overloaded"] != probe["requests"]:
        sys.exit(f"overload probe: {probe['overloaded']}/{probe['requests']} "
                 f"rejections — a held slot with zero queue must reject the whole burst")

    # 8 (cont.). bulk-built cold join
    cj = bs["cold_join"]
    print(f"bulk_scale cold join ({cj['scenario']}): pairs bulk {cj['pairs_bulk']} "
          f"vs insert {cj['pairs_insert']}, disk accesses {cj['disk_accesses_bulk']} "
          f"vs {cj['disk_accesses_insert']}")
    if cj["pairs_bulk"] != cj["pairs_insert"]:
        sys.exit(f"bulk-built file joins differently: {cj['pairs_bulk']} pairs "
                 f"vs {cj['pairs_insert']} over the insert-built file")
    if cj["disk_accesses_bulk"] > cj["disk_accesses_insert"]:
        sys.exit(f"bulk-built file costs more cold I/O than the insert-built file: "
                 f"{cj['disk_accesses_bulk']} vs {cj['disk_accesses_insert']} disk accesses")

    print("perf guard: all clauses hold")


if __name__ == "__main__":
    main()
