#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

Runs every workload of BENCHMARK.json twice with the same seed, untraced
and traced, and checks that each run prints every metric BENCHMARK.json
names with its unit, that the exact counts (pairs, disk accesses,
comparisons, pages) repeat between the two runs, and that a bad argument
ends the run with a non-zero exit and no result line.

Run from the repository root:  python3 perfbench/smoke.py
"""

import json
import re
import subprocess
import sys

SEED = 3
# Counts that must repeat exactly for one seed.
EXACT = {
    False: ["disk_accesses", "comparisons"],
    True: [
        "rtree.pages",
        "rtree.height",
        "core.join_comparisons",
        "core.sort_comparisons",
        "storage.disk_accesses",
        "storage.path_hits",
        "storage.lru_hits",
    ],
}


def run(cmd, args):
    out = subprocess.run(cmd + args, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout, out.stderr


def oracle_line(stderr):
    m = re.search(r"(\d+) pairs, (\d+) disk accesses, (\d+) comparisons", stderr)
    assert m, "no oracle line on stderr:\n" + stderr[-2000:]
    return m.groups()


def main():
    bench = json.load(open("BENCHMARK.json"))
    cmd = bench["command"]
    failures = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (False, True):
            want = bench["per_layer" if trace else "end_to_end"]
            seen = []
            for _ in range(2):
                code, out, err = run(
                    cmd,
                    ["--workload", name, "--seed", str(SEED), "--seconds", "1",
                     "--trace", "1" if trace else "0", "--size", "tiny"],
                )
                assert code == 0, f"{name} trace={trace} exited {code}:\n{err[-3000:]}"
                res = json.loads(out.strip().splitlines()[-1])
                assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
                assert res["correct"] is True and res["attempted"] >= 1
                got = res["metrics"]
                for m in want:
                    if m["name"] not in got:
                        failures.append(f"{name} trace={trace}: {m['name']} missing")
                    elif got[m["name"]]["unit"] != m["unit"]:
                        failures.append(
                            f"{name} trace={trace}: {m['name']} unit "
                            f"{got[m['name']]['unit']} != {m['unit']}"
                        )
                extra = set(got) - {m["name"] for m in want}
                if extra:
                    failures.append(f"{name} trace={trace}: unlisted metrics {sorted(extra)}")
                seen.append((oracle_line(err), {k: got[k]["value"] for k in EXACT[trace]}))
            if seen[0] != seen[1]:
                failures.append(f"{name} trace={trace}: counts differ {seen[0]} vs {seen[1]}")
            print(f"ok {name} trace={trace}: {seen[0][0]}")
    code, out, _ = run(cmd, ["--workload", "no_such_workload", "--seed", "1",
                             "--seconds", "1", "--trace", "0"])
    if code == 0 or out.strip():
        failures.append("an unknown workload must exit non-zero without a result")
    if failures:
        print("\n".join(failures))
        sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
