#!/usr/bin/env python3
"""Compare two groups of perfbench records, refusing silent cross-host runs.

    python3 perfbench/compare.py BASE.json... -- HEAD.json...

Each file is a record written by run.py to .bench_build/perfbench-results/.
Records are grouped by (workload, trace). For each metric the script prints
both medians and the change, and for end-to-end metrics the BENCHMARK.json
bound, marking a change worse than the bound as REGRESSION. The change is
relative to the base median's magnitude; when the base median is 0 it is
printed as an absolute difference.

The host fields are CPU model and flags, nproc, kernel profile, compiler,
build type and thread/worker count. When they differ within or between the
groups, the script prints every difference and exits 3 without comparing.
Exits 1 when any metric regressed.
"""
import json
import math
import os
import statistics
import sys

HOST_KEYS = ("cpu_model", "cpu_flags", "nproc", "threads", "workers",
             "kernel_mode", "kernels_float", "kernels_float16", "cpu_avx2",
             "cpu_avx512_bundle", "cpu_f16c", "f16c_compiled", "compiler",
             "build_type")


def load(paths):
    groups = {}
    for p in paths:
        with open(p) as f:
            r = json.load(f)
        groups.setdefault((r["workload"], r["trace"]), []).append((p, r))
    return groups


def host_diffs(records):
    """Host fields that are not identical across `records`."""
    diffs = []
    for k in HOST_KEYS:
        seen = {json.dumps(r["host"].get(k), sort_keys=True): p
                for p, r in records}
        if len(seen) > 1:
            diffs.append("%s: %s" % (k, "; ".join(
                "%s in %s" % (v, os.path.basename(p))
                for v, p in seen.items())))
    return diffs


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    base, head = load(argv[:cut]), load(argv[cut + 1:])
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}

    mismatch, regressed = False, False
    for key in sorted(set(base) | set(head)):
        b, h = base.get(key, []), head.get(key, [])
        print("== %s (trace %d): %d base, %d head records" % (
            key[0], key[1], len(b), len(h)))
        diffs = host_diffs(b + h)
        if diffs:
            mismatch = True
            print("  HOST MISMATCH — these runs are not comparable:")
            for d in diffs:
                print("    " + d)
            continue
        if not b or not h:
            continue
        for name in b[0][1]["metrics"]:
            bv = [r["metrics"][name]["value"] for _, r in b
                  if name in r["metrics"]]
            hv = [r["metrics"][name]["value"] for _, r in h
                  if name in r["metrics"]]
            if not bv or not hv:
                continue
            bm, hm = statistics.median(bv), statistics.median(hv)
            if bm:
                change = (hm - bm) / abs(bm)
                shown = "%+9.2f%%" % (100 * change)
            else:
                change = math.copysign(math.inf, hm) if hm else 0.0
                shown = "%+9.4g abs" % hm
            worse = -change if better.get(name) == "higher" else change
            verdict = ""
            if name in bounds:
                verdict = "bound %.2f" % bounds[name]["bound"]
                if worse > bounds[name]["bound"]:
                    verdict += "  REGRESSION"
                    regressed = True
            print("  %-44s %14.6g -> %14.6g  %s  %s" % (
                name, bm, hm, shown, verdict))
    if mismatch:
        sys.exit(3)
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
