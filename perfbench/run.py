#!/usr/bin/env python3
"""Campaign benchmark: build, run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dnnfi checkout. Builds the dnnfi libraries, the
dnnfi_campaign worker and the perfbench_campaign harness into
.bench_build/perfbench (incrementally), runs the workload, and prints a
human-readable table followed, on the last line, by one JSON object with
exactly the keys correct, attempted, failed and metrics. The full record,
with host details, is written to .bench_build/perfbench-results/.

Exits nonzero without printing a result when the checkout holds no dnnfi
sources, the build fails or the harness fails. When the correctness gate
fires it exits nonzero and the last line reports correct: false, the failed
trial count, and no metrics.
See perfbench/README.md for workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench-results")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
HARNESS = os.path.join(BUILD, "perfbench_campaign")
WORKER = os.path.join(BUILD, "dnnfi", "tools", "dnnfi_campaign")
RUN_TIMEOUT_S = 170
HOST_FLAGS = ("avx2", "avx512f", "avx512bw", "avx512vl", "avx512dq", "f16c",
              "avx512_fp16")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds only the two needed targets."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench_campaign", "dnnfi_campaign"])
    t0 = time.monotonic()
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return time.monotonic() - t0


def cpu_record():
    """CPU model and the SIMD flags the kernel sets depend on."""
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = val.strip()
                elif key == "flags" and not flags:
                    flags = set(val.split())
    except OSError:
        pass
    return {"cpu_model": model,
            "cpu_flags": {f: f in flags for f in HOST_FLAGS}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test hook: flips one byte of the first timed run's accumulator.
    ap.add_argument("--corrupt-accumulator", action="store_true",
                    help=argparse.SUPPRESS)
    a = ap.parse_args()

    for need in ("CMakeLists.txt", "src/CMakeLists.txt", "models"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no dnnfi checkout around %s (missing %s)" % (HERE, need))
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        fail("unknown workload %r (have: %s)" % (a.workload, ", ".join(names)))
    expected = [m["name"] for m in
                bench["per_layer" if a.trace else "end_to_end"]]

    build_s = build()
    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    cmd = [HARNESS, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--campaign-bin", WORKER,
           "--work-dir", os.path.join(WORK, a.workload)]
    if a.trace:
        cmd += ["--spans", os.path.join(RESULTS, stem + ".spans.json")]
    if a.corrupt_accumulator:
        cmd.append("--corrupt-accumulator")
    env = dict(os.environ, DNNFI_MODEL_DIR=os.path.join(ROOT, "models"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish in %d s" % (a.workload, RUN_TIMEOUT_S))
    lines = stdout.strip().splitlines()
    if not lines:
        fail("harness printed nothing (exit %d)" % proc.returncode)
    record = json.loads(lines[-1])
    record["host"].update(cpu_record())
    record["info"]["build_s"] = build_s
    record["workload"], record["seed"] = a.workload, a.seed
    record["seconds"], record["trace"] = a.seconds, a.trace
    with open(os.path.join(RESULTS, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    metrics = record["metrics"]
    correct = record["correct"] and proc.returncode == 0
    if correct:
        missing = [n for n in expected if n not in metrics]
        if missing:
            fail("harness did not report: " + ", ".join(missing))
        metrics = {n: metrics[n] for n in expected}
    attempted, failed = record["attempted"], record["failed"]
    print("workload %s  seed %d  trace %d  (%s, %s threads/workers: %s)" % (
        a.workload, a.seed, a.trace, record["host"]["cpu_model"],
        record["host"]["kernels_float16"],
        record["host"].get("threads", record["host"].get("workers"))))
    for name, m in metrics.items():
        print("  %-44s %16.6g %s" % (name, m["value"], m["unit"]))
    print("  %-44s %16.6g ratio (%d of %d trials)" % (
        "failed_frac", failed / attempted if attempted else 0.0, failed,
        attempted))
    if not correct:
        # No speed number from wrong bytes: report the failure count only.
        print("perfbench: correctness gate failed on %s" % a.workload,
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        sys.exit(1)
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
