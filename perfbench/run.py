#!/usr/bin/env python3
"""perfbench: the SMPI-rs benchmark, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the measuring program (`perfbench/`, a Cargo package of its own)
from source, then:

* `--trace 0` runs the workload in fresh processes, one simulation each,
  back to back for `--seconds` seconds, and reports the medians of the
  end-to-end metrics: wall_s, ops_per_s, setup_s and peak_rss_mb;
* `--trace 1` runs it untraced and with the metrics recorder on (fresh
  processes again) and once traced, and reports the per-layer metrics.

Every run checks the simulated outputs: each process's own checks, the same
bitwise output digest in every process, and the digest committed in
`perfbench/refs.json` for the seeds recorded there. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Fewest fresh-process samples per run, whatever --seconds says.
MIN_SAMPLES = 3
# Untraced and metrics-on processes per traced run.
TRACE_PAIRS = 3
# A single measuring process never needs this long; past it, it is killed
# and counted as failed.
CHILD_TIMEOUT_S = 150
# After this many crashed processes a run stops early.
MAX_CRASHES = 3


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# Workload and metric names and units come from the benchmark's definition.
SPEC = load_json(os.path.join(ROOT, "BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
REFS = load_json(os.path.join(HERE, "refs.json"))


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    """Builds the measuring program; returns its path and the child env."""
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)
    return os.path.join(target, "release", "perfbench"), env, target


def child(binary, env, args):
    """Runs one measuring process; returns its JSON line or None."""
    try:
        r = subprocess.run([binary] + args, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("process timed out:", " ".join(args))
        return None
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log("process failed with code", r.returncode, ":", " ".join(args))
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("unreadable output:", lines[-1][:200])
        return None


class Verdict:
    """Output checks and failure accounting across a run's processes."""

    def __init__(self, workload, seed):
        self.ref = REFS["digests"].get(workload, {}).get(str(seed))
        self.digests = set()
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def crashed(self):
        self.attempted += 1
        self.failed += 1
        self.problems.append("a measuring process failed")

    def add(self, out):
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.digests.add(out["digest"])
        self.problems += ["check failed: " + name
                          for name, ok in out["checks"].items() if not ok]

    def correct(self):
        if len(self.digests) > 1:
            self.problems.append("simulated outputs differ between processes")
        if self.ref is not None and self.digests - {self.ref}:
            self.problems.append("simulated outputs differ from refs.json")
        for p in self.problems:
            log(p)
        return not self.problems and self.failed == 0 and self.attempted > 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(binary, env, workload, seed, seconds, verdict):
    samples = []
    crashes = 0
    deadline = time.monotonic() + seconds
    while len(samples) < MIN_SAMPLES or time.monotonic() < deadline:
        args = ["measure", "--workload", workload, "--seed", str(seed)]
        if workload == "dt-sweep" and not samples:
            # Once per run, the streamed sweep table is compared byte for
            # byte with the same matrix fed from the materialized trace.
            args.append("--reference")
        out = child(binary, env, args)
        if out is None:
            verdict.crashed()
            crashes += 1
            if crashes >= MAX_CRASHES:
                break
            continue
        verdict.add(out)
        samples.append(out)
    if workload == "dt-sweep" and samples and \
            "stream_table_equals_trace_table" not in samples[0]["checks"]:
        verdict.problems.append("the reference sweep did not run")
    # Timings come only from processes whose every operation succeeded.
    samples = [s for s in samples if s["failed"] == 0 and s["wall_s"] > 0]
    if not samples:
        return {}
    values = {
        "wall_s": [s["wall_s"] for s in samples],
        "ops_per_s": [s["ops"] / s["wall_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    for name, v in values.items():
        lo, hi = quartiles(v)
        log(f"{name}: median {statistics.median(v):.6g} "
            f"(quartiles {lo:.6g} .. {hi:.6g}, n={len(v)})")
    return {name: {"value": statistics.median(v), "unit": END_TO_END[name]}
            for name, v in values.items()}


def traced(binary, env, target, workload, seed, verdict):
    base_args = ["measure", "--workload", workload, "--seed", str(seed)]
    if workload == "dt-sweep":
        base_args.append("--reference")
    base, on = [], []
    for _ in range(TRACE_PAIRS):
        for args, into in ((base_args, base), (base_args + ["--metrics"], on)):
            if workload == "dt-sweep" and into is on:
                continue  # dt-sweep measures the recorder in-process
            out = child(binary, env, args)
            if out is None:
                verdict.crashed()
                continue
            verdict.add(out)
            if out["failed"] == 0:
                into.append(out)
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
    layers = child(binary, env, ["layers", "--workload", workload,
                                 "--seed", str(seed), "--spans", spans])
    if layers is None or not base:
        if layers is None:
            verdict.crashed()
        return {}
    verdict.add(layers)
    log("spans written to", spans)
    m = dict(layers["metrics"])
    base_wall = statistics.median(s["wall_s"] for s in base)
    m["trace.overhead_pct"] = (m.pop("workload.wall_s") / base_wall - 1) * 100
    if workload != "dt-sweep" and on:
        on_wall = statistics.median(s["wall_s"] for s in on)
        m["obs.overhead_pct"] = (on_wall / base_wall - 1) * 100
        m["obs.extra_simcalls"] = on[0]["simcalls"] - base[0]["simcalls"]
        phases = {}
        for s in on:
            other = s["profile_wall_s"] - sum(s["phases"].values())
            for name, secs in list(s["phases"].items()) + [("other", other)]:
                phases.setdefault(name, []).append(secs)
        for name, v in phases.items():
            m[f"smpi.phase.{name}_s"] = statistics.median(v)
    missing = [name for name in PER_LAYER if name not in m]
    if missing:
        verdict.problems.append("per-layer metrics missing: " + ", ".join(missing))
    return {name: {"value": m[name], "unit": unit}
            for name, unit in PER_LAYER.items() if name in m}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFS["default_seed"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    binary, env, target = build()
    verdict = Verdict(a.workload, a.seed)
    if a.trace:
        metrics = traced(binary, env, target, a.workload, a.seed, verdict)
    else:
        metrics = end_to_end(binary, env, a.workload, a.seed, a.seconds, verdict)
    correct = verdict.correct() and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(verdict.attempted, 1),
                      "failed": verdict.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
