#!/usr/bin/env python3
"""PRoof performance benchmark: builds the harness from source and runs one
workload in its own process.

Run from the root of a source tree:

    python3 perfbench/run.py --workload cold_profile --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads: cold_profile, sweep_campaign, serve_mix (``all`` runs each in
turn).  The harness is built into ``.bench_build/`` with CMake (Release, the
program's own options at their defaults).  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones from
a traced replay; the trace itself is written to
``.bench_build/traces/<workload>-seed<n>.json`` (Chrome trace format).

The last line of standard output is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
carry the host stamp, tail percentiles with sample counts, correctness
problems and the traced-run reconciliation.  The exit code is 0 only when
every output check passed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

WORKLOADS = ("cold_profile", "sweep_campaign", "serve_mix")
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "proof_perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False when either fails."""
    bench_dir = os.path.relpath(HERE)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "proof_perfbench", "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step {cmd[:2]} failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step {' '.join(cmd)} exited {done.returncode}")
            return False
    return os.path.exists(BINARY)


def source_stamp():
    """Git commit when the tree is a checkout, plus a digest of the sources
    the harness is built from (the tree may not be a git repository)."""
    commit = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", os.path.relpath(HERE)):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files
            if "__pycache__" not in d)
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return f"git:{commit} src:{digest.hexdigest()[:12]}"


def load_spec():
    """BENCHMARK.json and predictions.json, which must name the same
    workloads and per-layer metrics.  (None, None) when they disagree."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)
    for key, names in (("workloads", [w["name"] for w in spec["workloads"]]),
                       ("per_layer", [m["name"] for m in spec["per_layer"]])):
        if set(predictions[key]) != set(names):
            log(f"predictions.json {key} differ from BENCHMARK.json: "
                f"{sorted(set(predictions[key]) ^ set(names))}")
            return None, None
    return spec, predictions


def expected_metrics(spec, trace):
    """{name: unit} of the metrics BENCHMARK.json asks for in this mode."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def fill_unmeasured(result, expected):
    """Adds, at 0, the per-layer metrics a workload has no traffic for, so
    every run reports every name; returns the names it added."""
    metrics = result.get("metrics", {})
    missing = [name for name in expected if name not in metrics]
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    return missing


def validate(result, expected):
    """Problems with the result line's shape (empty when it meets the contract)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or isinstance(result.get(key), bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("no op attempted")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        value = m.get("value")
        if set(m) != {"value", "unit"} or m.get("unit") != expected.get(name):
            problems.append(f"metric {name} is malformed or has the wrong unit")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number")
    return problems


def run_workload(spec, predictions, workload, seed, seconds, trace, stamp):
    """Runs one workload's process; returns (result line or None, exit code)."""
    os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--commit", stamp]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD_DIR, "traces", f"{workload}-seed{seed}.json")]
    # The program runs with its own defaults: no PROOF_* overrides leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PROOF_")}
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None, 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"{workload} printed nothing (exit {done.returncode})")
        return None, 1
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2]) if len(lines) > 1 else {"detail": {}}
    except json.JSONDecodeError:
        log(f"{workload}: the last two lines are not JSON: {lines[-1][:200]}")
        return None, 1
    expected = expected_metrics(spec, trace)
    if "latency_tail" in detail["detail"]:
        # Printed but not gated; predictions.json records why and its spread.
        detail["detail"]["latency_tail"].update(predictions["workloads"][workload]["latency_tail"])
    if trace:
        # A 0 here is not a measurement: the detail line names these.
        detail["detail"]["not_measured"] = fill_unmeasured(result, expected)
    problems = validate(result, expected)
    if problems:
        log(f"{workload}: result breaks the output contract: {problems}")
        return None, 1
    for line in lines[:-2]:
        print(line)
    print(json.dumps(detail))
    return json.dumps(result), done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    args.seed %= 2**64  # the harness takes an unsigned 64-bit seed
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        log("run from the root of a PRoof source tree (CMakeLists.txt and src/ not found)")
        return 1
    spec, predictions = load_spec()
    if spec is None or not build():
        return 1
    stamp = source_stamp()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    code = 0
    for workload in workloads:
        line, rc = run_workload(spec, predictions, workload, args.seed, args.seconds,
                                args.trace == 1, stamp)
        if line is None:
            return 1
        print(line, flush=True)
        results[workload] = json.loads(line)
        code = code or rc
    if len(workloads) == 1:
        return code
    # --workload all: a table on stderr, then one summary line with the
    # metrics prefixed by workload.
    for w, r in results.items():
        log(f"{w}: attempted {r['attempted']} failed {r['failed']} correct {r['correct']}")
        for name, m in r["metrics"].items():
            log(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
