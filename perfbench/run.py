"""nilclean benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  NAME is one of field-sweep, zm-scaling, verify-stream,
oracle-survey, or ``all`` to run the four one after another.

Each workload runs in a fresh interpreter with one caller in a closed loop
(see child.py).  This parent process also times interpreter start-up up to
``import nilclean.cli`` and reads the child's peak RSS.  It prints a report
with provenance and every metric with its unit and sample count, writes the
full result to perfbench/out/, and prints as its last line the JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import numpy

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("field-sweep", "zm-scaling", "verify-stream", "oracle-survey")
STARTUP_LAUNCHES = 21
CHILD_TIMEOUT_S = 170
STARTUP_PROBE = ("import time, nilclean.cli; t = time.clock_gettime_ns(time.CLOCK_MONOTONIC); "
                 "import clock; print(t, *(clock.reference_ns() for _ in range(3)))")


def child_env(*extra: str) -> dict:
    env = dict(os.environ)
    path = [SRC, *extra] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def startup_seconds() -> list[float]:
    """Launch-to-imported times of fresh interpreters, each normalised by
    the median of three reference-loop timings the new interpreter takes
    right after the import (clock.py).  The first launch only warms the
    bytecode cache and is not counted."""
    times = []
    for i in range(STARTUP_LAUNCHES + 1):
        begin = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", STARTUP_PROBE], env=child_env(HERE),
                              capture_output=True, text=True, timeout=60, check=True)
        imported, *reference = (int(x) for x in done.stdout.split())
        if i:
            slow = statistics.median(reference) / clock.REFERENCE_NS
            times.append((imported - begin) / slow / 1e9)
    return times


def run_child(args, workload: str, result_path: str) -> tuple[int, float, str]:
    """(exit code, peak RSS in MB, stderr) of the workload's child process."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--outdir", OUT, "--result", result_path]
    log_path = result_path + ".log"
    with open(log_path, "w+", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        text = log.read()
    os.remove(log_path)
    return proc.returncode, usage.ru_maxrss / 1024, text


def provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unavailable (not a git checkout)", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src"],
                                    capture_output=True, text=True, timeout=60)
            dirty = bool(status.stdout.strip())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "src_dirty": dirty, "seed": seed}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(args, workload: str, spec: dict, prov: dict) -> dict:
    result_path = os.path.join(OUT, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
    code, rss_mb, log = run_child(args, workload, result_path)
    if code != 0:
        sys.stderr.write(log)
        raise SystemExit(f"{workload}: benchmark child exited with {code}")
    with open(result_path, encoding="utf-8") as handle:
        child = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []  # (name, value, unit, samples)
    if args.trace:
        layers = child["layers"]
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {name: float(layers.get(name, 0.0)) for name in names}
        rows += [(name, metrics[name], units[name], child["ops_per_pass"]) for name in names]
        rows += [(name, value, "", child["ops_per_pass"])
                 for name, value in sorted(layers.items()) if name not in metrics]
    else:
        startup = startup_seconds()
        e2e = child["end_to_end"]
        measured = {
            "setup_s": (child["setup_s"], child["setup_samples"]),
            "startup_s": (statistics.median(startup), len(startup)),
            "peak_rss_mb": (rss_mb, 1),
            "ops_per_s": (e2e["ops_per_s"], child["attempted"]),
            "op_us.p50": (e2e["op_us.p50"], e2e["_latency_samples"]),
            "op_us.tail": (e2e["op_us.tail"], e2e["_latency_samples"]),
        }
        metrics = {}
        for m in spec["end_to_end"]:
            value, samples = measured[m["name"]]
            metrics[m["name"]] = value
            rows.append((m["name"], value, m["unit"], samples))
        failed_frac = child["failed"] / child["attempted"]
        rows.append(("failed_frac", failed_frac, "ratio", child["attempted"]))
        rows += [tuple(row) for row in child["summary"]]
        child["tail_percentile"] = e2e["_tail_percentile"]
    correct = child["failed"] == 0 and not child["failures"]
    report(workload, args, prov, child, rows, correct)
    full = {"workload": workload, "provenance": prov, "child": child, "metrics": rows,
            "correct": correct}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(full, handle, indent=1)
    return {"correct": correct, "attempted": child["attempted"], "failed": child["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def report(workload, args, prov, child, rows, correct) -> None:
    print(f"== nilclean benchmark: {workload}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}")
    print("provenance: " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"loop: closed, 1 caller, fresh interpreter; passes={child['passes']}  "
          f"inputs/pass={child['inputs_per_pass']}  {child['op_unit']}s/pass={child['ops_per_pass']}")
    print(f"times: normalised by speed factor {child['speed_factor']:.4f} (mean of "
          f"{child['reference_samples']} reference-loop timings / nominal, see clock.py)"
          + (f"; each input's median of {child['passes']} passes" if not args.trace else ""))
    if "tail_percentile" in child:
        print(f"op_us.tail is p{child['tail_percentile']:.1f}: the highest percentile with "
              f"10 samples of a pass beyond it (at most p99)")
    for name, value, unit, samples in rows:
        print(f"  {name:<46} {value:>16.6f} {unit:<6} n={samples}")
    for site, status in child.get("sites", ()):
        print(f"  call site {status:<8} {site}")
    if "spans_file" in child:
        print(f"  spans: {child['spans']} written to {os.path.relpath(child['spans_file'], ROOT)}")
    print(f"correct={correct}  attempted={child['attempted']}  failed={child['failed']}")
    for note in child["failures"]:
        print(f"  FAILED: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nilclean", "cli.py")):
        print(f"no program to measure: {os.path.relpath(SRC)}/nilclean is missing",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    spec = load_spec()
    prov = provenance(args.seed)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(args, name, spec, prov) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
