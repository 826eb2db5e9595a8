"""One workload in a fresh interpreter: set up, run the closed loop, gate the
outputs, and write the figures as JSON for ``run.py``.

A closed loop with one caller: each operation starts when the previous one
has returned.  Runs are whole passes over the workload's input list, repeated
until ``--seconds`` have elapsed.  With ``--trace 1`` the child runs one
untraced pass and then one with the call-site wrappers installed, and reports
per-layer metrics and the tracing overhead (traced over untraced time)
instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
from time import perf_counter_ns

import clock
import tracing
from workloads import WORKLOADS, quantile

TIME_SUFFIXES = ("_us_per_call", "_us_per_op", ".self_s")
SETUPS = 3
SETUP_MIN_NS = 500_000_000
SETUP_MAX = 1000
TAIL_BEYOND = 10


def timed_loop(workload, items, sampler, tracer=None):
    """Run every input once; returns (latencies, outputs, raw pass time) in
    ns, each latency less the time the reference sampler took inside it and,
    untraced, normalised by the machine's speed around it (clock.py)."""
    spans, outputs = [], []
    op = workload.op
    for index, item in enumerate(items):
        stolen = sampler.stolen_ns
        start = perf_counter_ns()
        try:
            out = op(item) if tracer is None else tracer.run_op(index, op, item)
        except Exception as err:  # a failing operation is counted, not fatal
            out = err
        spans.append((start, perf_counter_ns() - start - (sampler.stolen_ns - stolen)))
        outputs.append(out)
    latencies = sampler.normalise(spans) if tracer is None else [d for _, d in spans]
    return latencies, outputs, sum(d for _, d in spans)


def checked(workload, items, loop, layers=False) -> dict:
    """Gate one pass's outputs and keep only what the summaries need, so
    memory does not grow with the number of passes."""
    latencies, outputs, wall = loop
    failed, notes = workload.gate(items, outputs)
    return {"latencies": latencies, "wall": wall, "failed": failed, "failures": notes,
            "record": workload.record(items, outputs),
            "layers": workload.layer_data(items, outputs) if layers else None}


def timed_pass(workload, items, sampler) -> dict:
    return checked(workload, items, timed_loop(workload, items, sampler))


def tail_quantile(samples_per_pass: int) -> float:
    """The highest percentile with TAIL_BEYOND samples of one pass beyond it,
    capped at p99."""
    return max(0.5, min(0.99, 1 - TAIL_BEYOND / samples_per_pass))


def typical_latencies(passes) -> list[float]:
    """Each input's median normalised latency over the passes.  The median,
    not the minimum: the lowest of several normalised timings would pick the
    most favourable normalisation error, more so the more passes ran."""
    return [statistics.median(times) for times in zip(*(p["latencies"] for p in passes))]


def end_to_end(workload, items, typical) -> dict:
    per_op = [t / workload.ops_in(item) for item, t in zip(items, typical)]
    q = tail_quantile(len(items))
    return {
        "ops_per_s": sum(workload.ops_in(item) for item in items) / (sum(typical) / 1e9),
        "op_us.p50": quantile(per_op, 0.5) / 1e3,
        "op_us.tail": quantile(per_op, q) / 1e3,
        "_tail_percentile": 100 * q,
        "_latency_samples": len(per_op),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.outdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        sampler = clock.Sampler()
        with sampler:
            # Set up at least SETUPS times, and until SETUP_MIN_NS in all, so
            # that the median of a cheap set-up is not one timer reading.
            setup_ns = []
            items = None
            while len(setup_ns) < SETUPS or (sum(d for _, d in setup_ns) < SETUP_MIN_NS
                                              and len(setup_ns) < SETUP_MAX):
                items = None
                stolen = sampler.stolen_ns
                start = perf_counter_ns()
                items = workload.setup()
                setup_ns.append((start, perf_counter_ns() - start - (sampler.stolen_ns - stolen)))
        # The inputs stay alive for the whole run, which a user's process
        # would not carry; keep them out of the collector's generations.
        gc.collect()
        gc.freeze()
        run = traced_run if args.trace else untraced_run
        result = run(workload, items, sampler, args)
        workload.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    slow = sampler.factor()
    result.update({
        "workload": args.workload,
        "seed": args.seed,
        "op_unit": workload.op_unit,
        "inputs_per_pass": len(items),
        "ops_per_pass": sum(workload.ops_in(item) for item in items),
        "setup_s": statistics.median(sampler.normalise(setup_ns)) / 1e9,
        "setup_samples": len(setup_ns),
        "speed_factor": slow,
        "reference_samples": len(sampler.samples),
    })
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def untraced_run(workload, items, sampler, args) -> dict:
    passes = []
    begin = perf_counter_ns()
    with sampler:
        while not passes or perf_counter_ns() - begin < args.seconds * 1e9:
            passes.append(timed_pass(workload, items, sampler))
    slow = sampler.factor()
    typical = typical_latencies(passes)
    result = {
        "passes": len(passes),
        "end_to_end": end_to_end(workload, items, typical),
        "summary": workload.summary(items, typical, passes, slow),
    }
    result.update(gate(workload, items, passes))
    return result


def gate(workload, items, passes) -> dict:
    ops = sum(workload.ops_in(item) for item in items)
    notes = [note for p in passes for note in p["failures"]][:5]
    return {"attempted": ops * len(passes), "failed": sum(p["failed"] for p in passes),
            "failures": notes}


def traced_run(workload, items, sampler, args) -> dict:
    """An untraced pass, then a traced one; the reference sampler is off in
    the traced pass so that no span contains it."""
    with sampler:
        plain = timed_pass(workload, items, sampler)
    tracer = tracing.Tracer()
    cache_before = tracing.factorize_cache()
    sites, restore = tracing.install(tracer)
    try:
        loop = timed_loop(workload, items, sampler, tracer)
    finally:
        restore()
    cache_after = tracing.factorize_cache()
    traced = checked(workload, items, loop, layers=True)

    layers = tracing.layer_metrics(tracer, sum(workload.ops_in(item) for item in items))
    layers.update(traced["layers"])
    checks = tracing.selfchecks_by_op(tracer)
    by_ring: dict[str, list[int]] = {}
    for index, item in enumerate(items):
        ring = workload.ring_of(item)
        if ring:
            by_ring.setdefault(ring, []).append(checks.get(index, 0))
    for ring, counts in by_ring.items():
        layers[f"decompose.selfchecks_per_op.{ring}"] = sum(counts) / len(counts)
    if cache_before is not None and cache_after is not None:
        hits = cache_after[0] - cache_before[0]
        calls = hits + cache_after[1] - cache_before[1]
        layers["residue.factorize.calls"] = float(calls)
        layers["residue.factorize.hit_ratio"] = hits / calls if calls else 0.0
    layers["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
    slow = sampler.factor()
    for name in layers:
        if name.endswith(TIME_SUFFIXES):
            layers[name] /= slow
    spans_path = os.path.join(args.outdir, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write(spans_path)
    out = {
        "passes": 2,
        "layers": layers,
        "sites": sites,
        "spans": len(tracer.name),
        "spans_file": spans_path,
    }
    out.update(gate(workload, items, [plain, traced]))
    return out

if __name__ == "__main__":
    sys.exit(main())
