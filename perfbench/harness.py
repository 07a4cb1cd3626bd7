"""Benchmark command: run one workload, check its outputs, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload video-scda --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced repetitions; the traced ones record spans
around the layer calls and give the per-layer metrics, and the difference in
measured time between the two kinds is reported as ``trace.overhead_frac``.
``--record-reference`` stores the run's simulated statistics as the reference
for its seed in ``perfbench/reference.json``.

End-to-end timings are host seconds at a nominal host speed: each unit of
work (a scenario instance, a fat-tree slice) is scaled by a fixed reference
loop timed just before and after it (see ``hostspeed.py``), and each metric
is the median over repetitions of the scaled sums.  The unscaled host-time
values are printed beside them and kept in the record.  ``sweep-process`` is
not scaled: its jobs run in two worker processes, whose speed a loop in the
parent process does not track.

Every repetition's digest of simulated statistics must equal the first one,
and, when the seed has a recorded reference, the reference too (counts
exactly, times to 1e-9 relative); otherwise the run fails with exit code 1
and prints no result.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run (the
environment fingerprint, every metric with its sample count, the digest and,
when traced, the spans) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from hostspeed import ref_loop_s, speed_factors
from scenarios import WORKLOADS, HarnessError, Rep, stop_children
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = HERE / "out"

#: (name, unit): the end-to-end metrics, printed by ``--trace 0`` runs.
END_TO_END: List[Tuple[str, str]] = [
    ("sim_s_per_wall_s", "s/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

#: (name, unit): the per-layer metrics, printed by ``--trace 1`` runs.  A
#: layer a workload does not run reports 0.
PER_LAYER: List[Tuple[str, str]] = [
    ("sim.events", "count"),
    ("sim.residual_s", "s"),
    ("sim.residual_frac", "frac"),
    ("core.control_round_s", "s"),
    ("core.control_round_calls", "count"),
    ("core.control_round_frac", "frac"),
    ("core.rounds_run", "count"),
    ("core.run_round_p50_us", "us"),
    ("core.run_round_p99_us", "us"),
    ("network.update_rates_self_s", "s"),
    ("network.update_rates_calls", "count"),
    ("network.update_rates_p99_us", "us"),
    ("network.update_rates_frac", "frac"),
    ("network.recomputes", "count"),
    ("network.recomputes_coalesced", "count"),
    ("network.solves_incremental", "count"),
    ("network.solves_full", "count"),
    ("network.dirty_rows_max", "count"),
    ("cluster.write_s", "s"),
    ("cluster.writes", "count"),
    ("cluster.read_s", "s"),
    ("cluster.reads_served", "count"),
    ("cluster.reads_rewritten", "count"),
    ("workloads.generate_s", "s"),
    ("experiments.build_stack_s", "s"),
    ("metrics.canonical_s", "s"),
    ("metrics.wire_encode_s", "s"),
    ("metrics.wire_decode_s", "s"),
    ("metrics.wire_bytes_per_result", "bytes"),
    ("exec.worker_loop_s", "s"),
    ("exec.dispatch_overhead_frac", "frac"),
    ("exec.store_put_s", "s"),
    ("exec.store_puts", "count"),
    ("exec.resume_s", "s"),
    ("exec.pool_spawned", "count"),
    ("exec.pool_reused", "count"),
    ("exec.retries", "count"),
    ("env.ref_loop_s", "s"),
    ("ops.failed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
]

#: Repetitions every run makes, however short ``--seconds`` is; a traced
#: run makes at least two traced and two untraced ones.
MIN_REPS = 3
MIN_REPS_TRACED = 4
#: Digest floats (completion times) must match to this relative tolerance.
REL_TOL = 1e-9


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    ref_file = ROOT / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(ref_loops: List[float]) -> Dict[str, Any]:
    """Fingerprint of the host the run measured."""
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
        "env.ref_loop_s": ref_loops,
    }


# -- the correctness gate -----------------------------------------------------------------


def digest_mismatch(expected: Dict[str, Any], actual: Dict[str, Any]) -> Optional[str]:
    """First difference between two digests, or None when they agree."""
    if set(expected) != set(actual):
        return f"digest keys differ: {sorted(expected)} vs {sorted(actual)}"
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, float) or isinstance(got, float):
            if math.isnan(want) and math.isnan(got):
                continue
            if not math.isclose(want, got, rel_tol=REL_TOL, abs_tol=0.0):
                return f"{key}: expected {want!r}, got {got!r}"
        elif want != got:
            return f"{key}: expected {want!r}, got {got!r}"
    return None


def load_reference() -> Dict[str, Dict[str, Any]]:
    if REFERENCE_PATH.is_file():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


def check_gate(workload: str, seed: int, reps: List[Rep]) -> str:
    """Raise :class:`HarnessError` on a mismatch; describe what was checked."""
    first = reps[0].digest
    for i, rep in enumerate(reps[1:], start=1):
        diff = digest_mismatch(first, rep.digest)
        if diff is not None:
            raise HarnessError(f"repetition {i} differs from repetition 0: {diff}")
    reference = load_reference().get(workload, {}).get(str(seed))
    if reference is None:
        return f"{len(reps)} identical repetitions, invariants held, no reference for seed {seed}"
    diff = digest_mismatch(reference, first)
    if diff is not None:
        raise HarnessError(f"reference mismatch for seed {seed}: {diff}")
    return f"{len(reps)} identical repetitions, invariants held, reference for seed {seed} matched"


def record_reference(workload: str, seed: int, digest: Dict[str, Any]) -> None:
    reference = load_reference()
    reference.setdefault(workload, {})[str(seed)] = digest
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


# -- per-layer values from spans --------------------------------------------------------------


def span_layers(tracer: Tracer, mark: int) -> Dict[str, float]:
    """Per-layer times of one traced repetition (the spans after ``mark``).

    Simulator-side layers count only work inside ``Simulator.run``, so the
    cold solve a set-up pays does not count as a hot-path rate update.
    """
    in_run = tracer.summary(mark, under="sim.run")
    every = tracer.summary(mark)

    def get(summary: Dict[str, Dict[str, Any]], name: str, key: str) -> float:
        return float(summary.get(name, {}).get(key, 0.0))

    def pct_us(name: str, q: float) -> float:
        durations = in_run.get(name, {}).get("durations_s")
        return float(np.percentile(durations, q)) * 1e6 if durations else 0.0

    sim_run = get(in_run, "sim.run", "total_s")

    def share(name: str, key: str = "total_s") -> float:
        return get(in_run, name, key) / sim_run if sim_run else 0.0

    return {
        "sim.residual_s": get(in_run, "sim.run", "self_s"),
        "sim.residual_frac": share("sim.run", "self_s"),
        "core.control_round_s": get(in_run, "core.control_round", "total_s"),
        "core.control_round_calls": get(in_run, "core.control_round", "count"),
        "core.control_round_frac": share("core.control_round"),
        "core.run_round_p50_us": pct_us("core.run_round", 50),
        "core.run_round_p99_us": pct_us("core.run_round", 99),
        "network.update_rates_self_s": get(in_run, "network.update_rates", "self_s"),
        "network.update_rates_calls": get(in_run, "network.update_rates", "count"),
        "network.update_rates_p99_us": pct_us("network.update_rates", 99),
        "network.update_rates_frac": share("network.update_rates"),
        "cluster.write_s": get(in_run, "cluster.write", "total_s"),
        "cluster.read_s": get(in_run, "cluster.read", "total_s"),
        "exec.store_put_s": get(every, "exec.store_put", "total_s"),
        "exec.store_puts": get(every, "exec.store_put", "count"),
    }


# -- the run ------------------------------------------------------------------------------------


def measure(workload, state: Dict[str, Any], seconds: float, trace: bool):
    """Repeat the workload's unit of work for ``seconds``; trace every other one."""
    tracer = Tracer() if trace else None
    untraced = NullTracer()
    reps: List[Rep] = []
    traced: List[bool] = []
    walls: List[float] = []
    ref_loops: List[float] = []
    min_reps = MIN_REPS_TRACED if trace else MIN_REPS
    start = perf_counter()
    while True:
        is_traced = trace and len(reps) % 2 == 1
        ref_loops.append(ref_loop_s())
        t0 = perf_counter()
        if is_traced:
            mark = tracer.mark()
            rep = workload.repetition(state, tracer)
            rep.layers.update(span_layers(tracer, mark))
        else:
            rep = workload.repetition(state, untraced)
        walls.append(perf_counter() - t0)
        reps.append(rep)
        traced.append(is_traced)
        elapsed = perf_counter() - start
        if len(reps) >= min_reps and elapsed + statistics.median(walls) > seconds:
            break
    ref_loops.append(ref_loop_s())
    return reps, traced, ref_loops, tracer


def median_of(values: List[float]) -> float:
    return float(statistics.median(values))


def unit_factors(workload, reps: List[Rep], ref_loops: List[float]) -> List[List[float]]:
    """Per repetition, the speed factor of each of its units.

    ``ref_loops`` holds the loop timed before each repetition and once after
    the last; a repetition's ``inner_loops`` are those timed between its units.
    """
    if not getattr(workload, "speed_scaled", True):
        return [[1.0] * (len(r.inner_loops) + 1) for r in reps]
    return [
        speed_factors([before] + r.inner_loops + [after])
        for r, before, after in zip(reps, ref_loops, ref_loops[1:])
    ]


def scaled_sum(times: List[float], factors: List[float]) -> float:
    """A repetition's per-unit timings, each scaled by its unit's factor."""
    if len(factors) == 1:
        return factors[0] * sum(times)
    if len(times) != len(factors):
        raise ValueError(f"{len(times)} timings for {len(factors)} units")
    return sum(f * t for f, t in zip(factors, times))


def scaled_median(reps: List[Rep], attr: str, factors: List[List[float]]) -> float:
    """Median over repetitions of a repetition's ``attr`` timings, scaled and summed."""
    return median_of([scaled_sum(getattr(r, attr), f) for r, f in zip(reps, factors)])


def end_to_end_metrics(
    reps: List[Rep],
    peak_rss: float,
    state: Dict[str, Any],
    factors: List[List[float]],
    setup_factor: float,
) -> Dict[str, Tuple[float, int]]:
    """Each metric as (value, samples taken), timings scaled by per-unit ``factors``.

    A workload that sets up once per run and times several set-ups keeps
    them in ``state["setup_times"]``; those are scaled by ``setup_factor``.
    """
    n = len(reps)
    first = reps[0]
    setups = state.get("setup_times")
    if setups:
        setup = (setup_factor * median_of(setups), len(setups))
    else:
        setup = (scaled_median(reps, "setup_s", factors), n)
    return {
        "sim_s_per_wall_s": (sum(first.sim_s) / scaled_median(reps, "run_s", factors), n),
        "jobs_per_s": (sum(first.jobs) / scaled_median(reps, "job_wall_s", factors), n),
        "peak_rss_mb": (peak_rss, 1),
        "setup_s": setup,
    }


def per_layer_metrics(
    workload, reps: List[Rep], traced: List[bool], ref_loops: List[float], state: Dict[str, Any]
) -> Dict[str, Tuple[float, int]]:
    """Per-layer medians over the traced repetitions, plus run-wide values."""
    traced_reps = [r for r, t in zip(reps, traced) if t]
    plain_reps = [r for r, t in zip(reps, traced) if not t]
    factors = unit_factors(workload, reps, ref_loops)
    traced_factors = [f for f, t in zip(factors, traced) if t]
    plain_factors = [f for f, t in zip(factors, traced) if not t]
    out: Dict[str, Tuple[float, int]] = {}
    for name, _unit in PER_LAYER:
        values = [r.layers[name] for r in traced_reps if name in r.layers]
        out[name] = (median_of(values), len(values)) if values else (0.0, 0)
    pool = state.get("pool_stats", {})
    out["exec.pool_spawned"] = (float(pool.get("spawned", 0)), 1)
    out["exec.pool_reused"] = (float(pool.get("reused", 0)), 1)
    out["env.ref_loop_s"] = (median_of(ref_loops), len(ref_loops))
    attempted = sum(r.attempted for r in reps)
    out["ops.failed_frac"] = (sum(r.failed for r in reps) / attempted, len(reps))
    overhead = (
        scaled_median(traced_reps, "run_s", traced_factors)
        / scaled_median(plain_reps, "run_s", plain_factors)
        - 1.0
    )
    out["trace.overhead_frac"] = (overhead, len(reps))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    """Run the command; on every way out, end each process it started."""
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="store this run's simulated statistics as the reference for its seed",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        flush=True,
    )

    setup_ref = ref_loop_s()
    state = workload.setup(args.seed)
    try:
        reps, traced, ref_loops, tracer = measure(workload, state, args.seconds, trace)
        gate = check_gate(args.workload, args.seed, reps)
    except HarnessError as exc:
        print(f"perfbench: correctness gate FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        peak_rss = workload.finish(state)
    if args.record_reference:
        record_reference(args.workload, args.seed, reps[0].digest)
        gate += "; recorded as reference"

    env = environment([setup_ref] + ref_loops)
    units = dict(PER_LAYER if trace else END_TO_END)
    if trace:
        values = per_layer_metrics(workload, reps, traced, ref_loops, state)
    else:
        factors = unit_factors(workload, reps, ref_loops)
        setup_factor = (
            speed_factors([setup_ref, ref_loops[0]])[0]
            if getattr(workload, "speed_scaled", True)
            else 1.0
        )
        values = end_to_end_metrics(reps, peak_rss, state, factors, setup_factor)
        host_values = end_to_end_metrics(reps, peak_rss, state, [[1.0]] * len(reps), 1.0)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"gate ok: {gate}")
    print("digest " + json.dumps(reps[0].digest, sort_keys=True))
    print(f"operations attempted={attempted} failed={failed}")
    for name, (value, count) in values.items():
        print(f"metric {name} = {value:.6g} {units[name]} (n={count})")
    if not trace:
        for name, (value, count) in host_values.items():
            print(f"unscaled host time: {name} = {value:.6g} {units[name]} (n={count})")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "gate": gate,
        "digest": reps[0].digest,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n], "samples": c} for n, (v, c) in values.items()},
        "repetitions": [
            {"traced": t, "setup_s": r.setup_s, "run_s": r.run_s, "sim_s": r.sim_s,
             "jobs": r.jobs, "job_wall_s": r.job_wall_s, "layers": r.layers}
            for r, t in zip(reps, traced)
        ],
    }
    if not trace:
        record["speed_factors"] = factors
        record["unscaled"] = {n: v for n, (v, _c) in host_values.items()}
    if tracer is not None:
        record["spans"] = tracer.to_records()
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _c) in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0
