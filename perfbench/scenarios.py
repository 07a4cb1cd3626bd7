"""The benchmark's four workloads, each split into repeatable units of work.

Every workload turns ``--seed`` into a fixed list of inputs and exposes
``setup`` (paid once per run) and ``repetition`` (one unit of identical work,
repeated while the run's time lasts).  A repetition returns a :class:`Rep`:
its timings, its operation accounting, a digest of simulated statistics for
the correctness gate, and per-layer values.

The layers are driven from outside through their public calls
(``ScenarioSpec.build_workload``, ``build_stack``, ``Simulator.run``,
``FabricSimulator.start_flow``/``churn``, ``run_jobs``, ``ResultStore``);
workload requests are issued through the runner's own request function so
that the benchmark measures exactly what ``run_scheme`` does (checked at
set-up by :func:`check_matches_run_scheme`).
"""

from __future__ import annotations

import multiprocessing
import os
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.exec.executors import ProcessExecutor, run_jobs
from repro.exec.job import ExperimentJob
from repro.exec.store import ResultStore
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import _issue_request, build_stack, run_job, run_scheme
from repro.experiments.spec import ScenarioSpec
from repro.metrics.fct import FctStatistics
from repro.network.fabric import FabricSimulator
from repro.network.fattree import build_fat_tree
from repro.network.flow import FlowKind, FlowState
from repro.network.fluid import is_feasible, is_max_min_fair
from repro.network.transport.ideal import IdealMaxMinTransport
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams, derive_seed
from repro.workloads.traces import Operation, Workload

from hostspeed import ref_loop_s
from spans import NullTracer, Tracer


class HarnessError(RuntimeError):
    """The program's output failed one of the benchmark's correctness checks."""


@dataclass
class Rep:
    """What one repetition measured, per unit of work it ran.

    A repetition runs the same units (scenario instances, a fat-tree slice,
    a job batch) every time, so each list lines up across repetitions.
    """

    #: host seconds of set-up per unit (empty when set-up is timed once per
    #: run, see ``state["setup_times"]``)
    setup_s: List[float]
    #: host seconds of the measured phase (``Simulator.run``, or the batch)
    run_s: List[float]
    #: simulated seconds advanced during ``run_s``
    sim_s: List[float]
    #: runs that finished (a run that raised finished no job)
    jobs: List[int]
    #: host seconds for the unit, set-up included
    job_wall_s: List[float]
    attempted: int
    failed: int
    digest: Dict[str, Any]
    #: per-layer counters (always) and span-derived times (traced only)
    layers: Dict[str, float] = field(default_factory=dict)
    #: reference loops timed between this repetition's units (see ``hostspeed.py``)
    inner_loops: List[float] = field(default_factory=list)


def peak_rss_mb(children: Sequence[int] = ()) -> float:
    """High-water resident memory of this process plus the given children."""
    total_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for pid in children:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += float(line.split()[1])
    return total_kb / 1024.0


def stop_children() -> None:
    """End every process this one started and wait for each to exit.

    Pool workers are closed by their executor; this also ends any worker a
    failed run left behind and the ``multiprocessing`` resource tracker that
    spawning starts, which otherwise outlives this process by a moment.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:  # started by this process
        tracker._stop()


def fct_digest(fcts: Sequence[float], multiplicities: Sequence[int]) -> Dict[str, float]:
    """Session-weighted mean and p99 completion time."""
    stats = FctStatistics.from_fcts(fcts, multiplicities=multiplicities)
    return {"fct_mean_s": stats.mean_s, "fct_p99_s": stats.p99_s}


def check_byte_conservation(fabric: FabricSimulator) -> None:
    """Bytes the fabric counts as delivered equal what its flows received."""
    finished = [f for f in fabric.finished_flows if f.state is FlowState.FINISHED]
    received = sum(f.size_bytes * f.multiplicity for f in finished)
    received += sum(
        (f.size_bytes - f.remaining_bytes) * f.multiplicity for f in fabric.active_flows
    )
    slack = (
        len(finished) * fabric.config.completion_tolerance_bytes
        + 1e-9 * fabric.total_bytes_delivered
    )
    if abs(received - fabric.total_bytes_delivered) > slack:
        raise HarnessError(
            f"byte conservation broken: flows received {received!r} B, "
            f"fabric delivered {fabric.total_bytes_delivered!r} B"
        )


def check_feasible(fabric: FabricSimulator) -> None:
    """No link carries more than its capacity."""
    flows = fabric.active_flows
    rates = {f.flow_id: f.current_rate_bps for f in flows}
    if flows and not is_feasible(flows, rates, tolerance=1e-9, cache=fabric.incidence):
        raise HarnessError("active rates exceed a link capacity")


def kernel_counters(fabric: FabricSimulator) -> Dict[str, float]:
    """The fabric's and the incremental solver's perf counters."""
    delta = fabric.incidence.delta
    stats = delta.stats() if delta is not None else {}
    return {
        "network.recomputes": float(fabric.recomputes),
        "network.recomputes_coalesced": float(fabric.recomputes_coalesced),
        "network.solves_incremental": stats.get("solves_incremental", 0.0),
        "network.solves_full": stats.get("solves_full", 0.0),
        "network.dirty_rows_max": stats.get("dirty_rows_max", 0.0),
    }


# -- operation accounting ---------------------------------------------------------------


def account_operations(workload, cluster, clients, raised: bool) -> Dict[str, int]:
    """Honest per-request accounting of one scenario run.

    An upload succeeds when the cluster wrote it and its flow completed; a
    retrieval succeeds only when ``StorageCluster.read`` served it and its
    flow completed.  A retrieval the runner re-issued as an upload (its
    content reference was unknown) is *rewritten* and failed.  A run that
    raised fails every operation.

    The cluster appends one request record per issued request, in issue
    order, which is the workload's arrival order; the pairing is checked.
    """
    records = cluster.requests
    if len(records) > len(workload):
        raise HarnessError(
            f"cluster holds {len(records)} requests for {len(workload)} issued"
        )
    ok = served = rewritten = 0
    retrievals = 0
    for index, request in enumerate(workload):
        is_read = request.operation is Operation.READ
        retrievals += is_read
        if index >= len(records):
            continue
        record = records[index]
        client_id = clients[request.client_index % len(clients)].node_id
        if record.created_at != request.arrival_time_s or record.client_id != client_id:
            raise HarnessError(
                f"request record {index} ({record.client_id} at {record.created_at}) "
                f"does not match workload request ({client_id} at {request.arrival_time_s})"
            )
        if is_read:
            if record.kind == "read":
                served += record.completed
                ok += record.completed
            else:
                rewritten += 1
        else:
            ok += record.kind == "write" and record.completed
    attempted = len(workload)
    return {
        "attempted": attempted,
        "failed": attempted if raised else attempted - ok,
        "retrievals": retrievals,
        "reads_served": served,
        "reads_rewritten": rewritten,
    }


# -- scenario workloads (video-scda, pareto-randtcp) -----------------------------------


def video_spec(seed: int, sim_time_s: float, read_fraction: float = 0.3) -> ScenarioSpec:
    """The video-plus-control tree scenario of Figures 7-9, with retrievals."""
    spec = ScenarioConfig.video_with_control(sim_time=sim_time_s, seed=seed).to_spec()
    params = dict(spec.workload_params, read_fraction=read_fraction)
    return spec.with_overrides(workload_params=params)


def pareto_spec(seed: int, sim_time_s: float) -> ScenarioSpec:
    """The Pareto/Poisson tree scenario of Figures 17-18."""
    return ScenarioSpec.pareto_poisson(sim_time_s=sim_time_s, seed=seed)


def instrument_stack(stack, tracer: Tracer) -> None:
    """Spans around the layer calls made during ``Simulator.run``."""
    tracer.wrap(stack.fabric.transport, "update_rates", "network.update_rates")
    if stack.controller is not None:
        tracer.wrap(stack.controller, "control_round", "core.control_round")
        tracer.wrap(stack.controller.tree, "run_round", "core.run_round")
    tracer.wrap(stack.cluster, "write", "cluster.write")
    tracer.wrap(stack.cluster, "read", "cluster.read")


def run_instance(
    spec: ScenarioSpec, scheme: str, tracer: Tracer, workload: Optional[Workload] = None
) -> Dict[str, Any]:
    """One scenario run, as ``run_scheme`` does it, with its measurements.

    ``workload`` replaces the spec's generated one (tests use hand-made ones).
    """
    t0 = perf_counter()
    with tracer.span("workloads.generate"):
        if workload is None:
            workload = spec.build_workload()
    t1 = perf_counter()
    with tracer.span("experiments.build_stack"):
        stack = build_stack(spec, scheme)
    t2 = perf_counter()
    instrument_stack(stack, tracer)
    sim = stack.sim
    clients = stack.topology.clients()
    for request in workload:
        sim.call_at(request.arrival_time_s, _issue_request, stack, request, clients)
    stack.collector.start_sampling()
    error = ""
    t3 = perf_counter()
    try:
        with tracer.span("sim.run"):
            sim.run(until=spec.total_time_s)
    except Exception as exc:  # noqa: BLE001 - a raising run fails all its operations
        error = type(exc).__name__
    t4 = perf_counter()
    stack.collector.detach()
    if not error:
        check_byte_conservation(stack.fabric)
        check_feasible(stack.fabric)
    records = stack.collector.records
    return {
        "generate_s": t1 - t0,
        "build_stack_s": t2 - t1,
        "run_s": t4 - t3,
        "sim_s": sim.now,
        "error": error,
        "accounting": account_operations(workload, stack.cluster, clients, bool(error)),
        "flows_started": stack.collector.flows_started,
        "requests_completed": len(stack.cluster.completed_requests()),
        "fcts": [r.fct_s for r in records],
        "multiplicities": [r.multiplicity for r in records],
        "counters": {
            "sim.events": float(sim.events_processed),
            "core.rounds_run": float(
                stack.controller.rounds_run if stack.controller is not None else 0
            ),
            "cluster.writes": float(sum(r.kind == "write" for r in stack.cluster.requests)),
            **kernel_counters(stack.fabric),
        },
    }


def check_matches_run_scheme(spec: ScenarioSpec, scheme: str) -> None:
    """:func:`run_instance` must still simulate what ``run_scheme`` does.

    Both run the same spec; their request counts, flow count and
    session-weighted completion times must agree, and a run that raises must
    raise in both.
    """
    mine = run_instance(spec, scheme, NullTracer())
    try:
        theirs = run_scheme(spec, scheme)
    except Exception as exc:  # noqa: BLE001 - compared with run_instance's error
        if type(exc).__name__ != mine["error"]:
            raise HarnessError(
                f"run_scheme raised {type(exc).__name__}, run_instance {mine['error'] or 'nothing'}"
            ) from exc
        return
    if mine["error"]:
        raise HarnessError(f"run_instance raised {mine['error']}, run_scheme did not")
    want = {
        "requests_issued": int(theirs.extras["requests_issued"]),
        "requests_completed": int(theirs.extras["requests_completed"]),
        "flows_started": int(theirs.extras["flows_started"]),
        **fct_digest([r.fct_s for r in theirs.records], [r.multiplicity for r in theirs.records]),
    }
    got = {
        "requests_issued": mine["accounting"]["attempted"],
        "requests_completed": mine["requests_completed"],
        "flows_started": mine["flows_started"],
        **fct_digest(mine["fcts"], mine["multiplicities"]),
    }
    for key, value in want.items():
        if not np.isclose(got[key], value, rtol=1e-9, atol=0.0, equal_nan=True):
            raise HarnessError(
                f"run_instance no longer matches run_scheme: {key} {got[key]!r} vs {value!r}"
            )


@dataclass(frozen=True)
class ScenarioWorkload:
    """A round of ``instances`` seeded runs of one paper scenario under one scheme.

    One instance is noisy in the work it makes (heavy-tailed sizes), so a
    repetition runs several instances, seeded from ``--seed``, and the
    harness takes the median of the repetitions' summed times.  The
    reference loop is timed between instances, so that each instance is
    scaled by the host speed around it.
    """

    name: str
    scheme: str
    make_spec: Any
    sim_time_s: float
    instances: int

    def specs(self, seed: int) -> List[ScenarioSpec]:
        return [
            self.make_spec(derive_seed(seed, "perfbench", self.name, str(i)), self.sim_time_s)
            for i in range(self.instances)
        ]

    def setup(self, seed: int) -> Dict[str, Any]:
        specs = self.specs(seed)
        # Lazy imports and registry catalogs load here, before anything is timed.
        check_matches_run_scheme(specs[0], self.scheme)
        return {"specs": specs}

    def repetition(self, state: Dict[str, Any], tracer: Tracer) -> Rep:
        runs = []
        loops = []
        for index, spec in enumerate(state["specs"]):
            if index:
                loops.append(ref_loop_s())
            tracer.trace_id = index
            runs.append(run_instance(spec, self.scheme, tracer))
        setup_s = [r["generate_s"] + r["build_stack_s"] for r in runs]
        run_s = [r["run_s"] for r in runs]
        acct = {
            key: sum(r["accounting"][key] for r in runs) for key in runs[0]["accounting"]
        }
        fcts = [x for r in runs for x in r["fcts"]]
        mults = [x for r in runs for x in r["multiplicities"]]
        digest = {
            **acct,
            "instances": len(runs),
            "flows_started": sum(r["flows_started"] for r in runs),
            "raised": [f"{i}:{r['error']}" for i, r in enumerate(runs) if r["error"]],
            **fct_digest(fcts, mults),
        }
        layers: Dict[str, float] = {}
        for r in runs:
            for key, value in r["counters"].items():
                if key.endswith("_max"):
                    layers[key] = max(layers.get(key, 0.0), value)
                else:
                    layers[key] = layers.get(key, 0.0) + value
        layers.update(
            {
                "workloads.generate_s": sum(r["generate_s"] for r in runs),
                "experiments.build_stack_s": sum(r["build_stack_s"] for r in runs),
                "cluster.reads_served": float(acct["reads_served"]),
                "cluster.reads_rewritten": float(acct["reads_rewritten"]),
            }
        )
        return Rep(
            setup_s=setup_s,
            run_s=run_s,
            sim_s=[r["sim_s"] for r in runs],
            jobs=[0 if r["error"] else 1 for r in runs],
            job_wall_s=[a + b for a, b in zip(setup_s, run_s)],
            attempted=acct["attempted"],
            failed=acct["failed"],
            digest=digest,
            layers=layers,
            inner_loops=loops,
        )

    def finish(self, state: Dict[str, Any]) -> float:
        return peak_rss_mb()


# -- fattree-churn ------------------------------------------------------------------------


@dataclass(frozen=True)
class FatTreeChurn:
    """Long-lived rack-local elephants on a fat tree plus a stream of short flows.

    Set-up builds the fabric, admits the elephants in one ``churn()`` batch
    and pays the cold full solve; the measured window then runs the short
    arrivals (the operations) under the ideal max-min transport.
    """

    name: str = "fattree-churn"
    k: int = 32
    elephants: int = 20_000
    arrivals: int = 16
    spacing_s: float = 0.001
    window_s: float = 0.12

    def setup(self, seed: int) -> Dict[str, Any]:
        build_fat_tree(k=self.k)  # imports and first-use costs, before timing
        return {"seed": seed, "checked": False}

    def repetition(self, state: Dict[str, Any], tracer: Tracer) -> Rep:
        t0 = perf_counter()
        with tracer.span("setup"):
            topology = build_fat_tree(k=self.k)
            sim = Simulator()
            fabric = FabricSimulator(sim, topology, IdealMaxMinTransport())
            tracer.wrap(fabric.transport, "update_rates", "network.update_rates")
            link_of = {(l.src.node_id, l.dst.node_id): l for l in topology.links}
            racks: Dict[str, list] = {}
            for host in topology.hosts():
                racks.setdefault(str(host.attrs["rack"]), []).append(host)
            rack_list = sorted(racks.items())
            rng = RandomStreams(state["seed"]).stream("perfbench-fattree-churn")

            def start_rack_local(size_bytes: float):
                rack_key, hosts = rack_list[int(rng.integers(0, len(rack_list)))]
                i = int(rng.integers(0, len(hosts)))
                j = int(rng.integers(0, len(hosts) - 1))
                if j >= i:
                    j += 1
                src, dst = hosts[i], hosts[j]
                edge_id = f"edge-{rack_key}"
                path = [link_of[(src.node_id, edge_id)], link_of[(edge_id, dst.node_id)]]
                return fabric.start_flow(src, dst, size_bytes, FlowKind.DATA, path=path)

            with fabric.churn():
                for _ in range(self.elephants):
                    start_rack_local(1e12)
        setup_s = perf_counter() - t0

        shorts: List[Any] = []
        sizes = rng.uniform(1e5, 1e6, size=self.arrivals)
        for n, size in enumerate(sizes):
            sim.call_at(
                self.spacing_s * (n + 1),
                lambda s=float(size): shorts.append(start_rack_local(s)),
            )
        t1 = perf_counter()
        with tracer.span("sim.run"):
            sim.run(until=self.window_s)
        run_s = perf_counter() - t1

        check_byte_conservation(fabric)
        if not state["checked"]:
            # The ideal transport must leave a max-min fair allocation.
            flows = fabric.active_flows
            rates = {f.flow_id: f.current_rate_bps for f in flows}
            if not is_max_min_fair(flows, rates, cache=fabric.incidence):
                raise HarnessError("fat-tree allocation is not max-min fair")
            state["checked"] = True
        done = [f for f in shorts if f.state is FlowState.FINISHED]
        digest = {
            "shorts_started": len(shorts),
            "shorts_completed": len(done),
            "elephants_active": sum(f.size_bytes == 1e12 for f in fabric.active_flows),
            **fct_digest([f.fct for f in done], [f.multiplicity for f in done]),
        }
        layers = {"sim.events": float(sim.events_processed), **kernel_counters(fabric)}
        return Rep(
            setup_s=[setup_s],
            run_s=[run_s],
            sim_s=[sim.now],
            jobs=[1],
            job_wall_s=[setup_s + run_s],
            attempted=self.arrivals,
            failed=self.arrivals - len(done),
            digest=digest,
            layers=layers,
        )

    def finish(self, state: Dict[str, Any]) -> float:
        return peak_rss_mb()


# -- sweep-process -------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessSweep:
    """Short paper-scenario jobs on a warm process pool into a fresh store.

    Set-up spawns and warms the pool (done ``setups`` times, the last pool
    is kept).  A repetition runs the batch into a fresh :class:`ResultStore`,
    canonicalises the results, then resumes from the store, which must serve
    every job from cache with identical results.

    Its timings are not scaled by host speed: the jobs run in the workers,
    and a reference loop in this process did not track their speed (scaling
    widened the ten-seed spread of ``setup_s`` from 0.04 to 0.11).
    """

    name: str = "sweep-process"
    specs: int = 24
    sim_time_s: float = 1.0
    workers: int = 2
    setups: int = 3
    speed_scaled: bool = False
    out_dir: Path = Path(__file__).resolve().parent / "out"

    def jobs(self, seed: int) -> List[ExperimentJob]:
        jobs = []
        for i in range(self.specs):
            spec = pareto_spec(derive_seed(seed, "perfbench", self.name, str(i)), self.sim_time_s)
            jobs.extend(ExperimentJob(spec=spec, scheme=s) for s in ("scda", "rand-tcp"))
        return jobs

    def setup(self, seed: int) -> Dict[str, Any]:
        warm = [
            ExperimentJob(spec=pareto_spec(derive_seed(seed, "perfbench", "warm", str(i)), 0.2),
                          scheme="rand-tcp")
            for i in range(self.workers)
        ]
        times = []
        executor: Optional[ProcessExecutor] = None
        try:
            for _ in range(self.setups):
                if executor is not None:
                    executor.close()
                t0 = perf_counter()
                executor = ProcessExecutor(max_workers=self.workers, pool="keep")
                run_jobs(warm, executor=executor)
                times.append(perf_counter() - t0)
        except BaseException:
            if executor is not None:
                executor.close()
            raise
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return {
            "executor": executor,
            "jobs": self.jobs(seed),
            "setup_times": times,
            "store_path": self.out_dir / f"sweep-store-{os.getpid()}.jsonl",
            "checked": False,
        }

    def repetition(self, state: Dict[str, Any], tracer: Tracer) -> Rep:
        executor, jobs, path = state["executor"], state["jobs"], state["store_path"]
        path.unlink(missing_ok=True)
        store = ResultStore(path)
        tracer.wrap(store, "put", "exec.store_put")
        t0 = perf_counter()
        with tracer.span("exec.batch"):
            report = run_jobs(jobs, executor=executor, store=store, raise_on_error=False)
        batch_s = perf_counter() - t0
        t1 = perf_counter()
        with tracer.span("metrics.canonical"):
            canonical = {key: r.canonical_dict() for key, r in report.results.items()}
        canonical_s = perf_counter() - t1
        t2 = perf_counter()
        with tracer.span("exec.resume"):
            resumed = run_jobs(
                jobs, executor=executor, store=ResultStore(path), raise_on_error=False
            )
        resume_s = perf_counter() - t2
        path.unlink()

        if resumed.cached != len(canonical):
            raise HarnessError(
                f"resume served {resumed.cached} of {len(canonical)} stored results from the store"
            )
        for key, result in resumed.results.items():
            if result.canonical_dict() != canonical[key]:
                raise HarnessError(f"stored result {key[:12]} differs from the computed one")
        if not state["checked"]:
            # Process results must equal an in-process serial run.
            for job in jobs[:2]:
                if run_job(job).canonical_dict() != canonical[job.key]:
                    raise HarnessError(f"process result differs from serial run_job for {job.label()}")
            state["checked"] = True

        results = [report.results[job.key] for job in jobs if job.key in report.results]
        fcts = [r.fct_s for res in results for r in res.records]
        mults = [r.multiplicity for res in results for r in res.records]
        digest = {
            "jobs": len(jobs),
            "stored": len(canonical),
            "requests_issued": sum(int(r.extras["requests_issued"]) for r in results),
            "requests_completed": sum(int(r.extras["requests_completed"]) for r in results),
            "flows_started": sum(int(r.extras["flows_started"]) for r in results),
            **fct_digest(fcts, mults),
        }
        worker_loop_s = sum(r.wall_clock_s for r in results)
        wire = report.wire
        layers = {
            "metrics.canonical_s": canonical_s,
            "metrics.wire_encode_s": wire.get("encode_s", 0.0),
            "metrics.wire_decode_s": wire.get("decode_s", 0.0),
            "metrics.wire_bytes_per_result": (
                wire.get("encoded_bytes", 0.0) / wire["encoded_results"]
                if wire.get("encoded_results")
                else 0.0
            ),
            "exec.worker_loop_s": worker_loop_s,
            "exec.dispatch_overhead_frac": 1.0 - worker_loop_s / (self.workers * batch_s),
            "exec.resume_s": resume_s,
            "exec.retries": float(report.retried),
        }
        return Rep(
            setup_s=[],
            run_s=[batch_s],
            sim_s=[sum(job.spec.total_time_s for job in jobs if job.key in report.results)],
            jobs=[len(canonical)],
            job_wall_s=[batch_s],
            attempted=len(jobs),
            failed=len(jobs) - len(canonical),
            digest=digest,
            layers=layers,
        )

    def finish(self, state: Dict[str, Any]) -> float:
        executor: ProcessExecutor = state["executor"]
        rss = peak_rss_mb([p.pid for p in multiprocessing.active_children()])
        state["pool_stats"] = executor.stats()
        executor.close()
        return rss


WORKLOADS = {
    # 16 video instances: with 10, the instances' differing content left a
    # spread (IQR / median) of 0.12 in sim_s_per_wall_s over five seeds; with
    # 16 it read 0.04 over ten.
    "video-scda": ScenarioWorkload(
        name="video-scda", scheme="scda", make_spec=video_spec, sim_time_s=4.0, instances=16
    ),
    "pareto-randtcp": ScenarioWorkload(
        name="pareto-randtcp", scheme="rand-tcp", make_spec=pareto_spec, sim_time_s=2.0,
        instances=10,
    ),
    "fattree-churn": FatTreeChurn(),
    "sweep-process": ProcessSweep(),
}
