"""The benchmark's three workloads and their correctness oracle.

Each workload builds its inputs from the seed (the program receives
only those inputs), warms up with one untimed pass over every distinct
input shape, and runs *sessions*.  A session is the unit of timed work:
a few rounds of ``solve()`` calls, or one whole serving run on a fresh
pool, scheduler and front end.  Every session checks its own outputs
against an oracle that shares no code with the solvers: a float64
residual against the §5.4 budget of the method that ran.

See ``README.md`` beside this file for why each workload exists and
which layer each should exercise.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.gpusim.pool import make_pool
from repro.numerics.generators import diagonally_dominant_fluid
from repro.serve import (BatchScheduler, FrontendConfig, ServeFrontend,
                         SolveJob, loadgen)
from repro.solvers.api import choose_method, solve
from repro.verify.budgets import budget_for

#: solve-mix batch shapes ``(num_systems, n)``, cycled in this order.
SOLVE_SHAPES = ((512, 512), (4096, 64), (16384, 16), (1, 65536))

#: solve-mix rounds per session (about two seconds of work).
ROUNDS_PER_SESSION = 8

#: serve-live modeled arrival horizon.  Long enough that every seed
#: completes well over 1,000 requests under the 2x overload mix.
LIVE_HORIZON_MS = 30.0

#: serve-batch job shape: ``BATCH_JOBS`` jobs of ``BATCH_SYSTEMS`` x
#: ``BATCH_N`` in chunks of ``BATCH_CHUNK``.
BATCH_JOBS, BATCH_SYSTEMS, BATCH_N, BATCH_CHUNK = 16, 256, 512, 4

#: The hot device's fault profile, as ``repro serve --hot`` sets it.
HOT_RATES = {"launch_fatal_rate": 1.0, "launch_transient_rate": 0.0,
             "global_bitflip_rate": 0.0, "ecc_detect_rate": 1.0}


def shape_name(shape: tuple[int, int]) -> str:
    return f"{shape[0]}x{shape[1]}"


def accepted(systems, x, method: str) -> np.ndarray:
    """Per-system verdict: ``x`` is finite and its relative residual
    ``||Ax - d|| / ||d||`` (float64) is within the §5.4 budget of
    ``method`` on diagonally dominant matrices."""
    a, b, c, d = (np.asarray(v, dtype=np.float64)
                  for v in (systems.a, systems.b, systems.c, systems.d))
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(all="ignore"):
        r = b * x - d
        r[:, 1:] += a[:, 1:] * x[:, :-1]
        r[:, :-1] += c[:, :-1] * x[:, 1:]
        rel = np.linalg.norm(r, axis=1) / np.linalg.norm(d, axis=1)
    budget = budget_for(method, "diagonally_dominant").rel_residual
    return np.all(np.isfinite(x), axis=1) & (rel <= budget)


def _collecting(seed: int, on: bool):
    """The repo's own collector, on where ``repro serve`` turns it on."""
    if not on:
        return contextlib.nullcontext(None)
    return telemetry.collect(telemetry.deterministic_collector(seed))


@dataclass
class Session:
    """Outcome of one timed session."""

    wall_s: float
    #: Operations counted by ``ops_per_s``: solve() calls, requests
    #: decided, chunks.
    ops: int
    #: Operations whose result was checked (``ok_share``'s base).
    attempted: int
    #: Correct and completed.
    ok: int
    #: Wrong, non-finite, missing or duplicated results.
    failed: int
    #: Host seconds per dispatch unit: one round of four solve() calls,
    #: one ``dispatch_once``, one ``run_job``.
    dispatch_s: list[float]
    #: Hash of every result and modeled decision; equal for equal seeds.
    digest: str
    #: Deterministic modeled/count figures for the per-layer report.
    info: dict = field(default_factory=dict)


class SolveMix:
    """Closed loop of ``solve(a, b, c, d)`` with ``method="auto"``."""

    name = "solve-mix"

    def __init__(self, seed: int, workdir: str):
        self.inputs = [diagonally_dominant_fluid(S, n, seed=[seed, i])
                       for i, (S, n) in enumerate(SOLVE_SHAPES)]
        # What "auto" resolves to on each input: the budget to check.
        self.methods = [choose_method(s) for s in self.inputs]
        self.last_x: list[np.ndarray | None] = [None] * len(SOLVE_SHAPES)

    def warm_up(self) -> None:
        self.session(rounds=1)

    def session(self, rounds: int = ROUNDS_PER_SESSION,
                recorder=None) -> Session:
        """``rounds`` rounds of one ``solve()`` per shape.  With a span
        recorder, each call's spans are keyed by its call number."""
        per_shape: list[list[float]] = [[] for _ in SOLVE_SHAPES]
        dispatch, ok, digest = [], 0, hashlib.sha256()
        for r in range(rounds):
            round_s = 0.0
            for i, s in enumerate(self.inputs):
                if recorder is not None:
                    recorder.key = f"solve{r * len(SOLVE_SHAPES) + i}"
                t0 = time.perf_counter()
                x = solve(s.a, s.b, s.c, s.d)
                dt = time.perf_counter() - t0
                round_s += dt
                per_shape[i].append(dt)
                ok += int(np.all(accepted(s, x, self.methods[i])))
                digest.update(np.ascontiguousarray(x).tobytes())
                self.last_x[i] = x
            dispatch.append(round_s)
        calls = rounds * len(SOLVE_SHAPES)
        return Session(
            wall_s=sum(dispatch), ops=calls, attempted=calls, ok=ok,
            failed=calls - ok, dispatch_s=dispatch,
            digest=digest.hexdigest(),
            info={"call_s": per_shape})

    def lapack_reference(self) -> list[dict]:
        """LAPACK ``sgtsv`` (the paper's GEP yardstick) on the same
        inputs, one system per call: time, verdict, and distance from
        the last ``auto`` result.  A reference row, not a metric."""
        from scipy.linalg.lapack import sgtsv
        rows = []
        for i, s in enumerate(self.inputs):
            x = np.empty(s.d.shape, dtype=np.float32)
            t0 = time.perf_counter()
            for k in range(s.num_systems):
                _, _, _, xk, info = sgtsv(s.a[k, 1:], s.b[k], s.c[k, :-1],
                                          s.d[k][:, None])
                if info != 0:
                    raise RuntimeError(f"sgtsv info={info} on system {k}")
                x[k] = xk[:, 0]
            wall = time.perf_counter() - t0
            ref = self.last_x[i]
            rows.append({
                "shape": shape_name(SOLVE_SHAPES[i]), "wall_s": wall,
                "ok": bool(np.all(accepted(s, x, "gep"))),
                "auto_vs_lapack": float(np.max(np.abs(ref - x))
                                        / np.max(np.abs(x)))})
        return rows


class ServeLive:
    """``repro serve --live`` through the Python API: a seeded open-loop
    overload stream into a 2-device pool behind the front end."""

    name = "serve-live"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.profiles = loadgen.overload_profiles(2.0, scenario="mixed",
                                                  tenants=3)
        self.requests = loadgen.generate(
            self.profiles, horizon_ms=LIVE_HORIZON_MS, seed=seed)

    def warm_up(self) -> None:
        first = {}
        for r in self.requests:
            first.setdefault((r.systems.num_systems, r.systems.n), r)
        self._serve(list(first.values()), collector=True)

    def session(self, collector: bool = True) -> Session:
        return self._serve(self.requests, collector=collector)

    def _serve(self, requests, *, collector: bool) -> Session:
        dispatch: list[float] = []
        t0 = time.perf_counter()
        with _collecting(self.seed, collector) as col:
            pool = make_pool(2, seed=self.seed)
            sched = BatchScheduler(pool, seed=self.seed)
            fe = ServeFrontend(sched, [p.spec for p in self.profiles],
                               config=FrontendConfig(pending_capacity=24))
            dispatch_once = fe.dispatch_once

            def timed_dispatch():
                start = time.perf_counter()
                try:
                    return dispatch_once()
                finally:
                    dispatch.append(time.perf_counter() - start)
            fe.dispatch_once = timed_dispatch
            report = fe.run(requests)
            fe.close()
        wall = time.perf_counter() - t0

        by_id = {r.request_id: r for r in requests}
        ids = [o.request_id for o in report.outcomes]
        # Every request ends exactly once.
        failed = (len(ids) - len(set(ids))) + len(set(by_id) - set(ids))
        ok = 0
        digest = hashlib.sha256()
        latencies, stages, reports = [], {}, []
        for o in report.outcomes:
            digest.update(f"{o.request_id}|{o.state}|{o.slo_class}|"
                          f"{o.reason}|{o.finish_ms!r}".encode())
            if o.state == "shed":
                stages[o.stage] = stages.get(o.stage, 0) + 1
                continue
            req = by_id[o.request_id]
            good = (o.report is not None and o.report.ok
                    and bool(np.all(accepted(req.systems, o.report.x,
                                             req.method))))
            ok += good
            failed += not good
            latencies.append(o.latency_ms)
            reports.append(o.report)
            digest.update(np.ascontiguousarray(o.report.x).tobytes())
        return Session(
            wall_s=wall, ops=len(ids), attempted=len(requests), ok=ok,
            failed=failed, dispatch_s=dispatch, digest=digest.hexdigest(),
            info=_serve_info(col, sched, reports, latencies,
                             report.now_ms, stages=stages))


class ServeBatch:
    """``repro serve`` batch mode through ``BatchScheduler``: 16 jobs
    on a 3-device pool with one always-failing device, checkpointed."""

    name = "serve-batch"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.systems = [
            diagonally_dominant_fluid(BATCH_SYSTEMS, BATCH_N, seed=[seed, i])
            for i in range(BATCH_JOBS)]

    def warm_up(self) -> None:
        self._serve(self.systems[:1], collector=True)

    def session(self, collector: bool = True) -> Session:
        return self._serve(self.systems, collector=collector)

    def _serve(self, systems, *, collector: bool) -> Session:
        os.makedirs(self.workdir, exist_ok=True)
        ckpt = tempfile.mkdtemp(prefix="checkpoint-", dir=self.workdir)
        try:
            dispatch: list[float] = []
            t0 = time.perf_counter()
            with _collecting(self.seed, collector) as col:
                pool = make_pool(3, seed=self.seed, hot=1,
                                 hot_rates=HOT_RATES)
                sched = BatchScheduler(
                    pool, queue_capacity=len(systems), failure_threshold=2,
                    checkpoint_dir=ckpt, seed=self.seed)
                jobs = [SolveJob(f"job{i}", s, method="auto",
                                 chunk_size=BATCH_CHUNK)
                        for i, s in enumerate(systems)]
                for job in jobs:
                    sched.submit(job)
                reports = []
                while (job := sched.queue.pop()) is not None:
                    start = time.perf_counter()
                    reports.append(sched.run_job(job))
                    dispatch.append(time.perf_counter() - start)
            wall = time.perf_counter() - t0
            ckpt_bytes = sum(os.path.getsize(os.path.join(ckpt, f))
                             for f in os.listdir(ckpt))
        finally:
            shutil.rmtree(ckpt)

        chunks = sum(job.num_chunks for job in jobs)
        ok, digest = 0, hashlib.sha256()
        # Every job reports exactly once, in submission order.
        failed = abs(len(reports) - len(jobs))
        for job, rep in zip(jobs, reports):
            if rep.job_id != job.job_id or not rep.ok:
                failed += job.num_chunks
                continue
            good = accepted(job.systems, rep.x, job.method)
            for c in rep.chunks:
                if (c.status in ("ok", "degraded")
                        and np.all(good[job.chunk_indices(c.chunk_id)])):
                    ok += 1
                else:
                    failed += 1
            failed += abs(job.num_chunks - len({c.chunk_id
                                                for c in rep.chunks}))
            digest.update(f"{rep.job_id}|{rep.makespan_ms!r}".encode())
            digest.update(np.ascontiguousarray(rep.x).tobytes())
        latencies = [r.queue_wait_ms + r.makespan_ms for r in reports]
        makespan = max((c.end_ms for r in reports for c in r.chunks),
                       default=0.0)
        info = _serve_info(col, sched, reports, latencies, makespan)
        info["checkpoint_bytes"] = ckpt_bytes
        return Session(
            wall_s=wall, ops=chunks, attempted=chunks, ok=ok,
            failed=failed, dispatch_s=dispatch, digest=digest.hexdigest(),
            info=info)


def _serve_info(col, sched, reports, latencies, makespan_ms, *,
                stages=None) -> dict:
    """Deterministic figures of one serving session."""
    chunks = [c for r in reports for c in r.chunks]
    return {
        "chunks": len(chunks),
        "attempts": sum(len(c.attempts) for c in chunks),
        "retries": sum(r.total_retries for r in reports),
        "queue_wait_ms": [r.queue_wait_ms for r in reports],
        "latency_ms": latencies,
        "makespan_ms": makespan_ms,
        "health_transitions": len(sched.health.transitions),
        "trace_cache": sched.pool.trace_cache.stats(),
        "spans": len(col.spans) if col is not None else 0,
        "events": len(col.events) if col is not None else 0,
        "shed_stages": stages or {},
    }


WORKLOADS = {w.name: w for w in (SolveMix, ServeLive, ServeBatch)}
