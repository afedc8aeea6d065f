"""Span recorder and layer wrappers for the traced benchmark run.

The benchmark measures each layer of the program from outside: during
a traced run it replaces the public entry points of every layer with
wrappers that open a span (name, start, end, parent, request key) and
count the work passing through.  Where a caller imports a function by
name, the caller's binding is patched too (``repro.serve.scheduler.
run_kernel``, for example).  Nothing in ``src/`` is edited, and
:meth:`LayerTrace.uninstall` restores every binding.

A span's *self time* is its duration minus the part its child spans
cover.  Spans nest strictly (one stack, no threads), so the children
of a span are disjoint sub-intervals and the covered part is the sum
of their durations.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

#: Every layer the traced run attributes time to, in report order.
LAYERS = (
    "solvers.choose_method", "solvers.validate", "solvers.executor",
    "serve.frontend", "gpusim.estimator", "serve.scheduler", "kernels",
    "gpusim.costmodel", "serve.health", "serve.checkpoint", "resilience",
    "analysis.layout_autotuner",
)


class SpanRecorder:
    """In-memory span stack.

    Spans are kept as lists ``[name, layer, start, end, parent, key,
    child_s]``; ``parent`` is an index into :attr:`spans` (``-1`` for a
    root) and ``child_s`` accumulates the durations of direct
    children.  Spans of one request share its key: a wrapper takes the
    key from its arguments when it can (a job or request id) and
    otherwise inherits the key of the enclosing span, or :attr:`key`
    at the root.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Key for root spans that carry none of their own (the
        #: benchmark sets it per ``solve()`` call).
        self.key: str | None = None

    def enter(self, name: str, layer: str, key: str | None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if key is None:
            key = self.spans[parent][5] if parent >= 0 else self.key
        idx = len(self.spans)
        self.spans.append([name, layer, self.clock(), None, parent, key,
                           0.0])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack corrupted: closed {idx}, "
                               f"top was {popped}")
        if span[4] >= 0:
            self.spans[span[4]][6] += span[3] - span[2]

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for _name, layer, start, end, _parent, _key, child_s in self.spans:
            out[layer] += (end - start) - child_s
        return out

    def entries(self) -> Counter:
        """Calls into each layer from outside it (spans whose parent
        belongs to another layer, or that have no parent)."""
        out: Counter = Counter()
        for span in self.spans:
            parent = span[4]
            if parent < 0 or self.spans[parent][1] != span[1]:
                out[span[1]] += 1
        return out

    def breakdown(self) -> list[tuple[tuple[str, ...], float]]:
        """Self time aggregated by layer path from the root, with
        consecutive spans of one layer collapsed: the rows of the
        breakdown tree, in first-seen order."""
        paths: list[tuple[str, ...]] = []
        totals: dict[tuple[str, ...], float] = {}
        for name, layer, start, end, parent, _key, child_s in self.spans:
            base = paths[parent] if parent >= 0 else ()
            path = base if base and base[-1] == layer else base + (layer,)
            paths.append(path)
            totals[path] = totals.get(path, 0.0) + (end - start) - child_s
        return sorted(totals.items(), key=lambda kv: kv[0])

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent, key,
                    child_s) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "layer": layer,
                    "start": start, "end": end,
                    "parent": parent if parent >= 0 else None,
                    "key": key, "self_s": (end - start) - child_s}) + "\n")


def _get(owner, attr: str):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _put(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _job_key(args) -> str | None:
    """Request/job id of a wrapped call whose first argument after
    ``self`` is a :class:`~repro.serve.job.SolveJob` or a
    :class:`~repro.serve.frontend.ServeRequest`."""
    obj = args[1] if len(args) > 1 else None
    return getattr(obj, "job_id", None) or getattr(obj, "request_id", None)


class LayerTrace:
    """Installs the layer wrappers on the program and collects counts.

    Use as a context manager around one session; the recorder and the
    counters stay readable after exit.
    """

    def __init__(self):
        self.recorder = SpanRecorder()
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, _get(owner, attr)))
        _put(owner, attr, value)

    def _span(self, fn, name: str, layer: str, *, keyed: bool = False,
              after=None):
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.enter(name, layer, _job_key(args) if keyed else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit(idx)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _wrap(self, owner, attr: str, layer: str, **kw) -> None:
        fn = _get(owner, attr)
        name = f"{getattr(owner, '__name__', 'SOLVERS')}.{attr}"
        self._set(owner, attr, self._span(fn, name, layer, **kw))

    def _count(self, owner, attr: str, counter: str) -> None:
        fn = _get(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        self._set(owner, attr, wrapper)

    def install(self) -> None:
        from repro.analysis import layout_autotuner
        from repro.gpusim import costmodel, estimator, pool
        from repro.kernels import api as kernels_api
        from repro.serve import checkpoint, frontend, health, scheduler
        from repro.solvers import api as solvers_api

        counts = self.counts

        # solvers: the method picker, input validation/padding, and the
        # registry entries (``SOLVERS[name]``, spans named
        # ``SOLVERS.<method>``) that execute a method.
        self._wrap(solvers_api, "choose_method", "solvers.choose_method")
        self._wrap(solvers_api, "validate_finite", "solvers.validate")
        self._wrap(solvers_api, "pad_to_power_of_two", "solvers.validate")
        for method in list(solvers_api.SOLVERS):
            self._wrap(solvers_api.SOLVERS, method, "solvers.executor")

        def offered(args, result):
            counts["serve.frontend.offered"] += 1
            if result is None:
                counts["serve.frontend.admitted"] += 1
        self._wrap(frontend.ServeFrontend, "offer", "serve.frontend",
                   keyed=True, after=offered)

        # gpusim.estimator: replays are analytic launches the memo did
        # not hold (the memo grows by one entry per replay).  The memo
        # is private, so a program without it reads 0 replays rather
        # than breaking the traced run.
        memo = getattr(estimator, "_CACHE", {})
        self._wrap(scheduler.BatchScheduler, "estimate_job_ms",
                   "gpusim.estimator", keyed=True)
        self._wrap(estimator, "estimate_ms", "gpusim.estimator")
        analytic = estimator.analytic_launch

        @functools.wraps(analytic)
        def analytic_launch(*args, **kwargs):
            before = len(memo)
            result = analytic(*args, **kwargs)
            counts["gpusim.estimator.replays"] += len(memo) - before
            return result
        self._set(estimator, "analytic_launch", self._span(
            analytic_launch, "estimator.analytic_launch",
            "gpusim.estimator"))

        self._wrap(scheduler.BatchScheduler, "run_job", "serve.scheduler",
                   keyed=True)
        self._wrap(scheduler.BatchScheduler, "submit", "serve.scheduler",
                   keyed=True)

        def launched(args, result):
            launch = result[1]
            total = launch.ledger.total()
            counts["kernels.sim_events"] += launch.num_blocks * (
                total.shared_instructions + total.global_transactions)
        # The scheduler imports run_kernel by name; the health
        # monitor's canaries import it from the module at call time.
        self._wrap(scheduler, "run_kernel", "kernels", after=launched)
        self._wrap(kernels_api, "run_kernel", "kernels", after=launched)

        self._wrap(costmodel.CostModel, "report", "gpusim.costmodel")
        for attr in ("observe_attempt", "maybe_readmit"):
            self._wrap(health.HealthMonitor, attr, "serve.health")
        for attr in ("add_chunk", "barrier", "close"):
            self._wrap(checkpoint.CheckpointWriter, attr,
                       "serve.checkpoint")
        self._wrap(scheduler, "robust_solve", "resilience")
        self._wrap(layout_autotuner, "choose_layout",
                   "analysis.layout_autotuner")

        # telemetry: seed derivation mints every deterministic span and
        # event id; count calls at each binding (no span: the calls
        # are too fine-grained to time without distorting them).
        for owner in (pool, scheduler, health):
            self._count(owner, "derive_seed",
                        "telemetry.derive_seed_calls")

    def uninstall(self) -> None:
        while self._restore:
            _put(*self._restore.pop())

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
