"""Launch-signature memoization of the architectural trace.

The :class:`~repro.gpusim.counters.CounterLedger` a launch records is a
pure function of the *launch signature* -- kernel identity, structural
argument shapes, grid/block geometry, device spec and the
contiguity-check flag -- never of the data values flowing through the
solver (the paper's kernels have data-independent schedules; the
differential harness checks that assumption separately).  Repeat-launch
workloads (the verify grid, serve throughput runs) therefore recompute
an identical trace on every launch.  This module memoizes it:

* :func:`launch_signature` derives a hashable cache key, or ``None``
  when the launch is not safely memoizable (closure kernels, opaque
  arguments).
* :class:`TraceCache` maps signatures to :class:`TraceEntry` records
  (ledgers privately copied) and keeps hit/miss/bypass statistics,
  exported as ``gpusim.trace_cache.*`` telemetry counters when a
  collector is active.
* The executor consults :func:`get_cache`.  A miss simulates the launch
  and stores one :class:`TraceEntry`: the recorded ledger, the static
  shared-memory footprint and the ordered log of phase begin/end
  callbacks the recording run emitted.

Hit rule: only kernels carrying a ``numpy_twin`` attribute are looked
up (every kernel with a bitwise-equal NumPy solver; see
:mod:`repro.kernels.common`), and a hit never simulates.  The executor
emits launch begin, replays the logged phase callbacks, lets the twin
write the float32 solution into ``gmem.x`` and emits launch end -- no
:class:`~repro.gpusim.context.BlockContext`, no engine.  A private copy
of the cached ledger is attached to the
:class:`~repro.gpusim.executor.LaunchResult`, and a hit emits exactly
the launch and phase callbacks the recording run did (no step
callbacks).

Bypass rule: the cache is skipped, and the launch simulated in full,
for these ``reason`` labels:

* ``fault_plan`` -- a :class:`~repro.gpusim.faults.FaultPlan` is active
  (injected faults perturb both execution and counters);
* ``step_limit`` -- the differential-timing probe must re-trace its
  truncated run;
* ``no_twin`` -- the kernel has no NumPy twin to compute a hit's
  solution;
* ``opaque_signature`` -- the kernel or its arguments have no stable
  structural identity.

Bypassed launches always run the simulator, never the twin.

A process-wide default cache is always present; scope a specific cache
(e.g. a :class:`~repro.gpusim.pool.DevicePool`'s shared one) with
:func:`use_cache`, or turn memoization off with ``use_cache(None)``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, NamedTuple

import numpy as np

from .counters import CounterLedger
from .device import DeviceSpec

#: Sentinel for "no stable structural identity" (forces a bypass).
_OPAQUE = object()

_HELP = {
    "hits": "trace-cache hits (memoized ledger reused)",
    "misses": "trace-cache misses (trace recorded and stored)",
    "bypasses": "launches that skipped the trace cache",
}


def _count(event: str, kernel: str, **labels: str) -> None:
    from repro.telemetry import collector as _telemetry
    col = _telemetry.get_collector()
    if col is None:
        return
    col.metrics.counter(f"gpusim.trace_cache.{event}",
                        _HELP[event]).inc(kernel=kernel, **labels)


def _token(value: Any) -> Any:
    """Hashable signature token for one kernel argument.

    Scalars pass through; objects may opt in via a ``trace_signature()``
    method returning a hashable structural identity (shapes, never data
    values).  Anything else is :data:`_OPAQUE` and forces a bypass.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return ("atom", value)
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return ("atom", value.item())
    if isinstance(value, np.dtype):
        return ("atom", str(value))
    sig = getattr(value, "trace_signature", None)
    if callable(sig):
        return ("sig", sig())
    if isinstance(value, (tuple, list)):
        toks = tuple(_token(v) for v in value)
        if any(t is _OPAQUE for t in toks):
            return _OPAQUE
        return ("seq", toks)
    return _OPAQUE


def launch_signature(kernel, *, num_blocks: int, threads_per_block: int,
                     device: DeviceSpec, check_contiguous_active: bool,
                     kernel_args: dict) -> tuple | None:
    """Cache key for one launch, or ``None`` when not memoizable.

    Kernel identity is ``module.qualname``; closures and ``<locals>``
    functions are refused because two definitions with the same
    qualname can capture different behaviour.  Arguments are tokenized
    with :func:`_token` in sorted name order.
    """
    qualname = getattr(kernel, "__qualname__", None)
    module = getattr(kernel, "__module__", None)
    if not qualname or not module or "<locals>" in qualname:
        return None
    if getattr(kernel, "__closure__", None):
        return None
    arg_tokens = []
    for name in sorted(kernel_args):
        tok = _token(kernel_args[name])
        if tok is _OPAQUE:
            return None
        arg_tokens.append((name, tok))
    return (f"{module}.{qualname}", int(num_blocks), int(threads_per_block),
            device, bool(check_contiguous_active),
            tuple(arg_tokens))


class TraceEntry(NamedTuple):
    """What a recording launch leaves behind for its hits to replay."""

    ledger: CounterLedger
    #: Static shared-memory footprint per block, as allocated.
    shared_bytes: int
    #: ``(site, phase name)`` pairs, in the order the phase callbacks
    #: were emitted.
    phase_log: tuple[tuple[str, str], ...]


class TraceCache:
    """Signature -> :class:`TraceEntry` map with usage statistics.

    Ledgers are copied (:meth:`CounterLedger.copy`) on both store and
    lookup, so callers can mutate a returned ledger (or the one they
    stored) without corrupting the cache.  Insertion-order (FIFO)
    eviction bounds the footprint at ``max_entries``; evicting or
    clearing drops a whole entry.
    """

    def __init__(self, max_entries: int = 1024, name: str = "default"):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        #: Telemetry label: which cache absorbed the traffic.  The
        #: process default is "default"; a DevicePool's shared cache
        #: is "pool", letting the profile summary aggregate hit rate
        #: across all pooled devices.
        self.name = str(name)
        self._entries: dict[Any, TraceEntry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key, *, kernel: str = "?") -> TraceEntry | None:
        """The memoized entry (with a private ledger copy), or ``None``
        on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                entry = entry._replace(ledger=entry.ledger.copy())
        _count("misses" if entry is None else "hits", kernel,
               cache=self.name)
        return entry

    def store(self, key, ledger: CounterLedger, *, shared_bytes: int,
              phase_log) -> None:
        entry = TraceEntry(ledger.copy(), int(shared_bytes),
                           tuple(phase_log))
        with self._lock:
            if (key not in self._entries
                    and len(self._entries) >= self.max_entries):
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = entry

    def record_bypass(self, kernel: str = "?",
                      reason: str = "opaque_signature") -> None:
        with self._lock:
            self.bypasses += 1
        _count("bypasses", kernel, reason=reason, cache=self.name)

    @property
    def hit_rate(self) -> float:
        """Hits over consulted launches (bypasses excluded)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "bypasses": self.bypasses, "entries": len(self._entries),
                "hit_rate": self.hit_rate}

    def clear(self) -> None:
        """Drop all entries and reset statistics."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.bypasses = 0


_process_cache = TraceCache()
_override: list[TraceCache | None] = []


def get_cache() -> TraceCache | None:
    """The cache the executor should consult right now (``None`` = off)."""
    if _override:
        return _override[-1]
    return _process_cache


def default_cache() -> TraceCache:
    """The process-wide default cache (ignores :func:`use_cache` scopes)."""
    return _process_cache


@contextmanager
def use_cache(cache: TraceCache | None):
    """Scope launches to ``cache`` (``None`` disables memoization)."""
    _override.append(cache)
    try:
        yield cache
    finally:
        _override.pop()
