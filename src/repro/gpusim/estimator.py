"""Analytical fast-path cost estimator: ledger and timing without
functional execution.

The simulator's cost charges are *data-independent*: every counter in
a :class:`~repro.gpusim.counters.CounterLedger` is a function of the
access patterns a kernel issues, never of the float values flowing
through them.  This module exploits that to produce the exact ledger
-- and therefore the exact modeled timing -- of a launch without
gathering or scattering a single element: the kernel runs on a
``functional=False`` :class:`~repro.gpusim.context.BlockContext` whose
loads return zeros and whose stores are dropped, so only index
validation and counter charging execute.

Guarantees (enforced by ``tests/gpusim/test_estimator.py``):

- :func:`analytic_launch` returns a ledger bitwise-identical to a
  functional :func:`~repro.gpusim.executor.launch` of the same kernel
  (any input data, either engine).
- :func:`estimate_report` costs that ledger with the same
  :meth:`~repro.gpusim.costmodel.CostModel.grid_timing` as
  :func:`repro.analysis.timing.modeled_grid_timing`, so the two agree
  bitwise and every consumer of modeled milliseconds (serve admission,
  the layout autotuner's argmin) sees the simulate-then-cost value.
- No telemetry is emitted and no global state (trace cache, fault
  plan) is consulted, so repeated calls are deterministic and
  side-effect-free; results are memoized per
  ``(method, n, m, device)``.

:func:`closed_form_counters` additionally exposes the paper's Table 1
closed forms that the simulated ledgers reproduce *exactly* (not just
to leading order): CR's ``2 log2 n - 1`` steps, ``28n - 38`` shared
words and ``10 * max(1, n/32)`` global transactions (160 at n = 512),
and the PCR/RD step counts.
"""

from __future__ import annotations

import numpy as np

from .context import BlockContext, StopKernel
from .costmodel import CostModel, TimingReport
from .device import DeviceSpec, GTX280
from .executor import LaunchResult

__all__ = ["analytic_launch", "estimate_report", "estimate_ms",
           "closed_form_counters", "clear_estimator_cache"]

#: (method, n, m, layout, threads, device.name) -> LaunchResult with
#: the analytic ledger.
_CACHE: dict[tuple, LaunchResult] = {}


def clear_estimator_cache() -> None:
    """Drop all memoized analytic launches (for tests)."""
    _CACHE.clear()


def _resolve_kernel(method: str, n: int, intermediate_size: int | None):
    """Mirror :mod:`repro.kernels.api`'s launch configuration rules.

    Returns ``(kernel, threads_per_block, extra_kwargs, m)`` for the
    five named solvers; imports lazily because :mod:`repro.kernels`
    imports :mod:`repro.gpusim`.
    """
    from repro.kernels.api import KERNEL_RUNNERS  # noqa: F401 (validates name)
    from repro.kernels.cr_kernel import cr_kernel
    from repro.kernels.hybrid_kernel import cr_pcr_kernel, cr_rd_kernel
    from repro.kernels.pcr_kernel import pcr_kernel
    from repro.kernels.rd_kernel import rd_kernel
    from repro.solvers.hybrid import default_intermediate_size
    from repro.solvers.validate import require_power_of_two

    require_power_of_two(n, f"analytic_launch({method})")
    if method == "cr":
        return cr_kernel, max(1, n // 2), {"conflict_free_timing": False}, None
    if method == "pcr":
        return pcr_kernel, n, {}, None
    if method == "rd":
        return rd_kernel, n, {}, None
    if method in ("cr_pcr", "cr_rd"):
        inner = "pcr" if method == "cr_pcr" else "rd"
        m = (default_intermediate_size(n, inner)
             if intermediate_size is None else int(intermediate_size))
        require_power_of_two(m, f"analytic_launch({method}) intermediate size")
        kernel = cr_pcr_kernel if method == "cr_pcr" else cr_rd_kernel
        return kernel, max(1, n // 2, m), {"intermediate_size": m}, m
    raise ValueError(
        f"unknown kernel {method!r}; "
        f"available: ['cr', 'cr_pcr', 'cr_rd', 'pcr', 'rd', 'thomas']")


def _stub_interleaved_gmem(num_systems: int, n: int):
    """Zero-filled interleaved global arrays (see :func:`_stub_gmem`)."""
    from repro.gpusim.memory import GlobalArray, InterleavedSystemArrays

    words = num_systems * n
    return InterleavedSystemArrays(
        a=GlobalArray(words, dtype=np.float32),
        b=GlobalArray(words, dtype=np.float32),
        c=GlobalArray(words, dtype=np.float32),
        d=GlobalArray(words, dtype=np.float32),
        x=GlobalArray(words, dtype=np.float32),
        num_systems=num_systems, n=n)


def _resolve_thomas(n: int, num_systems: int, layout: str,
                    device: DeviceSpec):
    """Launch configuration for the per-thread Thomas kernel.

    The per-thread mapping is batch-shaped: threads per block (and, in
    the interleaved layout, the coalescing stride) follow the system
    count, so the analytic stub simulates one *full block tile* of
    ``min(S, max_threads)`` systems.  The real grid pads the batch to a
    whole number of such tiles, which keeps the interleave stride a
    multiple of the 16-word transaction segment whenever more than one
    block exists -- so the one-tile ledger is bitwise-identical to any
    real block's.
    """
    from repro.kernels.thomas_kernel import (LAYOUTS, thomas_launch_geometry,
                                             thomas_interleaved_kernel,
                                             thomas_sequential_kernel)

    if layout not in LAYOUTS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
    if num_systems < 1:
        raise ValueError(
            f"analytic_launch('thomas') needs num_systems >= 1, "
            f"got {num_systems}")
    _num_blocks, threads = thomas_launch_geometry(num_systems, device)
    if layout == "interleaved":
        return (thomas_interleaved_kernel, threads,
                lambda: _stub_interleaved_gmem(threads, n))
    return thomas_sequential_kernel, threads, lambda: _stub_gmem(threads, n)


def _stub_gmem(num_blocks: int, n: int):
    """Zero-filled global arrays, built directly (no ``from_systems``:
    the analytic path must not trip an active fault plan's h2d hook)."""
    from repro.gpusim.memory import GlobalArray
    from repro.kernels.common import GlobalSystemArrays

    words = num_blocks * n
    return GlobalSystemArrays(
        a=GlobalArray(words, dtype=np.float32),
        b=GlobalArray(words, dtype=np.float32),
        c=GlobalArray(words, dtype=np.float32),
        d=GlobalArray(words, dtype=np.float32),
        x=GlobalArray(words, dtype=np.float32),
        num_systems=num_blocks, n=n)


def analytic_launch(method: str, n: int, *,
                    intermediate_size: int | None = None,
                    device: DeviceSpec = GTX280,
                    num_systems: int | None = None,
                    layout: str = "sequential") -> LaunchResult:
    """Trace ``method`` on an ``n``-system analytically.

    Runs the kernel in non-functional charge-only mode on a single
    stub block and returns a :class:`LaunchResult` whose ledger,
    ``shared_bytes`` and ``threads_per_block`` are bitwise-identical
    to a real launch's (per-block charges do not depend on the block
    count or the data).  Results are memoized; callers must treat the
    ledger as read-only.

    ``num_systems`` and ``layout`` only matter for the per-thread
    ``"thomas"`` kernel, whose block shape (and interleave stride)
    depend on the batch size; the fine-grained methods run one block
    per system regardless.
    """
    if method == "thomas":
        kernel, threads, make_gmem = _resolve_thomas(
            n, 1 if num_systems is None else int(num_systems),
            layout, device)
        extra, m = {}, None
    else:
        if layout != "sequential":
            raise ValueError(
                f"kernel {method!r} does not take layout {layout!r}")
        kernel, threads, extra, m = _resolve_kernel(method, n,
                                                    intermediate_size)
        make_gmem = lambda: _stub_gmem(1, n)  # noqa: E731
    key = (method, int(n), m, layout, threads, device.name)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    gmem = make_gmem()
    ctx = BlockContext(device, 1, threads, functional=False,
                       emit_callbacks=False)
    with np.errstate(all="ignore"):
        try:
            kernel(ctx, gmem=gmem, **extra)
        except StopKernel:  # pragma: no cover - no step_limit here
            pass
    result = LaunchResult(
        outputs=None, ledger=ctx.ledger, num_blocks=1,
        threads_per_block=threads,
        shared_bytes=ctx.shared_space.bytes_allocated, device=device)
    _CACHE[key] = result
    return result


def estimate_report(method: str, n: int, num_systems: int, *,
                    intermediate_size: int | None = None,
                    device: DeviceSpec = GTX280,
                    cost_model: CostModel | None = None,
                    layout: str = "sequential") -> TimingReport:
    """Analytic :class:`TimingReport` for a ``num_systems x n`` grid.

    Costs the analytic ledger with :meth:`CostModel.grid_timing`, the
    same function :func:`repro.analysis.timing.modeled_grid_timing`
    applies to a functional launch's ledger, so the two paths agree
    bitwise on every modeled millisecond.
    """
    from .gt200 import gt200_cost_model

    cm = cost_model or gt200_cost_model()
    launch = analytic_launch(method, n, intermediate_size=intermediate_size,
                             device=device, num_systems=num_systems,
                             layout=layout)
    if method == "thomas":
        # Per-thread mapping: a block is a tile of threads systems,
        # not one system.
        from repro.kernels.thomas_kernel import thomas_launch_geometry
        num_blocks, _threads = thomas_launch_geometry(num_systems, device)
    else:
        num_blocks = num_systems
    return cm.grid_timing(launch, num_blocks)


def estimate_ms(method: str, n: int, num_systems: int, *,
                intermediate_size: int | None = None,
                device: DeviceSpec = GTX280,
                cost_model: CostModel | None = None,
                layout: str = "sequential") -> float:
    """Modeled solver milliseconds for a grid, via the analytic path."""
    return estimate_report(method, n, num_systems,
                           intermediate_size=intermediate_size,
                           device=device, cost_model=cost_model,
                           layout=layout).total_ms


def closed_form_counters(method: str, n: int) -> dict[str, int]:
    """Paper closed forms the simulated ledgers match *exactly*.

    Unlike :mod:`repro.analysis.complexity` (leading-order Table 1
    rows validated by ratio bands), these are the exact totals of the
    instrumented kernels, suitable for equality assertions:

    - ``cr``: ``steps = 2 log2 n - 1``, ``shared_words = 28n - 38``
      (solver + staging traffic), ``global_transactions =
      10 * max(1, n // 32)`` -- 160 at n = 512, the paper's coalesced
      staging cost.
    - ``pcr``: ``steps = log2 n``.
    - ``rd``: ``steps = log2 n + 2`` (setup + log2 n scan + eval).
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"size must be a power of two >= 2, got {n}")
    L = n.bit_length() - 1
    if method == "cr":
        return {"steps": 2 * L - 1,
                "shared_words": 28 * n - 38,
                "global_transactions": 10 * max(1, n // 32),
                "global_words": 5 * n}
    if method == "pcr":
        return {"steps": L, "global_words": 5 * n}
    if method == "rd":
        return {"steps": L + 2, "global_words": 5 * n}
    raise ValueError(f"no closed form for {method!r}")
