"""Instrumented parallel-cyclic-reduction kernel (§4, Fig 2 dataflow).

One block per system, ``n`` threads, all active in every step -- PCR's
defining property.  All accesses are unit-stride across the thread
front, so the kernel is bank-conflict free (§5.3.2); this is visible
in the trace as ``conflict_degree == 1.0``.

Phases:

- ``global_load``       stage a, b, c, d into shared memory
- ``forward_reduction`` log2(n) - 1 all-threads reduction steps
- ``solve_two``         n/2 independent 2-unknown systems
- ``global_store``      write x back
"""

from __future__ import annotations

import numpy as np

from repro.gpusim import BlockContext
from repro.solvers.pcr import parallel_cyclic_reduction

from .common import (PHASE_GLOBAL_LOAD, PHASE_GLOBAL_STORE,
                     GlobalSystemArrays, log2_int, numpy_twin,
                     stage_inputs_to_shared, store_solution_from_shared)

PHASE_FORWARD = "forward_reduction"
PHASE_SOLVE_TWO = "solve_two"

PHASES = (PHASE_GLOBAL_LOAD, PHASE_FORWARD, PHASE_SOLVE_TWO,
          PHASE_GLOBAL_STORE)


def pcr_reduction_step(ctx: BlockContext, sa, sb, sc, sd, n: int,
                       stride: int) -> None:
    """One PCR step: every equation eliminates against both neighbours
    at distance ``stride``.  In-place with a barrier between the
    gather and the scatter (the kernel's read-sync-write idiom).
    """
    ctx.set_active(n)
    i = ctx.lanes
    left = np.maximum(i - stride, 0)
    right = np.minimum(i + stride, n - 1)

    av, bv, cv, dv = ctx.sload_multi((sa, sb, sc, sd), i)
    al, bl, cl, dl = ctx.sload_multi((sa, sb, sc, sd), left)
    ar, br, cr, dr = ctx.sload_multi((sa, sb, sc, sd), right)

    with np.errstate(divide="ignore", invalid="ignore"):
        k1 = av / bl
        k2 = cv / br
    new_a = -al * k1
    new_b = bv - cl * k1 - ar * k2
    new_c = -cr * k2
    new_d = dv - dl * k1 - dr * k2
    ctx.ops(12, divs=2)
    ctx.sync()  # all reads complete before any in-place write

    ctx.sstore_multi((sa, sb, sc, sd), i, (new_a, new_b, new_c, new_d))
    ctx.sync()


def pcr_solve_two_step(ctx: BlockContext, sa, sb, sc, sd, sx, n: int,
                       out_index=None) -> None:
    """Solve the n/2 independent 2-unknown systems (pairs i, i + n/2).

    ``out_index`` optionally remaps where solutions are stored (the
    hybrid kernel scatters them back into the full-size x array).
    """
    half = n // 2
    ctx.set_active(half)
    i1 = ctx.lanes
    i2 = i1 + half
    b1, c1, d1 = ctx.sload_multi((sb, sc, sd), i1)
    a2, b2, d2 = ctx.sload_multi((sa, sb, sd), i2)
    det = b1 * b2 - c1 * a2
    with np.errstate(divide="ignore", invalid="ignore"):
        x1 = (d1 * b2 - c1 * d2) / det
        x2 = (b1 * d2 - d1 * a2) / det
    ctx.ops(11, divs=2)
    if out_index is None:
        o1, o2 = i1, i2
    else:
        o1, o2 = out_index(i1), out_index(i2)
    ctx.sstore(sx, o1, x1)
    ctx.sstore(sx, o2, x2)
    ctx.sync()


def pcr_kernel(ctx: BlockContext, gmem: GlobalSystemArrays) -> None:
    """Parallel cyclic reduction, one system per block."""
    n = gmem.n
    levels = log2_int(n)
    sa = ctx.shared(n)
    sb = ctx.shared(n)
    sc = ctx.shared(n)
    sd = ctx.shared(n)
    sx = ctx.shared(n)

    with ctx.phase(PHASE_GLOBAL_LOAD):
        ctx.set_active(n)
        stage_inputs_to_shared(ctx, gmem, (sa, sb, sc, sd),
                               elems_per_thread=1)

    with ctx.phase(PHASE_FORWARD):
        stride = 1
        for _ in range(levels - 1):
            with ctx.step():
                pcr_reduction_step(ctx, sa, sb, sc, sd, n, stride)
            stride *= 2

    with ctx.phase(PHASE_SOLVE_TWO):
        with ctx.step():
            pcr_solve_two_step(ctx, sa, sb, sc, sd, sx, n)

    with ctx.phase(PHASE_GLOBAL_STORE):
        ctx.set_active(n)
        store_solution_from_shared(ctx, gmem, sx, elems_per_thread=1)


pcr_kernel.numpy_twin = numpy_twin(parallel_cyclic_reduction)
