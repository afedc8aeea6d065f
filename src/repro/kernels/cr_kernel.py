"""Instrumented cyclic-reduction kernel (the paper's CR solver, §4).

One block per system, ``n/2`` threads.  Data lives in five in-place
shared arrays; the strided access pattern of forward reduction doubles
its shared-memory stride every step, producing the escalating bank
conflicts of Fig 9 (2-way, 4-way, ... 16-way).  Phases:

- ``global_load``       stage a, b, c, d into shared memory
- ``forward_reduction`` log2(n) - 1 strided elimination steps
- ``solve_two``         the final 2-unknown system, one thread
- ``backward_substitution`` log2(n) - 1 strided substitution steps
- ``global_store``      write x back

``conflict_free_timing=True`` reproduces the paper's Fig 9 comparison
run: identical algorithm and results, but cost accounting sees
stride-one addresses ("an incorrect algorithm ... for timing
comparison only").
"""

from __future__ import annotations

import numpy as np

from repro.gpusim import BlockContext
from repro.solvers.cr import cyclic_reduction

from .common import (PHASE_GLOBAL_LOAD, PHASE_GLOBAL_STORE,
                     GlobalSystemArrays, log2_int, numpy_twin,
                     stage_inputs_to_shared, store_solution_from_shared)

PHASE_FORWARD = "forward_reduction"
PHASE_SOLVE_TWO = "solve_two"
PHASE_BACKWARD = "backward_substitution"

#: Phase order for reporting.
PHASES = (PHASE_GLOBAL_LOAD, PHASE_FORWARD, PHASE_SOLVE_TWO,
          PHASE_BACKWARD, PHASE_GLOBAL_STORE)


def forward_reduction_step(ctx: BlockContext, sa, sb, sc, sd, n: int,
                           stride: int, conflict_free_timing: bool) -> None:
    """One CR forward-reduction step at neighbour distance stride/2.

    Updates equations ``stride*(k+1) - 1``; 12 loads + 4 stores and
    12 arithmetic ops (2 divisions) per active thread -- the counts
    behind Table 1's 23n accesses / 17n ops.
    """
    active = n // stride
    ctx.set_active(active)
    tid = ctx.lanes
    i = stride * (tid + 1) - 1
    s = stride // 2
    left = i - s
    right = np.minimum(i + s, n - 1)  # clamp: c[n-1] == 0 kills the term
    cost = (lambda real: tid) if conflict_free_timing else (
        lambda real: None)   # None: let the access cost its own pattern

    av, bv, cv, dv = ctx.sload_multi((sa, sb, sc, sd), i, cost(i))
    al, bl, cl, dl = ctx.sload_multi((sa, sb, sc, sd), left, cost(left))
    ar, br, cr, dr = ctx.sload_multi((sa, sb, sc, sd), right, cost(right))

    with np.errstate(divide="ignore", invalid="ignore"):
        k1 = av / bl
        k2 = cv / br
    new_a = -al * k1
    new_b = bv - cl * k1 - ar * k2
    new_c = -cr * k2
    new_d = dv - dl * k1 - dr * k2
    ctx.ops(12, divs=2)

    ctx.sstore_multi((sa, sb, sc, sd), i, (new_a, new_b, new_c, new_d),
                     cost(i))
    ctx.sync()


def solve_two_unknowns_step(ctx: BlockContext, sa, sb, sc, sd, sx,
                            i1: int, i2: int) -> None:
    """Solve the 2x2 system at indices (i1, i2) with one thread."""
    ctx.set_active(1)
    one = np.array([0], dtype=np.int64)
    idx1 = one + i1
    idx2 = one + i2
    b1, c1, d1 = ctx.sload_multi((sb, sc, sd), idx1)
    a2, b2, d2 = ctx.sload_multi((sa, sb, sd), idx2)
    det = b1 * b2 - c1 * a2
    with np.errstate(divide="ignore", invalid="ignore"):
        x1 = (d1 * b2 - c1 * d2) / det
        x2 = (b1 * d2 - d1 * a2) / det
    ctx.ops(11, divs=2)
    ctx.sstore(sx, idx1, x1)
    ctx.sstore(sx, idx2, x2)
    ctx.sync()


def backward_substitution_step(ctx: BlockContext, sa, sb, sc, sd, sx,
                               n: int, stride: int,
                               conflict_free_timing: bool) -> None:
    """One CR backward-substitution step: solve the skipped unknowns at
    level ``stride`` from their already-solved neighbours.

    6 loads + 1 store and 5 ops (1 division) per active thread.
    """
    half = stride // 2
    active = n // stride
    ctx.set_active(active)
    tid = ctx.lanes
    i = half - 1 + stride * tid
    left = np.maximum(i - half, 0)  # clamp: a[leftmost] == 0 kills the term
    right = i + half
    cost = (lambda real: tid) if conflict_free_timing else (
        lambda real: None)   # None: let the access cost its own pattern

    av, bv, cv, dv = ctx.sload_multi((sa, sb, sc, sd), i, cost(i))
    xl = ctx.sload(sx, left, cost(left))
    xr = ctx.sload(sx, right, cost(right))
    with np.errstate(divide="ignore", invalid="ignore"):
        xv = (dv - av * xl - cv * xr) / bv
    ctx.ops(5, divs=1)
    ctx.sstore(sx, i, xv, cost(i))
    ctx.sync()


def cr_kernel(ctx: BlockContext, gmem: GlobalSystemArrays,
              conflict_free_timing: bool = False) -> None:
    """Cyclic reduction, one system per block (Fig 1 dataflow)."""
    n = gmem.n
    levels = log2_int(n)
    sa = ctx.shared(n)
    sb = ctx.shared(n)
    sc = ctx.shared(n)
    sd = ctx.shared(n)
    sx = ctx.shared(n)

    with ctx.phase(PHASE_GLOBAL_LOAD):
        ctx.set_active(n // 2)
        stage_inputs_to_shared(ctx, gmem, (sa, sb, sc, sd),
                               elems_per_thread=2)

    with ctx.phase(PHASE_FORWARD):
        stride = 1
        for _ in range(levels - 1):
            stride *= 2
            with ctx.step():
                forward_reduction_step(ctx, sa, sb, sc, sd, n, stride,
                                       conflict_free_timing)

    with ctx.phase(PHASE_SOLVE_TWO):
        with ctx.step():
            if n == 2:
                solve_two_unknowns_step(ctx, sa, sb, sc, sd, sx, 0, 1)
            else:
                solve_two_unknowns_step(ctx, sa, sb, sc, sd, sx,
                                        n // 2 - 1, n - 1)

    with ctx.phase(PHASE_BACKWARD):
        stride = n // 2
        while stride > 1:
            with ctx.step():
                backward_substitution_step(ctx, sa, sb, sc, sd, sx, n,
                                           stride, conflict_free_timing)
            stride //= 2

    with ctx.phase(PHASE_GLOBAL_STORE):
        ctx.set_active(n // 2)
        store_solution_from_shared(ctx, gmem, sx, elems_per_thread=2)


cr_kernel.numpy_twin = numpy_twin(cyclic_reduction)
