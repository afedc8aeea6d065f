"""Global-memory-only cyclic reduction: the §4 fallback path.

"With current hardware, systems of more than 512 equations would
exceed the size of shared memory.  Our solvers do support this case at
a cost of roughly 3x performance degradation by using global memory
only."

This kernel performs the same CR arithmetic as
:mod:`repro.kernels.cr_kernel` but keeps the five arrays in global
memory for the whole solve.  The cost shows up in the trace as global
transactions per step -- strided accesses break coalescing, so the
transaction count explodes exactly where the shared version suffered
bank conflicts.  No shared memory is allocated, so occupancy is not
limited by the system size and arbitrarily large n fits.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim import BlockContext
from repro.solvers.cr import cyclic_reduction

from .common import GlobalSystemArrays, log2_int, numpy_twin

PHASE_FORWARD = "forward_reduction"
PHASE_SOLVE_TWO = "solve_two"
PHASE_BACKWARD = "backward_substitution"


def cr_global_kernel(ctx: BlockContext, gmem: GlobalSystemArrays) -> None:
    """Cyclic reduction operating directly on global memory."""
    n = gmem.n
    levels = log2_int(n)
    bases = gmem.block_bases
    ga, gb, gc, gd, gx = gmem.a, gmem.b, gmem.c, gmem.d, gmem.x

    with ctx.phase(PHASE_FORWARD):
        stride = 1
        for _ in range(max(0, levels - 1)):
            stride *= 2
            with ctx.step():
                ctx.set_active(n // stride)
                tid = ctx.lanes
                i = stride * (tid + 1) - 1
                s = stride // 2
                left = i - s
                right = np.minimum(i + s, n - 1)
                av, bv, cv, dv = ctx.gload_multi((ga, gb, gc, gd), bases, i)
                al, bl, cl, dl = ctx.gload_multi((ga, gb, gc, gd), bases,
                                                 left)
                ar, br, cr, dr = ctx.gload_multi((ga, gb, gc, gd), bases,
                                                 right)
                with np.errstate(divide="ignore", invalid="ignore"):
                    k1 = av / bl
                    k2 = cv / br
                ctx.ops(12, divs=2)
                ctx.gstore_multi((ga, gb, gc, gd), bases, i,
                                 (-al * k1,
                                  bv - cl * k1 - ar * k2,
                                  -cr * k2,
                                  dv - dl * k1 - dr * k2))
                ctx.sync()

    with ctx.phase(PHASE_SOLVE_TWO):
        with ctx.step():
            ctx.set_active(1)
            one = np.array([0], dtype=np.int64)
            i1 = one + (0 if n == 2 else n // 2 - 1)
            i2 = one + (n - 1)
            b1, c1, d1 = ctx.gload_multi((gb, gc, gd), bases, i1)
            a2, b2, d2 = ctx.gload_multi((ga, gb, gd), bases, i2)
            det = b1 * b2 - c1 * a2
            with np.errstate(divide="ignore", invalid="ignore"):
                x1 = (d1 * b2 - c1 * d2) / det
                x2 = (b1 * d2 - d1 * a2) / det
            ctx.ops(11, divs=2)
            ctx.gstore(gx, bases, i1, x1)
            ctx.gstore(gx, bases, i2, x2)
            ctx.sync()

    with ctx.phase(PHASE_BACKWARD):
        stride = n // 2
        while stride > 1:
            half = stride // 2
            with ctx.step():
                ctx.set_active(n // stride)
                tid = ctx.lanes
                i = half - 1 + stride * tid
                left = np.maximum(i - half, 0)
                right = i + half
                av, bv, cv, dv = ctx.gload_multi((ga, gb, gc, gd), bases, i)
                xl = ctx.gload(gx, bases, left)
                xr = ctx.gload(gx, bases, right)
                with np.errstate(divide="ignore", invalid="ignore"):
                    xv = (dv - av * xl - cv * xr) / bv
                ctx.ops(5, divs=1)
                ctx.gstore(gx, bases, i, xv)
                ctx.sync()
            stride = half


cr_global_kernel.numpy_twin = numpy_twin(cyclic_reduction)
