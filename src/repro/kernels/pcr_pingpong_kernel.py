"""Double-buffered (ping-pong) PCR: the alternative §4 argues against.

"The advantage of an in-place approach is that we save shared memory
space so that we can fit multiple blocks running simultaneously on one
multiprocessor."

In-place PCR needs a barrier between each step's gather and scatter;
the textbook alternative double-buffers the four arrays (read level k
from buffer A, write level k+1 to buffer B, swap), which drops one
barrier per step but nearly doubles the footprint: 8n + n words versus
5n.  On the GT200 that halves the resident blocks for mid-sized
systems -- this kernel exists so the ablation bench can price the §4
design decision.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim import BlockContext
from repro.solvers.pcr import parallel_cyclic_reduction

from .common import (PHASE_GLOBAL_LOAD, PHASE_GLOBAL_STORE,
                     GlobalSystemArrays, log2_int, numpy_twin,
                     stage_inputs_to_shared, store_solution_from_shared)
from .pcr_kernel import pcr_solve_two_step

PHASE_FORWARD = "forward_reduction"
PHASE_SOLVE_TWO = "solve_two"


def pcr_pingpong_kernel(ctx: BlockContext, gmem: GlobalSystemArrays) -> None:
    """PCR with double-buffered reduction levels."""
    n = gmem.n
    levels = log2_int(n)
    buf_a = tuple(ctx.shared(n) for _ in range(4))   # a, b, c, d
    buf_b = tuple(ctx.shared(n) for _ in range(4))
    sx = ctx.shared(n)

    with ctx.phase(PHASE_GLOBAL_LOAD):
        ctx.set_active(n)
        stage_inputs_to_shared(ctx, gmem, buf_a, elems_per_thread=1)

    src, dst = buf_a, buf_b
    with ctx.phase(PHASE_FORWARD):
        stride = 1
        for _ in range(levels - 1):
            with ctx.step():
                ctx.set_active(n)
                i = ctx.lanes
                left = np.maximum(i - stride, 0)
                right = np.minimum(i + stride, n - 1)
                av, bv, cv, dv = ctx.sload_multi(src, i)
                al, bl, cl, dl = ctx.sload_multi(src, left)
                ar, br, cr, dr = ctx.sload_multi(src, right)
                with np.errstate(divide="ignore", invalid="ignore"):
                    k1 = av / bl
                    k2 = cv / br
                ctx.ops(12, divs=2)
                # No read-write hazard: the write targets the other
                # buffer, so only the end-of-step barrier remains.
                ctx.sstore_multi(dst, i,
                                 (-al * k1,
                                  bv - cl * k1 - ar * k2,
                                  -cr * k2,
                                  dv - dl * k1 - dr * k2))
                ctx.sync()
            src, dst = dst, src
            stride *= 2

    with ctx.phase(PHASE_SOLVE_TWO):
        with ctx.step():
            sa, sb, sc, sd = src
            pcr_solve_two_step(ctx, sa, sb, sc, sd, sx, n)

    with ctx.phase(PHASE_GLOBAL_STORE):
        ctx.set_active(n)
        store_solution_from_shared(ctx, gmem, sx, elems_per_thread=1)


pcr_pingpong_kernel.numpy_twin = numpy_twin(parallel_cyclic_reduction)
