"""Packed PCR: several small systems per block.

The paper maps one system per block (§4), which at small system sizes
leaves blocks tiny (a 64-unknown PCR block is just two warps) and
leans entirely on block-level parallelism.  The standard production
refinement packs ``P`` systems into one block: lanes ``p*n .. p*n+n-1``
own system ``p``, every segment's accesses stay unit-stride (still
conflict-free), and blocks become full-width -- more resident warps
per SM, better latency hiding, fewer blocks to schedule.

This kernel exists to *measure* that refinement against the paper's
design point (``bench_ablation_packed_small_systems.py``); results are
bit-identical to plain PCR.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim import BlockContext, KernelError
from repro.solvers.pcr import parallel_cyclic_reduction

from .common import GlobalSystemArrays, log2_int, numpy_twin

PHASE_GLOBAL_LOAD = "global_load"
PHASE_FORWARD = "forward_reduction"
PHASE_SOLVE_TWO = "solve_two"
PHASE_GLOBAL_STORE = "global_store"


def pcr_packed_kernel(ctx: BlockContext, gmem: GlobalSystemArrays,
                      systems_per_block: int) -> None:
    """PCR with ``systems_per_block`` systems packed per block.

    The grid has ``num_systems / systems_per_block`` blocks; block g
    owns systems ``g*P .. g*P+P-1`` laid out contiguously in shared
    memory.  The simulator's block batch dimension runs over *blocks*,
    so the global bases address P systems per block.
    """
    n = gmem.n
    P = int(systems_per_block)
    levels = log2_int(n)
    width = P * n
    if width > ctx.threads_per_block:
        raise KernelError(
            f"{P} systems of {n} need {width} threads per block")

    sa = ctx.shared(width)
    sb = ctx.shared(width)
    sc = ctx.shared(width)
    sd = ctx.shared(width)
    sx = ctx.shared(width)

    num_blocks = gmem.num_systems // P
    bases = np.arange(num_blocks, dtype=np.int64) * width

    with ctx.phase(PHASE_GLOBAL_LOAD):
        ctx.set_active(width)
        i = ctx.lanes
        vals = ctx.gload_multi((gmem.a, gmem.b, gmem.c, gmem.d), bases, i)
        ctx.sstore_multi((sa, sb, sc, sd), i, vals)
        ctx.sync()

    # Per-lane segment geometry.
    lane = np.arange(width, dtype=np.int64)
    seg = lane // n
    pos = lane % n
    seg_base = seg * n

    with ctx.phase(PHASE_FORWARD):
        stride = 1
        for _ in range(levels - 1):
            with ctx.step():
                ctx.set_active(width)
                i = ctx.lanes
                left = seg_base + np.maximum(pos - stride, 0)
                right = seg_base + np.minimum(pos + stride, n - 1)
                av, bv, cv, dv = ctx.sload_multi((sa, sb, sc, sd), i)
                al, bl, cl, dl = ctx.sload_multi((sa, sb, sc, sd), left)
                ar, br, cr, dr = ctx.sload_multi((sa, sb, sc, sd), right)
                with np.errstate(divide="ignore", invalid="ignore"):
                    k1 = av / bl
                    k2 = cv / br
                ctx.ops(12, divs=2)
                ctx.sync()
                ctx.sstore_multi((sa, sb, sc, sd), i,
                                 (-al * k1,
                                  bv - cl * k1 - ar * k2,
                                  -cr * k2,
                                  dv - dl * k1 - dr * k2))
                ctx.sync()
            stride *= 2

    with ctx.phase(PHASE_SOLVE_TWO):
        with ctx.step():
            half = n // 2
            ctx.set_active(P * half)
            k = ctx.lanes
            s_of = k // half
            r_of = k % half
            i1 = s_of * n + r_of
            i2 = i1 + half
            b1, c1, d1 = ctx.sload_multi((sb, sc, sd), i1)
            a2, b2, d2 = ctx.sload_multi((sa, sb, sd), i2)
            det = b1 * b2 - c1 * a2
            with np.errstate(divide="ignore", invalid="ignore"):
                x1 = (d1 * b2 - c1 * d2) / det
                x2 = (b1 * d2 - d1 * a2) / det
            ctx.ops(11, divs=2)
            ctx.sstore(sx, i1, x1)
            ctx.sstore(sx, i2, x2)
            ctx.sync()

    with ctx.phase(PHASE_GLOBAL_STORE):
        ctx.set_active(width)
        i = ctx.lanes
        ctx.gstore(gmem.x, bases, i, ctx.sload(sx, i))


pcr_packed_kernel.numpy_twin = numpy_twin(parallel_cyclic_reduction)


def run_pcr_packed(systems, systems_per_block: int, device=None):
    """Driver: pack ``systems_per_block`` systems per block.

    Returns ``(solution, LaunchResult)`` like the other runners."""
    from repro.gpusim import GTX280, launch
    from repro.solvers.validate import require_power_of_two

    device = device or GTX280
    S, n = systems.shape
    P = int(systems_per_block)
    require_power_of_two(n, "run_pcr_packed")
    if P < 1 or S % P:
        raise ValueError(
            f"batch of {S} not divisible into blocks of {P} systems")
    gmem = GlobalSystemArrays.from_systems(systems)
    result = launch(pcr_packed_kernel, num_blocks=S // P,
                    threads_per_block=P * n, device=device, gmem=gmem,
                    systems_per_block=P)
    return gmem.solution(), result
