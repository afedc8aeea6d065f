"""Instrumented hybrid CR+PCR and CR+RD kernels (§3, §5.3.4-5.3.5).

One block per system.  CR forward reduction runs until ``m`` unknowns
survive, the intermediate system is copied to fresh unit-stride shared
arrays ("the copy takes little time ... but makes the solver more
modular, because we can directly plug the PCR or RD solver into the
intermediate system", §4), the inner solver runs conflict-free, writes
its solutions straight into the full-size x array, and CR backward
substitution finishes.

Shared-memory footprints (words), which drive occupancy and reproduce
the paper's intermediate-size limits:

- CR+PCR: ``5n + 4m``  (four copied input arrays)
- CR+RD : ``5n + 6m + 1``  (six matrix-row arrays + the x_0 broadcast
  word) -- for n = 512 this excludes m = 256 and caps the hybrid at
  m = 128, "due to the limit of shared memory size" (§5.3.5).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim import BlockContext, KernelError
from repro.solvers.hybrid import cr_pcr, cr_rd

from .common import (PHASE_GLOBAL_LOAD, PHASE_GLOBAL_STORE,
                     GlobalSystemArrays, log2_int, numpy_twin,
                     stage_inputs_to_shared, store_solution_from_shared)
from .cr_kernel import backward_substitution_step, forward_reduction_step
from .pcr_kernel import pcr_reduction_step, pcr_solve_two_step
from .rd_kernel import rd_scan_step, rd_solution_evaluation

PHASE_CR_FORWARD = "cr_forward_reduction"
PHASE_COPY = "copy_intermediate"
PHASE_INNER_FORWARD = "inner_forward_reduction"   # PCR inner
PHASE_INNER_SOLVE_TWO = "inner_solve_two"         # PCR inner
PHASE_RD_COPY_SETUP = "rd_copy_setup"             # RD inner (copy+setup)
PHASE_RD_SCAN = "rd_scan"                         # RD inner
PHASE_RD_EVAL = "rd_solution_evaluation"          # RD inner
PHASE_CR_BACKWARD = "cr_backward_substitution"

PHASES_CR_PCR = (PHASE_GLOBAL_LOAD, PHASE_CR_FORWARD, PHASE_COPY,
                 PHASE_INNER_FORWARD, PHASE_INNER_SOLVE_TWO,
                 PHASE_CR_BACKWARD, PHASE_GLOBAL_STORE)
PHASES_CR_RD = (PHASE_GLOBAL_LOAD, PHASE_CR_FORWARD, PHASE_RD_COPY_SETUP,
                PHASE_RD_SCAN, PHASE_RD_EVAL, PHASE_CR_BACKWARD,
                PHASE_GLOBAL_STORE)


def _surviving_indices(n: int, m: int) -> np.ndarray:
    """Main-array indices of the m equations left after CR reduction."""
    stride = n // m
    return stride * (np.arange(m, dtype=np.int64) + 1) - 1


def cr_pcr_kernel(ctx: BlockContext, gmem: GlobalSystemArrays,
                  intermediate_size: int) -> None:
    """Hybrid CR+PCR (Fig 4 with a PCR inner solver)."""
    n, m = gmem.n, int(intermediate_size)
    levels_n, levels_m = log2_int(n), log2_int(m)
    if not 2 <= m <= n:
        raise KernelError(f"intermediate size {m} outside [2, {n}]")

    sa = ctx.shared(n)
    sb = ctx.shared(n)
    sc = ctx.shared(n)
    sd = ctx.shared(n)
    sx = ctx.shared(n)
    ia = ctx.shared(m)
    ib = ctx.shared(m)
    ic = ctx.shared(m)
    id_ = ctx.shared(m)

    with ctx.phase(PHASE_GLOBAL_LOAD):
        ctx.set_active(n // 2)
        stage_inputs_to_shared(ctx, gmem, (sa, sb, sc, sd),
                               elems_per_thread=2)

    cr_steps = levels_n - levels_m
    with ctx.phase(PHASE_CR_FORWARD):
        stride = 1
        for _ in range(cr_steps):
            stride *= 2
            with ctx.step():
                forward_reduction_step(ctx, sa, sb, sc, sd, n, stride,
                                       conflict_free_timing=False)

    surviving = _surviving_indices(n, m)
    with ctx.phase(PHASE_COPY):
        with ctx.step():
            ctx.set_active(m)
            k = ctx.lanes
            src = surviving[k]
            for s_main, s_int in ((sa, ia), (sb, ib), (sc, ic), (sd, id_)):
                vals = ctx.sload(s_main, src)   # strided gather
                ctx.sstore(s_int, k, vals)      # unit-stride store
            ctx.sync()

    with ctx.phase(PHASE_INNER_FORWARD):
        stride = 1
        for _ in range(levels_m - 1):
            with ctx.step():
                pcr_reduction_step(ctx, ia, ib, ic, id_, m, stride)
            stride *= 2

    with ctx.phase(PHASE_INNER_SOLVE_TWO):
        with ctx.step():
            # Solutions scatter straight back into the full-size x.
            pcr_solve_two_step(ctx, ia, ib, ic, id_, sx, m,
                               out_index=lambda k: surviving[k])

    with ctx.phase(PHASE_CR_BACKWARD):
        stride = n // m
        while stride > 1:
            with ctx.step():
                backward_substitution_step(ctx, sa, sb, sc, sd, sx, n,
                                           stride, conflict_free_timing=False)
            stride //= 2

    with ctx.phase(PHASE_GLOBAL_STORE):
        ctx.set_active(n // 2)
        store_solution_from_shared(ctx, gmem, sx, elems_per_thread=2)


def cr_rd_kernel(ctx: BlockContext, gmem: GlobalSystemArrays,
                 intermediate_size: int) -> None:
    """Hybrid CR+RD (Fig 4 with an RD inner solver)."""
    n, m = gmem.n, int(intermediate_size)
    levels_n, levels_m = log2_int(n), log2_int(m)
    if not 2 <= m <= n:
        raise KernelError(f"intermediate size {m} outside [2, {n}]")

    sa = ctx.shared(n)
    sb = ctx.shared(n)
    sc = ctx.shared(n)
    sd = ctx.shared(n)
    sx = ctx.shared(n)
    rows = tuple(ctx.shared(m) for _ in range(6))
    sx0 = ctx.shared(1)

    with ctx.phase(PHASE_GLOBAL_LOAD):
        ctx.set_active(n // 2)
        stage_inputs_to_shared(ctx, gmem, (sa, sb, sc, sd),
                               elems_per_thread=2)

    cr_steps = levels_n - levels_m
    with ctx.phase(PHASE_CR_FORWARD):
        stride = 1
        for _ in range(cr_steps):
            stride *= 2
            with ctx.step():
                forward_reduction_step(ctx, sa, sb, sc, sd, n, stride,
                                       conflict_free_timing=False)

    surviving = _surviving_indices(n, m)
    r00, r01, r02, r10, r11, r12 = rows
    with ctx.phase(PHASE_RD_COPY_SETUP):
        with ctx.step():
            # Fused copy + matrix setup: read the reduced equations at
            # their strided positions, build B_k, store unit-stride.
            ctx.set_active(m)
            k = ctx.lanes
            src = surviving[k]
            av, bv, cv, dv = ctx.sload_multi((sa, sb, sc, sd), src)
            cv[:, -1] = 1  # formal c for the last intermediate equation
            with np.errstate(divide="ignore", invalid="ignore"):
                m00 = -bv / cv
                m01 = -av / cv
                m02 = dv / cv
            ctx.ops(5, divs=3)
            ctx.sstore_multi((r00, r01, r02, r10, r11, r12), k,
                             (m00, m01, m02, np.ones_like(m00),
                              np.zeros_like(m00), np.zeros_like(m00)))
            ctx.sync()

    with ctx.phase(PHASE_RD_SCAN):
        stride = 1
        while stride < m:
            with ctx.step():
                rd_scan_step(ctx, rows, m, stride)
            stride *= 2

    def store_to_main_x(c: BlockContext, idx, values):
        c.sstore(sx, surviving[idx], values)  # strided scatter

    with ctx.phase(PHASE_RD_EVAL):
        with ctx.step():
            rd_solution_evaluation(ctx, rows, sx0, m, store_to_main_x)

    with ctx.phase(PHASE_CR_BACKWARD):
        stride = n // m
        while stride > 1:
            with ctx.step():
                backward_substitution_step(ctx, sa, sb, sc, sd, sx, n,
                                           stride, conflict_free_timing=False)
            stride //= 2

    with ctx.phase(PHASE_GLOBAL_STORE):
        ctx.set_active(n // 2)
        store_solution_from_shared(ctx, gmem, sx, elems_per_thread=2)


cr_pcr_kernel.numpy_twin = numpy_twin(cr_pcr)
cr_rd_kernel.numpy_twin = numpy_twin(cr_rd)
