"""Instrumented recursive-doubling kernel (§4, Fig 3 dataflow).

One block per system, ``n`` threads.  The 3x3 scan matrices are stored
structure-of-arrays in six shared arrays of n words (only the first
two rows; the third is constant -- the paper's storage trick), so every
scan access is unit-stride and the kernel is bank-conflict free.

Phases (matching Fig 13's grouping):

- ``global_load_setup``  read a, b, c, d straight into registers and
  build the B_i matrices in shared memory (the paper lumps "global
  memory access and matrix setup" into one slice)
- ``scan``               Hillis-Steele inclusive scan, log2(n) steps;
  active threads are the contiguous chunk [stride, n)
- ``solution_evaluation`` x_0 from the full prefix product, then all
  other unknowns; results written straight to global memory
"""

from __future__ import annotations

import numpy as np

from repro.gpusim import BlockContext
from repro.solvers.rd import recursive_doubling

from .common import GlobalSystemArrays, log2_int, numpy_twin

PHASE_SETUP = "global_load_setup"
PHASE_SCAN = "scan"
PHASE_EVAL = "solution_evaluation"

PHASES = (PHASE_SETUP, PHASE_SCAN, PHASE_EVAL)


def rd_matrix_setup(ctx: BlockContext, gmem: GlobalSystemArrays,
                    rows, n: int) -> None:
    """Build B_i = [[-b/c, -a/c, d/c], [1, 0, 0]] in shared memory.

    The last equation uses the formal ``c = 1`` substitution (see
    :mod:`repro.solvers.rd`).  Inputs come straight from global memory
    into registers -- RD never stages raw diagonals in shared memory.
    """
    r00, r01, r02, r10, r11, r12 = rows
    bases = gmem.block_bases
    ctx.set_active(n)
    i = ctx.lanes
    av, bv, cv, dv = ctx.gload_multi((gmem.a, gmem.b, gmem.c, gmem.d),
                                     bases, i)
    cv[:, -1] = 1  # formal c for the last equation
    with np.errstate(divide="ignore", invalid="ignore"):
        m00 = -bv / cv
        m01 = -av / cv
        m02 = dv / cv
    ctx.ops(5, divs=3)
    ctx.sstore_multi((r00, r01, r02, r10, r11, r12), i,
                     (m00, m01, m02, np.ones_like(m00),
                      np.zeros_like(m00), np.zeros_like(m00)))
    ctx.sync()


def rd_scan_step(ctx: BlockContext, rows, n: int, stride: int) -> None:
    """One Hillis-Steele step: C_i <- C_i . C_{i-stride} for i >= stride.

    12 loads + 6 stores and 20 arithmetic ops per active thread (the
    reduced 2x3-times-2x3 product of §4's storage trick).
    """
    r00, r01, r02, r10, r11, r12 = rows
    ctx.set_active(np.arange(stride, n, dtype=np.int64))
    i = ctx.lanes
    j = i - stride

    a00, a01, a02, a10, a11, a12 = ctx.sload_multi(
        (r00, r01, r02, r10, r11, r12), i)
    b00, b01, b02, b10, b11, b12 = ctx.sload_multi(
        (r00, r01, r02, r10, r11, r12), j)

    with np.errstate(over="ignore", invalid="ignore"):
        c00 = a00 * b00 + a01 * b10
        c01 = a00 * b01 + a01 * b11
        c02 = a00 * b02 + a01 * b12 + a02
        c10 = a10 * b00 + a11 * b10
        c11 = a10 * b01 + a11 * b11
        c12 = a10 * b02 + a11 * b12 + a12
    ctx.ops(20)
    ctx.sync()  # reads complete before in-place writes

    ctx.sstore_multi((r00, r01, r02, r10, r11, r12), i,
                     (c00, c01, c02, c10, c11, c12))
    ctx.sync()


def rd_solution_evaluation(ctx: BlockContext, rows, sx0, n: int,
                           store_x) -> None:
    """Recover the unknowns from the prefix products.

    One thread computes ``x_0 = -C[0,2]/C[0,0]`` from the last prefix
    product and broadcasts it through a shared word; then all threads
    evaluate ``x_{i+1} = C_i[0,0] x_0 + C_i[0,2]`` and hand results to
    ``store_x(ctx, idx, values)`` (global store for the standalone
    kernel, shared scatter for the hybrid).
    """
    r00, _r01, r02 = rows[0], rows[1], rows[2]
    one = np.array([0], dtype=np.int64)

    ctx.set_active(1)
    last = one + (n - 1)
    c00_last, c02_last = ctx.sload_multi((r00, r02), last)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Divisor negated, as in repro.solvers.rd (NaN sign parity).
        x0 = c02_last / -c00_last
    ctx.ops(2, divs=1)
    ctx.sstore(sx0, one, x0)
    ctx.sync()

    ctx.set_active(n)
    i = ctx.lanes
    x0b = ctx.sload(sx0, np.zeros(n, dtype=np.int64))  # broadcast read
    prev = np.maximum(i - 1, 0)
    c00, c02 = ctx.sload_multi((r00, r02), prev)
    with np.errstate(over="ignore", invalid="ignore"):
        xv = c00 * x0b + c02
    # Lane 0 outputs x_0 itself.  Keyed by lane id, not array position:
    # the two coincide only while the active set is a prefix (see the
    # rd_full_kernel audit note).
    xv[:, i == 0] = x0b[:, i == 0]
    ctx.ops(2)
    store_x(ctx, i, xv)
    ctx.sync()


def rd_kernel(ctx: BlockContext, gmem: GlobalSystemArrays) -> None:
    """Recursive doubling, one system per block."""
    n = gmem.n
    log2_int(n)  # validates power of two
    rows = tuple(ctx.shared(n) for _ in range(6))
    sx0 = ctx.shared(1)

    with ctx.phase(PHASE_SETUP):
        with ctx.step():
            rd_matrix_setup(ctx, gmem, rows, n)

    with ctx.phase(PHASE_SCAN):
        stride = 1
        while stride < n:
            with ctx.step():
                rd_scan_step(ctx, rows, n, stride)
            stride *= 2

    def store_to_global(c: BlockContext, idx, values):
        c.gstore(gmem.x, gmem.block_bases, idx, values)

    with ctx.phase(PHASE_EVAL):
        with ctx.step():
            rd_solution_evaluation(ctx, rows, sx0, n, store_to_global)


rd_kernel.numpy_twin = numpy_twin(recursive_doubling)
