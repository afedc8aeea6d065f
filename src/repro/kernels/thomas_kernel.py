"""One-thread-per-system Thomas kernels: the naive GPU mapping.

The paper deliberately maps *equations* to threads and systems to
blocks (§4).  The obvious alternative -- one thread runs the whole
Thomas algorithm for one system -- is what the coarse-grained CPU
methods do, and it is instructive to see why it loses on a GPU:

* every global access is strided by the system size (thread t touches
  ``t * n + i``), so a half-warp's loads hit 16 different 64-byte
  segments: zero coalescing;
* the 2n-step serial dependence chain leaves latency fully exposed;
* there is no shared-memory reuse at all.

The simulator's trace shows all three effects; the ablation bench
compares it against the paper's mapping.

Real batched packages fix the coalescing with an *interleaved* layout
(element i of every system adjacent; cuSPARSE
``gtsvInterleavedBatch``).  :func:`run_thomas_batch` is the production
entry point: it launches a multi-block grid over batches of any size in
either layout, gathering and scattering straight through
:class:`repro.gpusim.memory.InterleavedSystemArrays` when
``layout="interleaved"``.  The interleaved variant restores coalescing
but keeps the long dependence chain -- reproducing why even a
perfectly-coalesced per-thread Thomas trails CR/PCR on step count.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim import (BlockContext, GTX280, DeviceSpec,
                          InterleavedSystemArrays, LaunchResult, launch)
from repro.solvers.systems import TridiagonalSystems
from repro.solvers.thomas import thomas_batched

from .common import GlobalSystemArrays, numpy_twin

PHASE_SOLVE = "thomas_serial"

LAYOUTS = ("sequential", "interleaved")


def _thomas_sweep(ctx: BlockContext, gmem, bases: np.ndarray, addr,
                  n: int) -> None:
    """The serial Thomas sweep shared by every layout variant.

    ``addr(i)`` maps row ``i`` to each lane's flat offset; the layouts
    differ *only* in that map, so the per-lane arithmetic (and hence
    the float32 results) are bitwise identical across layouts.  The
    classic implementation stores c' and d' back over c and d;
    registers carry the previous row's values.
    """
    ga, gb, gc, gd, gx = gmem.a, gmem.b, gmem.c, gmem.d, gmem.x
    with ctx.phase(PHASE_SOLVE):
        with ctx.step():
            cv, bv, dv = ctx.gload_multi((gc, gb, gd), bases, addr(0))
            with np.errstate(divide="ignore", invalid="ignore"):
                cp = cv / bv
                dp = dv / bv
            ctx.ops(2, divs=2)
            ctx.gstore_multi((gc, gd), bases, addr(0), (cp, dp))
            for i in range(1, n):
                av, bv, cv, dv = ctx.gload_multi((ga, gb, gc, gd), bases,
                                                 addr(i))
                with np.errstate(divide="ignore", invalid="ignore"):
                    denom = bv - cp * av
                    cp = cv / denom
                    dp = (dv - dp * av) / denom
                ctx.ops(8, divs=2)
                ctx.gstore_multi((gc, gd), bases, addr(i), (cp, dp))
        with ctx.step():
            xv = ctx.gload(gd, bases, addr(n - 1))
            ctx.gstore(gx, bases, addr(n - 1), xv)
            for i in range(n - 2, -1, -1):
                cpv, dpv = ctx.gload_multi((gc, gd), bases, addr(i))
                xv = dpv - cpv * xv
                ctx.ops(2)
                ctx.gstore(gx, bases, addr(i), xv)


def thomas_per_thread_kernel(ctx: BlockContext,
                             gmem: GlobalSystemArrays) -> None:
    """Each thread solves one full system straight out of global memory.

    One block of ``min(S, max_threads)`` threads; lane t owns system t,
    every access strided by ``n``.

    Single-block demo form kept for the pinned golden traces; the
    multi-block production kernels are
    :func:`thomas_sequential_kernel` / :func:`thomas_interleaved_kernel`
    (the coalesced layout).
    """
    S, n = gmem.num_systems, gmem.n
    # All systems in one conceptual block row: the simulator runs the
    # whole batch as lanes of a single block per grid row.
    threads = ctx.threads_per_block
    if threads < S:
        raise ValueError(
            f"launch with at least {S} threads per block for this kernel")
    bases = np.zeros(S, dtype=np.int64)  # lanes address the flat arrays

    ctx.set_active(S)
    lanes = ctx.lanes

    def addr(i: int) -> np.ndarray:
        return lanes * n + i

    _thomas_sweep(ctx, gmem, bases, addr, n)


def thomas_sequential_kernel(ctx: BlockContext,
                             gmem: GlobalSystemArrays) -> None:
    """Multi-block per-thread Thomas over the sequential layout.

    Block b's lane t owns system ``b * threads + t``; every access is
    strided by ``n`` (the uncoalesced baseline).  The grid must tile the
    batch exactly (pad with identity systems; see
    :func:`run_thomas_batch`).
    """
    n = gmem.n
    threads = ctx.threads_per_block
    if ctx.num_blocks * threads != gmem.num_systems:
        raise ValueError(
            f"grid of {ctx.num_blocks}x{threads} threads must tile "
            f"{gmem.num_systems} systems exactly")
    bases = (np.arange(ctx.num_blocks, dtype=np.int64) * threads * n)
    lanes = ctx.lanes

    def addr(i: int) -> np.ndarray:
        return lanes * n + i

    _thomas_sweep(ctx, gmem, bases, addr, n)


def thomas_interleaved_kernel(ctx: BlockContext,
                              gmem: InterleavedSystemArrays) -> None:
    """Multi-block per-thread Thomas over the interleaved layout.

    Block b's lane t owns system ``b * threads + t``; element i of that
    system sits at ``i * S + b * threads + t``, so a half-warp's 16
    accesses are consecutive words -- fully coalesced.
    """
    n, stride = gmem.n, gmem.system_stride
    threads = ctx.threads_per_block
    if ctx.num_blocks * threads != gmem.num_systems:
        raise ValueError(
            f"grid of {ctx.num_blocks}x{threads} threads must tile "
            f"{gmem.num_systems} systems exactly")
    bases = (np.arange(ctx.num_blocks, dtype=np.int64) * threads)
    lanes = ctx.lanes

    def addr(i: int) -> np.ndarray:
        return i * stride + lanes

    _thomas_sweep(ctx, gmem, bases, addr, n)


thomas_per_thread_kernel.numpy_twin = numpy_twin(thomas_batched)
thomas_sequential_kernel.numpy_twin = numpy_twin(thomas_batched)
thomas_interleaved_kernel.numpy_twin = numpy_twin(thomas_batched)


def thomas_launch_geometry(num_systems: int,
                           device: DeviceSpec) -> tuple[int, int]:
    """``(num_blocks, threads_per_block)`` for a per-thread Thomas grid."""
    threads = min(int(num_systems), device.max_threads_per_block)
    num_blocks = -(-int(num_systems) // threads)
    return num_blocks, threads


def _pad_identity(systems: TridiagonalSystems,
                  padded: int) -> TridiagonalSystems:
    """Pad the batch to ``padded`` systems with identity rows.

    Identity systems (b = 1, a = c = d = 0) sweep without dividing by
    zero and solve to x = 0, so the extra lanes are numerically inert.
    """
    S, n = systems.num_systems, systems.n
    if padded == S:
        return systems
    extra = padded - S
    zeros = np.zeros((extra, n), dtype=systems.a.dtype)
    ones = np.ones((extra, n), dtype=systems.b.dtype)
    return TridiagonalSystems(a=np.concatenate([systems.a, zeros]),
                              b=np.concatenate([systems.b, ones]),
                              c=np.concatenate([systems.c, zeros]),
                              d=np.concatenate([systems.d, zeros]))


def run_thomas_batch(systems: TridiagonalSystems,
                     device: DeviceSpec = GTX280,
                     layout: str = "sequential",
                     step_limit: int | None = None
                     ) -> tuple[np.ndarray, LaunchResult]:
    """Run the per-thread Thomas kernel over a batch of any size.

    ``layout`` selects the global-memory arrangement: ``"sequential"``
    (the paper's contiguous-system layout, uncoalesced here) or
    ``"interleaved"`` (coalesced).  Batches that do not tile the grid
    are padded with identity systems; the result is sliced back to the
    caller's ``num_systems`` rows.
    """
    if layout not in LAYOUTS:
        raise ValueError(
            f"layout must be one of {LAYOUTS}, got {layout!r}")
    S = systems.num_systems
    num_blocks, threads = thomas_launch_geometry(S, device)
    padded = _pad_identity(systems, num_blocks * threads)
    if layout == "interleaved":
        gmem = InterleavedSystemArrays.from_systems(padded)
        kernel = thomas_interleaved_kernel
    else:
        gmem = GlobalSystemArrays.from_systems(padded)
        kernel = thomas_sequential_kernel
    result = launch(kernel, num_blocks=num_blocks,
                    threads_per_block=threads, device=device, gmem=gmem,
                    step_limit=step_limit)
    return gmem.solution()[:S], result


def run_thomas_per_thread(systems: TridiagonalSystems,
                          device: DeviceSpec = GTX280,
                          interleaved: bool = False
                          ) -> tuple[np.ndarray, LaunchResult]:
    """Run the naive mapping; batch must fit one block's threads.

    Single-block demo wrapper kept for the golden traces and the
    ablation bench; :func:`run_thomas_batch` handles arbitrary batch
    sizes in either layout.
    """
    S = systems.num_systems
    if S > device.max_threads_per_block:
        raise ValueError(
            f"naive per-thread kernel demo limited to "
            f"{device.max_threads_per_block} systems, got {S}")
    if interleaved:
        return run_thomas_batch(systems, device=device,
                                layout="interleaved")
    gmem = GlobalSystemArrays.from_systems(systems)
    result = launch(thomas_per_thread_kernel, num_blocks=1,
                    threads_per_block=S, device=device, gmem=gmem)
    return gmem.solution(), result
