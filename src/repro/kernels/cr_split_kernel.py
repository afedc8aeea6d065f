"""Split-storage (Göddeke-style) cyclic reduction: bank-conflict-free
CR at the price of extra shared memory.

Paper footnote 1: "One method to avoid bank conflicts is to store the
even-indexed and odd-indexed equations of all reduced systems
separately, at the cost of extra shared memory usage and more
complicated addressing.  ... Göddeke and Strzodka proposed the same
technique, and showed that it achieves similar performance as our
hybrid CR+PCR solver, at the cost of 50% more shared memory usage."

Layout here: every reduction level gets its own contiguous segment per
array, internally split into an even half and an odd half (with an
8-word pad between the halves whenever the half size is a multiple of
the bank count, so the parity-split stores hit disjoint banks).  All
loads and stores become unit-stride or bank-disjoint -- the trace
shows conflict degree ~1 everywhere, against in-place CR's 16-way
peaks.

Trade-off made explicit: persisting every level costs ~2x the in-place
footprint in this straightforward layout (the footnote's 50% figure
relies on overlaying scratch that we keep separate for clarity), so
the kernel fits systems up to n = 256 on the GT200's 16 KiB.  The
ablation bench compares it against in-place CR and the hybrid at that
size.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim import BlockContext
from repro.solvers.cr import cyclic_reduction

from .common import (PHASE_GLOBAL_LOAD, PHASE_GLOBAL_STORE,
                     GlobalSystemArrays, log2_int, numpy_twin)

PHASE_FORWARD = "forward_reduction"
PHASE_SOLVE_TWO = "solve_two"
PHASE_BACKWARD = "backward_substitution"


class _LevelLayout:
    """Per-level segments with padded even/odd halves.

    Level ell holds the full reduced system of size ``n / 2**ell``:
    even equations in ``[0, half)``, odd in ``[half + pad, ...)``.
    """

    def __init__(self, n: int, banks: int = 16, pad_words: int = 8):
        self.sizes = []
        m = n
        while m >= 2:
            self.sizes.append(m)
            m //= 2
        self.offsets = []
        self.pads = []
        off = 0
        for m in self.sizes:
            half = m // 2
            pad = pad_words if (half % banks == 0 and half >= banks) else 0
            self.offsets.append(off)
            self.pads.append(pad)
            off += m + pad
        self.total_words = off

    def even(self, level: int, k: np.ndarray) -> np.ndarray:
        return self.offsets[level] + k

    def odd(self, level: int, k: np.ndarray) -> np.ndarray:
        half = self.sizes[level] // 2
        return self.offsets[level] + half + self.pads[level] + k


def cr_split_kernel(ctx: BlockContext, gmem: GlobalSystemArrays) -> None:
    """Conflict-free CR with per-level even/odd split storage."""
    n = gmem.n
    levels = log2_int(n)  # level sizes n, n/2, ..., 2
    lay = _LevelLayout(n, banks=ctx.device.shared_mem_banks)
    sa = ctx.shared(lay.total_words)
    sb = ctx.shared(lay.total_words)
    sc = ctx.shared(lay.total_words)
    sd = ctx.shared(lay.total_words)
    sx = ctx.shared(lay.total_words)
    bases = gmem.block_bases

    # ------------------------------------------------------------------
    # Stage the inputs directly into level-0 split layout: lane i loads
    # global element i and stores it to even/odd by parity -- the
    # arithmetic-select addressing of the footnote ("more complicated
    # addressing"), no divergence.
    with ctx.phase(PHASE_GLOBAL_LOAD):
        ctx.set_active(n // 2)
        lanes = ctx.lanes
        for chunk in (0, 1):
            i = lanes + chunk * (n // 2)
            dest = np.where(i % 2 == 0, lay.even(0, i // 2),
                            lay.odd(0, i // 2))
            vals = ctx.gload_multi((gmem.a, gmem.b, gmem.c, gmem.d),
                                   bases, i)
            ctx.sstore_multi((sa, sb, sc, sd), dest, vals)
        ctx.sync()

    # ------------------------------------------------------------------
    # Forward reduction: level ell -> ell+1.  Equation k of the new
    # level is the update of odd equation k of level ell, with
    # neighbours even[k] and even[k+1] (clamped; c == 0 kills the
    # overhang).  All reads unit-stride within their halves.
    with ctx.phase(PHASE_FORWARD):
        for ell in range(levels - 1):
            m_next = lay.sizes[ell + 1]
            with ctx.step():
                ctx.set_active(m_next)
                k = ctx.lanes
                half = lay.sizes[ell] // 2
                right = np.minimum(k + 1, half - 1)

                own = lay.odd(ell, k)
                av, bv, cv, dv = ctx.sload_multi((sa, sb, sc, sd), own)
                lft = lay.even(ell, k)
                al, bl, cl, dl = ctx.sload_multi((sa, sb, sc, sd), lft)
                rgt = lay.even(ell, right)
                ar, br, cr, dr = ctx.sload_multi((sa, sb, sc, sd), rgt)

                with np.errstate(divide="ignore", invalid="ignore"):
                    k1 = av / bl
                    k2 = cv / br
                new_a = -al * k1
                new_b = bv - cl * k1 - ar * k2
                new_c = -cr * k2
                new_d = dv - dl * k1 - dr * k2
                ctx.ops(12, divs=2)
                ctx.sync()

                # Parity-split store into the next level's segment.
                dest = np.where(k % 2 == 0, lay.even(ell + 1, k // 2),
                                lay.odd(ell + 1, k // 2))
                ctx.sstore_multi((sa, sb, sc, sd), dest,
                                 (new_a, new_b, new_c, new_d))
                ctx.sync()

    # ------------------------------------------------------------------
    # Final 2-unknown system lives at the last level's (even, odd).
    last = levels - 1
    with ctx.phase(PHASE_SOLVE_TWO):
        with ctx.step():
            ctx.set_active(1)
            one = np.array([0], dtype=np.int64)
            i1 = lay.even(last, one)
            i2 = lay.odd(last, one)
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

    # ------------------------------------------------------------------
    # Backward: level ell's odd x values equal level ell+1's x; the
    # even ones substitute into the even equations:
    #   x_even[k] = (d - a * x_odd[k-1] - c * x_odd[k]) / b
    # (x_odd here = level ell+1 x in its split layout order mapped back:
    # level ell+1 element k corresponds to level ell odd equation k.)
    with ctx.phase(PHASE_BACKWARD):
        for ell in range(levels - 2, -1, -1):
            m = lay.sizes[ell]
            half = m // 2
            with ctx.step():
                # Copy level ell+1 x into level ell's odd slots.
                ctx.set_active(half)
                k = ctx.lanes
                src = np.where(k % 2 == 0,
                               lay.even(ell + 1, k // 2),
                               lay.odd(ell + 1, k // 2))
                xv_odd = ctx.sload(sx, src)
                ctx.sstore(sx, lay.odd(ell, k), xv_odd)
                ctx.sync()

                left = np.maximum(k - 1, 0)  # a == 0 kills the overhang
                ev = lay.even(ell, k)
                av, bv, cv, dv = ctx.sload_multi((sa, sb, sc, sd), ev)
                xl = ctx.sload(sx, lay.odd(ell, left))
                xr = xv_odd
                with np.errstate(divide="ignore", invalid="ignore"):
                    xe = (dv - av * xl - cv * xr) / bv
                ctx.ops(5, divs=1)
                ctx.sstore(sx, lay.even(ell, k), xe)
                ctx.sync()

    # ------------------------------------------------------------------
    # Write back: de-split level-0 x to the natural order.
    with ctx.phase(PHASE_GLOBAL_STORE):
        ctx.set_active(n // 2)
        lanes = ctx.lanes
        for chunk in (0, 1):
            i = lanes + chunk * (n // 2)
            src = np.where(i % 2 == 0, lay.even(0, i // 2),
                           lay.odd(0, i // 2))
            vals = ctx.sload(sx, src)
            ctx.gstore(gmem.x, bases, i, vals)


cr_split_kernel.numpy_twin = numpy_twin(cyclic_reduction)


def split_footprint_words(n: int, banks: int = 16) -> int:
    """Shared words per array for the split layout (for documentation
    and occupancy maths)."""
    return _LevelLayout(n, banks=banks).total_words
