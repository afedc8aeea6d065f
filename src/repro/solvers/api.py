"""Public solve API and solver registry.

Most users want one call::

    from repro import solve
    x = solve(a, b, c, d)                      # auto method
    x = solve(a, b, c, d, method="cr_pcr")     # paper's best hybrid

``a, b, c, d`` may be 1-D (one system) or 2-D ``(num_systems, n)``
batches.  Non-power-of-two sizes are padded transparently unless
``pad=False``.

Methods:

=========  ==========================================================
``thomas``   sequential Gaussian elimination (no pivoting), any size
``gep``      Gaussian elimination with partial pivoting, any size
``qr``       Givens-rotation QR (stable, no row swaps), any size
``twoway``   two-way Gaussian elimination (ref [15]), any size
``cr``       cyclic reduction
``pcr``      parallel cyclic reduction
``rd``       recursive doubling (scan form)
``cr_pcr``   hybrid CR+PCR (paper's fastest at 512x512)
``cr_rd``    hybrid CR+RD
``auto``     picks per the paper's findings (see :func:`choose_method`)
=========  ==========================================================
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import telemetry

from . import cr as _cr
from . import hybrid as _hybrid
from . import pcr as _pcr
from . import rd as _rd
from .gauss import gep_batched
from .qr import givens_qr_batched
from .systems import TridiagonalSystems
from .thomas import thomas_batched
from .twoway import two_way_elimination
from .validate import is_power_of_two, pad_to_power_of_two, validate_finite


def _solve_cr(s: TridiagonalSystems, **kw) -> np.ndarray:
    return _cr.cyclic_reduction(s)


def _solve_pcr(s: TridiagonalSystems, **kw) -> np.ndarray:
    return _pcr.parallel_cyclic_reduction(s)


def _solve_rd(s: TridiagonalSystems, **kw) -> np.ndarray:
    return _rd.recursive_doubling(s)


def _solve_cr_pcr(s: TridiagonalSystems, *, intermediate_size=None, **kw):
    return _hybrid.cr_pcr(s, intermediate_size)


def _solve_cr_rd(s: TridiagonalSystems, *, intermediate_size=None, **kw):
    return _hybrid.cr_rd(s, intermediate_size)


def _solve_thomas(s: TridiagonalSystems, **kw) -> np.ndarray:
    return thomas_batched(s)


def _solve_gep(s: TridiagonalSystems, **kw) -> np.ndarray:
    return gep_batched(s)


def _solve_qr(s: TridiagonalSystems, **kw) -> np.ndarray:
    return givens_qr_batched(s)


def _solve_twoway(s: TridiagonalSystems, **kw) -> np.ndarray:
    return two_way_elimination(s)


SOLVERS: dict[str, Callable] = {
    "thomas": _solve_thomas,
    "gep": _solve_gep,
    "qr": _solve_qr,
    "twoway": _solve_twoway,
    "cr": _solve_cr,
    "pcr": _solve_pcr,
    "rd": _solve_rd,
    "cr_pcr": _solve_cr_pcr,
    "cr_rd": _solve_cr_rd,
}

#: Methods that require power-of-two system sizes (the GPU-path
#: algorithms; paper §4).
POWER_OF_TWO_METHODS = frozenset({"cr", "pcr", "rd", "cr_pcr", "cr_rd"})

#: Methods safe for matrices that are not diagonally dominant
#: (row pivoting or orthogonal elimination).
PIVOTING_METHODS = frozenset({"gep", "qr"})


def choose_method(systems: TridiagonalSystems,
                  device=None) -> str:
    """Pick a method per the paper's evaluation.

    * Not diagonally dominant -> ``gep`` (only pivoting is reliable,
      §5.4).
    * Small batches or tiny systems -> ``thomas`` (parallel methods pay
      off only with enough parallelism, §5.2).
    * Small systems (n <= 128) -> ``pcr`` (hybrids lose below 256,
      §5.2/Fig 6).
    * Otherwise -> ``cr_pcr`` (fastest overall, §5.3.4).

    With a ``device`` (a :class:`repro.gpusim.DeviceSpec`), the static
    thresholds above are replaced by
    :func:`repro.analysis.layout_autotuner.choose_layout`, the argmin
    of the analytic estimator's modeled cost over solver *and* batch
    layout for that device's geometry (the dominance guard still
    routes to ``gep`` first).
    """
    if not bool(np.all(systems.is_diagonally_dominant(strict=False))):
        return "gep"
    S, n = systems.shape
    if device is not None:
        from repro.analysis.layout_autotuner import choose_layout
        return choose_layout(S, n, device=device).method
    if S * n < 1024 or n < 8:
        return "thomas"
    if n <= 128:
        return "pcr"
    return "cr_pcr"


def solve(a, b, c, d, method: str = "auto", *, intermediate_size=None,
          pad: bool = True, check_finite: bool = True,
          device=None) -> np.ndarray:
    """Solve tridiagonal systems ``A x = d``.

    Parameters
    ----------
    a, b, c, d:
        Sub-diagonal, diagonal, super-diagonal and right-hand side;
        1-D arrays for a single system or ``(num_systems, n)`` batches.
        ``a[..., 0]`` and ``c[..., -1]`` are ignored.
    method:
        One of :data:`SOLVERS` or ``"auto"``.
    intermediate_size:
        Hybrid switch point ``m`` (hybrids only).
    pad:
        Pad non-power-of-two sizes for the GPU-path methods.  With
        ``pad=False`` such sizes raise instead.
    check_finite:
        Reject NaN/Inf coefficients with a ``ValueError`` naming the
        offending system (default).  ``False`` skips the scan and lets
        non-finite values propagate as they did before.
    device:
        Optional :class:`repro.gpusim.DeviceSpec`.  With
        ``method="auto"``, route method selection through the
        layout autotuner's modeled-cost argmin for that device instead
        of the static thresholds (see :func:`choose_method`).

    Returns
    -------
    Solution with the same leading shape as the inputs.
    """
    single = np.asarray(b).ndim == 1
    systems = TridiagonalSystems(np.atleast_2d(a), np.atleast_2d(b),
                                 np.atleast_2d(c), np.atleast_2d(d))
    if check_finite:
        validate_finite(systems, who="solve")
    name = choose_method(systems, device=device) if method == "auto" \
        else method
    if name not in SOLVERS:
        raise ValueError(
            f"unknown method {name!r}; available: {sorted(SOLVERS)} or 'auto'")

    orig_n = systems.n
    if name in POWER_OF_TWO_METHODS and not is_power_of_two(orig_n):
        if not pad:
            raise ValueError(
                f"method {name!r} requires power-of-two sizes and pad=False; "
                f"got n={orig_n}")
        # RD-based methods divide by the interior super-diagonal, so
        # they need the scan-safe (coupled) padding variant.
        systems, orig_n = pad_to_power_of_two(
            systems, scan_safe=name in ("rd", "cr_rd"))

    with telemetry.span("solve", method=name, n=systems.n,
                        num_systems=systems.num_systems,
                        padded=systems.n != orig_n):
        if telemetry.enabled():
            col = telemetry.get_collector()
            col.metrics.counter("solve.calls", "solve() invocations").inc(
                method=name)
            col.metrics.counter("solve.systems",
                                "systems solved").inc(systems.num_systems,
                                                      method=name)
        x = SOLVERS[name](systems, intermediate_size=intermediate_size)
    x = x[:, :orig_n]
    return x[0] if single else x


def robust_solve(a, b, c, d, **kwargs):
    """Fault-tolerant solve: validate, guard, escalate, report.

    Thin entry point for :func:`repro.resilience.robust_solve` (the
    import is deferred so the plain :func:`solve` path never pays for
    the resilience machinery).  Returns a
    :class:`~repro.resilience.report.SolveReport` whose ``x`` is the
    solution.
    """
    from repro.resilience import robust_solve as _robust_solve
    return _robust_solve(a, b, c, d, **kwargs)


def residual(a, b, c, d, x) -> np.ndarray:
    """Per-system residual norms ``||A x - d||_2`` (float64 accumulation)."""
    single = np.asarray(b).ndim == 1
    systems = TridiagonalSystems(np.atleast_2d(a), np.atleast_2d(b),
                                 np.atleast_2d(c), np.atleast_2d(d))
    r = systems.residual(np.atleast_2d(x))
    return r[0] if single else r
