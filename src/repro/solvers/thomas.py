"""Thomas algorithm: Gaussian elimination for tridiagonal systems.

This is the paper's sequential baseline ("GE", §5.2): forward
elimination followed by backward substitution, 8n operations, 2n
inherently serial steps.  Two entry points:

- :func:`thomas_single` -- literal per-system scalar loop (the
  reference used by tests; also the cost basis for the GE CPU model).
- :func:`thomas_batched` -- vectorised over the *batch* dimension while
  remaining sequential in ``i``.  This is the natural CPU analogue of
  the paper's multi-threaded "MT" solver, which also keeps each system
  serial and exploits parallelism across systems.

:func:`thomas_batched` works in the *system-minor* layout: element
``i`` of every system is adjacent, the interleaved batch layout that
lets one-thread-per-system Thomas coalesce on a GPU (cuSPARSE
``gtsvInterleavedBatch``; :mod:`repro.kernels.thomas_kernel`).  On a
CPU the same layout makes each elimination step one contiguous vector
operation, so the per-step cost is one short run of ufunc calls rather
than strided column gathers.

Every entry point -- both functions here and the simulated kernel in
either layout -- applies the same float operations to each element in
the same order, so for inputs of one dtype their solutions are bitwise
equal (the kernel computes in float32, so it matches float32 inputs).

Neither pivots; for general matrices use
:func:`repro.solvers.gauss.gep_batched`.
"""

from __future__ import annotations

import numpy as np

from .systems import TridiagonalSystems


def thomas_single(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  d: np.ndarray) -> np.ndarray:
    """Solve one tridiagonal system with the Thomas algorithm.

    Parameters are 1-D arrays of length n (``a[0]`` and ``c[-1]``
    ignored).  Computation happens in the arrays' common dtype -- pass
    float32 inputs to reproduce the paper's single-precision behaviour.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    d = np.asarray(d)
    n = b.shape[0]
    dtype = np.result_type(a, b, c, d)
    cp = np.empty(n, dtype=dtype)
    dp = np.empty(n, dtype=dtype)
    cp[0] = c[0] / b[0]
    dp[0] = d[0] / b[0]
    for i in range(1, n):
        denom = b[i] - cp[i - 1] * a[i]
        cp[i] = c[i] / denom
        dp[i] = (d[i] - dp[i - 1] * a[i]) / denom
    x = np.empty(n, dtype=dtype)
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def thomas_batched(systems: TridiagonalSystems) -> np.ndarray:
    """Solve a batch with Thomas, vectorised across systems.

    Sequential in the unknown index (the algorithm's data dependence),
    parallel across the batch -- the same decomposition as the paper's
    MT CPU solver ("multiple threads solving multiple systems
    simultaneously", §5.2).

    The sweep runs in the system-minor layout: one transpose copies the
    coefficients to contiguous ``(n, S)`` arrays, so step ``i`` reads
    and writes row ``i`` -- element ``i`` of every system -- as one
    contiguous vector.  c' and d' overwrite the copies of c and d (as
    the kernel overwrites them in global memory), d' becomes x during
    back substitution, and one transpose returns the solution.
    """
    S, n = systems.shape
    a, b, c, d = (v.T.copy() for v in
                  (systems.a, systems.b, systems.c, systems.d))
    tmp = np.empty(S, dtype=systems.dtype)
    # Positional ``out`` arguments: per-step call overhead is what
    # bounds small batches.
    mul, sub, div = np.multiply, np.subtract, np.divide
    cp, dp = c[0], d[0]
    div(cp, b[0], cp)
    div(dp, b[0], dp)
    for ai, bi, ci, di in zip(a[1:], b[1:], c[1:], d[1:]):
        mul(cp, ai, tmp)
        sub(bi, tmp, bi)            # bi is now the pivot b - c'a
        div(ci, bi, ci)
        mul(dp, ai, tmp)
        sub(di, tmp, di)
        div(di, bi, di)
        cp, dp = ci, di
    x = dp
    for ci, di in zip(c[n - 2::-1], d[n - 2::-1]):
        mul(ci, x, tmp)
        sub(di, tmp, di)
        x = di
    return np.ascontiguousarray(d.T)


def operation_count(n: int) -> int:
    """Arithmetic operations of the Thomas algorithm (paper §2: 8n)."""
    return 8 * n


def step_count(n: int) -> int:
    """Serial steps of the Thomas algorithm (paper §2: 2n)."""
    return 2 * n
