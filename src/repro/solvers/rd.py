"""Recursive doubling (RD) in scan form, batched NumPy implementation.

The algorithm of §2.3 and Fig 3 (Stone's method as reformulated by
Egecioglu et al.): equation ``i`` rewritten as a 3x3 matrix recurrence

    [x_{i+1}, x_i, 1]^T = B_i [x_i, x_{i-1}, 1]^T

    B_i = [[-b_i/c_i,  -a_i/c_i,  d_i/c_i],
           [    1,          0,        0   ],
           [    0,          0,        1   ]]

so the prefix products ``C_i = B_i ... B_0`` (computed with a
step-efficient Hillis-Steele scan, log2 n steps) express every unknown
linearly in ``x_0``; the last equation pins ``x_0 = -C[0,2]/C[0,0]``.

Implementation notes mirroring the paper's kernel (§4):

* Only the first two rows of each matrix are stored (the third is
  always ``[0, 0, 1]``), 6 floats per equation, saving arithmetic --
  20 operations per 3x3 product instead of the general 45.
* The last equation has ``c == 0``; its matrix is built with a formal
  ``c = 1`` (the row is then *enforced* rather than propagated, which
  is where the ``x_0`` formula comes from).
* There is no division in the scan itself; all divisions happen in
  matrix setup (and one in solution evaluation).  The chain products
  can overflow float32 for diagonally dominant matrices -- the paper's
  §5.4 observation, reproduced here naturally.  See
  :mod:`repro.numerics.scaling` for the scaled variant.
"""

from __future__ import annotations

import numpy as np

from .systems import TridiagonalSystems
from .validate import require_power_of_two

#: Row-major layout of the stored 2x3 top of each scan matrix.
R00, R01, R02, R10, R11, R12 = range(6)


def build_matrices(a, b, c, d) -> np.ndarray:
    """Matrix setup phase: ``(S, n, 6)`` stored rows of the B_i.

    Divisions: three per equation (``-b/c, -a/c, d/c``).  The last
    column uses the formal ``c = 1`` substitution.
    """
    S, n = b.shape
    m = np.empty((S, n, 6), dtype=b.dtype)
    cc = c.copy()
    cc[:, -1] = 1  # formal c for the last equation (see module docstring)
    with np.errstate(divide="ignore", invalid="ignore"):
        m[:, :, R00] = -b / cc
        m[:, :, R01] = -a / cc
        m[:, :, R02] = d / cc
    m[:, :, R10] = 1
    m[:, :, R11] = 0
    m[:, :, R12] = 0
    return m


def combine(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Product of stored-2x3 scan matrices: ``later @ earlier``.

    20 arithmetic operations per element pair (the paper's count),
    exploiting the implicit third row ``[0, 0, 1]``.
    """
    a00, a01, a02 = (later[..., R00], later[..., R01], later[..., R02])
    a10, a11, a12 = (later[..., R10], later[..., R11], later[..., R12])
    b00, b01, b02 = (earlier[..., R00], earlier[..., R01], earlier[..., R02])
    b10, b11, b12 = (earlier[..., R10], earlier[..., R11], earlier[..., R12])
    out = np.empty_like(later)
    out[..., R00] = a00 * b00 + a01 * b10
    out[..., R01] = a00 * b01 + a01 * b11
    out[..., R02] = a00 * b02 + a01 * b12 + a02
    out[..., R10] = a10 * b00 + a11 * b10
    out[..., R11] = a10 * b01 + a11 * b11
    out[..., R12] = a10 * b02 + a11 * b12 + a12
    return out


def inclusive_scan(matrices: np.ndarray) -> np.ndarray:
    """Hillis-Steele inclusive scan over the equation axis.

    Step-efficient (log2 n steps), not work-efficient -- the paper
    picks this variant deliberately because step count dominates GPU
    runtime (§2.3, §5.3).  Operates on a copy.
    """
    m = matrices.copy()
    n = m.shape[1]
    stride = 1
    while stride < n:
        # later element i absorbs earlier element i - stride
        m[:, stride:] = combine(m[:, stride:], m[:, :-stride])
        stride *= 2
    return m


def evaluate_solution(scanned: np.ndarray) -> np.ndarray:
    """Solution evaluation phase: unknowns from the prefix products.

    ``x_0 = -C_{n-1}[0,2] / C_{n-1}[0,0]``; then
    ``x_{i+1} = C_i[0,0] * x_0 + C_i[0,2]``.
    """
    S, n, _ = scanned.shape
    x = np.empty((S, n), dtype=scanned.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Negate the divisor, not the dividend: same value, but a NaN
        # C[0,2] keeps its sign, so NaN words match the RD kernels'.
        x0 = scanned[:, n - 1, R02] / -scanned[:, n - 1, R00]
    x[:, 0] = x0
    x[:, 1:] = (scanned[:, :-1, R00] * x0[:, None]
                + scanned[:, :-1, R02])
    return x


def recursive_doubling(systems: TridiagonalSystems) -> np.ndarray:
    """Solve a batch of power-of-two systems by recursive doubling.

    ``log2(n) + 2`` algorithmic steps: matrix setup, the scan, and
    solution evaluation (Table 1).
    """
    require_power_of_two(systems.n, "recursive_doubling")
    m = build_matrices(systems.a, systems.b, systems.c, systems.d)
    scanned = inclusive_scan(m)
    return evaluate_solution(scanned)


def rd_on_arrays(a, b, c, d) -> np.ndarray:
    """RD on raw ``(S, m)`` arrays (hybrid inner solver path)."""
    return evaluate_solution(inclusive_scan(build_matrices(a, b, c, d)))


def operation_count(n: int) -> int:
    """Arithmetic operations of RD (Table 1: 20 n log2 n)."""
    return 20 * n * int(np.log2(n))


def step_count(n: int) -> int:
    """Algorithmic steps of RD (Table 1: log2 n + 2)."""
    return int(np.log2(n)) + 2
