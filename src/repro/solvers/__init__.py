"""Batched tridiagonal solvers: the paper's five GPU algorithms plus
CPU baselines, as a fast vectorised NumPy library.

See :mod:`repro.solvers.api` for the one-call interface and
:mod:`repro.kernels` for the instrumented GPU-simulator versions.
"""

from .api import (PIVOTING_METHODS, POWER_OF_TWO_METHODS, SOLVERS,
                  choose_method, host_method, residual, robust_solve,
                  solve)
from .cr import cyclic_reduction
from .factorize import (PCRPlan, ThomasFactorization, pcr_factorize,
                        thomas_factorize)
from .gauss import gep_batched, gep_single, lapack_gtsv
from .hybrid import cr_pcr, cr_rd, hybrid_solve
from .block import (BlockTridiagonalSystems, block_cyclic_reduction,
                    block_pcr, block_thomas, solve_block)
from .layout import (deinterleave, from_strided, gtsv_interleaved_batch,
                     gtsv_strided_batch, interleave, to_strided)
from .partition import partition_solve
from .pcr import parallel_cyclic_reduction
from .periodic import PeriodicTridiagonalSystems, solve_periodic
from .refine import RefinementResult, refined_solve
from .qr import givens_qr_batched, givens_qr_single
from .rd import recursive_doubling
from .systems import TridiagonalSystems
from .thomas import thomas_batched, thomas_single
from .toeplitz import solve_toeplitz_systems, toeplitz_solve
from .twoway import two_way_elimination
from .validate import (InputValidationError, is_power_of_two,
                       next_power_of_two, pad_to_power_of_two,
                       validate_finite, validate_nonsingular_hint)

__all__ = [
    "PIVOTING_METHODS", "POWER_OF_TWO_METHODS", "SOLVERS", "choose_method",
    "host_method", "residual", "robust_solve", "solve", "cyclic_reduction",
    "gep_batched", "gep_single",
    "lapack_gtsv", "cr_pcr", "cr_rd", "hybrid_solve",
    "parallel_cyclic_reduction", "recursive_doubling", "TridiagonalSystems",
    "BlockTridiagonalSystems", "block_cyclic_reduction", "block_pcr",
    "block_thomas", "solve_block", "givens_qr_batched", "givens_qr_single",
    "deinterleave", "from_strided", "gtsv_interleaved_batch",
    "gtsv_strided_batch", "interleave", "to_strided",
    "partition_solve", "RefinementResult", "refined_solve",
    "PeriodicTridiagonalSystems", "solve_periodic",
    "PCRPlan", "ThomasFactorization", "pcr_factorize", "thomas_factorize",
    "thomas_batched", "thomas_single", "solve_toeplitz_systems",
    "toeplitz_solve", "two_way_elimination",
    "InputValidationError", "is_power_of_two",
    "next_power_of_two", "pad_to_power_of_two", "validate_finite",
    "validate_nonsingular_hint",
]
