"""SIMT execution-model simulator (the paper's GPU, rebuilt in Python).

Public surface:

- :class:`~repro.gpusim.device.DeviceSpec` and the :data:`GTX280` preset
- :func:`~repro.gpusim.executor.launch` -- run a kernel over a grid
- :class:`~repro.gpusim.context.BlockContext` -- the kernel DSL
- :class:`~repro.gpusim.costmodel.CostModel` /
  :func:`~repro.gpusim.gt200.gt200_cost_model` -- counters to time
- :class:`~repro.gpusim.transfer.PCIeModel` -- CPU-GPU transfer model
- :mod:`~repro.gpusim.faults` -- seeded fault injection (launch
  failures, bit flips, transfer corruption) for chaos testing
"""

from .context import BlockContext, KernelError, StopKernel
from .costmodel import CostModel, CostModelParams, PhaseTime, TimingReport
from .engine import (REFERENCE, VECTORIZED, ReferenceEngine,
                     VectorizedEngine, resolve_engine)
from .estimator import (analytic_launch, closed_form_counters, estimate_ms,
                        estimate_report)
from .faults import (BrownoutProcess, DataCorruptionError, DegradationProcess,
                     FaultEvent, FaultPlan, FlappingProcess, GpuFault,
                     KernelLaunchError, TransientLaunchError, active_plan,
                     combine_rates, evaluate_processes, inject)
from .counters import CounterLedger, PhaseCounters
from .device import GTX280, G80_8800GTX, TESLA_C1060, DeviceSpec, occupancy_report
from .executor import LaunchResult, launch
from .gt200 import GT200_PARAMS, gt200_cost_model
from .pool import (FAULT_RATE_FIELDS, DevicePool, PooledDevice,
                   derive_seed, make_pool)
from .memory import (GlobalArray, InterleavedSystemArrays, SharedArray,
                     SharedMemorySpace,
                     bank_conflict_cycles, coalesced_transactions,
                     max_conflict_degree)
from .serialize import (launch_to_dict, launch_to_json, ledger_from_dict,
                        ledger_to_dict, ledgers_equal,
                        timing_report_from_dict, timing_report_to_dict)
from .tracecache import (TraceCache, default_cache, get_cache,
                         launch_signature, use_cache)
from .transfer import GLOBAL_ONLY_PENALTY, PCIeModel
from .warp import is_contiguous_prefix, is_contiguous_range, warps_touched

__all__ = [
    "DataCorruptionError", "FaultEvent", "FaultPlan", "GpuFault",
    "KernelLaunchError", "TransientLaunchError", "active_plan", "inject",
    "BrownoutProcess", "FlappingProcess", "DegradationProcess",
    "combine_rates", "evaluate_processes",
    "REFERENCE", "VECTORIZED", "ReferenceEngine", "VectorizedEngine",
    "resolve_engine",
    "analytic_launch", "closed_form_counters", "estimate_ms",
    "estimate_report",
    "BlockContext", "KernelError", "StopKernel", "CostModel", "CostModelParams",
    "PhaseTime", "TimingReport", "CounterLedger", "PhaseCounters",
    "GTX280", "G80_8800GTX", "TESLA_C1060", "DeviceSpec",
    "occupancy_report", "LaunchResult", "launch", "GT200_PARAMS",
    "gt200_cost_model", "GlobalArray", "InterleavedSystemArrays",
    "SharedArray", "SharedMemorySpace",
    "bank_conflict_cycles", "coalesced_transactions", "max_conflict_degree",
    "GLOBAL_ONLY_PENALTY", "PCIeModel", "launch_to_dict", "launch_to_json",
    "ledger_from_dict", "ledger_to_dict", "ledgers_equal",
    "timing_report_from_dict", "timing_report_to_dict",
    "is_contiguous_prefix", "is_contiguous_range",
    "warps_touched",
    "FAULT_RATE_FIELDS", "DevicePool", "PooledDevice", "derive_seed",
    "make_pool",
    "TraceCache", "default_cache", "get_cache", "launch_signature",
    "use_cache",
]
