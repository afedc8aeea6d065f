"""One-stop modeled-timing harness used by benchmarks and examples.

Wraps kernel execution + cost-model evaluation into a single call and
provides the end-to-end (solver + PCIe transfer) composition of the
paper's Fig 6 right / Fig 7 right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.gpusim import (GTX280, CostModel, DeviceSpec, LaunchResult,
                          PCIeModel, TimingReport, gt200_cost_model)
from repro.kernels.api import run_kernel
from repro.solvers.systems import TridiagonalSystems


@dataclass
class SolverTiming:
    """Solution plus modeled timing of one solver run."""

    name: str
    x: np.ndarray
    launch: LaunchResult
    report: TimingReport
    transfer_ms: float

    @property
    def solver_ms(self) -> float:
        return self.report.total_ms

    @property
    def total_ms(self) -> float:
        """End-to-end including CPU-GPU transfer (Fig 6 right)."""
        return self.solver_ms + self.transfer_ms


def timed_solve(name: str, systems: TridiagonalSystems, *,
                intermediate_size: int | None = None,
                device: DeviceSpec = GTX280,
                cost_model: CostModel | None = None,
                pcie: PCIeModel | None = None,
                layout: str | None = None) -> SolverTiming:
    """Run kernel ``name`` on ``systems`` and model its GTX 280 timing."""
    cm = cost_model or gt200_cost_model()
    pcie = pcie or PCIeModel()
    with telemetry.span("timing.timed_solve", solver=name, n=systems.n,
                        num_systems=systems.num_systems) as sp:
        x, launch = run_kernel(name, systems,
                               intermediate_size=intermediate_size,
                               device=device, layout=layout)
        report = cm.report(launch)
        transfer = pcie.solver_roundtrip_ms(systems.num_systems, systems.n)
        sp.set_attr("modeled_ms", report.total_ms)
        sp.set_attr("transfer_ms", transfer)
    return SolverTiming(name=name, x=x, launch=launch, report=report,
                        transfer_ms=transfer)


#: Input seed and system count of :func:`modeled_grid_timing`'s small
#: simulation (per-block counters are data-independent, so neither
#: moves a modeled millisecond).
_SIM_SEED = 0
_SIM_BLOCKS = 2


def modeled_grid_timing(name: str, n: int, num_systems: int, *,
                        intermediate_size: int | None = None,
                        device: DeviceSpec = GTX280,
                        cost_model: CostModel | None = None,
                        pcie: PCIeModel | None = None,
                        layout: str | None = None) -> SolverTiming:
    """Model a ``num_systems x n`` grid from a small simulation.

    Per-block counters are identical across blocks, so two simulated
    systems suffice; their functional ledger is costed over the
    requested grid with :meth:`CostModel.grid_timing` (the
    occupancy/wave rule).  Used by the figure benchmarks, where
    simulating 512 real blocks would only burn time.

    The per-thread ``"thomas"`` kernel packs many systems into each
    block, so its small simulation is one full block tile of
    ``min(num_systems, max_threads)`` systems and the rescale runs
    over the real *block* count instead of the system count.
    """
    from repro.numerics.generators import diagonally_dominant_fluid

    cm = cost_model or gt200_cost_model()
    pcie = pcie or PCIeModel()
    if name == "thomas":
        from repro.kernels.thomas_kernel import thomas_launch_geometry
        num_blocks, threads = thomas_launch_geometry(num_systems, device)
        systems = diagonally_dominant_fluid(threads, n, seed=_SIM_SEED)
    else:
        num_blocks = num_systems
        systems = diagonally_dominant_fluid(_SIM_BLOCKS, n, seed=_SIM_SEED)
    with telemetry.span("timing.modeled_grid", solver=name, n=n,
                        num_systems=num_systems,
                        sim_blocks=_SIM_BLOCKS) as sp:
        x, launch = run_kernel(name, systems,
                               intermediate_size=intermediate_size,
                               device=device, layout=layout)
        rep = cm.grid_timing(launch, num_blocks)
        transfer = pcie.solver_roundtrip_ms(num_systems, n)
        sp.set_attr("modeled_ms", rep.total_ms)
        sp.set_attr("transfer_ms", transfer)
    return SolverTiming(name=name, x=x, launch=launch, report=rep,
                        transfer_ms=transfer)


def compare_solvers(systems: TridiagonalSystems, *,
                    names=("cr", "pcr", "rd", "cr_pcr", "cr_rd"),
                    intermediate_sizes: dict | None = None,
                    device: DeviceSpec = GTX280,
                    cost_model: CostModel | None = None
                    ) -> dict[str, SolverTiming]:
    """Model all requested solvers on the same batch (Fig 6 data)."""
    ms = intermediate_sizes or {}
    return {name: timed_solve(name, systems,
                              intermediate_size=ms.get(name),
                              device=device, cost_model=cost_model)
            for name in names}


def best_gpu_ms(systems: TridiagonalSystems, *, include_transfer=False,
                **kw) -> tuple[str, float]:
    """Fastest modeled GPU solver for a batch (Fig 7's "Best GPU")."""
    results = compare_solvers(systems, **kw)
    key = ((lambda t: t.total_ms) if include_transfer
           else (lambda t: t.solver_ms))
    name = min(results, key=lambda n: key(results[n]))
    return name, key(results[name])
