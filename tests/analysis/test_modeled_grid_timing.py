"""modeled_grid_timing: the benches' scaled-timing shortcut."""

import pytest

from repro.analysis.timing import modeled_grid_timing, timed_solve
from repro.numerics.generators import diagonally_dominant_fluid


class TestConsistency:
    def test_matches_direct_simulation_at_small_grid(self):
        """For a grid the size of the simulation, the shortcut and the
        full path agree exactly."""
        s = diagonally_dominant_fluid(2, 64, seed=0)
        direct = timed_solve("cr", s)
        shortcut = modeled_grid_timing("cr", 64, 2)
        assert shortcut.solver_ms == pytest.approx(direct.solver_ms,
                                                   rel=1e-12)

    def test_scales_linearly_beyond_full_device(self):
        """Doubling a multi-wave grid doubles the solver time (fixed
        launch overhead aside)."""
        t1 = modeled_grid_timing("pcr", 512, 600)
        t2 = modeled_grid_timing("pcr", 512, 1200)
        lo = t1.report.launch_overhead_ms
        assert (t2.solver_ms - lo) == pytest.approx(
            2 * (t1.solver_ms - lo), rel=0.05)

    def test_transfer_reflects_requested_grid(self):
        t = modeled_grid_timing("cr", 64, 512)
        small = modeled_grid_timing("cr", 64, 2)
        assert t.transfer_ms > 100 * small.transfer_ms / 512

    def test_intermediate_size_forwarded(self):
        t1 = modeled_grid_timing("cr_pcr", 512, 512,
                                 intermediate_size=256)
        t2 = modeled_grid_timing("cr_pcr", 512, 512,
                                 intermediate_size=32)
        assert t1.solver_ms != t2.solver_ms

    def test_per_step_records_present(self):
        t = modeled_grid_timing("cr", 128, 128)
        assert len(t.report.steps_ms("forward_reduction")) == 6
