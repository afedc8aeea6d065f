"""The multi-block per-thread Thomas kernels and their two layouts.

Covers the tentpole contracts: interleaved and sequential runs are
*bitwise* equal (same per-lane arithmetic, different address maps),
multi-block grids with identity padding are exact, the interleaved
layout coalesces, ``run_kernel`` gates the ``layout=`` argument, and
the analytic estimator path stays bitwise-equal to the functional
simulation for every geometry.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.timing import modeled_grid_timing
from repro.gpusim import GTX280, InterleavedSystemArrays, estimate_ms
from repro.kernels import run_kernel, run_thomas_batch
from repro.numerics.generators import diagonally_dominant_fluid
from repro.solvers.thomas import thomas_batched, thomas_single


class TestRunThomasBatch:
    @pytest.mark.parametrize("S,n", [(1, 8), (16, 32), (600, 16),
                                     (700, 33), (1025, 8)])
    @pytest.mark.parametrize("layout", ["sequential", "interleaved"])
    def test_matches_cpu_thomas(self, S, n, layout):
        s = diagonally_dominant_fluid(S, n, seed=1)
        x, res = run_thomas_batch(s, layout=layout)
        assert x.shape == (S, n)
        np.testing.assert_allclose(x, thomas_batched(s), rtol=2e-5,
                                   atol=1e-6)

    @pytest.mark.parametrize("S,n", [(32, 16), (600, 16), (1025, 8)])
    def test_layouts_bitwise_equal(self, S, n):
        """Same float32 op sequence per lane => identical bits."""
        s = diagonally_dominant_fluid(S, n, seed=2)
        xs, _ = run_thomas_batch(s, layout="sequential")
        xi, _ = run_thomas_batch(s, layout="interleaved")
        np.testing.assert_array_equal(xs, xi)

    def test_multiblock_geometry(self):
        s = diagonally_dominant_fluid(1025, 8, seed=3)
        _, res = run_thomas_batch(s, layout="interleaved")
        assert res.threads_per_block == GTX280.max_threads_per_block
        assert res.num_blocks == 3          # ceil(1025/512), padded

    def test_interleaved_coalesces(self):
        s = diagonally_dominant_fluid(64, 64, seed=4)
        _, seq = run_thomas_batch(s, layout="sequential")
        _, inter = run_thomas_batch(s, layout="interleaved")
        t_s = seq.ledger.total().global_transactions
        t_i = inter.ledger.total().global_transactions
        assert t_s > 10 * t_i

    def test_bad_layout_rejected(self):
        s = diagonally_dominant_fluid(2, 8, seed=0)
        with pytest.raises(ValueError, match="layout must be one of"):
            run_thomas_batch(s, layout="diagonal")


@settings(max_examples=40, deadline=None)
@given(S=st.integers(min_value=1, max_value=64),
       n=st.integers(min_value=2, max_value=300),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(min_value=0, max_value=10**6))
def test_thomas_bitwise_contract(S, n, dtype, seed):
    """One Thomas, four executions: the system-minor NumPy sweep, the
    per-system scalar loop and the simulated kernel in both layouts
    give identical bits (the kernel computes in float32)."""
    s = diagonally_dominant_fluid(S, n, seed=seed, dtype=dtype)
    before = [v.copy() for v in (s.a, s.b, s.c, s.d)]
    x = thomas_batched(s)
    for v, w in zip(before, (s.a, s.b, s.c, s.d)):
        np.testing.assert_array_equal(v, w)     # inputs untouched
    assert x.dtype == dtype and x.shape == (S, n)
    single = np.stack([thomas_single(s.a[k], s.b[k], s.c[k], s.d[k])
                       for k in range(S)])
    np.testing.assert_array_equal(x, single)
    s32 = s.astype(np.float32)
    x32 = thomas_batched(s32)
    for layout in ("sequential", "interleaved"):
        np.testing.assert_array_equal(
            run_kernel("thomas", s32, layout=layout)[0], x32)


class TestRunKernelLayout:
    def test_dispatches_interleaved_thomas(self):
        s = diagonally_dominant_fluid(48, 16, seed=5)
        x, res = run_kernel("thomas", s, layout="interleaved")
        np.testing.assert_allclose(x, thomas_batched(s), rtol=2e-5,
                                   atol=1e-6)

    def test_sequential_layout_accepted_everywhere(self):
        s = diagonally_dominant_fluid(2, 16, seed=5)
        x, _ = run_kernel("cr", s, layout="sequential")
        assert x.shape == (2, 16)

    def test_interleaved_rejected_for_shared_memory_kernels(self):
        s = diagonally_dominant_fluid(2, 16, seed=5)
        with pytest.raises(ValueError, match="does not take layout"):
            run_kernel("cr", s, layout="interleaved")


class TestEstimatorAgreement:
    """The analytic launch must stay bitwise-equal to the functional
    simulate-then-cost path for both layouts and any block count."""

    @pytest.mark.parametrize("S,n", [(4, 8), (512, 8), (600, 16),
                                     (2048, 8), (1, 512)])
    @pytest.mark.parametrize("layout", ["sequential", "interleaved"])
    def test_bitwise_equal_modeled_ms(self, S, n, layout):
        lay = None if layout == "sequential" else layout
        measured = modeled_grid_timing("thomas", n, S, layout=lay).solver_ms
        analytic = estimate_ms("thomas", n, S, layout=layout)
        assert measured == analytic


class TestInterleavedSystemArrays:
    def test_roundtrip_and_stride(self):
        s = diagonally_dominant_fluid(6, 8, seed=6)
        gmem = InterleavedSystemArrays.from_systems(s)
        assert gmem.system_stride == 6
        # element j of system i sits at j*S + i
        np.testing.assert_array_equal(
            gmem.b.data.reshape(8, 6).T, s.b.astype(np.float32))

    def test_trace_signature_layout_tagged(self):
        """The same (S, n) shape must never share a trace-cache key
        across layouts."""
        from repro.kernels.common import GlobalSystemArrays
        s = diagonally_dominant_fluid(4, 8, seed=7)
        inter = InterleavedSystemArrays.from_systems(s).trace_signature()
        seq = GlobalSystemArrays.from_systems(s).trace_signature()
        assert inter[0] == "gmem_interleaved"
        assert seq[0] == "gmem"
        assert inter != seq

    def test_fault_walker_sees_arrays(self):
        """ECC-upset detection walks dataclass fields one level; the
        interleaved container must expose its GlobalArrays that way."""
        from repro.gpusim.faults import find_global_arrays
        s = diagonally_dominant_fluid(4, 8, seed=8)
        gmem = InterleavedSystemArrays.from_systems(s)
        arrs = find_global_arrays({"gmem": gmem})
        assert gmem.a in arrs and gmem.x in arrs
