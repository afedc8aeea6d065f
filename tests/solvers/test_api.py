"""Public solve() API: methods, auto selection, padding, shapes."""

import numpy as np
import pytest

from repro import telemetry
from repro.numerics.generators import close_values, diagonally_dominant_fluid
from repro.solvers.api import (HOST_CR_FACTOR, SOLVERS, choose_method,
                               host_method, residual, solve)
from repro.solvers.systems import TridiagonalSystems


class TestSolve:
    @pytest.mark.parametrize("method", sorted(SOLVERS))
    def test_every_method_solves_dominant_batch(self, method):
        n = 32  # small enough that even RD is stable-ish? RD needs care
        if method in ("rd", "cr_rd"):
            s = close_values(4, n, seed=1)
        else:
            s = diagonally_dominant_fluid(4, n, seed=1)
        x = solve(s.a, s.b, s.c, s.d, method=method)
        assert residual(s.a, s.b, s.c, s.d, x).max() < 1e-2

    def test_single_system_shape(self):
        s = diagonally_dominant_fluid(1, 16, seed=2)
        x = solve(s.a[0], s.b[0], s.c[0], s.d[0], method="cr")
        assert x.shape == (16,)

    def test_batch_shape(self):
        s = diagonally_dominant_fluid(5, 16, seed=3)
        x = solve(s.a, s.b, s.c, s.d, method="pcr")
        assert x.shape == (5, 16)

    def test_unknown_method(self):
        s = diagonally_dominant_fluid(1, 8, seed=4)
        with pytest.raises(ValueError, match="unknown method"):
            solve(s.a, s.b, s.c, s.d, method="cholesky")

    def test_intermediate_size_forwarded(self):
        s = diagonally_dominant_fluid(2, 64, seed=5)
        x = solve(s.a, s.b, s.c, s.d, method="cr_pcr", intermediate_size=8)
        assert residual(s.a, s.b, s.c, s.d, x).max() < 1e-3


class TestFiniteBoundary:
    def test_nan_rejected_with_system_index(self):
        from repro.solvers.validate import InputValidationError
        s = diagonally_dominant_fluid(4, 16, seed=6)
        s.d[2, 5] = np.nan
        with pytest.raises(InputValidationError, match="system index 2"):
            solve(s.a, s.b, s.c, s.d, method="cr")

    def test_check_finite_false_skips(self):
        s = diagonally_dominant_fluid(4, 16, seed=6)
        s.d[2, 5] = np.nan
        x = solve(s.a, s.b, s.c, s.d, method="cr", check_finite=False)
        assert x.shape == (4, 16)       # solver ran; garbage-in applies

    def test_robust_solve_reachable_from_top_level(self):
        import repro
        s = diagonally_dominant_fluid(2, 16, seed=7)
        report = repro.robust_solve(s.a, s.b, s.c, s.d)
        assert report.all_accepted


class TestPadding:
    @pytest.mark.parametrize("n", [3, 7, 20, 100])
    def test_non_power_of_two_padded(self, n):
        s = diagonally_dominant_fluid(3, n, seed=n)
        x = solve(s.a, s.b, s.c, s.d, method="cr")
        assert x.shape == (3, n)
        assert residual(s.a, s.b, s.c, s.d, x).max() < 1e-3

    def test_padded_matches_thomas(self):
        s = diagonally_dominant_fluid(3, 21, seed=6, dtype=np.float64)
        x_pad = solve(s.a, s.b, s.c, s.d, method="pcr")
        x_ref = solve(s.a, s.b, s.c, s.d, method="thomas")
        np.testing.assert_allclose(x_pad, x_ref, rtol=1e-8, atol=1e-10)

    def test_pad_false_raises(self):
        s = diagonally_dominant_fluid(1, 12, seed=7)
        with pytest.raises(ValueError, match="pad=False"):
            solve(s.a, s.b, s.c, s.d, method="cr", pad=False)

    def test_thomas_needs_no_padding(self):
        s = diagonally_dominant_fluid(1, 12, seed=8)
        x = solve(s.a[0], s.b[0], s.c[0], s.d[0], method="thomas",
                  pad=False)
        assert x.shape == (12,)


class TestAutoSelection:
    def test_non_dominant_gets_pivoting(self):
        s = close_values(4, 64, seed=9)
        assert choose_method(s) == "gep"

    def test_tiny_batch_gets_thomas(self):
        s = diagonally_dominant_fluid(2, 16, seed=10)
        assert choose_method(s) == "thomas"

    def test_small_systems_get_pcr(self):
        s = diagonally_dominant_fluid(64, 64, seed=11)
        assert choose_method(s) == "pcr"

    def test_large_systems_get_hybrid(self):
        s = diagonally_dominant_fluid(64, 512, seed=12)
        assert choose_method(s) == "cr_pcr"

    def test_auto_solves_correctly(self):
        s = diagonally_dominant_fluid(16, 128, seed=13)
        x = solve(s.a, s.b, s.c, s.d)  # method="auto"
        assert residual(s.a, s.b, s.c, s.d, x).max() < 1e-3


class TestHostExecutor:
    """``solve(method="auto")`` runs the host rule, not the modeled
    GPU's choice."""

    K = HOST_CR_FACTOR

    def test_few_long_systems_get_cr(self):
        s = diagonally_dominant_fluid(4, 4 * self.K, seed=20)
        assert host_method(s) == "cr"
        assert choose_method(s) == "thomas"     # the modeled choice

    def test_one_system_too_many_gets_thomas(self):
        s = diagonally_dominant_fluid(5, 4 * self.K, seed=21)
        assert host_method(s) == "thomas"

    def test_wide_batch_gets_thomas(self):
        s = diagonally_dominant_fluid(self.K + 1, 64 * self.K, seed=22)
        assert host_method(s) == "thomas"

    @pytest.mark.parametrize("S,n,expect", [(512, 512, "thomas"),
                                            (4096, 64, "thomas"),
                                            (16384, 16, "thomas"),
                                            (1, 65536, "cr")])
    def test_benchmark_shapes(self, S, n, expect):
        s = diagonally_dominant_fluid(S, n, seed=23)
        assert host_method(s) == expect

    def test_non_dominant_gets_gep(self):
        s = close_values(4, 64, seed=24)
        assert host_method(s) == "gep"

    def test_padding_needed_only_with_pad(self):
        s = diagonally_dominant_fluid(1, 200, seed=25)
        assert host_method(s) == "cr"
        assert host_method(s, pad=False) == "thomas"

    def test_auto_pad_false_non_power_of_two(self):
        """``auto`` used to pick a power-of-two method and raise."""
        s = diagonally_dominant_fluid(64, 200, seed=26)
        x = solve(s.a, s.b, s.c, s.d, pad=False)
        assert x.shape == (64, 200)
        np.testing.assert_array_equal(
            x, solve(s.a, s.b, s.c, s.d, method="thomas"))

    @pytest.mark.parametrize("S,n", [(2, 256), (64, 32), (3, 100)])
    def test_auto_bitwise_equals_chosen_method(self, S, n):
        s = diagonally_dominant_fluid(S, n, seed=27)
        name = host_method(s)
        np.testing.assert_array_equal(solve(s.a, s.b, s.c, s.d),
                                      solve(s.a, s.b, s.c, s.d, method=name))

    @pytest.mark.parametrize("S,n,expect", [(2, 256, "cr"),
                                            (64, 32, "thomas")])
    def test_span_names_method_that_ran(self, S, n, expect):
        s = diagonally_dominant_fluid(S, n, seed=28)
        with telemetry.collect() as col:
            solve(s.a, s.b, s.c, s.d)
        spans = [sp for sp in col.spans if sp.name == "solve"]
        assert [sp.attrs["method"] for sp in spans] == [expect]


class TestResidualHelper:
    def test_single_returns_scalar(self):
        s = diagonally_dominant_fluid(1, 8, seed=14, dtype=np.float64)
        x = solve(s.a[0], s.b[0], s.c[0], s.d[0], method="thomas")
        r = residual(s.a[0], s.b[0], s.c[0], s.d[0], x)
        assert np.ndim(r) == 0
        assert r < 1e-10
