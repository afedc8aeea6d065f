"""Differential tests of the analytical fast-path estimator.

:mod:`repro.gpusim.estimator` promises (module docstring) that the
charge-only ``functional=False`` pass reproduces a functional launch's
ledger bitwise, that :func:`estimate_report` mirrors
:func:`repro.analysis.timing.modeled_grid_timing` float-for-float, and
that the paper's Table 1 closed forms hold *exactly* -- including the
headline ``28n - 38`` shared words, ``2 log2 n - 1`` steps and 160
global transactions at n = 512 for CR.  Every promise is enforced
here.
"""

import numpy as np
import pytest

from repro.gpusim import ledgers_equal, use_cache
from repro.gpusim.device import GTX280, TESLA_C1060
from repro.gpusim.estimator import (analytic_launch, clear_estimator_cache,
                                    closed_form_counters, estimate_ms,
                                    estimate_report)
from repro.gpusim.serialize import ledger_to_dict
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

SOLVERS = ("cr", "pcr", "rd", "cr_pcr", "cr_rd")
SIZES = (8, 32, 128, 512)


def _functional(method, n, num_systems=2, device=GTX280):
    systems = diagonally_dominant_fluid(num_systems, n, seed=3)
    with use_cache(None):
        _x, res = run_kernel(method, systems, device=device)
    return res


class TestAnalyticLedger:
    """The analytic ledger is the functional ledger, bit for bit."""

    @pytest.mark.parametrize("method", SOLVERS)
    @pytest.mark.parametrize("n", SIZES)
    def test_bitwise_across_grid(self, method, n):
        analytic = analytic_launch(method, n)
        functional = _functional(method, n)
        assert ledgers_equal(analytic.ledger, functional.ledger) == []
        assert analytic.ledger.step_records == \
            functional.ledger.step_records
        # Serialized form too: what the checkpoint digests hash.
        assert ledger_to_dict(analytic.ledger) == \
            ledger_to_dict(functional.ledger)
        assert analytic.threads_per_block == functional.threads_per_block
        assert analytic.shared_bytes == functional.shared_bytes

    def test_independent_of_batch_size(self):
        """Per-block charges do not depend on how many systems ride
        the grid, so one stub block covers them all."""
        analytic = analytic_launch("cr", 64)
        for num_systems in (1, 5, 17):
            functional = _functional("cr", 64, num_systems=num_systems)
            assert ledgers_equal(analytic.ledger,
                                 functional.ledger) == []

    def test_other_device(self):
        analytic = analytic_launch("pcr", 64, device=TESLA_C1060)
        functional = _functional("pcr", 64, device=TESLA_C1060)
        assert ledgers_equal(analytic.ledger, functional.ledger) == []

    def test_memoized_and_clearable(self):
        clear_estimator_cache()
        first = analytic_launch("rd", 32)
        assert analytic_launch("rd", 32) is first
        clear_estimator_cache()
        again = analytic_launch("rd", 32)
        assert again is not first
        assert ledgers_equal(again.ledger, first.ledger) == []

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            analytic_launch("thomas_gpu", 32)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            analytic_launch("cr", 48)


class TestTimingMirror:
    """estimate_report == modeled_grid_timing, float for float."""

    @pytest.mark.parametrize("method", SOLVERS)
    @pytest.mark.parametrize("n,num_systems",
                             [(32, 7), (128, 100), (512, 1000)])
    def test_total_and_steps_exact(self, method, n, num_systems):
        from repro.analysis.timing import modeled_grid_timing

        with use_cache(None):
            modeled = modeled_grid_timing(method, n, num_systems).report
        analytic = estimate_report(method, n, num_systems)
        # Exact equality: both paths run the same float expressions in
        # the same order on bitwise-equal ledgers.
        assert analytic.total_ms == modeled.total_ms
        assert analytic.grid_scale == modeled.grid_scale
        assert analytic.per_step == modeled.per_step
        assert estimate_ms(method, n, num_systems) == modeled.total_ms


class TestClosedForms:
    """Paper Table 1 totals, exact (not leading-order)."""

    @pytest.mark.parametrize("n", (8, 64, 512))
    def test_cr_matches_ledger(self, n):
        forms = closed_form_counters("cr", n)
        total = analytic_launch("cr", n).ledger.total()
        assert total.steps == forms["steps"] == 2 * (n.bit_length() - 1) - 1
        assert total.shared_words == forms["shared_words"] == 28 * n - 38
        assert total.global_transactions == forms["global_transactions"]
        assert total.global_words == forms["global_words"] == 5 * n

    def test_cr_160_transactions_at_512(self):
        """The paper's headline coalesced staging cost."""
        assert closed_form_counters("cr", 512)["global_transactions"] == 160
        assert analytic_launch(
            "cr", 512).ledger.total().global_transactions == 160

    @pytest.mark.parametrize("n", (8, 64, 512))
    def test_pcr_and_rd_step_counts(self, n):
        L = n.bit_length() - 1
        assert closed_form_counters("pcr", n)["steps"] == L
        assert closed_form_counters("rd", n)["steps"] == L + 2
        assert analytic_launch("pcr", n).ledger.total().steps == L
        assert analytic_launch("rd", n).ledger.total().steps == L + 2

    def test_closed_form_rejects_bad_input(self):
        with pytest.raises(ValueError):
            closed_form_counters("cr", 48)
        with pytest.raises(ValueError, match="no closed form"):
            closed_form_counters("cr_pcr", 64)


class TestSideEffectFreedom:
    def test_no_telemetry_emitted(self):
        from repro import telemetry
        from repro.analysis.timing import modeled_grid_timing

        clear_estimator_cache()
        with telemetry.collect() as col:
            analytic_launch("cr", 64)
            estimate_ms("cr", 64, 100)
        snap = col.metrics.snapshot()
        names = [name for family in snap.values() for name in family]
        assert not any("trace_cache" in name or "sim." in name
                       for name in names), snap
        # modeled_grid_timing shares CostModel.grid_timing with
        # CostModel.report but not its telemetry: only report() emits
        # cost-model metrics.
        with telemetry.collect() as col:
            modeled_grid_timing("cr", 64, 100)
        assert "model.reports" not in col.metrics.snapshot()["counters"]

    def test_trace_cache_untouched(self):
        from repro.gpusim import TraceCache

        clear_estimator_cache()
        cache = TraceCache()
        with use_cache(cache):
            analytic_launch("pcr", 128)
        assert cache.hits == cache.misses == len(cache) == 0

    def test_estimate_is_float_and_positive(self):
        ms = estimate_ms("cr_rd", 512, 1000)
        assert isinstance(ms, float) and ms > 0
