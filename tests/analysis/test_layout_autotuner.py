"""The layout autotuner: an argmin of the analytic estimator."""

import pytest

from repro.analysis.layout_autotuner import CANDIDATES, choose_layout
from repro.gpusim import estimate_ms


class TestChoice:
    def test_large_batch_small_n_interleaved_thomas(self):
        c = choose_layout(2048, 8)
        assert (c.method, c.layout) == ("thomas", "interleaved")

    def test_single_large_system_sequential_hybrid(self):
        c = choose_layout(1, 512)
        assert c.layout == "sequential"
        assert c.method in ("cr_pcr", "pcr")

    def test_ranking_is_complete_and_sorted(self):
        c = choose_layout(64, 64)
        assert len(c.ranking) == len(CANDIDATES)
        costs = [r.predicted_ms for r in c.ranking
                 if r.predicted_ms is not None]
        assert costs == sorted(costs)
        assert c.predicted_ms == costs[0]
        # The prediction is the estimator's value, bit for bit.
        for r in c.ranking:
            if r.predicted_ms is not None:
                assert r.predicted_ms == estimate_ms(r.method, 64, 64,
                                                     layout=r.layout)

    def test_infeasible_candidates_carry_reasons(self):
        c = choose_layout(4, 100)   # non-power-of-two n
        infeasible = {(r.method, r.layout): r.reason for r in c.ranking
                      if r.predicted_ms is None}
        assert ("pcr", "sequential") in infeasible
        assert "power-of-two" in infeasible[("pcr", "sequential")]
        # thomas has no size restriction: still chosen
        assert c.method == "thomas"

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="num_systems"):
            choose_layout(0, 8)
        with pytest.raises(ValueError, match="n must be"):
            choose_layout(4, 1)
