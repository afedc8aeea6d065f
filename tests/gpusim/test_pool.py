"""`derive_seed`: the determinism root of fuzzing and fault plans."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import pool
from repro.gpusim.pool import derive_seed, derive_seed_block


def test_deterministic_across_calls():
    assert derive_seed(1, 2, "x") == derive_seed(1, 2, "x")


def test_fits_in_uint32():
    for parts in ((0,), (2**63, "job"), ("a", "b", "c", 7)):
        s = derive_seed(*parts)
        assert 0 <= s < 2**32


def test_order_sensitive():
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed("gpu0", 3) != derive_seed(3, "gpu0")


def test_arity_sensitive():
    assert derive_seed(1) != derive_seed(1, 0)
    assert derive_seed("job") != derive_seed("job", "job")


def test_no_collisions_over_a_realistic_grid():
    """Every (seed, iteration, purpose) triple the fuzzer derives must
    map to a distinct stream seed -- a collision would silently repeat
    a 'random' case."""
    seeds = {derive_seed(s, i, purpose)
             for s, i, purpose in itertools.product(
                 range(8), range(64), ("fuzz-case", "data", "fault"))}
    assert len(seeds) == 8 * 64 * 3


def test_distinct_string_parts_mix_differently():
    labels = ["gpu0", "gpu1", "gpu2", "cpu", "job-a", "job-b"]
    assert len({derive_seed(lab, 0) for lab in labels}) == len(labels)


def test_usable_as_generator_seed():
    rng = np.random.default_rng(derive_seed("smoke", 1))
    x = rng.standard_normal(4)
    y = np.random.default_rng(derive_seed("smoke", 1)).standard_normal(4)
    assert np.array_equal(x, y)


class TestDeriveSeedBlock:
    """The vectorized minter returns exactly ``derive_seed``'s values."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 1, 7, 2**32 - 1, 2**32,
                                           2**40 + 3]),
                          st.integers(0, 2**64)),
           kind=st.sampled_from(["span", "event"]),
           start=st.one_of(st.integers(0, 3 * 4096),
                           st.integers(2**32 - 300, 2**32 + 10)),
           count=st.integers(0, 200))
    def test_equals_scalar_derive_seed(self, seed, kind, start, count):
        assert derive_seed_block((seed, kind), start, count) == [
            derive_seed(seed, kind, c) for c in range(start, start + count)]

    def test_other_prefix_lengths(self):
        for prefix in ((), (5,), ("gpu0", 3, "x")):
            assert derive_seed_block(prefix, 0, 20) == [
                derive_seed(*prefix, c) for c in range(20)]

    def test_negative_parts_raise_like_derive_seed(self):
        with pytest.raises(ValueError):
            derive_seed_block((-1, "span"), 0, 3)

    def test_block_checks_first_id(self, monkeypatch):
        monkeypatch.setattr(pool, "derive_seed", lambda *parts: -1)
        with pytest.raises(RuntimeError, match="disagrees"):
            derive_seed_block((0, "span"), 1, 8)
