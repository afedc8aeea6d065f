"""Property-based tests across the kernel layer.

The central invariant: for every solver, size, and switch point, the
instrumented kernel and the vectorised NumPy solver execute the same
float32 arithmetic -- results are bit-identical, and the counters obey
basic conservation laws (global traffic = 5n words, steps match the
closed forms, conflict degrees bounded by the bank count).

The bitwise contract is what lets a trace-cache hit take ``x`` from the
NumPy twin instead of simulating, so it is checked byte for byte (NaN
sign bits included) for every kernel with a twin, on every shape a hit
serves: n up to 512, any hybrid switch point, both Thomas layouts,
float64 inputs (cast to float32 as ``GlobalSystemArrays.from_systems``
stages them) and inputs that produce inf/NaN.  The kernel side runs
with the cache off, so every example is simulated.
"""

import warnings

import numpy as np
from hypothesis import example, given, reject, settings, strategies as st

from repro.gpusim import KernelError, use_cache
from repro.kernels.api import (run_cr_global, run_cr_split, run_kernel,
                               run_pcr_pingpong)
from repro.kernels.pcr_packed_kernel import run_pcr_packed
from repro.kernels.thomas_kernel import run_thomas_per_thread
from repro.numerics.generators import close_values, diagonally_dominant_fluid
from repro.solvers.api import SOLVERS
from repro.solvers.systems import TridiagonalSystems

sizes = st.sampled_from([4, 8, 16, 32, 64])
wide_sizes = st.sampled_from([4, 8, 16, 32, 64, 128, 256, 512])
batches = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=10**6)
dtypes = st.sampled_from([np.float32, np.float64])
#: ``zero_pivot`` divides by zero (inf, then NaN); ``nan`` seeds one NaN.
poisons = st.sampled_from([None, "zero_pivot", "nan"])

#: Twinned kernels outside the ``run_kernel`` registry, as
#: ``(runner, name of the twin's solver)``.  The packed kernel packs
#: the whole batch into one block.
UNREGISTERED_TWINS = {
    "pcr_pingpong": (run_pcr_pingpong, "pcr"),
    "pcr_packed": (lambda s: run_pcr_packed(s, s.num_systems), "pcr"),
    "cr_split": (run_cr_split, "cr"),
    "cr_global": (run_cr_global, "cr"),
    "thomas_per_thread": (run_thomas_per_thread, "thomas"),
}


def _gen(name, S, n, seed, dtype=np.float32, poison=None):
    gen = close_values if "rd" in name else diagonally_dominant_fluid
    s = gen(S, n, seed=seed, dtype=dtype)
    if poison == "zero_pivot":
        s.b[:, 0] = 0
    elif poison == "nan":
        s.d[:, n // 2] = np.nan
    return s


def _staged(s):
    """The float32 inputs a kernel sees (``from_systems``' cast)."""
    return TridiagonalSystems(*(v.astype(np.float32)
                                for v in (s.a, s.b, s.c, s.d)))


def _kernel_and_numpy(name, s, m=None, **kw):
    with warnings.catch_warnings(), use_cache(None):
        warnings.simplefilter("ignore")
        if name in UNREGISTERED_TWINS:
            run, name = UNREGISTERED_TWINS[name]
            x_k, _res = run(s)
        else:
            x_k, _res = run_kernel(name, s, intermediate_size=m, **kw)
        x_np = SOLVERS[name](_staged(s), intermediate_size=m)
    return x_k, x_np


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["cr", "pcr", "rd", "thomas",
                             *UNREGISTERED_TWINS]),
       n=wide_sizes, S=batches, seed=seeds, dtype=dtypes, poison=poisons,
       layout=st.sampled_from(["sequential", "interleaved"]))
@example(name="rd", n=512, S=4, seed=0, dtype=np.float64, poison="nan",
         layout="sequential")
@example(name="rd", n=64, S=2, seed=0, dtype=np.float32, poison="nan",
         layout="sequential")
@example(name="thomas", n=512, S=4, seed=0, dtype=np.float64,
         poison="zero_pivot", layout="interleaved")
@example(name="pcr_pingpong", n=256, S=2, seed=0, dtype=np.float64,
         poison="nan", layout="sequential")
@example(name="pcr_packed", n=128, S=4, seed=0, dtype=np.float32,
         poison="zero_pivot", layout="sequential")
@example(name="cr_split", n=256, S=3, seed=0, dtype=np.float64,
         poison="zero_pivot", layout="sequential")
@example(name="cr_global", n=512, S=2, seed=0, dtype=np.float32,
         poison="nan", layout="sequential")
@example(name="thomas_per_thread", n=512, S=4, seed=0, dtype=np.float64,
         poison="zero_pivot", layout="sequential")
def test_kernel_equals_numpy_everywhere(name, n, S, seed, dtype, poison,
                                        layout):
    s = _gen(name, S, n, seed, dtype, poison)
    kw = {"layout": layout} if name == "thomas" else {}
    try:
        x_k, x_np = _kernel_and_numpy(name, s, **kw)
    except KernelError:
        reject()     # over the shared-memory or block limit
    assert x_k.tobytes() == x_np.tobytes()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["cr_pcr", "cr_rd"]),
       n=st.sampled_from([8, 16, 32, 64, 128, 256, 512]), seed=seeds,
       m_exp=st.integers(min_value=1, max_value=9), dtype=dtypes,
       poison=poisons)
@example(name="cr_rd", n=512, seed=0, m_exp=7, dtype=np.float64,
         poison="zero_pivot")
@example(name="cr_pcr", n=512, seed=0, m_exp=8, dtype=np.float32,
         poison="nan")
def test_hybrid_kernel_equals_numpy_for_any_switch_point(name, n, seed,
                                                         m_exp, dtype,
                                                         poison):
    m = min(2 ** m_exp, n)
    s = _gen(name, 2, n, seed, dtype, poison)
    try:
        x_k, x_np = _kernel_and_numpy(name, s, m)
    except KernelError:
        reject()     # over the shared-memory limit: never launched
    assert x_k.tobytes() == x_np.tobytes()


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(["cr", "pcr", "rd"]), n=sizes, seed=seeds)
def test_counter_conservation_laws(name, n, seed):
    s = _gen(name, 2, n, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _x, res = run_kernel(name, s)
    total = res.ledger.total()
    # Global traffic: 4n read + n written, always.
    assert total.global_words == 5 * n
    # Conflict degrees bounded by the bank count.
    for pc in res.ledger.phases.values():
        assert pc.conflict_degree <= res.device.shared_mem_banks
    # Steps match the closed form.
    expected = {"cr": 2 * int(np.log2(n)) - 1,
                "pcr": int(np.log2(n)),
                "rd": int(np.log2(n)) + 2}[name]
    assert total.steps == expected
    # Step records sum to phase totals.
    for phase, pcs in ((p, res.ledger.steps_in_phase(p))
                       for p in res.ledger.phase_names()):
        if pcs:
            assert sum(pc.flops for pc in pcs) == \
                res.ledger.phases[phase].flops


@settings(max_examples=15, deadline=None)
@given(n=sizes, seed=seeds)
def test_counters_data_independent(n, seed):
    """Two different batches of the same shape produce identical
    traces -- cost is a function of the address pattern only."""
    s1 = diagonally_dominant_fluid(2, n, seed=seed)
    s2 = diagonally_dominant_fluid(2, n, seed=seed + 1)
    _x, r1 = run_kernel("cr", s1)
    _x, r2 = run_kernel("cr", s2)
    assert r1.ledger.total().as_dict() == r2.ledger.total().as_dict()


@settings(max_examples=10, deadline=None)
@given(n=sizes, S1=batches, S2=batches, seed=seeds)
def test_per_block_counters_independent_of_batch_size(n, S1, S2, seed):
    """Counters are per block: grids of different sizes trace equal."""
    a = diagonally_dominant_fluid(S1, n, seed=seed)
    b = diagonally_dominant_fluid(S2, n, seed=seed)
    _x, ra = run_kernel("pcr", a)
    _x, rb = run_kernel("pcr", b)
    assert ra.ledger.total().as_dict() == rb.ledger.total().as_dict()
