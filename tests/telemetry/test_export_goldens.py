"""Pinned export bytes of small seeded serve runs.

A deterministic collector makes every export a pure function of the
seed, so a change to how telemetry is recorded (id minting, span
bookkeeping, metric labels) must leave these sha256 digests alone.
They were computed before ids were block-minted; update them only
with a change that means to alter an export format.
"""

import hashlib
import json

import pytest

from repro import telemetry
from repro.gpusim.pool import make_pool
from repro.numerics.generators import diagonally_dominant_fluid
from repro.serve import (BatchScheduler, FrontendConfig, ServeFrontend,
                         SolveJob, loadgen)
from repro.telemetry.export import chrome_trace, prometheus_text, to_jsonl

SEED = 7

#: An always-failing device, as ``repro serve --hot`` configures it.
HOT_RATES = {"launch_fatal_rate": 1.0, "launch_transient_rate": 0.0,
             "global_bitflip_rate": 0.0, "ecc_detect_rate": 1.0}

GOLDEN = {
    "serve-live": {
        "jsonl": "0c69bd7c457b8edbef9ca984ff36fea6"
                 "6170e073e5d6d3a9b20f390473cbb669",
        "chrome": "dc38e0c13dc0a330374087afc42833ad"
                  "c1fb56687115e629aa7a4ba4ee0acc13",
        "prometheus": "a9e073fd95343fb5cf672dd7bbad387d"
                      "5daf62f8630043c60ba06b920c3fb661"},
    "serve-batch": {
        "jsonl": "bb70cf0d7b26f78dec066a7800777f10"
                 "c3efa55b163c6a7787fa8c02d44f7214",
        "chrome": "78c2312887ad1659032d73641efc93a7"
                  "71a17dca7af9c8063875f6eb1224570c",
        "prometheus": "bd70db0a6bf0aae18d24ae00beef6bc0"
                      "e2df5dbdeaba04106180e2870945517c"},
}


def serve_live(seed):
    """A 2 ms open-loop overload stream into a 2-device front end."""
    profiles = loadgen.overload_profiles(2.0, scenario="mixed", tenants=3)
    requests = loadgen.generate(profiles, horizon_ms=2.0, seed=seed)
    col = telemetry.deterministic_collector(seed)
    with telemetry.collect(col):
        sched = BatchScheduler(make_pool(2, seed=seed), seed=seed)
        fe = ServeFrontend(sched, [p.spec for p in profiles],
                           config=FrontendConfig(pending_capacity=24))
        fe.run(requests)
        fe.close()
    return col


def serve_batch(seed, checkpoint_dir):
    """Three checkpointed jobs on a 3-device pool, one device hot."""
    col = telemetry.deterministic_collector(seed)
    with telemetry.collect(col):
        pool = make_pool(3, seed=seed, hot=1, hot_rates=HOT_RATES)
        sched = BatchScheduler(pool, queue_capacity=3, failure_threshold=2,
                               checkpoint_dir=checkpoint_dir, seed=seed)
        for i in range(3):
            sched.submit(SolveJob(
                f"job{i}", diagonally_dominant_fluid(32, 64, seed=[seed, i]),
                method="auto", chunk_size=4))
        while (job := sched.queue.pop()) is not None:
            sched.run_job(job)
    return col


def digests(col):
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()
    return {"jsonl": sha(to_jsonl(col)),
            "chrome": sha(json.dumps(chrome_trace(col), sort_keys=True)),
            "prometheus": sha(prometheus_text(col))}


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_exports_match_pinned_digests(workload, tmp_path):
    col = (serve_live(SEED) if workload == "serve-live"
           else serve_batch(SEED, str(tmp_path)))
    assert digests(col) == GOLDEN[workload]
