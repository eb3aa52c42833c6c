"""Every benchmark workload still returns the placements it returned before.

``benchmarks/workloads.placement_digest`` hashes every placement the traced
algorithms return, in call order. This test runs each workload's plan once
under the benchmark's tracer, as ``benchmarks/run.py`` does in a traced
pass, and compares the digest with the value pinned for seeds 1 and 2. A
change that alters any seeded placement fails here. The benchmark files are
imported, never edited.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

PINNED = {
    ("sweep", 1): "251032bb90e22fc951fbd16c61df8a0956e94dbc601fae37616f9d4289971629",
    ("sweep", 2): "959760c83eb19d9f72ae9299b328d247c9faecfa88d1cbd0c8393a0ec07a3a38",
    ("solve-large", 1): "ed2b11d16a8f9eba1bb9c1c8d9cf587b6aaaaebcb2ce87bcefc168c0a6a7c4f6",
    ("solve-large", 2): "1382e72996e4d11d7abc4859f03d4d071634b539f5900b7d81f1c82c58bf0a38",
    ("verify", 1): "adc5e93a5619218d90ce6735c7fcaf77aeae005708aec6900398c2ca043ce673",
    ("verify", 2): "de0f079bed73132516b0fb3f70b7356b17337d1c08a15e74215eda7c132250d7",
}


@pytest.fixture(scope="module")
def bench(request):
    sys.path.insert(0, str(BENCHMARKS))
    request.addfinalizer(lambda: sys.path.remove(str(BENCHMARKS)))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


@pytest.mark.parametrize("workload, seed", sorted(PINNED), ids=lambda v: str(v))
def test_workload_placements_match_pinned_digest(bench, workload, seed):
    tracer, workloads = bench
    with tracer.Tracer() as tr:
        plan = workloads.WORKLOADS[workload].prepare(seed)
        for slot, op in enumerate(plan.ops):
            tr.op = slot
            plan.run(op)
    assert workloads.placement_digest(tr.spans) == PINNED[workload, seed]
