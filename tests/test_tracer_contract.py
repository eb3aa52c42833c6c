"""The benchmark's tracer still sees every algorithm that run_cell_rep runs.

``benchmarks/tracer.py`` wraps public functions by rebinding module
attributes, and its correctness gate matches each sweep record to an
algorithm call made directly under ``run_cell_rep``. An algorithm table that
holds function objects captured at import time would skip the wrappers, so
this test runs one small cell under the tracer and applies the gate. The
tracer also splits ``hill_climb`` spans into cost and prediction descents on
whether the ``objective`` keyword was passed, which the second test checks,
and counts one rejection draw per ``load_matrix`` call made directly by
``random_feasible_state``, which the third checks. The benchmark files are
imported, never edited.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from dtplace import (
    ExperimentConfig,
    GenConfig,
    SaaParams,
    StageConfig,
    draw_samples,
    generate_instance,
    harness,
    search,
    stage,
)

from conftest import greedy_fallback_case

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

ALGORITHM_SPANS = (
    "stage.stage_search",
    "baselines.baseline_random_best",
    "baselines.baseline_restart_hillclimb",
    "baselines.baseline_nearest",
)


@pytest.fixture(scope="module")
def bench(request):
    sys.path.insert(0, str(BENCHMARKS))
    request.addfinalizer(lambda: sys.path.remove(str(BENCHMARKS)))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_algorithm_spans_are_direct_children_of_run_cell_rep(bench):
    tracer, workloads = bench
    cfg = ExperimentConfig(
        axis="devices",
        axis_values=(2,),
        num_servers=3,
        num_devices=2,
        components_range=(1, 2),
        replications=1,
        master_seed=606,
        saa=SaaParams(alpha=0.05, epsilon=0.025, theta=40),
        stage=StageConfig(max_iterations=3),
        baseline_trials=2,
    )
    with tracer.Tracer() as t:
        records = harness.run_cell_rep(cfg, 2, 0)
    spans = t.spans
    cells = [i for i, span in enumerate(spans) if span.name == "harness.run_cell_rep"]
    assert len(cells) == 1
    for name in ALGORITHM_SPANS:
        calls = [span for span in spans if span.name == name]
        assert len(calls) == 1, name
        assert calls[0].parent == cells[0], name
    assert [r.algorithm for r in records] == ["stage", "random", "restart", "nearest"]
    assert all(r.feasible for r in records)
    assert workloads.gate(spans) == {}


def test_stage_search_records_cost_and_prediction_climbs(bench):
    tracer, _ = bench
    inst = generate_instance(GenConfig(num_servers=3, num_devices=3, components_range=(1, 2)), 11)
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=40)
    samples = draw_samples(inst, params, 12)
    with tracer.Tracer() as t:
        result = stage.stage_search(inst, samples, params, StageConfig(max_iterations=3), 13)
    assert result.iterations >= 2  # so phase II ran at least once
    spans = t.spans
    (outer,) = [i for i, span in enumerate(spans) if span.name == "stage.stage_search"]
    climbs = {span.name for span in spans if span.parent == outer and "hill_climb" in span.name}
    assert climbs == {"search.hill_climb.cost", "search.hill_climb.predict"}


def test_random_feasible_state_counts_one_draw_per_try(bench, monkeypatch):
    tracer, _ = bench
    monkeypatch.setattr(search, "MAX_TRIES", 25)
    inst, samples, params = greedy_fallback_case()
    with tracer.Tracer() as t:
        state = search.random_feasible_state(inst, samples, params, 0)
    assert state.placement.servers == (1,) * 12  # every draw rejected, then the greedy
    assert tracer.layer_metrics(t.spans)["search.random_feasible_state.draws"] == 25
