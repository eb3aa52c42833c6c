"""Self-tests of the benchmark: gate, tracer and repeatability.

    python3 -m pytest benchmarks/test_bench.py -q
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dtplace.baselines  # noqa: E402
import dtplace.search  # noqa: E402
import dtplace.stage  # noqa: E402
from dtplace import CostBreakdown, GenConfig, Placement, SaaParams, domain, saa  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small_plans(monkeypatch):
    """One instance or one sweep replication per pass."""
    monkeypatch.setattr(workloads, "VERIFY_INSTANCES", 1)
    monkeypatch.setattr(workloads, "LARGE_INSTANCES", 1)
    monkeypatch.setattr(workloads, "SWEEP_REPS", 1)


def _tiny():
    inst = domain.generate_instance(GenConfig(num_servers=3, num_devices=3, components_range=(1, 2)), 5)
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=40)
    samples = saa.draw_samples(inst, params, 6)
    return inst, samples, params


def test_check_placement_accepts_a_returned_placement_and_trips_on_a_tampered_cost():
    inst, samples, params = _tiny()
    state = dtplace.baselines.baseline_nearest(inst, samples, params).best_state
    cost = state.eval.total
    assert workloads.check_placement(inst, samples, params, state.placement, cost) == []
    problems = workloads.check_placement(inst, samples, params, state.placement, cost * (1 + 1e-6))
    assert problems and "evaluate gives" in problems[0]


def test_check_placement_trips_on_an_over_budget_placement():
    inst = domain.generate_instance(GenConfig(num_servers=3, num_devices=12, components_range=(3, 3)), 5)
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=40)
    samples = saa.draw_samples(inst, params, 6)
    busiest = int(inst.cost_rates.argmax())
    crowded = Placement(tuple(busiest for _ in range(inst.total_components)))
    counts = saa.overload_profile(inst, samples, crowded, params).overload_count
    assert counts[busiest] > workloads.overload_budget(params), "fixture must overload a server"
    cost = dtplace.evaluate(inst, crowded).total
    problems = workloads.check_placement(inst, samples, params, crowded, cost)
    assert any("overload budget" in p for p in problems)


def test_overload_budget_reads_epsilon_as_written():
    assert workloads.overload_budget(SaaParams(alpha=0.01, epsilon=0.005, theta=1850)) == 9
    assert workloads.overload_budget(SaaParams(alpha=0.5, epsilon=0.3, theta=10)) == 3


def test_gate_trips_on_a_tampered_cost_in_a_traced_pass(small_plans):
    tr, outcomes, errors, _ = run.traced_pass(workloads.WORKLOADS["verify"], 3)
    assert not errors
    assert workloads.gate(tr.spans) == {}
    span = next(s for s in tr.spans if s.name == "baselines.baseline_nearest")
    args, result = span.facts["call"]
    state = result.best_state
    forged = dataclasses.replace(
        state, eval=CostBreakdown(offload=state.eval.offload * 0.5, communication=state.eval.communication)
    )
    span.facts["call"] = (args, dataclasses.replace(result, best_state=forged))
    problems = workloads.gate(tr.spans)
    assert list(problems) == [span.op]
    assert "baseline_nearest" in problems[span.op][0]


def test_outcome_below_the_exact_optimum_fails():
    fine = workloads.Outcome(servers=4, costs=(("oracle", 10.0), ("stage", 10.0), ("nearest", 12.0)))
    assert workloads.check_outcome(fine) == []
    cheat = workloads.Outcome(servers=4, costs=(("oracle", 10.0), ("stage", 9.0)))
    assert workloads.check_outcome(cheat)


def test_run_exits_nonzero_when_the_gate_trips(small_plans, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "gate", lambda spans: {0: ["tampered for the test"]})
    monkeypatch.setattr(run, "setup_probes", lambda args: [])
    code = run.main(["--workload", "verify", "--seed", "1", "--seconds", "0.01"])
    assert code == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": false' in last and '"failed": 1' in last


@pytest.mark.parametrize("name", ["verify", "sweep"])
def test_two_traced_passes_give_identical_counts(small_plans, name):
    def counts():
        tr, outcomes, errors, _ = run.traced_pass(workloads.WORKLOADS[name], 11)
        assert not errors
        assert workloads.check_layers(workloads.WORKLOADS[name], tr.spans) == []
        layers = {
            k: v
            for k, v in tracer.layer_metrics(tr.spans).items()
            if not k.endswith(("_s", "_per_s"))
        }
        return layers, tracer.scenario_values(tr.spans), workloads.placement_digest(tr.spans), outcomes

    first, second = counts(), counts()
    assert first == second
    assert first[0]["stage.stage_search.calls"] > 0


def test_tracer_rebinds_by_identity_and_restores():
    original = dtplace.search.hill_climb
    with tracer.Tracer():
        assert dtplace.search.hill_climb is not original
        assert dtplace.baselines.hill_climb is dtplace.search.hill_climb
        assert dtplace.stage.hill_climb is dtplace.search.hill_climb
    assert dtplace.search.hill_climb is original
    assert dtplace.baselines.hill_climb is original
    assert dtplace.stage.hill_climb is original


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    layers = dict(tracer.LAYERS, search=tracer.LAYERS["search"] + ("no_such_function",))
    monkeypatch.setattr(tracer, "LAYERS", layers)
    with pytest.raises(tracer.TracerError, match="no_such_function"):
        tracer.Tracer().install()
    assert not hasattr(dtplace.search.hill_climb, "__wrapped__")


def test_layer_check_names_missing_and_unexpected_layers():
    wl = workloads.WORKLOADS["solve-large"]
    spans = [tracer.Span("oracle.exact_solve", 0.0, None, 0)]
    problems = workloads.check_layers(wl, spans)
    assert "oracle.exact_solve recorded calls" in problems
    assert "stage.stage_search recorded no calls" in problems
