from __future__ import annotations

import math

import numpy as np
import pytest

from dtplace import (
    FeatureVector,
    GenConfig,
    NoFeasibleState,
    SaaParams,
    StageConfig,
    Trajectory,
    converged,
    draw_samples,
    evaluate,
    exact_solve,
    fit_value_model,
    generate_instance,
    hill_climb,
    random_feasible_state,
    stage_search,
)

from conftest import build_instance, constant_samples


# Prediction checkpoints spanning the sampled feature box [0, 10]^2; six
# generic points already pin a quadratic in two variables.
GRID = [(float(f1), float(f2)) for f1 in np.linspace(0, 10, 5) for f2 in np.linspace(0, 10, 5)]


def make_trajectories(points_and_targets):
    out = []
    for pts, target in points_and_targets:
        out.append(
            Trajectory(
                points=tuple(FeatureVector(float(a), float(b)) for a, b in pts),
                endpoint_value=float(target),
            )
        )
    return out


def test_converged_examples():
    assert converged(100.0, 103.0, 0.015)
    assert not converged(100.0, 104.0, 0.015)
    assert not converged(100.0, math.inf, 0.015)
    assert converged(0.0, 0.0, 0.015)


def test_fit_recovers_planted_quadratic():
    rng = np.random.default_rng(4)
    pts = []
    for _ in range(25):
        f1, f2 = rng.uniform(0, 10, 2)
        target = 2 + 3 * f1 - f2 + 0.5 * f1 * f1
        pts.append((((f1, f2),), target))
    model = fit_value_model(make_trajectories(pts))
    for f1, f2 in GRID:
        expected = 2 + 3 * f1 - f2 + 0.5 * f1 * f1
        assert model.predict_pair(f1, f2) == pytest.approx(expected, abs=1e-6)
    assert model.predict_pair(1.0, 1.0) == pytest.approx(4.5, abs=1e-5)


def test_fit_constant_targets_yields_constant_model():
    rng = np.random.default_rng(5)
    pts = [(((rng.uniform(0, 100), rng.uniform(0, 100)),), 37.5) for _ in range(10)]
    model = fit_value_model(make_trajectories(pts))
    for f1, f2 in [(0, 0), (1e6, -5.0), (123.4, 567.8)]:
        assert model.predict_pair(f1, f2) == pytest.approx(37.5, abs=1e-9)


def test_fit_single_point_is_degenerate_constant():
    model = fit_value_model(make_trajectories([(((3.0, 4.0),), 12.0)]))
    assert model.predict_pair(100.0, -3.0) == pytest.approx(12.0, abs=1e-9)


def test_fit_falls_back_to_the_target_mean_when_the_solve_fails(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError

    monkeypatch.setattr(np.linalg, "solve", singular)
    targets = [10.0, 20.0, 60.0]
    pts = [(((float(i), 2.0 * i),), target) for i, target in enumerate(targets)]
    model = fit_value_model(make_trajectories(pts))
    for f1, f2 in GRID:
        assert model.predict_pair(f1, f2) == 30.0


def test_fit_requires_data():
    with pytest.raises(ValueError):
        fit_value_model([])


def test_predict_is_invariant_under_consistent_rescaling():
    rng = np.random.default_rng(6)
    pts = []
    scaled = []
    for _ in range(30):
        f1, f2 = rng.uniform(0, 50, 2)
        target = 1 + f1 + 2 * f2 + 0.1 * f1 * f2
        pts.append((((f1, f2),), target))
        scaled.append((((1000 * f1, f2 / 1000),), target))
    model = fit_value_model(make_trajectories(pts))
    # the same data in other feature units fits the same surface
    rescaled = fit_value_model(make_trajectories(scaled))
    for f1, f2 in GRID:
        f1, f2 = 5 * f1, 5 * f2
        expected = 1 + f1 + 2 * f2 + 0.1 * f1 * f2
        assert model.predict_pair(f1, f2) == pytest.approx(expected, rel=1e-9, abs=1e-6)
        assert rescaled.predict_pair(1000 * f1, f2 / 1000) == pytest.approx(
            model.predict_pair(f1, f2), rel=1e-9
        )


def test_stage_config_validation():
    with pytest.raises(Exception):
        StageConfig(delta=0.0)
    with pytest.raises(Exception):
        StageConfig(max_iterations=0)


def single_server_setup():
    inst = build_instance(
        servers=[(0, 0, 1.0, 1e9)],
        devices=[(5, 0, [(5e6, 200.0, (0.0, 50.0)), (5e6, 300.0, (50.0, 0.0))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=20)
    samples = constant_samples(inst, [5e6, 5e6], theta=20)
    return inst, params, samples


def test_stage_converges_immediately_on_stationary_landscape():
    inst, params, samples = single_server_setup()
    result = stage_search(inst, samples, params, StageConfig(), 1)
    assert result.converged
    assert result.iterations == 2
    assert result.per_iteration_optima[0] == result.per_iteration_optima[1]
    assert result.final_state.placement.servers == (0, 0)


def test_stage_runs_at_reference_scale():
    cfg = GenConfig(num_servers=6, num_devices=5, components_range=(1, 3))
    inst = generate_instance(cfg, 4242)
    params = SaaParams(alpha=0.01, epsilon=0.005, theta=1850)
    samples = draw_samples(inst, params, 99)
    result = stage_search(inst, samples, params, StageConfig(), 0)
    assert result.iterations <= 10
    assert len(result.per_iteration_optima) == result.iterations
    assert result.total_states_visited == sum(result.per_iteration_lengths)


def test_stage_best_state_dominates_every_iteration_optimum():
    cfg = GenConfig(num_servers=4, num_devices=4, components_range=(1, 3))
    inst = generate_instance(cfg, 17)
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=120)
    samples = draw_samples(inst, params, 18)
    result = stage_search(inst, samples, params, StageConfig(), 5)
    assert result.best_state.eval.total <= min(result.per_iteration_optima) + 1e-9
    assert result.best_state.eval.total <= result.final_state.eval.total + 1e-9


def test_stage_with_one_iteration_reduces_to_hill_climb():
    cfg = GenConfig(num_servers=3, num_devices=3, components_range=(1, 2))
    inst = generate_instance(cfg, 23)
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=80)
    samples = draw_samples(inst, params, 24)
    seed = 6
    result = stage_search(inst, samples, params, StageConfig(max_iterations=1), seed)
    start = random_feasible_state(inst, samples, params, seed)
    endpoint, traj, stats = hill_climb(inst, samples, params, start)
    assert result.final_state.placement.servers == endpoint.placement.servers
    assert result.iterations == 1
    assert not result.converged
    assert result.total_states_visited == stats.states_visited
    assert result.per_iteration_optima == (endpoint.eval.total,)


def test_stage_is_deterministic():
    cfg = GenConfig(num_servers=4, num_devices=3, components_range=(1, 3))
    inst = generate_instance(cfg, 31)
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=100)
    samples = draw_samples(inst, params, 32)
    a = stage_search(inst, samples, params, StageConfig(), 7)
    b = stage_search(inst, samples, params, StageConfig(), 7)
    assert a.final_state.placement.servers == b.final_state.placement.servers
    assert a.best_state.placement.servers == b.best_state.placement.servers
    assert a.per_iteration_optima == b.per_iteration_optima
    assert a.total_states_visited == b.total_states_visited
    assert a.converged == b.converged


def test_stage_golden_output():
    # A pinned seeded solve at the paper's theta: a speed-up of the climb
    # must leave its best cost and placement unchanged.
    inst = generate_instance(GenConfig(num_servers=10, num_devices=30, components_range=(1, 3)), 1)
    params = SaaParams(alpha=0.01, epsilon=0.005, theta=1850)
    samples = draw_samples(inst, params, 2)
    result = stage_search(inst, samples, params, StageConfig(), 3)
    assert result.best_state.eval.total == 113139.99364995885
    assert result.best_state.placement.servers == (
        6, 6, 4, 1, 0, 1, 1, 2, 2, 2, 5, 1, 5, 3, 3, 3, 5, 5, 5, 5, 5, 3, 3, 8, 8, 4, 4, 4,
        5, 5, 5, 9, 7, 7, 7, 2, 2, 7, 8, 6, 6, 6, 1, 8, 8, 8, 9, 9, 6, 8, 8, 2, 2, 5, 5, 8,
    )
    assert (result.iterations, result.total_states_visited, result.converged) == (4, 128, True)


def test_stage_tracks_oracle_on_tiny_instances():
    close = 0
    total = 0
    for seed in range(6):
        cfg = GenConfig(num_servers=2, num_devices=2, components_range=(1, 2))
        inst = generate_instance(cfg, seed + 300)
        params = SaaParams(alpha=0.01, epsilon=0.005, theta=50)
        samples = draw_samples(inst, params, seed)
        oracle = exact_solve(inst, samples, params)
        if not oracle.feasible:
            continue
        total += 1
        result = stage_search(inst, samples, params, StageConfig(), seed)
        rho = evaluate(inst, result.best_state.placement).total
        assert rho >= oracle.optimum - 1e-9 * max(1.0, abs(oracle.optimum))
        if rho <= 1.05 * oracle.optimum:
            close += 1
    assert total >= 4
    assert close >= total - 1


def test_stage_propagates_no_feasible_state():
    inst = build_instance(
        servers=[(0, 0, 1.0, 4.0)],
        devices=[(5, 0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5.0], theta=10)
    with pytest.raises(NoFeasibleState):
        stage_search(inst, samples, params, StageConfig(), 1)
