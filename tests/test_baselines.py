from __future__ import annotations

import numpy as np
import pytest

from dtplace import (
    GenConfig,
    NoFeasibleState,
    SaaParams,
    baseline_nearest,
    baseline_random_best,
    baseline_restart_hillclimb,
    draw_samples,
    exact_solve,
    generate_instance,
    hill_climb,
    is_feasible,
    random_feasible_state,
)
from dtplace.baselines import _trial_seed

from conftest import build_instance, constant_samples, rounding_boundary_case


def seeded_setup(seed, servers=3, devices=3, comp=(1, 2), theta=80):
    cfg = GenConfig(num_servers=servers, num_devices=devices, components_range=comp)
    inst = generate_instance(cfg, seed)
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=theta)
    samples = draw_samples(inst, params, seed + 5000)
    return inst, params, samples


def test_random_best_single_trial_returns_that_draw():
    inst, params, samples = seeded_setup(1)
    result = baseline_random_best(inst, samples, params, trials=1, seed=9)
    direct = random_feasible_state(inst, samples, params, _trial_seed(9, 0))
    assert result.best_state.placement.servers == direct.placement.servers
    assert result.total_states_visited == 1


def test_random_best_improves_with_nested_trials():
    inst, params, samples = seeded_setup(2)
    prev = None
    for trials in (1, 2, 4, 8):
        result = baseline_random_best(inst, samples, params, trials=trials, seed=3)
        if prev is not None:
            assert result.best_state.eval.total <= prev + 1e-12
        prev = result.best_state.eval.total


def test_random_best_matches_replay_oracle():
    inst, params, samples = seeded_setup(3)
    result = baseline_random_best(inst, samples, params, trials=10, seed=4)
    replayed = [
        random_feasible_state(inst, samples, params, _trial_seed(4, i)) for i in range(10)
    ]
    best = min(replayed, key=lambda s: s.eval.total)
    assert result.best_state.eval.total == best.eval.total
    assert result.total_states_visited == 10


def test_restart_hillclimb_dominates_random_best_pointwise():
    for seed in (5, 6, 7):
        inst, params, samples = seeded_setup(seed)
        b1 = baseline_random_best(inst, samples, params, trials=6, seed=seed)
        b2 = baseline_restart_hillclimb(inst, samples, params, trials=6, seed=seed)
        assert b2.best_state.eval.total <= b1.best_state.eval.total + 1e-9
        # every endpoint improves on its own start
        for i in range(6):
            start = random_feasible_state(inst, samples, params, _trial_seed(seed, i))
            endpoint, _, stats = hill_climb(inst, samples, params, start)
            assert endpoint.eval.total <= start.eval.total + 1e-12


def test_restart_hillclimb_state_accounting():
    inst, params, samples = seeded_setup(8)
    trials = 5
    result = baseline_restart_hillclimb(inst, samples, params, trials=trials, seed=11)
    lengths = []
    for i in range(trials):
        start = random_feasible_state(inst, samples, params, _trial_seed(11, i))
        _, traj, _ = hill_climb(inst, samples, params, start)
        lengths.append(len(traj.points))
    assert result.total_states_visited == sum(lengths)


def test_restart_hillclimb_finds_oracle_on_tiny_instance():
    hits = 0
    total = 0
    for seed in range(6):
        inst, params, samples = seeded_setup(seed + 40, servers=2, devices=2, comp=(1, 2), theta=50)
        oracle = exact_solve(inst, samples, params)
        if not oracle.feasible:
            continue
        total += 1
        result = baseline_restart_hillclimb(inst, samples, params, trials=12, seed=seed)
        if result.best_state.eval.total <= oracle.optimum * (1 + 1e-12):
            hits += 1
    assert total >= 4
    assert hits >= total - 1


def test_nearest_places_components_at_nearest_server_with_slack():
    inst, params, samples = seeded_setup(9, servers=4, devices=3, comp=(1, 3))
    result = baseline_nearest(inst, samples, params)
    servers = result.best_state.placement.servers
    for k in range(inst.total_components):
        d = int(inst.component_device[k])
        assert servers[k] == int(np.argmin(inst.dist_server_device[:, d]))
    expected_f1 = sum(
        inst.dist_server_device[:, int(inst.component_device[k])].min()
        for k in range(inst.total_components)
    )
    assert result.best_state.features.dist_off == pytest.approx(expected_f1, rel=1e-12)
    assert result.total_states_visited == 1


def test_nearest_single_server():
    inst = build_instance(
        servers=[(0, 0, 1.0, 1e9)],
        devices=[(5, 0, [(5e6, 200.0, (0.0,))]), (8, 0, [(5e6, 300.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5e6, 5e6], theta=10)
    result = baseline_nearest(inst, samples, params)
    assert result.best_state.placement.servers == (0, 0)


def test_nearest_spills_to_second_server_when_saturated():
    # server 0 is adjacent to the device but only fits one component; the
    # second component must spill to server 1
    inst = build_instance(
        servers=[(0.0, 0.0, 1.0, 7.0), (30.0, 0.0, 1.0, 1e9)],
        devices=[(1.0, 0.0, [(5.0, 200.0, (0.0, 50.0)), (5.0, 300.0, (50.0, 0.0))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5.0, 5.0], theta=10)
    result = baseline_nearest(inst, samples, params)
    assert result.best_state.placement.servers == (0, 1)


def test_nearest_is_pure_and_feasible():
    inst, params, samples = seeded_setup(10)
    a = baseline_nearest(inst, samples, params)
    b = baseline_nearest(inst, samples, params)
    assert a.best_state.placement.servers == b.best_state.placement.servers
    assert is_feasible(a.best_state.profile, params)


def test_all_baseline_outputs_are_feasible():
    for seed in (21, 22):
        inst, params, samples = seeded_setup(seed)
        for result in (
            baseline_random_best(inst, samples, params, trials=4, seed=seed),
            baseline_restart_hillclimb(inst, samples, params, trials=4, seed=seed),
            baseline_nearest(inst, samples, params),
        ):
            assert is_feasible(result.best_state.profile, params)


def test_nearest_raises_when_nothing_fits():
    inst = build_instance(
        servers=[(0, 0, 1.0, 4.0)],
        devices=[(5, 0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5.0], theta=10)
    with pytest.raises(NoFeasibleState):
        baseline_nearest(inst, samples, params)


def test_nearest_refuses_an_empty_server_over_its_capacity():
    # Server 2's capacity -1 is overloaded with nothing on it, which only the
    # check of the whole placement counts: the fill counts occupied servers.
    inst = build_instance(
        servers=[(0, 0, 1.0, 1e9), (10, 0, 1.0, -1.0)],
        devices=[(1, 0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5.0], theta=10)
    with pytest.raises(NoFeasibleState, match="greedy placement exceeds the overload budget"):
        baseline_nearest(inst, samples, params)


def test_nearest_spills_at_a_rounding_boundary():
    # Server 0 holds either component alone but not both: the second one
    # spills to server 1 rather than the whole greedy being refused.
    inst, samples, params = rounding_boundary_case()
    state = baseline_nearest(inst, samples, params).best_state
    assert state.placement.servers == (0, 1)
    assert is_feasible(state.profile, params)


def test_baseline_trial_count_validation():
    inst, params, samples = seeded_setup(30)
    with pytest.raises(Exception):
        baseline_random_best(inst, samples, params, trials=0, seed=1)
    with pytest.raises(Exception):
        baseline_restart_hillclimb(inst, samples, params, trials=0, seed=1)
