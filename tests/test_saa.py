from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtplace import (
    ConfigurationError,
    GenConfig,
    OverloadProfile,
    Placement,
    SaaParams,
    SampleSet,
    allowed_overloads,
    approx_success_prob,
    baseline_nearest,
    draw_samples,
    generate_instance,
    is_feasible,
    overload_profile,
    validate_p1_feasibility,
)
from dtplace import saa
from dtplace.saa import load_matrix, server_load
from dtplace.seeding import stream

from conftest import build_instance, constant_samples


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_components=st.integers(1, 5),
    extra_servers=st.integers(1, 4),
    theta=st.integers(1, 20),
)
def test_load_matrix_matches_the_per_server_formula(seed, num_components, extra_servers, theta):
    # More servers than components, so empty and single-member servers occur.
    rng = np.random.default_rng(seed)
    K, S = num_components, num_components + extra_servers
    inst = build_instance(
        servers=[(0, 0, rng.uniform(0.5, 10.0), 1e9) for _ in range(S)],
        devices=[(0, 0, [(1.0, 100.0, (0.0,))]) for _ in range(K)],
        unit_cost=0.5,
    )
    samples = SampleSet(cycles=rng.uniform(0.1, 10.0, size=(K, theta)))
    assignment = rng.integers(0, S, size=K)
    expected = np.zeros((S, theta))
    for s in range(S):
        members = assignment == s
        if members.any():
            expected[s] = inst.cost_rates[s] * samples.cycles[members].sum(axis=0)
    assert np.array_equal(load_matrix(inst, samples, assignment), expected)
    for s in range(S):
        assert np.array_equal(server_load(inst, samples, assignment == s, s), expected[s])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_components=st.integers(1, 40),
    used_servers=st.integers(1, 4),
    empty_servers=st.integers(0, 3),
    theta=st.sampled_from([1, 2, 64, saa.BINCOUNT_THETA, saa.BINCOUNT_THETA + 1]),
    bincount_theta=st.sampled_from([0, saa.BINCOUNT_THETA]),
)
def test_load_matrix_is_bitwise_the_stacked_server_loads(
    seed, num_components, used_servers, empty_servers, theta, bincount_theta
):
    # Both kernels (BINCOUNT_THETA = 0 adds rows at every width), on both
    # sides of the switch; crowded servers, so theta = 1 columns of 8 or
    # more members occur, where a column sum turns pairwise; servers the
    # assignment leaves empty.
    rng = np.random.default_rng(seed)
    K, S = num_components, used_servers + empty_servers
    inst = build_instance(
        servers=[(0, 0, rng.uniform(0.5, 10.0), 1e9) for _ in range(S)],
        devices=[(0, 0, [(1.0, 100.0, (0.0,))]) for _ in range(K)],
        unit_cost=0.5,
    )
    samples = SampleSet(cycles=10.0 ** rng.uniform(-3.0, 3.0, size=(K, theta)))
    assignment = rng.permutation(S)[rng.integers(0, used_servers, size=K)]
    expected = np.stack([server_load(inst, samples, assignment == s, s) for s in range(S)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(saa, "BINCOUNT_THETA", bincount_theta)
        load = load_matrix(inst, samples, assignment)
    assert load.shape == (S, theta) and load.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bincount_theta", [0, saa.BINCOUNT_THETA])
def test_load_matrix_accumulates_a_single_scenario(bincount_theta, monkeypatch):
    # Nine members on server 1 of three at theta = 1: the sum runs left to
    # right from 0, so each 1.0 added to 2^53 rounds away, where a pairwise
    # sum would keep some. Server 0 is empty, server 2 hosts one member.
    monkeypatch.setattr(saa, "BINCOUNT_THETA", bincount_theta)
    inst = build_instance(
        servers=[(0, 0, 3.0, 1e30), (0, 0, 1.0, 1e30), (0, 0, 0.5, 1e30)],
        devices=[(0, 0, [(1.0, 100.0, (0.0,))]) for _ in range(10)],
        unit_cost=0.5,
    )
    cycles = np.array([[2.0**53], *[[1.0]] * 8, [7.0]])
    samples = SampleSet(cycles=cycles)
    assignment = np.array([1] * 9 + [2])
    load = load_matrix(inst, samples, assignment)
    assert load.tobytes() == np.array([[0.0], [2.0**53], [3.5]]).tobytes()
    assert load.tobytes() == np.stack(
        [server_load(inst, samples, assignment == s, s) for s in range(3)]
    ).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_components=st.integers(1, 20),
    theta=st.sampled_from([1, 2, 3]),
)
def test_server_load_adds_members_in_ascending_order(seed, num_components, theta):
    # One order for every overload count: cycles added one member at a time,
    # ascending, then times the rate; also over a single scenario column.
    rng = np.random.default_rng(seed)
    K = num_components
    inst = build_instance(
        servers=[(0, 0, rng.uniform(0.5, 10.0), 1e9)],
        devices=[(0, 0, [(1.0, 100.0, (0.0,))]) for _ in range(K)],
        unit_cost=0.5,
    )
    samples = SampleSet(cycles=10.0 ** rng.uniform(-3.0, 3.0, size=(K, theta)))
    members = rng.random(K) < 0.8
    total = np.zeros(theta)
    for k in range(K):
        if members[k]:
            total = total + samples.cycles[k]
    assert np.array_equal(server_load(inst, samples, members, 0), inst.cost_rates[0] * total)


def test_params_validation():
    SaaParams(alpha=0.01, epsilon=0.01, theta=1)
    with pytest.raises(ConfigurationError):
        SaaParams(alpha=0.01, epsilon=0.02, theta=10)
    with pytest.raises(ConfigurationError):
        SaaParams(alpha=0.01, epsilon=0.0, theta=10)
    with pytest.raises(ConfigurationError):
        SaaParams(alpha=1.0, epsilon=0.5, theta=10)
    with pytest.raises(ConfigurationError):
        SaaParams(alpha=0.01, epsilon=0.005, theta=0)


def test_draw_shapes_and_determinism():
    cfg = GenConfig(num_servers=2, num_devices=2, components_range=(1, 2))
    inst = generate_instance(cfg, 1)
    params = SaaParams(alpha=0.01, epsilon=0.005, theta=1850)
    a = draw_samples(inst, params, 5)
    b = draw_samples(inst, params, 5)
    assert a.cycles.shape == (inst.total_components, 1850)
    assert np.array_equal(a.cycles, b.cycles)
    c = draw_samples(inst, params, 6)
    assert not np.array_equal(a.cycles, c.cycles)
    assert (a.cycles > 0).all()


def reference_draw(inst, theta, seed):
    """``draw_samples`` written with ``Generator.normal``'s broadcast draw, and
    whether that first draw had a non-positive entry to resample."""
    rng = stream(seed, "samples")
    means = inst.component_mean_cycles[:, None]
    cycles = rng.normal(means, 0.2 * means, size=(inst.total_components, theta))
    resampled = bool((cycles <= 0).any())
    while True:
        bad = cycles <= 0
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        rows = np.nonzero(bad)[0]
        cycles[bad] = rng.normal(
            inst.component_mean_cycles[rows], 0.2 * inst.component_mean_cycles[rows]
        )
    return cycles, resampled


@pytest.mark.parametrize("theta", [1, 2, 64, 200, 1850, 20000])
@pytest.mark.parametrize("seed", [0, 7])
def test_draw_samples_is_bitwise_the_broadcast_normal_draw(theta, seed):
    inst = generate_instance(GenConfig(4, 4, (1, 3)), 2)
    drawn = draw_samples(inst, SaaParams(theta=theta), seed).cycles
    expected, _ = reference_draw(inst, theta, seed)
    assert drawn.shape == expected.shape
    assert drawn.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 26])
def test_draw_samples_resamples_as_the_broadcast_normal_draw(seed):
    """At 250,000 scenarios of 4 components these seeds draw non-positive
    cycles (seed 26 two of them), so the resample loop runs."""
    theta = 250_000
    inst = generate_instance(GenConfig(2, 2, (2, 2)), 1)
    expected, resampled = reference_draw(inst, theta, seed)
    assert resampled
    drawn = draw_samples(inst, SaaParams(theta=theta), seed).cycles
    assert drawn.tobytes() == expected.tobytes()


def test_sample_mean_approaches_component_mean():
    cfg = GenConfig(num_servers=1, num_devices=1, components_range=(1, 1))
    inst = generate_instance(cfg, 2)
    params = SaaParams(alpha=0.5, epsilon=0.5, theta=10000)
    samples = draw_samples(inst, params, 3)
    mu = inst.devices[0].components[0].mean_cycles
    assert samples.cycles[0].mean() == pytest.approx(mu, rel=0.01)


def test_server_load_examples():
    inst = build_instance(
        servers=[(0, 0, 2.0, 1e9), (5, 5, 1.0, 1e9)],
        devices=[(1, 1, [(5e6, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    samples = constant_samples(inst, [5e6], theta=4)
    load = load_matrix(inst, samples, Placement(servers=(0,)).array())
    assert load.shape == (2, 4)
    assert load[0] == pytest.approx([1e7] * 4)
    assert (load[1] == 0.0).all()


def test_server_load_matches_loop_oracle():
    cfg = GenConfig(num_servers=2, num_devices=2, components_range=(1, 2))
    inst = generate_instance(cfg, 14)
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=20)
    samples = draw_samples(inst, params, 9)
    rng = np.random.default_rng(0)
    pl = Placement(servers=tuple(int(s) for s in rng.integers(0, 2, inst.total_components)))
    load = load_matrix(inst, samples, pl.array())
    for s in range(2):
        for theta in range(20):
            expected = 0.0
            for k in range(inst.total_components):
                if pl.servers[k] == s:
                    expected += inst.cost_rates[s] * samples.cycles[k, theta]
            assert load[s, theta] == pytest.approx(expected, rel=1e-12)


def test_overload_excess_boundary():
    inst = build_instance(
        servers=[(0, 0, 1.0, 8.0)],
        devices=[(1, 1, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    samples = constant_samples(inst, [1.0], theta=3)
    samples.cycles.setflags(write=True)
    samples.cycles[0] = [5.0, 8.0, 12.0]
    samples.cycles.setflags(write=False)
    pl = Placement(servers=(0,))
    excess = load_matrix(inst, samples, pl.array())[0] - inst.capacities[0]
    assert excess.tolist() == [-3.0, 0.0, 4.0]
    params = SaaParams(alpha=0.9, epsilon=0.9, theta=3)
    profile = overload_profile(inst, samples, pl, params)
    # exact-capacity scenario is not an overload
    assert profile.overload_count[0] == 1


def test_overload_profile_counting():
    inst = build_instance(
        servers=[(0, 0, 1.0, 8.0), (5, 5, 1.0, 8.0)],
        devices=[(1, 1, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    samples = constant_samples(inst, [1.0], theta=4)
    samples.cycles.setflags(write=True)
    samples.cycles[0] = [7.0, 10.0, 8.0, 13.0]  # excess -1, 2, 0, 5
    samples.cycles.setflags(write=False)
    params = SaaParams(alpha=0.9, epsilon=0.9, theta=4)
    profile = overload_profile(inst, samples, Placement(servers=(0,)), params)
    assert profile.overload_count.tolist() == [2, 0]
    assert profile.proportion.tolist() == [0.5, 0.0]


def test_overload_profile_matches_bruteforce_scan():
    cfg = GenConfig(num_servers=3, num_devices=3, components_range=(1, 2))
    params = SaaParams(alpha=0.2, epsilon=0.1, theta=100)
    for seed in range(4):
        inst = generate_instance(cfg, seed)
        samples = draw_samples(inst, params, seed + 50)
        rng = np.random.default_rng(seed)
        pl = Placement(servers=tuple(int(s) for s in rng.integers(0, 3, inst.total_components)))
        profile = overload_profile(inst, samples, pl, params)
        for s in range(3):
            count = 0
            for theta in range(100):
                load = 0.0
                for k in range(inst.total_components):
                    if pl.servers[k] == s:
                        load += inst.cost_rates[s] * samples.cycles[k, theta]
                if load > inst.capacities[s]:
                    count += 1
            assert profile.overload_count[s] == count
            assert profile.proportion[s] == count / 100


def _profile(counts, theta):
    return OverloadProfile(np.asarray(counts, dtype=np.int64), theta)


def test_feasibility_threshold_examples():
    params = SaaParams(alpha=0.01, epsilon=0.005, theta=1850)
    assert allowed_overloads(params) == 9
    assert is_feasible(_profile([9, 0], 1850), params)
    assert not is_feasible(_profile([10, 0], 1850), params)
    assert is_feasible(_profile([0, 0, 0], 1850), params)
    # floor must be exact when epsilon * theta is integral
    assert allowed_overloads(SaaParams(alpha=0.5, epsilon=0.3, theta=10)) == 3
    # ... and must not round up a decimal product just below an integer
    assert allowed_overloads(SaaParams(alpha=0.01, epsilon=0.00499999999995, theta=1000)) == 4


def test_feasibility_monotone_in_epsilon():
    rng = np.random.default_rng(1)
    for _ in range(50):
        theta = int(rng.integers(10, 500))
        counts = rng.integers(0, theta // 2, size=4)
        eps = sorted(rng.uniform(0.01, 0.5, size=2))
        lo = SaaParams(alpha=0.6, epsilon=float(eps[0]), theta=theta)
        hi = SaaParams(alpha=0.6, epsilon=float(eps[1]), theta=theta)
        if is_feasible(_profile(counts, theta), lo):
            assert is_feasible(_profile(counts, theta), hi)


def test_adding_component_never_decreases_count():
    cfg = GenConfig(num_servers=2, num_devices=3, components_range=(1, 2))
    params = SaaParams(alpha=0.2, epsilon=0.1, theta=60)
    for seed in range(4):
        inst = generate_instance(cfg, seed + 10)
        samples = draw_samples(inst, params, seed)
        rng = np.random.default_rng(seed)
        servers = [int(s) for s in rng.integers(0, 2, inst.total_components)]
        before = overload_profile(inst, samples, Placement(tuple(servers)), params)
        movable = [k for k, s in enumerate(servers) if s != 0]
        if not movable:
            continue
        k = movable[0]
        servers[k] = 0
        after = overload_profile(inst, samples, Placement(tuple(servers)), params)
        assert after.overload_count[0] >= before.overload_count[0]


def test_approx_success_prob():
    params = SaaParams(alpha=0.01, epsilon=0.005, theta=1850)
    assert approx_success_prob(params) == pytest.approx(0.990, abs=5e-4)
    flat = SaaParams(alpha=0.01, epsilon=0.01, theta=1850)
    assert approx_success_prob(flat) == 0.0
    prev = 0.0
    for theta in (10, 100, 1000, 10000):
        value = approx_success_prob(SaaParams(alpha=0.01, epsilon=0.005, theta=theta))
        assert value > prev
        prev = value
    wide = approx_success_prob(SaaParams(alpha=0.02, epsilon=0.005, theta=1850))
    assert wide > approx_success_prob(params)


def binomial_lower_quantile(n, p, tail):
    """Largest m with P(Binomial(n, p) < m) <= tail."""
    below = 0.0
    for m in range(n + 1):
        nxt = below + math.comb(n, m) * p**m * (1 - p) ** (n - m)
        if nxt > tail:
            return m
        below = nxt
    return n


def test_saa_guarantee_holds_over_independent_sample_sets():
    # Luedtke & Ahmed (2008): with probability at least approx_success_prob,
    # every placement feasible for the sampled problem meets the original
    # chance constraint P(overload) <= alpha. Three components of one device
    # share server 0; together their true overload probability is about
    # 0.055 > alpha. The nearest-server greedy puts the third on server 0
    # only when that sample set counts it within budget, and that placement
    # then fails validation on fresh scenarios. Over independent sample sets
    # the share of placements that pass must reach approx_success_prob, less
    # a binomial margin: fewer passes than the 0.1 % lower quantile of
    # Binomial(sets, approx_success_prob) fails the test.
    inst = build_instance(
        servers=[(0, 0, 1.0, 3.5536), (100, 0, 1.0, 1e9)],
        devices=[(1, 0, [(1.0, 100.0, (0.0, 0.0, 0.0))] * 3)],
        unit_cost=1.0,
    )
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=200)
    sets = 200
    passes = 0
    for i in range(sets):
        samples = draw_samples(inst, params, 10_000 + i)
        placement = baseline_nearest(inst, samples, params).best_state.placement
        proportion = validate_p1_feasibility(inst, placement, params.alpha, 20000, 20_000 + i)
        passes += proportion <= params.alpha
    least = binomial_lower_quantile(sets, approx_success_prob(params), 1e-3)
    assert least == 171  # a share of 0.855 against approx_success_prob 0.918
    assert passes >= least
