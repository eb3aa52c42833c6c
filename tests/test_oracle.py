from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtplace import (
    GenConfig,
    NoFeasibleState,
    Placement,
    SaaParams,
    SampleSet,
    SizeCapExceeded,
    StageConfig,
    allowed_overloads,
    baseline_nearest,
    baseline_random_best,
    baseline_restart_hillclimb,
    draw_samples,
    evaluate,
    exact_solve,
    generate_instance,
    is_feasible,
    overload_profile,
    random_feasible_state,
    stage_search,
)
from dtplace import oracle
from dtplace.saa import server_load

from conftest import build_instance, constant_samples, rounding_boundary_case


def bruteforce_solve(inst, samples, params):
    """Independent oracle: full scratch evaluation of every placement."""
    best = None
    best_pl = None
    for combo in itertools.product(range(inst.num_servers), repeat=inst.total_components):
        pl = Placement(servers=combo)
        profile = overload_profile(inst, samples, pl, params)
        if not is_feasible(profile, params):
            continue
        rho = evaluate(inst, pl).total
        if best is None or rho < best:
            best = rho
            best_pl = pl
    return best, best_pl


def test_single_server_singleton():
    inst = build_instance(
        servers=[(0, 0, 1.0, 1e9)],
        devices=[(5, 0, [(5e6, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5e6], theta=10)
    result = exact_solve(inst, samples, params)
    assert result.states_enumerated == 1
    assert result.feasible
    assert result.optimum == evaluate(inst, Placement(servers=(0,))).total


def test_two_placements_picks_cheaper_feasible():
    inst = build_instance(
        servers=[(0, 0, 1.0, 1e9), (30, 0, 1.0, 1e9)],
        devices=[(10, 0, [(5e6, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5e6], theta=10)
    result = exact_solve(inst, samples, params)
    assert result.states_enumerated == 2
    assert result.argmin.servers == (0,)  # 10 m beats 20 m


def test_oracle_matches_independent_bruteforce():
    for seed in range(5):
        cfg = GenConfig(num_servers=3, num_devices=2, components_range=(1, 2))
        inst = generate_instance(cfg, seed + 60)
        params = SaaParams(alpha=0.05, epsilon=0.025, theta=40)
        samples = draw_samples(inst, params, seed)
        fast = exact_solve(inst, samples, params)
        slow_opt, slow_pl = bruteforce_solve(inst, samples, params)
        if slow_opt is None:
            assert not fast.feasible
        else:
            assert fast.optimum == pytest.approx(slow_opt, rel=1e-12)
            assert fast.argmin.servers == slow_pl.servers


def test_oracle_lower_bounds_every_algorithm():
    cfg = GenConfig(num_servers=3, num_devices=2, components_range=(1, 2))
    inst = generate_instance(cfg, 90)
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=50)
    samples = draw_samples(inst, params, 91)
    oracle = exact_solve(inst, samples, params)
    assert oracle.feasible
    guard = 1e-9 * max(1.0, abs(oracle.optimum))
    results = [
        stage_search(inst, samples, params, StageConfig(), 1).best_state,
        baseline_random_best(inst, samples, params, trials=5, seed=2).best_state,
        baseline_restart_hillclimb(inst, samples, params, trials=5, seed=3).best_state,
        baseline_nearest(inst, samples, params).best_state,
    ]
    for state in results:
        assert evaluate(inst, state.placement).total >= oracle.optimum - guard


def test_oracle_argmin_invariants():
    cfg = GenConfig(num_servers=2, num_devices=2, components_range=(1, 2))
    inst = generate_instance(cfg, 95)
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=30)
    samples = draw_samples(inst, params, 96)
    result = exact_solve(inst, samples, params)
    if result.feasible:
        assert evaluate(inst, result.argmin).total == result.optimum
        assert is_feasible(overload_profile(inst, samples, result.argmin, params), params)
        assert result.states_enumerated == 2**inst.total_components


def test_size_cap_enforced(small_instance, small_params, small_samples):
    with pytest.raises(SizeCapExceeded):
        exact_solve(small_instance, small_samples, small_params, size_cap=3)


def test_oracle_feasibility_verdict_matches_sampler(monkeypatch):
    monkeypatch.setattr("dtplace.search.MAX_TRIES", 10)
    inst = build_instance(
        servers=[(0, 0, 1.0, 4.0)],
        devices=[(5, 0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5.0], theta=10)
    result = exact_solve(inst, samples, params)
    assert not result.feasible
    assert result.optimum is None and result.argmin is None
    with pytest.raises(NoFeasibleState):
        random_feasible_state(inst, samples, params, 1)

    roomy = build_instance(
        servers=[(0, 0, 1.0, 1e9)],
        devices=[(5, 0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    roomy_samples = constant_samples(roomy, [5.0], theta=10)
    assert exact_solve(roomy, roomy_samples, params).feasible
    random_feasible_state(roomy, roomy_samples, params, 1)


def scaled_samples(inst, params, seed, fill):
    """Draws rescaled so an average server reaches capacity with ``fill``
    average components; small ``fill`` makes capacity bind hard."""
    samples = draw_samples(inst, params, seed)
    per_component = inst.cost_rates.mean() * samples.cycles.mean()
    scale = inst.capacities.mean() / (fill * per_component)
    return SampleSet(cycles=samples.cycles * scale)


def lexicographic_index(inst, placement):
    index = 0
    for s in placement.servers:
        index = index * inst.num_servers + s
    return index


def assert_matches_bruteforce(inst, samples, params):
    fast = exact_solve(inst, samples, params)
    slow_opt, slow_pl = bruteforce_solve(inst, samples, params)
    assert fast.states_enumerated == inst.num_servers**inst.total_components
    if slow_opt is None:
        assert not fast.feasible and fast.argmin is None
    else:
        assert fast.optimum == slow_opt
        assert fast.argmin == slow_pl
    return fast


@st.composite
def tiny_cases(draw):
    """An instance of at most 256 placements, its scenarios and settings.

    Every component averages 3 cycles and a server's capacity fits ``fill``
    of them, so small fills leave many instances infeasible. ``integral``
    draws whole cycles, rates and capacities, so loads often meet capacity
    exactly; ``twins`` makes every server the same, so mirrored placements
    tie on cost. At theta = 1 up to eight components can share a server,
    where numpy's ``sum`` would add them pairwise; the tables must count as
    ``saa.server_load`` does.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_servers = draw(st.integers(1, 4))
    most = {1: 8, 2: 8, 3: 5, 4: 4}[num_servers]
    sizes = []
    for n in draw(st.lists(st.integers(1, 3), min_size=1, max_size=8)):
        if sum(sizes) + n <= most:
            sizes.append(n)
    theta = draw(st.sampled_from([1, 2, 10]))
    fill = draw(st.sampled_from([0.5, 1.0, 2.0, 100.0]))
    integral = draw(st.booleans())
    twins = draw(st.booleans())
    epsilon = draw(st.sampled_from([0.05, 0.25, 0.5]))

    def server():
        x, y = rng.uniform(0, 100, size=2)
        if integral:
            rate = float(rng.integers(1, 3))
            return x, y, rate, float(round(fill * rate * 3.0))
        rate = rng.uniform(1, 10)
        return x, y, rate, fill * rate * 3.0

    servers = [server()] * num_servers if twins else [server() for _ in range(num_servers)]
    devices = []
    for n in sizes:
        g = np.zeros((n, n))
        upper = np.triu_indices(n, 1)
        g[upper] = rng.uniform(50, 250, size=len(upper[0]))
        g += g.T
        comps = [(3.0, rng.uniform(100, 500), tuple(g[c])) for c in range(n)]
        devices.append((*rng.uniform(0, 100, size=2), comps))
    inst = build_instance(servers=servers, devices=devices, unit_cost=rng.uniform(0.1, 1.0))
    K = inst.total_components
    if integral:
        cycles = rng.integers(1, 6, size=(K, theta)).astype(np.float64)
    else:
        cycles = rng.uniform(1.0, 5.0, size=(K, theta))
    return inst, SampleSet(cycles=cycles), SaaParams(alpha=0.9, epsilon=epsilon, theta=theta)


@settings(max_examples=100, deadline=None)
@given(case=tiny_cases(), state_block=st.sampled_from([3, oracle.STATE_BLOCK]))
def test_oracle_matches_bruteforce_on_random_tiny_instances(case, state_block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "STATE_BLOCK", state_block)
        assert_matches_bruteforce(*case)


@pytest.mark.parametrize("num_servers", [2, 3, 4])
@pytest.mark.parametrize("fill", [1.5, 3.0])
def test_oracle_matches_bruteforce_on_three_component_devices(num_servers, fill):
    # With three components per device, the third has two earlier siblings.
    cfg = GenConfig(num_servers=num_servers, num_devices=2, components_range=(3, 3))
    inst = generate_instance(cfg, 70 + num_servers)
    params = SaaParams(alpha=0.1, epsilon=0.05, theta=60)
    samples = scaled_samples(inst, params, 7 * num_servers, fill)
    assert_matches_bruteforce(inst, samples, params)


def test_oracle_matches_bruteforce_on_infeasible_instances():
    outcomes = []
    for seed, fill in itertools.product(range(3), (0.1, 1.0)):
        cfg = GenConfig(num_servers=3, num_devices=2, components_range=(2, 3))
        inst = generate_instance(cfg, 80 + seed)
        params = SaaParams(alpha=0.1, epsilon=0.05, theta=40)
        samples = scaled_samples(inst, params, seed, fill)
        outcomes.append(assert_matches_bruteforce(inst, samples, params).feasible)
    assert not all(outcomes)


@pytest.mark.parametrize("state_block", [oracle.STATE_BLOCK, 3])
def test_oracle_breaks_ties_lexicographically(monkeypatch, state_block):
    # Servers 0 and 1 are identical and each fits one component; swapping
    # them gives an equal-cost placement, and the first in order must win,
    # also when the two fall in different blocks.
    monkeypatch.setattr(oracle, "STATE_BLOCK", state_block)
    servers = [(0, 0, 1.0, 7.0), (0, 0, 1.0, 7.0), (40, 0, 1.0, 1e9)]
    device = (5, 0, [(5.0, 100.0, (0.0, 80.0, 60.0)),
                     (5.0, 300.0, (80.0, 0.0, 70.0)),
                     (5.0, 200.0, (60.0, 70.0, 0.0))])
    inst = build_instance(servers=servers, devices=[device], unit_cost=0.5)
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5.0, 5.0, 5.0], theta=10)
    result = assert_matches_bruteforce(inst, samples, params)
    mirror = Placement(tuple({0: 1, 1: 0}.get(s, s) for s in result.argmin.servers))
    assert mirror.servers > result.argmin.servers
    assert evaluate(inst, mirror).total == result.optimum
    assert is_feasible(overload_profile(inst, samples, mirror, params), params)


def test_oracle_finds_a_winner_in_a_later_block(monkeypatch):
    # 3^9 placements span several blocks of 3^t placements that share their
    # last 9 - t digits, and the first block puts those components on server
    # 0. Server 0 is far away, so the best placement lies in a later block.
    servers = [(110, 110, 1.0, 1e9), (0, 0, 1.0, 12.0), (10, 0, 1.0, 22.0)]
    devices = [
        (x, 0, [(5.0, kb, row) for kb, row in zip(
            (150.0, 250.0, 350.0),
            ((0.0, 90.0, 50.0), (90.0, 0.0, 120.0), (50.0, 120.0, 0.0)),
        )])
        for x in (2, 6, 9)
    ]
    inst = build_instance(servers=servers, devices=devices, unit_cost=0.3)
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5.0] * 9, theta=10)
    slow_opt, slow_pl = bruteforce_solve(inst, samples, params)
    for state_block in (oracle.STATE_BLOCK, 27):
        monkeypatch.setattr(oracle, "STATE_BLOCK", state_block)
        result = exact_solve(inst, samples, params)
        assert (result.optimum, result.argmin) == (slow_opt, slow_pl)
        t = max(t for t in range(1, 10) if 3**t <= state_block)
        assert t < 9
        assert lexicographic_index(inst, result.argmin) % 3 ** (9 - t) != 0


def reference_subset_feasibility(inst, samples, budget):
    """Every subset counted from scratch with ``server_load``."""
    K = inst.total_components
    ok = np.empty((inst.num_servers, 2**K), dtype=bool)
    for s in range(inst.num_servers):
        for mask in range(2**K):
            members = np.array([mask >> k & 1 for k in range(K)], dtype=bool)
            load = server_load(inst, samples, members, s)
            ok[s, mask] = (load > inst.capacities[s]).sum() <= budget
    return ok


def test_subset_table_and_enumeration_are_block_size_independent(monkeypatch):
    cfg = GenConfig(num_servers=3, num_devices=2, components_range=(3, 3))
    inst = generate_instance(cfg, 75)
    params = SaaParams(alpha=0.1, epsilon=0.05, theta=60)
    samples = scaled_samples(inst, params, 9, 2.5)
    budget = allowed_overloads(params)
    reference = reference_subset_feasibility(inst, samples, budget)
    assert reference.any() and not reference.all()
    default = exact_solve(inst, samples, params)

    # Four subsets per load block leaves four components to the high-bit
    # walk; five placements per step gives blocks of three.
    monkeypatch.setattr(oracle, "LOAD_BLOCK_BYTES", 8 * samples.theta * 4)
    monkeypatch.setattr(oracle, "STATE_BLOCK", 5)
    assert (oracle._subset_feasibility(inst, samples, budget) == reference).all()
    assert exact_solve(inst, samples, params) == default


@pytest.mark.parametrize("load_block_bytes", [oracle.LOAD_BLOCK_BYTES, 8 * 60 * 4])
def test_subset_table_at_capacity_equal_to_a_subset_load(monkeypatch, load_block_bytes):
    # Budget 0 and every capacity the peak load of some subset: that subset
    # is feasible only if the table sums its peak exactly as server_load does.
    monkeypatch.setattr(oracle, "LOAD_BLOCK_BYTES", load_block_bytes)
    cfg = GenConfig(num_servers=3, num_devices=2, components_range=(3, 3))
    inst = generate_instance(cfg, 75)
    params = SaaParams(alpha=0.01, epsilon=0.01, theta=60)
    assert allowed_overloads(params) == 0
    samples = scaled_samples(inst, params, 9, 2.5)
    rng = np.random.default_rng(5)
    K = inst.total_components
    for _ in range(20):
        subsets = rng.random((inst.num_servers, K)) < 0.6
        caps = [server_load(inst, samples, m, s).max() for s, m in enumerate(subsets)]
        servers = tuple(replace(srv, capacity=float(c)) for srv, c in zip(inst.servers, caps))
        boundary = replace(inst, servers=servers)
        reference = reference_subset_feasibility(boundary, samples, 0)
        masks = subsets @ (1 << np.arange(K))
        assert reference[np.arange(inst.num_servers), masks].all()
        assert (oracle._subset_feasibility(boundary, samples, 0) == reference).all()


def test_oracle_matches_bruteforce_at_a_rounding_boundary():
    inst, samples, params = rounding_boundary_case()
    assert assert_matches_bruteforce(inst, samples, params).feasible


def test_oracle_matches_bruteforce_on_eight_components_in_one_scenario():
    # Over a single scenario column numpy's sum adds eight or more rows
    # pairwise; server 0's capacity is that pairwise sum of all eight.
    cycles = [8.245026313708422, 8.271467107628443, 5.637930049379278, 3.5722124207932744,
              1.4853763214349078, 4.450319927069664, 4.676258848779987, 1.4074767451220065]
    capacity = np.array(cycles)[:, None].sum(axis=0)[0]
    inst = build_instance(
        servers=[(0, 0, 1.0, capacity), (100, 0, 1.0, 1e9)],
        devices=[(0, 0, [(c, 200.0, (0.0,))]) for c in cycles],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.5, epsilon=0.5, theta=1)
    assert assert_matches_bruteforce(inst, constant_samples(inst, cycles, theta=1), params).feasible


def test_negative_capacity_server_overloads_even_when_empty():
    inst = build_instance(
        servers=[(0, 0, 1.0, 1e9), (30, 0, 1.0, -1.0)],
        devices=[(10, 0, [(5e6, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5e6], theta=10)
    result = assert_matches_bruteforce(inst, samples, params)
    assert not result.feasible


def test_size_cap_counts_subsets_per_server():
    inst = build_instance(
        servers=[(0, 0, 1.0, 1e9)],
        devices=[(5, 0, [(5.0, 200.0, (0.0, 10.0, 10.0)),
                         (5.0, 200.0, (10.0, 0.0, 10.0)),
                         (5.0, 200.0, (10.0, 10.0, 0.0))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5.0] * 3, theta=10)
    with pytest.raises(SizeCapExceeded):
        exact_solve(inst, samples, params, size_cap=4)
    assert exact_solve(inst, samples, params, size_cap=8).states_enumerated == 1


def test_size_cap_counts_the_leading_subset_masks():
    # 40 placements and 2 subsets per server fit a cap of 1000; the shared
    # masks of the one leading component take 40 x 40 = 1,600 entries.
    inst = generate_instance(GenConfig(num_servers=40, num_devices=1, components_range=(1, 1)), 7)
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = draw_samples(inst, params, 1)
    with pytest.raises(SizeCapExceeded, match="1600 subset-mask entries"):
        exact_solve(inst, samples, params, size_cap=1000)
    assert exact_solve(inst, samples, params, size_cap=1600).states_enumerated == 40


def test_size_cap_shrinks_the_leading_block_to_fit_its_masks():
    # 20 servers x 2 components: one 400-placement block would need 8,000
    # mask entries; under a cap of 1000 the blocks hold one component.
    inst = generate_instance(GenConfig(num_servers=20, num_devices=1, components_range=(2, 2)), 7)
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = draw_samples(inst, params, 1)
    assert exact_solve(inst, samples, params, size_cap=1000) == exact_solve(inst, samples, params)


def test_load_equal_to_capacity_is_not_an_overload():
    inst = build_instance(
        servers=[(0, 0, 1.0, 10.0), (30, 0, 1.0, 1e9)],
        devices=[(5, 0, [(5.0, 200.0, (0.0, 10.0)), (5.0, 200.0, (10.0, 0.0))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.09, epsilon=0.05, theta=10)
    assert allowed_overloads(params) == 0
    samples = constant_samples(inst, [5.0, 5.0], theta=10)
    result = assert_matches_bruteforce(inst, samples, params)
    assert result.argmin.servers == (0, 0)
