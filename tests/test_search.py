from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dtplace import (
    ConfigurationError,
    GenConfig,
    NoFeasibleState,
    Placement,
    QuadraticModel,
    SaaParams,
    SampleSet,
    StageConfig,
    Trajectory,
    allowed_overloads,
    baseline_nearest,
    baseline_random_best,
    baseline_restart_hillclimb,
    draw_samples,
    evaluate,
    exact_solve,
    features,
    fit_value_model,
    generate_instance,
    hill_climb,
    is_feasible,
    make_state,
    overload_profile,
    random_feasible_state,
    stage_search,
)
from dtplace import search
from dtplace.saa import load_matrix
from dtplace.search import _Workspace
from dtplace.seeding import stream

from conftest import build_instance, constant_samples, greedy_fallback_case, rounding_boundary_case

# A fixed value model with nonzero f1, f2, squared and cross terms; every
# term is positive on distance features, so predictions do not cancel.
MODEL = QuadraticModel(
    coefficients=np.array([1.0, 2.0, 3.0, 0.5, 0.25, 0.125]),
    feature_mean=np.zeros(2),
    feature_sd=np.array([100.0, 100.0]),
)


def seeded_setup(seed, servers=3, devices=2, comp=(1, 2), theta=60):
    cfg = GenConfig(num_servers=servers, num_devices=devices, components_range=comp)
    inst = generate_instance(cfg, seed)
    params = SaaParams(alpha=0.2, epsilon=0.1, theta=theta)
    samples = draw_samples(inst, params, seed + 1000)
    return inst, params, samples


def scratch_moves(inst, samples, params, placement):
    """Every one-component move (k, s != a[k]) in (k, s) order, built from
    scratch: yields (k, s, state, feasible)."""
    budget = allowed_overloads(params)
    for k in range(inst.total_components):
        for s in range(inst.num_servers):
            if s == placement.servers[k]:
                continue
            servers = list(placement.servers)
            servers[k] = s
            pl = Placement(tuple(servers))
            feasible = bool((overload_profile(inst, samples, pl, params).overload_count <= budget).all())
            yield k, s, make_state(inst, samples, params, pl), feasible


def value(state, model=None):
    """A state's cost, or ``model``'s prediction from its features."""
    if model is None:
        return state.eval.total
    return float(model.predict_pair(state.features.dist_off, state.features.dist_com))


def scan_best(inst, samples, params, state, model=None, rel=0.0):
    """From-scratch scan of the feasible one-component moves from ``state``:
    (lowest value, the moves valued within ``rel`` of it in (k, s) order),
    or (inf, []) when no move is feasible."""
    scored = [
        (value(cand, model), cand)
        for _, _, cand, feasible in scratch_moves(inst, samples, params, state.placement)
        if feasible
    ]
    low = min((v for v, _ in scored), default=np.inf)
    return low, [cand for v, cand in scored if v <= low + rel * max(1.0, abs(low))]


def reference_climb(inst, samples, params, start, model=None):
    """Independent steepest-descent oracle: each step takes the first
    strictly-best feasible move in (k, s) order, scored from scratch by cost,
    or by ``model``'s prediction when one is given."""
    states = [start]
    while True:
        low, moves = scan_best(inst, samples, params, states[-1], model)
        if not low < value(states[-1], model):
            return states
        states.append(moves[0])


def candidate_counts(ws):
    """(K, S) table of the workspace's on-demand candidate counts."""
    K, S = ws.inst.total_components, ws.inst.num_servers
    return np.array([[ws.candidate_count(k, s) for s in range(S)] for k in range(K)], dtype=np.int64)


def feasible_table(ws):
    """(K, S) feasibility of every move by the workspace's candidate counts;
    False on each component's current server, which is not a move."""
    feasible = candidate_counts(ws) <= ws.allowed
    feasible[ws.rows, ws.assignment] = False
    return feasible


def assert_stopped_by_scan(inst, samples, params, state, model=None):
    """The climb that ended at ``state`` stopped because its screened move
    values showed no improvement, not because a screened improvement failed
    the from-scratch re-check."""
    ws = _Workspace(inst, samples, params, state)
    screened = ws.move_values(model)
    assert not np.where(feasible_table(ws), screened, np.inf).min() < value(state, model)


def workspace(inst, samples, params, assignment):
    """A climb workspace started from ``assignment``, built from scratch."""
    pl = Placement(tuple(int(s) for s in assignment))
    return _Workspace(inst, samples, params, make_state(inst, samples, params, pl))


def test_neighbors_counts():
    # One move on two servers, none on one server: the workspace's feasible
    # moves are exactly the from-scratch ones.
    inst = build_instance(
        servers=[(0, 0, 1.0, 1e9), (10, 0, 1.0, 1e9)],
        devices=[(5, 0, [(5e6, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5e6], theta=10)
    moves = list(scratch_moves(inst, samples, params, Placement(servers=(0,))))
    assert [(k, s, feasible) for k, s, _, feasible in moves] == [(0, 1, True)]
    assert np.argwhere(feasible_table(workspace(inst, samples, params, [0]))).tolist() == [[0, 1]]

    single = build_instance(
        servers=[(0, 0, 1.0, 1e9)],
        devices=[(5, 0, [(5e6, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    single_samples = constant_samples(single, [5e6], 10)
    assert list(scratch_moves(single, single_samples, params, Placement(servers=(0,)))) == []
    assert not feasible_table(workspace(single, single_samples, params, [0])).any()
    state = make_state(single, single_samples, params, Placement(servers=(0,)))
    _, traj, stats = hill_climb(single, single_samples, params, state)
    assert len(traj.points) == stats.states_visited == 1


def test_neighbors_are_in_lexicographic_order_and_feasible():
    # The workspace's counts mark feasible exactly the moves the scratch scan keeps.
    inst, params, samples = seeded_setup(3)
    state = random_feasible_state(inst, samples, params, 1)
    feasible = feasible_table(_Workspace(inst, samples, params, state))
    scratch = [(k, s) for k, s, _, ok in scratch_moves(inst, samples, params, state.placement) if ok]
    assert np.argwhere(feasible).tolist() == [list(move) for move in scratch]

    # Ties go to the first move in (k, s) order. Two identical devices start
    # on server 0; servers 1 and 2 are equally close to them, so all four
    # moves tie. The climb moves component 0 to server 1 first.
    tied = build_instance(
        servers=[(0, 0, 1.0, 1e9), (20, 5, 1.0, 1e9), (20, -5, 1.0, 1e9)],
        devices=[(20, 0, [(5e6, 200.0, (0.0,))]), (20, 0, [(5e6, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    tied_samples = constant_samples(tied, [5e6, 5e6], theta=10)
    tied_params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    start = make_state(tied, tied_samples, tied_params, Placement(servers=(0, 0)))
    visited = []
    hill_climb(tied, tied_samples, tied_params, start, on_visit=visited.append)
    expected = [s.placement.servers for s in reference_climb(tied, tied_samples, tied_params, start)]
    assert [s.placement.servers for s in visited] == expected == [(0, 0), (1, 0), (1, 1)]


def test_neighbor_delta_caches_match_scratch_recompute():
    # Screened move values and the state an applied move returns agree with
    # the from-scratch state of every move.
    for seed in (5, 6, 7):
        inst, params, samples = seeded_setup(seed)
        state = random_feasible_state(inst, samples, params, seed)
        ws = _Workspace(inst, samples, params, state)
        cost, predicted = ws.move_values(None), ws.move_values(MODEL)
        table_feasible = feasible_table(ws)
        for k, s, cand, feasible in scratch_moves(inst, samples, params, state.placement):
            assert table_feasible[k, s] == feasible
            assert ws.candidate_count(k, s) == cand.profile.overload_count[s]
            assert cost[k, s] == pytest.approx(cand.eval.total, rel=1e-9, abs=1e-9)
            assert predicted[k, s] == pytest.approx(value(cand, MODEL), rel=1e-9, abs=1e-9)
            source = int(ws.assignment[k])
            snap = ws.apply(k, s)
            ws.apply(k, source)
            assert snap.placement == cand.placement
            assert snap.eval.total == pytest.approx(cand.eval.total, rel=1e-9)
            assert snap.features == cand.features
            assert (snap.profile.overload_count == cand.profile.overload_count).all()


def test_hill_climb_matches_reference_scan():
    for seed in (11, 12, 13):
        inst, params, samples = seeded_setup(seed)
        start = random_feasible_state(inst, samples, params, seed)
        endpoint, traj, stats = hill_climb(inst, samples, params, start)
        ref_states = reference_climb(inst, samples, params, start)
        assert endpoint.placement.servers == ref_states[-1].placement.servers
        assert len(traj.points) == len(ref_states)
        assert [p for p in traj.points] == [s.features for s in ref_states]
        assert traj.endpoint_value == endpoint.eval.total


def test_hill_climb_descends_strictly_and_terminates():
    inst, params, samples = seeded_setup(20, servers=4, devices=3, comp=(1, 3))
    start = random_feasible_state(inst, samples, params, 2)
    visited = []
    endpoint, traj, stats = hill_climb(inst, samples, params, start, on_visit=visited.append)
    values = [s.eval.total for s in visited]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert stats.states_visited == len(visited) == len(traj.points)
    assert stats.states_visited <= stats.neighbors_evaluated + 1
    again, _, _ = hill_climb(inst, samples, params, endpoint)
    assert again.placement.servers == endpoint.placement.servers


def test_hill_climb_is_deterministic():
    inst, params, samples = seeded_setup(30)
    start = random_feasible_state(inst, samples, params, 3)
    first = hill_climb(inst, samples, params, start)
    second = hill_climb(inst, samples, params, start)
    assert first[0].placement.servers == second[0].placement.servers
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_trajectory_restart_reproduces_endpoint():
    for seed in (41, 42):
        inst, params, samples = seeded_setup(seed)
        start = random_feasible_state(inst, samples, params, seed)
        endpoint, _, _ = hill_climb(inst, samples, params, start)
        for state in reference_climb(inst, samples, params, start):
            again, _, _ = hill_climb(inst, samples, params, state)
            assert again.placement.servers == endpoint.placement.servers


def test_hill_climb_respects_step_cap(monkeypatch):
    # Uncapped, the model descent takes 4 moves and the cost descent 2 from this start.
    inst, params, samples = seeded_setup(50, servers=4, devices=3, comp=(2, 3))
    start = random_feasible_state(inst, samples, params, 4)
    monkeypatch.setattr(search, "PHASE2_STEP_CAP", 1)
    _, predicted, _ = hill_climb(inst, samples, params, start, objective=MODEL)
    assert len(predicted.points) == 2
    _, cost, _ = hill_climb(inst, samples, params, start)
    assert len(cost.points) == 3


def test_hill_climb_never_beats_oracle_on_tiny_instances():
    hits = 0
    for seed in range(8):
        inst, params, samples = seeded_setup(seed, servers=2, devices=2, comp=(1, 2), theta=50)
        oracle = exact_solve(inst, samples, params)
        if not oracle.feasible:
            continue
        start = random_feasible_state(inst, samples, params, seed)
        endpoint, _, _ = hill_climb(inst, samples, params, start)
        rho = evaluate(inst, endpoint.placement).total
        assert rho >= oracle.optimum - 1e-9 * max(1.0, abs(oracle.optimum))
        if rho <= oracle.optimum * (1 + 1e-12):
            hits += 1
    assert hits >= 1


def test_hill_climb_rejects_infeasible_start():
    inst = build_instance(
        servers=[(0, 0, 1.0, 4.0), (10, 0, 1.0, 1e9)],
        devices=[(5, 0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5.0], theta=10)
    bad = make_state(inst, samples, params, Placement(servers=(0,)))
    with pytest.raises(ValueError):
        hill_climb(inst, samples, params, bad)


def test_random_feasible_state_accepts_first_draw_when_capacity_abundant():
    inst, params, samples = seeded_setup(60)
    state = random_feasible_state(inst, samples, params, 9)
    from dtplace.seeding import stream

    expected = stream(9, "search").integers(0, inst.num_servers, size=inst.total_components)
    assert state.placement.servers == tuple(int(s) for s in expected)
    repeat = random_feasible_state(inst, samples, params, 9)
    assert repeat.placement.servers == state.placement.servers


def test_random_feasible_state_uses_greedy_fallback(monkeypatch):
    monkeypatch.setattr("dtplace.search.MAX_TRIES", 25)
    inst, samples, params = greedy_fallback_case()
    state = random_feasible_state(inst, samples, params, 0)
    assert state.placement.servers == (1,) * 12


def test_random_feasible_state_raises_when_impossible(monkeypatch):
    monkeypatch.setattr("dtplace.search.MAX_TRIES", 20)
    inst = build_instance(
        servers=[(0, 0, 1.0, 4.0)],
        devices=[(5, 0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5.0], theta=10)
    with pytest.raises(NoFeasibleState):
        random_feasible_state(inst, samples, params, 1)


def reference_random_start(inst, samples, params, seed):
    """The random start without its head screen: every draw is counted over
    all scenarios by ``overload_profile``; the same stream then feeds the
    greedy fallback. Returns the placement or raises NoFeasibleState."""
    rng = stream(seed, "search")
    K, S = inst.total_components, inst.num_servers
    for _ in range(search.MAX_TRIES):
        pl = Placement(tuple(rng.integers(0, S, size=K).tolist()))
        if is_feasible(overload_profile(inst, samples, pl, params), params):
            return pl
    cap = inst.capacities[:, None]
    rank = lambda k, load: (load - cap).max(axis=1)  # noqa: E731
    return search._greedy_fill(inst, samples, params, rng.permutation(K), rank).placement


@st.composite
def random_start_cases(draw):
    """Single-component devices on servers whose capacity is 0.8-2.5 times
    the mean load of an even split, so draws are often near the budget.
    ``integral`` makes rates, capacities and cycles whole numbers, so loads
    often equal capacity inside the screened scenarios. Past them, cycles
    may be scaled up, so a draw can pass the screen and fail the full count,
    or down, so a feasible draw has its overloads in the screened ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S, K = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    theta = draw(st.sampled_from([1, 2, 63, 64, 65, 200]))
    integral = draw(st.booleans())
    if integral:
        rates = rng.integers(1, 3, size=S).astype(np.float64)
        cycles = rng.integers(1, 6, size=(K, theta)).astype(np.float64)
    else:
        rates = rng.uniform(1.0, 3.0, size=S)
        cycles = rng.uniform(1.0, 5.0, size=(K, theta))
    cycles[:, search.SCREEN_SCENARIOS :] *= draw(st.sampled_from([0.5, 1.0, 1.5, 3.0]))
    caps = rates * 3.0 * -(-K // S) * rng.uniform(0.8, 2.5, size=S)
    if integral:
        caps = np.floor(caps)
    if draw(st.booleans()):  # identical servers
        rates[:], caps[:] = rates[0], caps[0]
    inst = build_instance(
        servers=[(10.0 * s, 0, rates[s], caps[s]) for s in range(S)],
        devices=[(5.0 * k, 5.0, [(3.0, 100.0, (0.0,))]) for k in range(K)],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.9, epsilon=draw(st.sampled_from([0.005, 0.05, 0.25])), theta=theta)
    tries = draw(st.sampled_from([1, 4, 200]))
    return inst, SampleSet(cycles=cycles), params, int(rng.integers(2**32)), tries


@settings(max_examples=300, deadline=None)
@given(case=random_start_cases())
def test_screened_random_start_matches_the_unscreened_reference(case):
    # A MAX_TRIES of 1 or 4 often reaches the greedy fallback.
    inst, samples, params, seed, tries = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "MAX_TRIES", tries)
        try:
            expected = reference_random_start(inst, samples, params, seed)
        except NoFeasibleState:
            with pytest.raises(NoFeasibleState):
                random_feasible_state(inst, samples, params, seed)
            return
        state = random_feasible_state(inst, samples, params, seed)
    assert state.placement == expected
    scratch = overload_profile(inst, samples, expected, params)
    assert np.array_equal(state.profile.overload_count, scratch.overload_count)


@st.composite
def load_rows(draw):
    """(S, theta) non-negative loads and (S,) capacities, some rows all zero
    and some entries equal to their row's capacity."""
    S, theta = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    finite = st.floats(-1e300, 1e300, allow_nan=False)
    cap = np.array(draw(st.lists(finite, min_size=S, max_size=S)))
    load = np.zeros((S, theta))
    for s in range(S):
        kind = draw(st.sampled_from(["zero", "at_cap", "free"]))
        if kind == "zero":
            continue
        row = draw(st.lists(st.floats(0.0, 1e300), min_size=theta, max_size=theta))
        load[s] = np.array(row) + 0.0  # no negative zeros: loads are sums of positive cycles
        if kind == "at_cap" and cap[s] >= 0:
            load[s, draw(st.integers(0, theta - 1))] = cap[s]
    return load, cap


@settings(max_examples=300, deadline=None)
@given(case=load_rows())
@example(case=(np.zeros((2, 3)), np.array([0.0, 5.0])))
@example(case=(np.array([[1.0, 3.0], [0.1 + 0.2, 0.0]]), np.array([3.0, 0.3])))
def test_worst_excess_rank_subtracts_capacity_after_the_max(case):
    """The greedy fallback ranks servers by ``load.max(axis=1) - cap``, bit for
    bit the row maxima of ``load - cap``: rounding x - c is monotone in x."""
    load, cap = case
    assert (load.max(axis=1) - cap).tobytes() == (load - cap[:, None]).max(axis=1).tobytes()


def test_random_start_rejects_a_draw_that_overloads_past_the_head(monkeypatch):
    # Server 0 holds the component in the screened scenarios but not in the
    # one after them, where the budget is 0: a draw onto it passes the
    # screen and must still be rejected by the full count.
    monkeypatch.setattr(search, "MAX_TRIES", 40)
    inst = build_instance(
        servers=[(0, 0, 1.0, 4.0), (10, 0, 1.0, 1e9)],
        devices=[(5, 0, [(3.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    theta = search.SCREEN_SCENARIOS + 1
    cycles = np.full((1, theta), 3.0)
    cycles[0, -1] = 5.0
    samples = SampleSet(cycles=cycles)
    params = SaaParams(alpha=0.01, epsilon=0.01, theta=theta)
    assert stream(0, "search").integers(0, 2, size=1)[0] == 0  # passes the screen only
    state = random_feasible_state(inst, samples, params, 0)
    assert state.placement.servers == (1,)
    assert state.placement == reference_random_start(inst, samples, params, 0)


def test_every_visited_state_is_feasible():
    inst, params, samples = seeded_setup(70, servers=3, devices=3, comp=(1, 3))
    from dtplace import allowed_overloads, is_feasible

    start = random_feasible_state(inst, samples, params, 5)
    visited = []
    hill_climb(inst, samples, params, start, on_visit=visited.append)
    budget = allowed_overloads(params)
    for state in visited:
        assert (state.profile.overload_count <= budget).all()
        assert is_feasible(state.profile, params)


def reference_tables(ws):
    """Per-term move tables by the one-component-at-a-time formula, from
    ws's state."""
    inst = ws.inst
    K, S = inst.total_components, inst.num_servers
    r = inst.unit_transport_cost
    e = inst.dist_server_device
    l_ss = inst.dist_server_server
    m = inst.cost_rates
    cyc = ws.samples.cycles
    out = {name: np.empty((K, S)) for name in ("offload", "communication", "dist_off", "dist_com")}
    counts = np.empty((K, S), dtype=np.int64)
    feasible = np.empty((K, S), dtype=bool)
    cost, feat = ws.state.eval, ws.state.features
    for k in range(K):
        a = int(ws.assignment[k])
        e_col = e[:, inst.component_device[k]]
        out["offload"][k] = cost.offload + r * inst.component_offload_kb[k] * (e_col - e_col[a])
        out["dist_off"][k] = feat.dist_off + (e_col - e_col[a])
        d, c = int(inst.component_device[k]), int(inst.component_local_index[k])
        row = inst.devices[d].components[c].exchange_kb
        others = [j for j in range(len(row)) if j != c]
        if others:
            l_cols = l_ss[:, ws.assignment[[inst.flat_index(d, j) for j in others]]]
            pair_cost = l_cols @ np.array([row[j] for j in others])
            pair_dist = l_cols.sum(axis=1)
            out["communication"][k] = cost.communication + 2.0 * r * (pair_cost - pair_cost[a])
            out["dist_com"][k] = feat.dist_com + 2.0 * (pair_dist - pair_dist[a])
        else:
            out["communication"][k] = cost.communication
            out["dist_com"][k] = feat.dist_com
        cand = ws.load + m[:, None] * cyc[k][None, :]
        counts[k] = (cand > inst.capacities[:, None]).sum(axis=1)
        feasible[k] = counts[k] <= ws.allowed
        feasible[k, a] = False
    return out, counts, feasible


def check_workspace(inst, samples, params, assignment, moves):
    """Apply ``moves`` to a workspace and compare it with scratch after each one."""
    ws = workspace(inst, samples, params, assignment)
    K, S = inst.total_components, inst.num_servers
    for step in range(len(moves) + 1):
        if step:
            assert ws.apply(*moves[step - 1]) is ws.state
        scratch = make_state(inst, samples, params, Placement(tuple(int(s) for s in ws.assignment)))
        assert ws.state.placement == scratch.placement
        assert ws.state.eval == scratch.eval
        assert ws.state.features == scratch.features
        assert np.array_equal(ws.state.profile.overload_count, scratch.profile.overload_count)
        load = load_matrix(inst, samples, ws.assignment)
        assert np.array_equal(ws.load, load)
        scratch_cand = np.stack(
            [
                ((load + inst.cost_rates[:, None] * samples.cycles[k]) > inst.capacities[:, None]).sum(axis=1)
                for k in range(K)
            ]
        )
        counts = candidate_counts(ws)
        assert np.array_equal(counts, scratch_cand)

        values, predicted = ws.move_values(None), ws.move_values(MODEL)
        feasible = feasible_table(ws)
        ref, ref_counts, ref_feasible = reference_tables(ws)
        assert np.array_equal(predicted, MODEL.predict_pair(ref["dist_off"], ref["dist_com"]))
        # Sibling exchange sums run in another order than the reference's
        # matvec, so only the last bits may differ.
        ref_cost = ref["offload"] + ref["communication"]
        scale = max(1.0, abs(ws.state.eval.total), float(np.abs(ref_cost).max()))
        np.testing.assert_allclose(values, ref_cost, rtol=0, atol=1e-12 * scale)
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(feasible, ref_feasible)

        budget = allowed_overloads(params)
        for k in range(K):
            for s in range(S):
                if s == ws.assignment[k]:
                    # Not a move; the table marks it infeasible (checked above).
                    continue
                servers = list(int(v) for v in ws.assignment)
                servers[k] = s
                pl = Placement(tuple(servers))
                cost, feat = evaluate(inst, pl), features(inst, pl)
                profile = overload_profile(inst, samples, pl, params)
                assert ws.candidate_count(k, s) == profile.overload_count[s]
                assert feasible[k, s] == (profile.overload_count[s] <= budget)
                if not feasible[k, s]:
                    continue
                assert values[k, s] == pytest.approx(cost.total, rel=1e-9, abs=1e-9)
                assert predicted[k, s] == pytest.approx(
                    MODEL.predict_pair(feat.dist_off, feat.dist_com), rel=1e-9, abs=1e-9
                )


def random_instance(rng, num_servers, sizes, integral, twins=False):
    """Instance with the given device sizes; ``integral`` draws small whole
    numbers for rates, capacities and cycles so loads often equal capacity.
    With ``twins`` every device appears twice, at one position with the same
    components, so moves of co-located twins tie on every value."""
    servers = []
    for _ in range(num_servers):
        x, y = rng.uniform(0, 100, size=2)
        if integral:
            servers.append((x, y, float(rng.integers(1, 3)), float(rng.integers(0, 12))))
        else:
            servers.append((x, y, rng.uniform(1, 10), rng.uniform(5, 60)))
    devices = []
    for n in sizes:
        g = np.zeros((n, n))
        upper = np.triu_indices(n, 1)
        g[upper] = rng.uniform(50, 250, size=len(upper[0]))
        g += g.T
        comps = [(rng.uniform(1, 5), rng.uniform(100, 500), tuple(g[c])) for c in range(n)]
        x, y = rng.uniform(0, 100, size=2)
        devices.extend([(x, y, comps)] * (2 if twins else 1))
    return build_instance(servers=servers, devices=devices, unit_cost=rng.uniform(0.1, 1.0))


def random_samples(rng, inst, theta, integral):
    K = inst.total_components
    if integral:
        return SampleSet(cycles=rng.integers(1, 6, size=(K, theta)).astype(np.float64))
    means = inst.component_mean_cycles[:, None]
    return SampleSet(cycles=means * rng.uniform(0.5, 1.5, size=(K, theta)))


@st.composite
def workspace_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    num_servers = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    theta = draw(st.integers(1, 40))
    integral = draw(st.booleans())
    epsilon = draw(st.sampled_from([0.05, 0.25, 0.5]))
    K = sum(sizes)
    moves = draw(
        st.lists(st.tuples(st.integers(0, K - 1), st.integers(0, num_servers - 1)), max_size=6)
    )
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_servers, sizes, integral)
    samples = random_samples(rng, inst, theta, integral)
    params = SaaParams(alpha=0.9, epsilon=epsilon, theta=theta)
    assignment = rng.integers(0, num_servers, size=K)
    return inst, samples, params, assignment, moves


def climb_case(seed, num_servers, sizes, theta, integral, epsilon, twins=False):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_servers, sizes, integral, twins)
    samples = random_samples(rng, inst, theta, integral)
    return inst, samples, SaaParams(alpha=0.9, epsilon=epsilon, theta=theta), seed


@st.composite
def climb_cases(draw, twins=st.just(False)):
    return climb_case(
        seed=draw(st.integers(0, 2**32 - 1)),
        num_servers=draw(st.integers(1, 4)),
        sizes=draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)),
        theta=draw(st.integers(1, 30)),
        integral=draw(st.booleans()),
        epsilon=draw(st.sampled_from([0.05, 0.25, 0.5])),
        twins=draw(twins),
    )


@settings(max_examples=100, deadline=None)
@given(case=climb_cases())
# A draw whose dist_com spread is rounding noise (sd 4.6e-14 on a mean of
# 463.7): standardised by that spread, the fitted model's prediction swung by
# thousands on ulps of dist_com and the prediction descent stopped early.
@example(case=climb_case(218, 3, [3], 8, False, 0.25))
def test_hill_climb_matches_reference_climb_step_for_step(case):
    inst, samples, params, seed = case
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("dtplace.search.MAX_TRIES", 50)
            start = random_feasible_state(inst, samples, params, seed)
    except NoFeasibleState:
        assume(False)
    visited = []
    hill_climb(inst, samples, params, start, on_visit=visited.append)
    reference = reference_climb(inst, samples, params, start)
    assert [s.placement.servers for s in visited] == [s.placement.servers for s in reference]
    assert [s.features for s in visited] == [s.features for s in reference]
    assert_stopped_by_scan(inst, samples, params, visited[-1])

    # The prediction descent, on a model of cost fitted to the states the
    # cost climb visited. Each state is its own target: a model fitted on
    # the one trajectory's shared endpoint would be flat and never move.
    # Moves with equal features can predict a few ulps apart from scratch
    # but equal when screened, so ties are judged to a relative 1e-9: each
    # step takes one of the scan's best moves, and the climb stops where no
    # move improves.
    model = fit_value_model([Trajectory((s.features,), s.eval.total) for s in visited])
    visited = []
    hill_climb(inst, samples, params, start, objective=model, on_visit=visited.append)
    assert visited[0] is start
    for state, step in zip(visited, visited[1:]):
        _, moves = scan_best(inst, samples, params, state, model, rel=1e-9)
        assert step.placement in [move.placement for move in moves]
        assert value(step, model) < value(state, model)
    low, _ = scan_best(inst, samples, params, visited[-1], model)
    assert low >= value(visited[-1], model) - 1e-9 * max(1.0, abs(low))
    assert_stopped_by_scan(inst, samples, params, visited[-1], model)


def assert_walk_takes_masked_argmin(inst, samples, params, visited, model=None):
    """Each step of a climb took the move a masked argmin picks: the first in
    (k, s) order of the smallest screened value among the moves feasible from
    scratch. The climb stopped where that value does not improve."""
    S = inst.num_servers
    for state, step in zip(visited, visited[1:] + [None]):
        screened = _Workspace(inst, samples, params, state).move_values(model)
        feasible = np.zeros(screened.shape, dtype=bool)
        for k, s, _, ok in scratch_moves(inst, samples, params, state.placement):
            feasible[k, s] = ok
        masked = np.where(feasible, screened, np.inf)
        flat = int(np.argmin(masked))
        if step is None:
            assert not masked.flat[flat] < value(state, model)
            return
        assert masked.flat[flat] < value(state, model)
        k, s = divmod(flat, S)
        servers = list(state.placement.servers)
        servers[k] = s
        assert step.placement.servers == tuple(servers)


@settings(max_examples=100, deadline=None)
@given(case=climb_cases(twins=st.booleans()))
def test_climb_steps_equal_masked_argmin_over_scratch_feasibility(case):
    # Twin devices make screened ties whose first move in scan order can be
    # infeasible, so the climb must pass over it to the tied twin.
    inst, samples, params, seed = case
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("dtplace.search.MAX_TRIES", 50)
            start = random_feasible_state(inst, samples, params, seed)
    except NoFeasibleState:
        assume(False)
    visited = []
    hill_climb(inst, samples, params, start, on_visit=visited.append)
    assert_walk_takes_masked_argmin(inst, samples, params, visited)
    model = fit_value_model([Trajectory((s.features,), s.eval.total) for s in visited])
    visited = []
    hill_climb(inst, samples, params, start, objective=model, on_visit=visited.append)
    assert_walk_takes_masked_argmin(inst, samples, params, visited, model)


def overload_walk_case(capacities):
    """One component on far server 0; servers 1, 2 and 3 are 1, 10 and 200
    away from its device, with the given capacities. The component alone
    (5 cycles at rate 1 in every scenario) overloads a server of capacity 4
    in all 10 scenarios, over the budget of 1."""
    inst = build_instance(
        servers=[(100, 0, 1.0, 1e9)] + [(5 + d, 0, 1.0, cap) for d, cap in zip((1, 10, 200), capacities)],
        devices=[(5, 0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5.0], theta=10)
    return inst, samples, params, make_state(inst, samples, params, Placement(servers=(0,)))


def test_climb_passes_an_overloading_best_move_for_the_next_best():
    inst, samples, params, start = overload_walk_case([4.0, 1e9, 1e9])
    ws = _Workspace(inst, samples, params, start)
    assert ws.candidate_count(0, 1) == 10 and ws.candidate_count(0, 2) == 0
    visited = []
    _, _, stats = hill_climb(inst, samples, params, start, on_visit=visited.append)
    reference = reference_climb(inst, samples, params, start)
    assert [s.placement.servers for s in visited] == [s.placement.servers for s in reference] == [(0,), (2,)]
    assert stats.states_visited == 2


def test_climb_takes_the_feasible_move_of_a_screened_tie():
    # Twin devices on far server 0; moving either component to server 1
    # screens to the same cost. Component 0 (5 cycles) overloads server 1 and
    # component 1 (3 cycles) fits, so the climb takes (1, 1), not (0, 1).
    inst = build_instance(
        servers=[(100, 0, 1.0, 1e9), (6, 0, 1.0, 4.0)],
        devices=[(5, 0, [(5.0, 200.0, (0.0,))]), (5, 0, [(3.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [5.0, 3.0], theta=10)
    start = make_state(inst, samples, params, Placement(servers=(0, 0)))
    ws = _Workspace(inst, samples, params, start)
    cost = ws.move_values(None)
    assert cost[0, 1] == cost[1, 1] < start.eval.total
    visited = []
    hill_climb(inst, samples, params, start, on_visit=visited.append)
    assert [s.placement.servers for s in visited] == [(0, 0), (0, 1)]
    assert_walk_takes_masked_argmin(inst, samples, params, visited)


def test_climb_stops_at_start_when_every_improving_move_overloads():
    # Servers 1 and 2 would improve but overload; server 3 fits but is worse.
    inst, samples, params, start = overload_walk_case([4.0, 4.0, 1e9])
    assert [(k, s) for k, s, _, ok in scratch_moves(inst, samples, params, start.placement) if ok] == [(0, 3)]
    endpoint, traj, stats = hill_climb(inst, samples, params, start)
    assert endpoint is start
    assert stats.states_visited == len(traj.points) == 1


@settings(max_examples=100, deadline=None)
@given(case=workspace_cases())
def test_workspace_matches_scratch_after_random_moves(case):
    check_workspace(*case)


def broadcast_move_values(ws, objective):
    """The (K, S) move table by the plain broadcast formulas, rebuilding
    every weight array from the instance, as the workspace's precomputed
    tables must reproduce bit for bit."""
    inst = ws.inst
    a = ws.assignment
    rows = np.arange(inst.total_components)
    e_rows = inst.dist_server_device[:, inst.component_device].T
    shift = e_rows - e_rows[rows, a][:, None]
    l_sib = inst.dist_server_server.T[a[inst.sibling_index]]
    if objective is None:
        r, cost = inst.unit_transport_cost, ws.state.eval
        pair_cost = (l_sib * inst.sibling_exchange_kb[:, :, None]).sum(axis=1)
        off_new = cost.offload + (r * inst.component_offload_kb)[:, None] * shift
        com_new = cost.communication + 2.0 * r * (pair_cost - pair_cost[rows, a][:, None])
        return off_new + com_new
    feat = ws.state.features
    sib_on = (inst.sibling_index != rows[:, None]).astype(np.float64)
    pair_dist = (l_sib * sib_on[:, :, None]).sum(axis=1)
    f2_new = feat.dist_com + 2.0 * (pair_dist - pair_dist[rows, a][:, None])
    return objective.predict_pair(feat.dist_off + shift, f2_new)


@st.composite
def bitwise_cases(draw):
    """Devices of up to 4 components (sibling width 3) and theta 1 or 2:
    theta = 1 is server_load's accumulating path."""
    seed = draw(st.integers(0, 2**32 - 1))
    num_servers = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    theta = draw(st.sampled_from([1, 2]))
    integral = draw(st.booleans())
    K = sum(sizes)
    moves = draw(
        st.lists(st.tuples(st.integers(0, K - 1), st.integers(0, num_servers - 1)), max_size=8)
    )
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_servers, sizes, integral)
    samples = random_samples(rng, inst, theta, integral)
    params = SaaParams(alpha=0.9, epsilon=0.5, theta=theta)
    return inst, samples, params, rng.integers(0, num_servers, size=K), moves


@settings(max_examples=200, deadline=None)
@given(case=bitwise_cases())
def test_workspace_tables_and_states_are_bitwise_the_scratch_ones(case):
    inst, samples, params, assignment, moves = case
    ws = workspace(inst, samples, params, assignment)
    for step in range(len(moves) + 1):
        if step:
            ws.apply(*moves[step - 1])
        for objective in (None, MODEL):
            assert np.array_equal(ws.move_values(objective), broadcast_move_values(ws, objective))
        pl = ws.state.placement
        assert pl.servers == tuple(ws.assignment.tolist())
        cost, feat = evaluate(inst, pl), features(inst, pl)
        for got, want in (
            (ws.state.eval.offload, cost.offload),
            (ws.state.eval.communication, cost.communication),
            (ws.state.eval.total, cost.total),
            (ws.state.features.dist_off, feat.dist_off),
            (ws.state.features.dist_com, feat.dist_com),
        ):
            assert got.hex() == want.hex()
        profile = overload_profile(inst, samples, pl, params)
        assert np.array_equal(ws.state.profile.overload_count, profile.overload_count)
        assert ws.state.profile.theta == profile.theta


@pytest.mark.parametrize(
    "num_servers, sizes, theta",
    [
        (1, (2, 1, 3), 30),
        (3, (1, 2, 3), 30),
        (3, (1, 1, 1, 1), 30),
        (3, (3, 2, 3, 1, 2, 3), 1850),
    ],
    ids=["one-server", "mixed-sizes", "all-singletons", "several-blocks"],
)
def test_workspace_edge_cases_match_scratch(num_servers, sizes, theta):
    rng = np.random.default_rng(len(sizes) * 100 + num_servers)
    inst = random_instance(rng, num_servers, sizes, integral=False)
    samples = random_samples(rng, inst, theta, integral=False)
    params = SaaParams(alpha=0.5, epsilon=0.25, theta=theta)
    K = inst.total_components
    assignment = rng.integers(0, num_servers, size=K)
    moves = [(int(rng.integers(0, K)), int(rng.integers(0, num_servers))) for _ in range(4)]
    check_workspace(inst, samples, params, assignment, moves)


def test_candidate_count_at_exact_capacity():
    # Server 0 hosts component 0 (2 cycles); adding component 1 (3 cycles)
    # brings its load to exactly its capacity, which is not an overload.
    inst = build_instance(
        servers=[(0, 0, 1.0, 5.0), (10, 0, 1.0, 4.5)],
        devices=[(5, 0, [(2.0, 200.0, (0.0, 80.0)), (3.0, 100.0, (80.0, 0.0))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    samples = constant_samples(inst, [2.0, 3.0], theta=10)
    ws = workspace(inst, samples, params, [0, 1])
    assert ws.candidate_count(1, 0) == 0
    assert ws.candidate_count(0, 1) == 10
    feasible = feasible_table(ws)
    assert feasible[1, 0] and not feasible[0, 1]
    check_workspace(inst, samples, params, [0, 1], [(1, 0), (0, 1), (1, 1)])


@pytest.mark.parametrize(
    "one_ulp_below, overloads", [(False, 0), (True, 1)], ids=["at-bound", "one-ulp-above"]
)
def test_count_screen_boundary(one_ulp_below, overloads):
    # Component 1 joining server 0 meets server 0's load in scenario 1, where
    # both peak. With capacity equal to the peak sum
    # fl(rate * max(cyc[1])) + max(load[0]), that scenario sums to exactly
    # capacity, so the count is 0. With capacity one ulp below it,
    # scenario 1 overloads.
    rate = 3.3
    cyc = np.array([[0.7, 1.9, 1.3], [0.4, 2.1, 1.1]])
    bound = rate * 2.1 + rate * 1.9
    cap = float(np.nextafter(bound, -np.inf)) if one_ulp_below else bound
    inst = build_instance(
        servers=[(0, 0, rate, cap), (10, 0, 1.0, 1e9)],
        devices=[(5, 0, [(1.5, 200.0, (0.0, 80.0)), (1.2, 100.0, (80.0, 0.0))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.5, epsilon=0.4, theta=3)
    samples = SampleSet(cycles=cyc)
    ws = workspace(inst, samples, params, [0, 1])
    assert ws.candidate_count(1, 0) == overloads
    check_workspace(inst, samples, params, [0, 1], [(1, 0), (1, 1), (0, 1)])


def test_climb_stops_where_a_count_rounds_under_capacity():
    # From (0, 1) the cheaper move puts component 1 on server 0. Its
    # candidate count sums fl(r*b) + fl(r*a), exactly capacity, so the climb
    # tries it; the from-scratch count of (0, 0) is 1, over the budget of 0,
    # so the climb ends at its start.
    inst, samples, params = rounding_boundary_case()
    start = make_state(inst, samples, params, Placement(servers=(0, 1)))
    assert _Workspace(inst, samples, params, start).candidate_count(1, 0) == 0
    both = overload_profile(inst, samples, Placement(servers=(0, 0)), params)
    assert both.overload_count.tolist() == [1, 0]
    endpoint, traj, stats = hill_climb(inst, samples, params, start)
    assert endpoint is start
    assert stats.states_visited == len(traj.points) == 1


@pytest.mark.parametrize(
    "run",
    [
        lambda inst, samples, params: stage_search(inst, samples, params, StageConfig(), 1).best_state,
        lambda inst, samples, params: baseline_restart_hillclimb(inst, samples, params, 3, 1).best_state,
    ],
    ids=["stage", "restart"],
)
def test_entry_points_stay_within_budget_at_a_rounding_boundary(run):
    inst, samples, params = rounding_boundary_case()
    state = run(inst, samples, params)
    assert is_feasible(state.profile, params)
    assert is_feasible(overload_profile(inst, samples, state.placement, params), params)


@pytest.mark.parametrize(
    "run",
    [
        lambda inst, samples, params, start: random_feasible_state(inst, samples, params, 1),
        lambda inst, samples, params, start: hill_climb(inst, samples, params, start),
        lambda inst, samples, params, start: exact_solve(inst, samples, params),
        lambda inst, samples, params, start: stage_search(
            inst, samples, params, StageConfig(), 1
        ),
        lambda inst, samples, params, start: baseline_random_best(inst, samples, params, 2, 1),
        lambda inst, samples, params, start: baseline_restart_hillclimb(
            inst, samples, params, 2, 1
        ),
        lambda inst, samples, params, start: baseline_nearest(inst, samples, params),
    ],
    ids=["random-start", "hill-climb", "oracle", "stage", "random", "restart", "nearest"],
)
def test_entry_points_refuse_samples_of_another_theta(run):
    inst, params, samples = seeded_setup(3, theta=60)
    start = random_feasible_state(inst, samples, params, 2)
    other = SaaParams(alpha=params.alpha, epsilon=params.epsilon, theta=120)
    with pytest.raises(ConfigurationError, match="60 scenarios"):
        run(inst, samples, other, start)
