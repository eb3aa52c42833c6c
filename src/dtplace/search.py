"""Feasibility-preserving local search over single-component reassignments.

A search state is a complete placement plus its cost, features, and
overload profile. The neighborhood of a state is every placement reachable
by moving exactly one component to a different server, restricted to moves
that keep every server inside its overload budget. Hillclimbing is steepest
descent with a deterministic lexicographic tie-break, so a climb is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .costs import CostBreakdown, FeatureVector, Placement, evaluate, features, measure
from .domain import Instance
from .errors import NoFeasibleState
from .saa import (
    OverloadProfile,
    SaaParams,
    SampleSet,
    allowed_overloads,
    check_theta,
    is_feasible,
    load_matrix,
    overload_profile,
    server_load,
)
from .seeding import stream

if TYPE_CHECKING:
    from .stage import QuadraticModel

MAX_TRIES = 10000  # uniform draws before the random start falls back to the greedy
SCREEN_SCENARIOS = 64  # leading scenarios every random-start draw is first counted on
PHASE2_STEP_CAP = 500  # safety cap on a prediction descent's accepted moves


@dataclass(frozen=True, eq=False)
class SearchState:
    """A placement together with caches consistent with it."""

    placement: Placement
    eval: CostBreakdown
    features: FeatureVector
    profile: OverloadProfile


@dataclass(frozen=True)
class Trajectory:
    """Feature points of every visited state, tagged with the endpoint cost."""

    points: tuple[FeatureVector, ...]
    endpoint_value: float


@dataclass(frozen=True)
class SearchStats:
    states_visited: int
    neighbors_evaluated: int


@dataclass(frozen=True)
class RunSummary:
    """What every placement algorithm reports: its best state and the search
    effort behind it. The per-iteration fields and ``final_state`` are the
    learned-restart search's; the baselines and the oracle leave them empty."""

    best_state: SearchState  # lowest-cost state visited
    total_states_visited: int
    iterations: int
    converged: bool = False
    per_iteration_optima: tuple[float, ...] = ()
    per_iteration_lengths: tuple[int, ...] = ()  # states visited per cost descent
    final_state: SearchState | None = None  # endpoint of the last cost descent


def make_state(inst: Instance, samples: SampleSet, params: SaaParams, pl: Placement) -> SearchState:
    """Build a state with all caches computed from scratch."""
    return SearchState(
        placement=pl,
        eval=evaluate(inst, pl),
        features=features(inst, pl),
        profile=overload_profile(inst, samples, pl, params),
    )


class _Workspace:
    """Mutable support structure for one climb, holding its current state.

    :meth:`move_values` builds the one (K, S) value table a step reads.
    Candidate overload counts are not cached: :meth:`candidate_count` scans
    one move's scenarios when the climb asks whether it is feasible.
    """

    def __init__(self, inst: Instance, samples: SampleSet, params: SaaParams, start: SearchState):
        self.inst = inst
        self.samples = samples
        self.state = start
        self.assignment = start.placement.array()
        self.allowed = allowed_overloads(params)
        self.load = load_matrix(inst, samples, self.assignment)
        self.counts = start.profile.overload_count.copy()
        self.rows = np.arange(inst.total_components)
        # Constants of every move table, built once per climb. Sibling data is
        # laid out (W, K, ...): a sibling sum adds W contiguous (K, S) slices
        # one at a time, in slot order.
        r = inst.unit_transport_cost
        self.e_rows = inst.dist_server_device.T[inst.component_device]
        self.l_rows = np.ascontiguousarray(inst.dist_server_server.T)
        self.sib_cols = np.ascontiguousarray(inst.sibling_index.T)
        self.off_weight = (r * inst.component_offload_kb)[:, None]
        self.exchange = np.ascontiguousarray(inst.sibling_exchange_kb.T)[:, :, None]
        self.two_r = 2.0 * r
        # Padded sibling slots point at k itself; they weigh 0 in both sums.
        self.sib_on = (self.sib_cols != self.rows).astype(np.float64)[:, :, None]

    def candidate_count(self, k: int, s: int) -> int:
        """The overload count server s would have if it also hosted component k:
        one scan of ``rate * cycles + load`` over the scenarios."""
        cand = self.inst.cost_rates[s] * self.samples.cycles[k]
        cand += self.load[s]
        return int(np.count_nonzero(cand > self.inst.capacities[s]))

    def apply(self, k: int, target: int) -> SearchState:
        """Move component k to ``target``; the new current state is evaluated
        from scratch and returned."""
        inst = self.inst
        source = int(self.assignment[k])
        self.assignment[k] = target
        for s in (source, target):
            load = server_load(inst, self.samples, self.assignment == s, s)
            self.load[s] = load
            self.counts[s] = np.count_nonzero(load > inst.capacities[s])
        pl = Placement(tuple(self.assignment.tolist()))
        cost, feat = measure(inst, self.assignment)
        self.state = SearchState(
            placement=pl,
            eval=cost,
            features=feat,
            profile=OverloadProfile(self.counts.copy(), self.samples.theta),
        )
        return self.state

    def move_values(self, objective: QuadraticModel | None) -> np.ndarray:
        """(K, S) value of every one-component move, broadcast from the
        current state: the placement cost, or, given a value model, its
        prediction from the moved distance features. Each term is built in
        place with the operations, in the order, of the plain (K, S)
        broadcast, so every value is that broadcast's float."""
        a = self.assignment
        shift = self.e_rows - self._at_current(self.e_rows)
        # (W, K, S): distance from every server to each sibling's server.
        l_sib = self.l_rows.take(a[self.sib_cols], axis=0)
        if objective is None:
            cost = self.state.eval
            l_sib *= self.exchange
            com = np.add.reduce(l_sib)
            com -= self._at_current(com)
            com *= self.two_r
            com += cost.communication
            shift *= self.off_weight
            shift += cost.offload
            shift += com
            return shift
        feat = self.state.features
        l_sib *= self.sib_on
        f2 = np.add.reduce(l_sib)
        f2 -= self._at_current(f2)
        f2 *= 2.0
        f2 += feat.dist_com
        shift += feat.dist_off
        return objective.predict_pair(shift, f2)

    def _at_current(self, table: np.ndarray) -> np.ndarray:
        """(K, 1) entries of a (K, S) table at each component's current server."""
        return table[self.rows, self.assignment][:, None]


def hill_climb(
    inst: Instance,
    samples: SampleSet,
    params: SaaParams,
    start: SearchState,
    objective: QuadraticModel | None = None,
    on_visit: Callable[[SearchState], None] | None = None,
) -> tuple[SearchState, Trajectory, SearchStats]:
    """Steepest descent from a feasible start.

    Descends on the placement cost, or, when ``objective`` is a value model,
    on its prediction ``objective.predict_pair(dist_off, dist_com)``. Each
    step moves to the feasible neighbor with the strictly smallest value,
    first-in-scan-order on ties, and stops when no neighbor strictly improves
    (a prediction descent also after ``PHASE2_STEP_CAP`` accepted moves; a
    cost descent has no cap). The start's caches are trusted as given; every
    accepted state is evaluated from scratch, and the climb stops at the
    previous state when that state does not improve the value or has its
    target server over budget (the candidate count's sum can round across
    capacity where the from-scratch sum does not). The trajectory
    records the features of every visited state; its endpoint value is the
    placement cost of the final state regardless of the objective used.
    """

    def value(state):
        if objective is None:
            return state.eval.total
        return float(objective.predict_pair(state.features.dist_off, state.features.dist_com))

    check_theta(samples, params)
    if not is_feasible(start.profile, params):
        raise ValueError("hill_climb requires a feasible start state")
    K, S = inst.total_components, inst.num_servers
    ws = _Workspace(inst, samples, params, start)
    state = start
    current = value(state)
    points = [state.features]
    if on_visit is not None:
        on_visit(state)
    neighbors_evaluated = 0
    while objective is None or len(points) - 1 < PHASE2_STEP_CAP:  # points: start + moves
        cand = ws.move_values(objective)
        neighbors_evaluated += K * (S - 1)
        cand[ws.rows, ws.assignment] = np.inf
        # Feasibility is counted in value order, so only the moves up to the
        # first feasible one are counted; the pick is the first-in-scan-order
        # minimum over the feasible moves, as a masked argmin would give.
        while True:
            k, s = divmod(int(np.argmin(cand)), S)
            if not cand[k, s] < current or ws.candidate_count(k, s) <= ws.allowed:
                break
            cand[k, s] = np.inf
        if not cand[k, s] < current:
            break
        accepted = ws.apply(k, s)
        accepted_value = value(accepted)
        if not accepted_value < current or accepted.profile.overload_count[s] > ws.allowed:
            # The broadcast value or count disagrees with the from-scratch
            # state; stop rather than cycle or leave the budget. With
            # positive cycles the source server's count cannot rise.
            break
        state = accepted
        current = accepted_value
        points.append(state.features)
        if on_visit is not None:
            on_visit(state)
    traj = Trajectory(points=tuple(points), endpoint_value=state.eval.total)
    stats = SearchStats(states_visited=len(points), neighbors_evaluated=neighbors_evaluated)
    return state, traj, stats


def random_feasible_state(
    inst: Instance,
    samples: SampleSet,
    params: SaaParams,
    seed: int,
) -> SearchState:
    """Uniform rejection sampling of a feasible placement, greedy fallback.

    Draws components-to-servers uniformly and keeps the first draw whose
    overload counts all stay within budget. Each draw is screened on the
    first ``SCREEN_SCENARIOS`` scenarios, one :func:`saa.load_matrix` call,
    and rejected when a server already exceeds the budget there: a scenario's
    load is the same float at any sample width, so the screen's count is a
    lower bound on the full one. A draw that passes is counted over every
    scenario by :func:`make_state`. After ``MAX_TRIES`` rejections, runs the
    shared first-fit greedy (:func:`_greedy_fill`) with components in random
    order and servers ranked by their current worst excess; raises
    :class:`NoFeasibleState` when that also fails.
    """
    check_theta(samples, params)
    rng = stream(seed, "search")
    K, S = inst.total_components, inst.num_servers
    budget = allowed_overloads(params)
    cap = inst.capacities
    head = SampleSet(np.ascontiguousarray(samples.cycles[:, :SCREEN_SCENARIOS]))
    for _ in range(MAX_TRIES):
        assignment = rng.integers(0, S, size=K)
        counts = (load_matrix(inst, head, assignment) > cap[:, None]).sum(axis=1)
        if (counts <= budget).all():
            state = make_state(inst, samples, params, Placement(tuple(assignment.tolist())))
            if is_feasible(state.profile, params):
                return state
    return _greedy_fill(
        inst, samples, params, rng.permutation(K), lambda k, load: load.max(axis=1) - cap
    )


def _greedy_fill(
    inst: Instance,
    samples: SampleSet,
    params: SaaParams,
    order,
    rank: Callable[[int, np.ndarray], np.ndarray],
) -> SearchState:
    """First-fit greedy placement.

    Places the components in ``order``, each on the first server, in
    ascending ``rank(k, load)`` with ties by server index, that keeps its
    overload count within budget; ``load`` is the (S, theta) load of the
    components placed so far. Each candidate is counted with
    :func:`saa.server_load`, as :func:`make_state` counts the result.
    Raises :class:`NoFeasibleState` when some component fits nowhere.
    """
    check_theta(samples, params)
    budget = allowed_overloads(params)
    cap = inst.capacities
    assignment = np.full(inst.total_components, -1, dtype=np.int64)
    load = np.zeros((inst.num_servers, samples.theta))
    for k in order:
        for s in np.argsort(rank(k, load), kind="stable"):
            assignment[k] = s
            cand = server_load(inst, samples, assignment == s, s)
            if (cand > cap[s]).sum() <= budget:
                load[s] = cand
                break
        else:
            raise NoFeasibleState(
                f"no server can host component {int(k)} within the overload budget "
                f"({budget} of {samples.theta} scenarios)"
            )
    state = make_state(inst, samples, params, Placement(tuple(int(s) for s in assignment)))
    # A server left empty is not counted above; a negative capacity overloads it.
    if not (state.profile.overload_count <= budget).all():
        raise NoFeasibleState("greedy placement exceeds the overload budget")
    return state
