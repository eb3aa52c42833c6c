"""Comparison strategies sharing the instance, samples, and feasibility rules."""

from __future__ import annotations

from .domain import Instance
from .errors import ConfigurationError
from .saa import SaaParams, SampleSet
from .search import RunSummary, SearchState, _greedy_fill, hill_climb, random_feasible_state
from .seeding import child_seed


def _trial_seed(seed: int, trial: int) -> int:
    return child_seed(seed, f"trial/{trial}")


def baseline_random_best(
    inst: Instance, samples: SampleSet, params: SaaParams, trials: int, seed: int
) -> RunSummary:
    """Best of ``trials`` independent random feasible states."""
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    best: SearchState | None = None
    for i in range(trials):
        state = random_feasible_state(inst, samples, params, _trial_seed(seed, i))
        if best is None or state.eval.total < best.eval.total:
            best = state
    assert best is not None
    return RunSummary(best_state=best, total_states_visited=trials, iterations=trials)


def baseline_restart_hillclimb(
    inst: Instance, samples: SampleSet, params: SaaParams, trials: int, seed: int
) -> RunSummary:
    """Cost descent from each of the same ``trials`` random starts; best endpoint.

    Start states match :func:`baseline_random_best` draw for draw, so its
    result can never beat this one on the same seed.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    best: SearchState | None = None
    visited = 0
    for i in range(trials):
        start = random_feasible_state(inst, samples, params, _trial_seed(seed, i))
        endpoint, _, stats = hill_climb(inst, samples, params, start)
        visited += stats.states_visited
        if best is None or endpoint.eval.total < best.eval.total:
            best = endpoint
    assert best is not None
    return RunSummary(best_state=best, total_states_visited=visited, iterations=trials)


def baseline_nearest(inst: Instance, samples: SampleSet, params: SaaParams) -> RunSummary:
    """Deterministic distance greedy: components go to the closest server that
    keeps every overload count within budget, spilling outward when saturated.

    Runs the shared first-fit greedy (:func:`search._greedy_fill`) with
    components in index order and servers ranked by server-device distance,
    ties by server index.
    """
    state = _greedy_fill(
        inst,
        samples,
        params,
        range(inst.total_components),
        lambda k, load: inst.dist_server_device[:, inst.component_device[k]],
    )
    return RunSummary(best_state=state, total_states_visited=1, iterations=1)
