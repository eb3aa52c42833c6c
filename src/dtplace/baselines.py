"""Comparison strategies sharing the instance, samples, and feasibility rules."""

from __future__ import annotations

from .domain import Instance
from .errors import ConfigurationError
from .saa import SaaParams, SampleSet
from .search import RunSummary, SearchState, _greedy_fill, hill_climb, random_feasible_state
from .seeding import child_seed


def _trial_seed(seed: int, trial: int) -> int:
    return child_seed(seed, f"trial/{trial}")


def _starts(
    inst: Instance, samples: SampleSet, params: SaaParams, trials: int, seed: int
) -> list[SearchState]:
    """The ``trials`` random feasible starts both sampling baselines share."""
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    return [
        random_feasible_state(inst, samples, params, _trial_seed(seed, i)) for i in range(trials)
    ]


def baseline_random_best(
    inst: Instance, samples: SampleSet, params: SaaParams, trials: int, seed: int
) -> RunSummary:
    """Best of ``trials`` independent random feasible states (the first on a tie)."""
    best = min(_starts(inst, samples, params, trials, seed), key=lambda state: state.eval.total)
    return RunSummary(best_state=best, total_states_visited=trials, iterations=trials)


def baseline_restart_hillclimb(
    inst: Instance, samples: SampleSet, params: SaaParams, trials: int, seed: int
) -> RunSummary:
    """Cost descent from each of the same ``trials`` random starts; best endpoint.

    Both baselines read :func:`_starts`, so :func:`baseline_random_best`'s
    result is one of this one's starts and can never beat it on the same seed.
    """
    endpoints, visited = [], 0
    for start in _starts(inst, samples, params, trials, seed):
        endpoint, _, stats = hill_climb(inst, samples, params, start)
        endpoints.append(endpoint)
        visited += stats.states_visited
    best = min(endpoints, key=lambda state: state.eval.total)
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
