"""Learned-restart search: quadratic value regression over descent trajectories.

Each outer iteration runs one cost descent (phase I), then fits a quadratic
model mapping the distance features of every state visited so far to the
cost of the local optimum its trajectory reached. Descending on the model's
prediction from the current optimum (phase II) produces the next start. The
loop stops when consecutive local optima agree to within a relative bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Instance
from .errors import ConfigurationError
from .saa import SaaParams, SampleSet
from .search import RunSummary, SearchState, Trajectory, hill_climb, random_feasible_state
from .seeding import child_seed

RIDGE_DEFAULT = 1e-8

_INTERCEPT_FREE = np.diag([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """Binary quadratic value surface over standardized distance features.

    ``coefficients`` are (intercept, f1, f2, f1^2, f2^2, f1*f2) applied after
    standardizing each feature by the stored mean and deviation; a feature
    whose spread is at most 1e-12 of its mean's magnitude, so zero or
    rounding noise, gets deviation 1.
    """

    coefficients: np.ndarray  # (6,)
    feature_mean: np.ndarray  # (2,)
    feature_sd: np.ndarray  # (2,)

    def __post_init__(self):
        for arr in (self.coefficients, self.feature_mean, self.feature_sd):
            arr.setflags(write=False)

    def predict_pair(self, dist_off, dist_com):
        """Predicted value; accepts scalars or equal-shaped arrays."""
        u = (dist_off - self.feature_mean[0]) / self.feature_sd[0]
        v = (dist_com - self.feature_mean[1]) / self.feature_sd[1]
        b = self.coefficients
        return b[0] + b[1] * u + b[2] * v + b[3] * u * u + b[4] * v * v + b[5] * u * v


@dataclass(frozen=True)
class StageConfig:
    delta: float = 0.015  # relative-change convergence bound
    max_iterations: int = 10

    def __post_init__(self):
        if not self.delta > 0:
            raise ConfigurationError("delta must be positive")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")


def converged(rho_t: float, rho_prev: float, delta: float) -> bool:
    """Relative-change stopping rule on consecutive local optima.

    False while the previous value is the first-iteration infinity sentinel;
    two exact zeros count as converged.
    """
    if math.isinf(rho_t) or math.isinf(rho_prev):
        return False
    denom = abs(rho_t) + abs(rho_prev)
    if denom == 0.0:
        return True
    return abs(rho_t - rho_prev) / denom < delta


def fit_value_model(all_trajectories: list[Trajectory]) -> QuadraticModel:
    """Regularized least squares over the pooled trajectory dataset.

    Every visited state contributes (features -> its trajectory's endpoint
    cost); the ridge term ``RIDGE_DEFAULT`` penalizes all but the intercept.
    If the normal system cannot be solved even with the ridge term,
    the degenerate constant model predicting the target mean is returned.
    """
    rows = [
        (p.dist_off, p.dist_com, traj.endpoint_value)
        for traj in all_trajectories
        for p in traj.points
    ]
    if not rows:
        raise ValueError("cannot fit a value model without trajectory data")
    data = np.asarray(rows, dtype=np.float64)
    x, y = data[:, :2], data[:, 2]
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    # A spread at rounding-noise level would blow ulps of a feature up into
    # swings of the prediction.
    sd[sd <= 1e-12 * np.abs(mean)] = 1.0
    if np.ptp(y) == 0:
        # Identical targets: the penalized optimum is exactly the constant
        # surface, so skip the solve rather than pick up solver noise.
        beta = np.array([y[0], 0.0, 0.0, 0.0, 0.0, 0.0])
        return QuadraticModel(coefficients=beta, feature_mean=mean, feature_sd=sd)
    u = (x[:, 0] - mean[0]) / sd[0]
    v = (x[:, 1] - mean[1]) / sd[1]
    design = np.stack([np.ones_like(u), u, v, u * u, v * v, u * v])  # (6, n)
    # Elementwise sums along each row, not a BLAS product: OpenBLAS picks its
    # kernel, and so its rounding, by CPU, and seeded outputs must not.
    gram = (design[:, None, :] * design[None, :, :]).sum(axis=-1)
    rhs = (design * y).sum(axis=-1)
    try:
        beta = np.linalg.solve(gram + RIDGE_DEFAULT * _INTERCEPT_FREE, rhs)
        if not np.isfinite(beta).all():
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        beta = np.array([y.mean(), 0.0, 0.0, 0.0, 0.0, 0.0])
    return QuadraticModel(coefficients=beta, feature_mean=mean, feature_sd=sd)


def stage_search(
    inst: Instance,
    samples: SampleSet,
    params: SaaParams,
    cfg: StageConfig,
    seed: int,
) -> RunSummary:
    """Iterated cost descent with learned restarts.

    Starts from a random feasible state. Per iteration: descend on cost,
    record the trajectory, and unless the stopping rule fires, refit the
    value model on all trajectories so far and descend on its prediction
    from the current optimum to obtain the next start. The best state is the
    lowest-cost state visited in either phase; states visited count the
    cost descents' trajectories only.
    """
    best: SearchState | None = None

    def visit(state: SearchState) -> None:
        nonlocal best
        if best is None or state.eval.total < best.eval.total:
            best = state

    start = random_feasible_state(inst, samples, params, seed)
    trajectories: list[Trajectory] = []
    optima: list[float] = []
    lengths: list[int] = []
    rho_prev = math.inf
    did_converge = False
    final = start
    for t in range(1, cfg.max_iterations + 1):
        endpoint, traj, stats = hill_climb(inst, samples, params, start, on_visit=visit)
        trajectories.append(traj)
        optima.append(endpoint.eval.total)
        lengths.append(stats.states_visited)
        final = endpoint
        if converged(endpoint.eval.total, rho_prev, cfg.delta):
            did_converge = True
            break
        if t == cfg.max_iterations:
            break
        model = fit_value_model(trajectories)
        # Phase II: the prediction descent, capped at search.PHASE2_STEP_CAP moves.
        predicted_start = hill_climb(inst, samples, params, endpoint, model, on_visit=visit)[0]
        exogenous_restart = False
        if predicted_start.placement.servers == endpoint.placement.servers:
            # The prediction descent stalled (e.g. a flat model such as the
            # one fitted on a single trajectory): fall back to a random
            # feasible probe, refined by the same prediction descent.
            probe = random_feasible_state(
                inst, samples, params, child_seed(seed, f"stall-restart/{t}")
            )
            predicted_start = hill_climb(inst, samples, params, probe, model, on_visit=visit)[0]
            exogenous_restart = (
                predicted_start.placement.servers != endpoint.placement.servers
            )
        start = predicted_start
        # A random restart breaks the chain of consecutive optima that the
        # stopping rule measures; the comparator returns to the sentinel.
        rho_prev = math.inf if exogenous_restart else endpoint.eval.total
    assert best is not None
    return RunSummary(
        best_state=best,
        total_states_visited=sum(lengths),
        iterations=len(optima),
        converged=did_converge,
        per_iteration_optima=tuple(optima),
        per_iteration_lengths=tuple(lengths),
        final_state=final,
    )
