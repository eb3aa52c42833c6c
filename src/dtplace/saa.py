"""Monte Carlo scenario sampling and empirical overload accounting.

The probabilistic capacity constraint is replaced by counting, per server,
the scenarios in which the sampled computation cost exceeds capacity. A
placement is accepted when every server's overload count stays within the
integer budget floor(epsilon * theta).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import Instance, listed, member, real, whole
from .errors import ConfigurationError
from .costs import Placement
from .seeding import stream

# Widest sample set load_matrix sums with one bincount. On a 2-core x86-64
# host with numpy 2.4.6 a bincount call costs about 3 ns per (component,
# scenario) entry and the row adds about 1 us per component plus 0.5 ns per
# entry, so the two cross near 512 scenarios for 16 to 405 components.
BINCOUNT_THETA = 512


@dataclass(frozen=True)
class SaaParams:
    """Risk factors and sample count; the defaults are the reference setup.

    alpha: acceptable overload probability of the original problem.
    epsilon: stricter empirical budget applied to the sampled problem.
    theta: number of Monte Carlo scenarios.
    """

    alpha: float = 0.01
    epsilon: float = 0.005
    theta: int = 1850

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ConfigurationError(f"need 0 < alpha < 1, got alpha={self.alpha}")
        if not 0 < self.epsilon <= self.alpha:
            raise ConfigurationError(
                f"need 0 < epsilon <= alpha, got epsilon={self.epsilon}, alpha={self.alpha}"
            )
        if self.theta < 1:
            raise ConfigurationError(f"theta must be >= 1, got {self.theta}")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sampled CPU-cycle demands, shape (total_components, theta).

    Rows follow the instance's flat component order.
    """

    cycles: np.ndarray

    def __post_init__(self):
        self.cycles.setflags(write=False)

    @property
    def theta(self) -> int:
        return self.cycles.shape[1]


def samples_to_dict(samples: SampleSet, seed: int | None = None) -> dict:
    """Plain-data form of a sample set (JSON-ready), with its seed when given."""
    components, theta = samples.cycles.shape
    out = {"components": components, "theta": theta, "cycles": samples.cycles.tolist()}
    return out if seed is None else {**out, "seed": seed}


def samples_from_dict(data) -> SampleSet:
    """Inverse of :func:`samples_to_dict`: ``components`` rows of ``theta``
    finite positive cycles. Raises :class:`ConfigurationError` for every refusal."""
    shape = whole(member(data, "components")), whole(member(data, "theta"))
    rows = [[real(v) for v in listed(row)] for row in listed(member(data, "cycles"))]
    if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
        raise ConfigurationError(f"cycles are not {shape[0]} rows of {shape[1]} scenarios")
    cycles = np.array(rows, dtype=np.float64).reshape(shape)
    if not (np.isfinite(cycles) & (cycles > 0)).all():
        raise ConfigurationError("cycles must be finite and positive")
    return SampleSet(cycles=cycles)


@functools.cache
def allowed_overloads(params: SaaParams) -> int:
    """Per-server budget of overloaded scenarios: floor(epsilon * theta).

    Epsilon is read as the decimal it was written as, so the floor is exact
    where the binary product is not: 0.3 * 10 gives 3, and 0.00499999999995
    * 1000 gives 4. Computed once per ``params``.
    """
    return math.floor(Fraction(repr(float(params.epsilon))) * params.theta)


def check_theta(samples: SampleSet, params: SaaParams) -> None:
    """Refuse scenarios that are not the ``params.theta`` the overload budget
    floor(epsilon * theta) is counted over."""
    if samples.theta != params.theta:
        raise ConfigurationError(
            f"{samples.theta} scenarios given where params.theta is {params.theta}"
        )


def draw_samples(inst: Instance, params: SaaParams, seed: int) -> SampleSet:
    """Independent draws of each component's cycle demand across scenarios.

    Entries are normal around the component's mean with a 20% relative
    spread, resampled until positive. Deterministic in (inst, params, seed).
    The first draw is standard normals scaled in place, ``z * (0.2 * mean) +
    mean``: the same floats ``rng.normal(mean, 0.2 * mean, size)`` gives,
    without its temporaries.
    """
    rng = stream(seed, "samples")
    means = inst.component_mean_cycles[:, None]
    cycles = rng.standard_normal((inst.total_components, params.theta))
    cycles *= 0.2 * means
    cycles += means
    while cycles.min(initial=np.inf) <= 0:  # initial: an instance may have no components
        bad = cycles <= 0
        rows = np.nonzero(bad)[0]
        cycles[bad] = rng.normal(
            inst.component_mean_cycles[rows], 0.2 * inst.component_mean_cycles[rows]
        )
    return SampleSet(cycles=cycles)


@dataclass(frozen=True, eq=False)
class OverloadProfile:
    """Per-server overload counts over one sample set of ``theta`` scenarios."""

    overload_count: np.ndarray  # (S,) scenarios whose load strictly exceeds capacity
    theta: int

    def __post_init__(self):
        self.overload_count.setflags(write=False)

    @property
    def proportion(self) -> np.ndarray:
        """(S,) overload count / theta."""
        return self.overload_count / self.theta


def server_load(inst: Instance, samples: SampleSet, members: np.ndarray, s: int) -> np.ndarray:
    """(theta,) computation cost of server s hosting the components in the
    boolean mask ``members``, in the one order every overload count uses: the
    members' cycles added one at a time in ascending flat index (exact zeros
    for none), times the server's rate. ``sum(axis=0)`` adds rows so for
    theta >= 2, but sums one column pairwise from 8 rows on: theta = 1
    accumulates. The sum is scaled in place."""
    rows = samples.cycles[members]
    total = rows.sum(axis=0) if samples.theta > 1 else np.cumsum(np.append(0.0, rows))[-1:]
    total *= inst.cost_rates[s]
    return total


def load_matrix(inst: Instance, samples: SampleSet, assignment: np.ndarray) -> np.ndarray:
    """(S, theta) computation cost per server per scenario, bit for bit the
    :func:`server_load` rows: each server adds its members' cycles one at a
    time in ascending flat index, starting from exact zeros, then multiplies
    by its rate. Up to ``BINCOUNT_THETA`` scenarios one ``np.bincount`` over
    the flat (server, scenario) bins does the adds in that order; wider
    sample sets add one component's row at a time, which is cheaper there.
    The sums are scaled in place and returned."""
    cycles = samples.cycles
    theta = samples.theta
    if theta <= BINCOUNT_THETA:
        bins = (assignment[:, None] * theta + np.arange(theta)).ravel()
        sums = np.bincount(bins, weights=cycles.ravel(), minlength=inst.num_servers * theta)
        sums = sums.reshape(inst.num_servers, theta)
    else:
        sums = np.zeros((inst.num_servers, theta))
        for row, s in zip(cycles, assignment.tolist()):
            sums[s] += row
    sums *= inst.cost_rates[:, None]
    return sums


def overload_profile(
    inst: Instance, samples: SampleSet, pl: Placement, params: SaaParams
) -> OverloadProfile:
    """Count, per server, the scenarios whose load strictly exceeds capacity."""
    load = load_matrix(inst, samples, pl.array())
    return OverloadProfile((load > inst.capacities[:, None]).sum(axis=1), samples.theta)


def is_feasible(profile: OverloadProfile, params: SaaParams) -> bool:
    """True iff every server's overload count is within the integer budget."""
    return bool((profile.overload_count <= allowed_overloads(params)).all())


def approx_success_prob(params: SaaParams) -> float:
    """Probability that the sampled problem's feasible set is conservative.

    Grows with theta and with the alpha-epsilon gap; equals 0 when the two
    risk factors coincide.
    """
    gap = params.alpha - params.epsilon
    return 1.0 - math.exp(-params.theta * gap * gap / (2.0 * params.epsilon))
