"""Deterministic placement evaluation: offload cost, communication cost, features.

All operations are pure functions over immutable inputs. Communication runs
over the instance's sibling table (``Instance.sibling_index`` and
``sibling_exchange_kb``), so every component meets each of its siblings
once and each unordered pair contributes twice. :func:`evaluate`,
:func:`features` and :func:`measure` share one gather of the distances and
one sum per term, ``float(x.sum())`` over a (K,) or (K, W) array, so their
results agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Instance, listed, whole
from .errors import ConfigurationError


@dataclass(frozen=True)
class Placement:
    """Total map from flat component index to 0-based server index."""

    servers: tuple[int, ...]

    def array(self) -> np.ndarray:
        return np.asarray(self.servers, dtype=np.int64)


@dataclass(frozen=True)
class CostBreakdown:
    offload: float
    communication: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.offload + self.communication)


@dataclass(frozen=True)
class FeatureVector:
    """Distance aggregates used as regression features.

    dist_off: summed server-device distance over all placed components.
    dist_com: summed server-server distance over ordered sibling pairs.
    """

    dist_off: float
    dist_com: float


def _check_range(value: int, bound: int, name: str) -> None:
    if not 0 <= value < bound:
        raise ConfigurationError(f"{name} index {value} out of range [0, {bound})")


def _assignment(inst: Instance, pl: Placement) -> np.ndarray:
    a = pl.array()
    if a.shape != (inst.total_components,):
        raise ValueError(
            f"placement covers {a.shape[0]} components, instance has {inst.total_components}"
        )
    if a.size and (a.min() < 0 or a.max() >= inst.num_servers):
        raise ValueError("placement assigns a component to a nonexistent server")
    return a


def _distances(inst: Instance, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K,) server-device distance of every component and (K, W) server-server
    distance to each of its siblings; padded slots read 0."""
    return (
        inst.dist_server_device[a, inst.component_device],
        inst.dist_server_server[a[:, None], a[inst.sibling_index]],
    )


def _cost(inst: Instance, dev_dist: np.ndarray, sib_dist: np.ndarray) -> CostBreakdown:
    r = inst.unit_transport_cost
    return CostBreakdown(
        offload=float((dev_dist * inst.component_offload_kb).sum()) * r,
        communication=float((sib_dist * inst.sibling_exchange_kb).sum()) * r,
    )


def _features(dev_dist: np.ndarray, sib_dist: np.ndarray) -> FeatureVector:
    return FeatureVector(dist_off=float(dev_dist.sum()), dist_com=float(sib_dist.sum()))


def evaluate(inst: Instance, pl: Placement) -> CostBreakdown:
    """Offload plus communication cost of a complete placement."""
    return _cost(inst, *_distances(inst, _assignment(inst, pl)))


def features(inst: Instance, pl: Placement) -> FeatureVector:
    """Distance features of a complete placement."""
    return _features(*_distances(inst, _assignment(inst, pl)))


def measure(inst: Instance, a: np.ndarray) -> tuple[CostBreakdown, FeatureVector]:
    """``(evaluate(inst, pl), features(inst, pl))`` of the placement whose
    (K,) int array of server indices is ``a``, from one gather of the
    distances; the sums are theirs, so the results are bit-identical. The
    array is trusted: unlike :func:`evaluate` and :func:`features`, its
    shape and server range are not checked."""
    dev_dist, sib_dist = _distances(inst, a)
    return _cost(inst, dev_dist, sib_dist), _features(dev_dist, sib_dist)


def placement_to_triples(inst: Instance, pl: Placement) -> list[tuple[int, int, int]]:
    """(device, component, server) triples of 1-based positions, in flat component order."""
    labels = (inst.component_device, inst.component_local_index, _assignment(inst, pl))
    return list(zip(*((x + 1).tolist() for x in labels)))


def placement_from_triples(inst: Instance, triples) -> Placement:
    """Inverse of :func:`placement_to_triples`; every component must appear
    once. Raises :class:`ConfigurationError` for every refusal."""
    servers = [-1] * inst.total_components
    for triple in listed(triples):
        dev_id, comp_id, srv_id = (whole(v) for v in listed(triple, 3))
        d, c, s = dev_id - 1, comp_id - 1, srv_id - 1
        _check_range(d, inst.num_devices, "device")
        _check_range(c, len(inst.devices[d].components), "component")
        _check_range(s, inst.num_servers, "server")
        k = inst.flat_index(d, c)
        if servers[k] != -1:
            raise ConfigurationError(f"component ({dev_id}, {comp_id}) assigned twice")
        servers[k] = s
    if any(s == -1 for s in servers):
        raise ConfigurationError("placement does not cover every component")
    return Placement(servers=tuple(servers))
