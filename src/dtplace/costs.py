"""Deterministic placement evaluation: offload cost, communication cost, features.

All operations are pure functions over immutable inputs. Communication terms
are summed over ordered sibling pairs, so each unordered pair contributes
twice; the exchange matrix is symmetric with a zero diagonal, which keeps the
convention consistent everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Instance


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
        raise IndexError(f"{name} index {value} out of range [0, {bound})")


def offloading_cost(inst: Instance, d: int, c: int, s: int) -> float:
    """Cost of pushing component (d, c) to server s: distance * KB * unit cost."""
    _check_range(d, inst.num_devices, "device")
    _check_range(c, len(inst.devices[d].components), "component")
    _check_range(s, inst.num_servers, "server")
    k = inst.flat_index(d, c)
    return float(
        inst.dist_server_device[s, d]
        * inst.component_offload_kb[k]
        * inst.unit_transport_cost
    )


def communication_cost(inst: Instance, d: int, c: int, c2: int, s: int, s2: int) -> float:
    """Cost of one ordered exchange between siblings (d,c) on s and (d,c2) on s2."""
    _check_range(d, inst.num_devices, "device")
    n = len(inst.devices[d].components)
    _check_range(c, n, "component")
    _check_range(c2, n, "component")
    _check_range(s, inst.num_servers, "server")
    _check_range(s2, inst.num_servers, "server")
    if c == c2 and s != s2:
        raise ValueError("a component cannot exchange with itself across two servers")
    return float(
        inst.dist_server_server[s, s2]
        * inst.exchange_matrix[inst.flat_index(d, c), inst.flat_index(d, c2)]
        * inst.unit_transport_cost
    )


def _assignment(inst: Instance, pl: Placement) -> np.ndarray:
    a = pl.array()
    if a.shape != (inst.total_components,):
        raise ValueError(
            f"placement covers {a.shape[0]} components, instance has {inst.total_components}"
        )
    if a.size and (a.min() < 0 or a.max() >= inst.num_servers):
        raise ValueError("placement assigns a component to a nonexistent server")
    return a


def evaluate(inst: Instance, pl: Placement) -> CostBreakdown:
    """Offload plus communication cost of a complete placement."""
    a = _assignment(inst, pl)
    r = inst.unit_transport_cost
    off = float(
        (inst.dist_server_device[a, inst.component_device] * inst.component_offload_kb).sum()
    ) * r
    pair_dist = inst.dist_server_server[a[:, None], a[None, :]]
    com = float((pair_dist * inst.exchange_matrix).sum()) * r
    return CostBreakdown(offload=off, communication=com)


def features(inst: Instance, pl: Placement) -> FeatureVector:
    """Distance features of a complete placement."""
    a = _assignment(inst, pl)
    f1 = float(inst.dist_server_device[a, inst.component_device].sum())
    pair_dist = inst.dist_server_server[a[:, None], a[None, :]]
    f2 = float(pair_dist[inst.sibling_mask].sum())
    return FeatureVector(dist_off=f1, dist_com=f2)


def measure(inst: Instance, pl: Placement) -> tuple[CostBreakdown, FeatureVector]:
    """``(evaluate(inst, pl), features(inst, pl))`` from one gather of each
    distance matrix; the sums are theirs, so the results are bit-identical."""
    a = _assignment(inst, pl)
    r = inst.unit_transport_cost
    dev_dist = inst.dist_server_device[a, inst.component_device]
    pair_dist = inst.dist_server_server[a[:, None], a[None, :]]
    cost = CostBreakdown(
        offload=float((dev_dist * inst.component_offload_kb).sum()) * r,
        communication=float((pair_dist * inst.exchange_matrix).sum()) * r,
    )
    feat = FeatureVector(
        dist_off=float(dev_dist.sum()), dist_com=float(pair_dist[inst.sibling_mask].sum())
    )
    return cost, feat


def placement_to_triples(inst: Instance, pl: Placement) -> list[tuple[int, int, int]]:
    """(device_id, component_id, server_id) triples using 1-based labels."""
    a = _assignment(inst, pl)
    out = []
    for k, s in enumerate(a):
        d = int(inst.component_device[k])
        c = int(inst.component_local_index[k])
        out.append((inst.devices[d].id, inst.devices[d].components[c].id, inst.servers[int(s)].id))
    return out


def placement_from_triples(inst: Instance, triples) -> Placement:
    """Inverse of :func:`placement_to_triples`; every component must appear once."""
    servers = [-1] * inst.total_components
    for dev_id, comp_id, srv_id in triples:
        d, c, s = int(dev_id) - 1, int(comp_id) - 1, int(srv_id) - 1
        _check_range(d, inst.num_devices, "device")
        _check_range(c, len(inst.devices[d].components), "component")
        _check_range(s, inst.num_servers, "server")
        k = inst.flat_index(d, c)
        if servers[k] != -1:
            raise ValueError(f"component ({dev_id}, {comp_id}) assigned twice")
        servers[k] = s
    if any(s == -1 for s in servers):
        raise ValueError("placement does not cover every component")
    return Placement(servers=tuple(servers))
