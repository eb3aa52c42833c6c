"""Problem instances: edge servers, physical devices, digital-twin components.

An :class:`Instance` is an immutable snapshot of a wireless edge deployment:
heterogeneous servers on a plane, devices whose digital twins are split into
placeable components, and a unit transport cost. Manhattan distances are
derived from the positions. Generation is a pure function of (config, seed).
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .seeding import stream

DEFAULT_AREA_SIDE = 120.0
# Terms a sum of costs or squared features may add before it overflows.
SUM_HEADROOM = 2.0**32


@dataclass(frozen=True)
class Point:
    """2-D location in meters."""

    x: float
    y: float


def manhattan(p: Point, q: Point) -> float:
    """L1 distance between two points, in meters."""
    return abs(p.x - q.x) + abs(p.y - q.y)


@dataclass(frozen=True)
class EdgeServer:
    """Heterogeneous edge server: per-cycle cost rate and a cost budget."""

    position: Point
    cost_per_cycle: float  # cost units per CPU cycle
    capacity: float  # maximum computation cost the server tolerates


@dataclass(frozen=True)
class DtComponent:
    """One placeable digital-twin component.

    ``exchange_kb[j]`` is the payload exchanged with the sibling component at
    0-based position ``j`` within the owning device; the vector is symmetric
    across the device's components with a zero self-entry.
    """

    mean_cycles: float  # base of the component's CPU-cycle distribution
    offload_kb: float
    exchange_kb: tuple[float, ...]


@dataclass(frozen=True)
class PhysicalDevice:
    position: Point
    components: tuple[DtComponent, ...]


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable placement problem instance.

    Derived in ``__post_init__`` and read-only: the Manhattan distance
    matrices ``dist_server_device`` (S, D) and ``dist_server_server`` (S, S)
    in meters, indexed by 0-based positions (``dist_server_device[s, d]``),
    and flat per-component arrays (component order: devices in order,
    components in order) for fast evaluation.

    The sibling table is the one form of the exchange data: row k of the
    (K, W) arrays ``sibling_index`` and ``sibling_exchange_kb`` lists the
    other components of k's device in ascending flat order and their
    payloads, padded with k itself and payload 0, where W is the widest
    device's size minus 1. A padded slot has distance 0 and cost 0.
    """

    servers: tuple[EdgeServer, ...]
    devices: tuple[PhysicalDevice, ...]
    unit_transport_cost: float  # cost per (KB * meter)

    def __post_init__(self):
        counts = [len(dev.components) for dev in self.devices]
        offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        total = int(offsets[-1])

        comp_device = np.empty(total, dtype=np.int64)
        comp_local = np.empty(total, dtype=np.int64)
        offload_kb = np.empty(total, dtype=np.float64)
        mean_cycles = np.empty(total, dtype=np.float64)
        width = max([0, *(n - 1 for n in counts)])
        sib_index = np.repeat(np.arange(total)[:, None], width, axis=1)
        sib_kb = np.zeros((total, width), dtype=np.float64)

        for d, dev in enumerate(self.devices):
            lo, hi = int(offsets[d]), int(offsets[d + 1])
            comp_device[lo:hi] = d
            comp_local[lo:hi] = np.arange(hi - lo)
            for c, comp in enumerate(dev.components):
                offload_kb[lo + c] = comp.offload_kb
                mean_cycles[lo + c] = comp.mean_cycles
                row = np.asarray(comp.exchange_kb, dtype=np.float64)
                if row.shape != (hi - lo,):
                    raise ConfigurationError(
                        f"device {d + 1} component {c + 1} exchange vector length "
                        f"{row.size}, expected {hi - lo}"
                    )
                sib_index[lo + c, : hi - lo - 1] = [*range(lo, lo + c), *range(lo + c + 1, hi)]
                sib_kb[lo + c, : hi - lo - 1] = np.concatenate((row[:c], row[c + 1 :]))

        cost_rates = np.array([s.cost_per_cycle for s in self.servers])
        capacities = np.array([s.capacity for s in self.servers])
        S, D = len(self.servers), len(self.devices)
        dist_sd = np.array(
            [manhattan(s.position, dev.position) for s in self.servers for dev in self.devices],
            dtype=np.float64,
        ).reshape(S, D)
        dist_ss = np.array(
            [manhattan(a.position, b.position) for a in self.servers for b in self.servers],
            dtype=np.float64,
        ).reshape(S, S)

        for name, value in (
            ("dist_server_device", dist_sd),
            ("dist_server_server", dist_ss),
            ("component_offsets", offsets),
            ("component_device", comp_device),
            ("component_local_index", comp_local),
            ("component_offload_kb", offload_kb),
            ("component_mean_cycles", mean_cycles),
            ("sibling_index", sib_index),
            ("sibling_exchange_kb", sib_kb),
            ("cost_rates", cost_rates),
            ("capacities", capacities),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def total_components(self) -> int:
        return int(self.component_offsets[-1])

    def flat_index(self, device: int, component: int) -> int:
        """Flat component index for (0-based device, 0-based component)."""
        return int(self.component_offsets[device]) + component


@dataclass(frozen=True)
class GenConfig:
    """Instance-generation parameters, checked when built: the entity counts and
    the side of the square area. Distributions: see :func:`generate_instance`."""

    num_servers: int
    num_devices: int
    components_range: tuple[int, int]
    area_side: float = DEFAULT_AREA_SIDE

    def __post_init__(self):
        if self.num_servers < 1 or self.num_devices < 1:
            raise ConfigurationError("num_servers and num_devices must be >= 1")
        lo, hi = self.components_range
        if lo < 1 or hi < lo:
            raise ConfigurationError(
                f"components_range must satisfy 1 <= lo <= hi, got [{lo}, {hi}]"
            )
        # Manhattan distances reach 2 * area_side.
        if not (0 < self.area_side and 2 * self.area_side < math.inf):
            raise ConfigurationError("area_side must be positive, with 2 * area_side finite")


def _positive_normal(rng: np.random.Generator, mean: float, sd: float) -> float:
    # Resample instead of truncating; at sd = 0.2*mean a non-positive draw
    # has probability ~3e-7.
    while True:
        value = rng.normal(mean, sd)
        if value > 0:
            return float(value)


def generate_instance(cfg: GenConfig, seed: int) -> Instance:
    """Draw a random instance; pure function of (cfg, seed).

    Servers and devices sit uniformly in the square ``[0, area_side]^2``.
    A server's cost per cycle is normal with mean ``b ~ U(1, 10)`` and
    deviation ``0.2 * b`` (resampled until positive); its capacity is
    ``U(0.3e9, 0.4e9)``. A device has ``U{lo..hi}`` components sharing mean
    cycles ``U(1e6, 10e6)``; each component offloads ``U(100, 500)`` KB and
    each sibling pair exchanges ``U(50, 250)`` KB. The unit transport cost
    is ``U(0, 1)``. Raises :class:`ConfigurationError` when the instance fails
    :func:`validate_instance`, which only an ``area_side`` too large can cause.
    """
    rng = stream(seed, "instance")
    side = cfg.area_side

    servers = []
    for s in range(cfg.num_servers):
        pos = Point(float(rng.uniform(0, side)), float(rng.uniform(0, side)))
        base = rng.uniform(1.0, 10.0)
        rate = _positive_normal(rng, base, 0.2 * base)
        cap = float(rng.uniform(0.3e9, 0.4e9))
        servers.append(EdgeServer(position=pos, cost_per_cycle=rate, capacity=cap))

    devices = []
    lo, hi = cfg.components_range
    for d in range(cfg.num_devices):
        pos = Point(float(rng.uniform(0, side)), float(rng.uniform(0, side)))
        n_comp = int(rng.integers(lo, hi + 1))
        mean_cycles = float(rng.uniform(1.0e6, 10.0e6))
        offloads = [float(rng.uniform(100.0, 500.0)) for _ in range(n_comp)]
        # Draw only the upper triangle so the exchange matrix is symmetric
        # with a zero diagonal by construction.
        g = np.zeros((n_comp, n_comp))
        for c in range(n_comp):
            for c2 in range(c + 1, n_comp):
                g[c, c2] = g[c2, c] = rng.uniform(50.0, 250.0)
        comps = tuple(
            DtComponent(
                mean_cycles=mean_cycles,
                offload_kb=offloads[c],
                exchange_kb=tuple(float(v) for v in g[c]),
            )
            for c in range(n_comp)
        )
        devices.append(PhysicalDevice(position=pos, components=comps))

    unit_cost = float(rng.uniform(0.0, 1.0))
    inst = Instance(servers=tuple(servers), devices=tuple(devices), unit_transport_cost=unit_cost)
    return _checked(inst, f"area_side {side} is too large: ")


def validate_instance(inst: Instance) -> list[str]:
    """Check every structural invariant; returns all violations found.

    Every number must be finite, the derived distances too: a NaN or
    infinite entry would solve to a NaN or infinite cost instead of failing.
    So must the bounds on costs and squared features that they give.
    """
    out: list[str] = []
    if not inst.servers:
        out.append("instance has no servers")
    if not inst.devices:
        out.append("instance has no devices")
    if not 0 <= inst.unit_transport_cost < math.inf:
        out.append("unit_transport_cost negative or not finite")

    for kind, entities in (("server", inst.servers), ("device", inst.devices)):
        for i, pos in enumerate(e.position for e in entities):
            if not (0 <= pos.x < math.inf and 0 <= pos.y < math.inf):
                out.append(f"{kind} {i + 1} has a negative or non-finite coordinate")
    for name in ("dist_server_device", "dist_server_server"):
        if not np.isfinite(getattr(inst, name)).all():
            out.append(f"{name} has a non-finite entry")

    for i, srv in enumerate(inst.servers):
        if not 0 < srv.cost_per_cycle < math.inf:
            out.append(f"server {i + 1} cost_per_cycle not positive and finite")
        if not 0 < srv.capacity < math.inf:
            out.append(f"server {i + 1} capacity not positive and finite")

    for i, dev in enumerate(inst.devices):
        n = len(dev.components)
        if n < 1:
            out.append(f"device {i + 1} has no components")
        for j, comp in enumerate(dev.components):
            label = f"device {i + 1} component {j + 1}"
            if not 0 < comp.mean_cycles < math.inf:
                out.append(f"{label} mean_cycles not positive and finite")
            if not 0 < comp.offload_kb < math.inf:
                out.append(f"{label} offload_kb not positive and finite")
            if not all(0 <= v < math.inf for v in comp.exchange_kb):
                out.append(f"{label} exchange_kb negative or not finite")
        # Exchange rows have the device's length: the Instance constructor checks it.
        for c in range(n):
            row = dev.components[c].exchange_kb
            if row[c] != 0:
                out.append(f"device {i + 1} exchange matrix has nonzero self-entry at {c + 1}")
            for c2 in range(c + 1, n):
                other = dev.components[c2].exchange_kb
                if row[c2] != other[c]:
                    out.append(
                        f"device {i + 1} exchange matrix asymmetric at ({c + 1}, {c2 + 1})"
                    )
    if not out:
        out += _overflow_problems(inst)
    return out


def _checked(inst: Instance, context: str) -> Instance:
    """``inst`` if :func:`validate_instance` finds no problem, else a
    :class:`ConfigurationError` listing them all after ``context``."""
    problems = validate_instance(inst)
    if problems:
        raise ConfigurationError(context + "; ".join(problems))
    return inst


def _overflow_problems(inst: Instance) -> list[str]:
    """Finite inputs whose costs or squared distance features can overflow.

    No placement costs more than ``unit_transport_cost * longest distance *
    (offload + exchange payloads)``, and the features sum at most K and
    K * W distances. Both bounds, the features' squared, must leave room
    for sums of ``SUM_HEADROOM`` such values, as in the value model's fit.
    """
    longest = max(float(inst.dist_server_device.max()), float(inst.dist_server_server.max()))
    payload = float(inst.component_offload_kb.sum()) + float(inst.sibling_exchange_kb.sum())
    feature = (inst.total_components + inst.sibling_exchange_kb.size) * longest
    out = []
    if not float(inst.unit_transport_cost) * longest * payload * SUM_HEADROOM < math.inf:
        out.append("costs can overflow: unit_transport_cost * longest distance * payload")
    if not feature * feature * SUM_HEADROOM < math.inf:
        out.append("distance features can overflow when squared")
    return out


def instance_to_dict(inst: Instance) -> dict:
    """Plain-data form of an instance (JSON-ready, exact float round-trip)."""
    return {
        "servers": [
            {
                "id": i + 1,
                "x": s.position.x,
                "y": s.position.y,
                "cost_per_cycle": s.cost_per_cycle,
                "capacity": s.capacity,
            }
            for i, s in enumerate(inst.servers)
        ],
        "devices": [
            {
                "id": i + 1,
                "x": d.position.x,
                "y": d.position.y,
                "components": [
                    {
                        "id": j + 1,
                        "mean_cycles": c.mean_cycles,
                        "offload_kb": c.offload_kb,
                        "exchange_kb": list(c.exchange_kb),
                    }
                    for j, c in enumerate(d.components)
                ],
            }
            for i, d in enumerate(inst.devices)
        ],
        "unit_transport_cost": inst.unit_transport_cost,
    }


def whole(value) -> int:
    """``int(value)`` for a number read from a file, refusing strings, bools and fractions."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"expected a whole number, got {reprlib.repr(value)}")
    return int(value)


def real(value) -> float:
    """``float(value)`` for a number read from a file, refusing strings, bools and huge integers."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"expected a number, got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError("expected a number, got an integer too large for a float")


def listed(value, length: int | None = None):
    """A list (of ``length`` entries, when given) read from a file, refusing
    anything else, so that a string is never read character by character."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"expected a list, got {reprlib.repr(value)}")
    if length is not None and len(value) != length:
        raise ConfigurationError(f"expected a list of {length} entries, got {reprlib.repr(value)}")
    return value


def member(obj, key: str):
    """``obj[key]`` for a JSON object read from a file, refusing anything else and a missing key."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"expected an object, got {reprlib.repr(obj)}")
    if key not in obj:
        raise ConfigurationError(f"missing key {key!r}")
    return obj[key]


def _positioned(entries, owner: str):
    """A file's list of entries, each of whose ``id`` must be its 1-based position."""
    for i, entry in enumerate(listed(entries)):
        if whole(member(entry, "id")) != i + 1:
            raise ConfigurationError(
                f"{owner} at position {i} has id {reprlib.repr(entry['id'])}, expected {i + 1}"
            )
    return entries


def instance_from_dict(data) -> Instance:
    """Inverse of :func:`instance_to_dict`. Other keys, such as the distance
    matrices older files carry, are ignored: distances follow from positions.
    Raises :class:`ConfigurationError` for every refusal, and for an instance
    that fails :func:`validate_instance` lists every problem."""
    servers = tuple(
        EdgeServer(
            position=Point(real(member(s, "x")), real(member(s, "y"))),
            cost_per_cycle=real(member(s, "cost_per_cycle")),
            capacity=real(member(s, "capacity")),
        )
        for s in _positioned(member(data, "servers"), "server")
    )
    devices = tuple(
        PhysicalDevice(
            position=Point(real(member(d, "x")), real(member(d, "y"))),
            components=tuple(
                DtComponent(
                    mean_cycles=real(member(c, "mean_cycles")),
                    offload_kb=real(member(c, "offload_kb")),
                    exchange_kb=tuple(real(v) for v in listed(member(c, "exchange_kb"))),
                )
                for c in _positioned(member(d, "components"), f"device {i + 1} component")
            ),
        )
        for i, d in enumerate(_positioned(member(data, "devices"), "device"))
    )
    unit_cost = real(member(data, "unit_transport_cost"))
    inst = Instance(servers=servers, devices=devices, unit_transport_cost=unit_cost)
    return _checked(inst, "")
