"""Shared fixtures and hand-built instances for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from dtplace import (
    DtComponent,
    EdgeServer,
    GenConfig,
    Instance,
    PhysicalDevice,
    Point,
    SaaParams,
    SampleSet,
    draw_samples,
    generate_instance,
)


def build_instance(servers, devices, unit_cost):
    """Assemble an Instance from (position, rate, capacity) and device specs.

    servers: list of (x, y, cost_per_cycle, capacity)
    devices: list of (x, y, [(mean_cycles, offload_kb, exchange_row), ...])
    """
    srv = tuple(
        EdgeServer(position=Point(x, y), cost_per_cycle=rate, capacity=cap)
        for x, y, rate, cap in servers
    )
    dev = []
    for x, y, comps in devices:
        components = tuple(
            DtComponent(
                mean_cycles=mean,
                offload_kb=kb,
                exchange_kb=tuple(row),
            )
            for mean, kb, row in comps
        )
        dev.append(PhysicalDevice(position=Point(x, y), components=components))
    return Instance(servers=srv, devices=tuple(dev), unit_transport_cost=unit_cost)


def constant_samples(inst, values, theta):
    """SampleSet where every scenario repeats the given per-component cycles."""
    cycles = np.tile(np.asarray(values, dtype=np.float64)[:, None], (1, theta))
    return SampleSet(cycles=cycles)


def greedy_fallback_case():
    """One tiny server that any component overloads and one huge server:
    uniform draws of the 12 components essentially never fit, the load-aware
    greedy does. Returns (inst, samples, params)."""
    servers = [(0, 0, 1.0, 4.0), (10, 0, 1.0, 1e12)]
    devices = [(5, 0, [(5.0, 200.0, (0.0,))]) for _ in range(12)]
    inst = build_instance(servers=servers, devices=devices, unit_cost=0.5)
    params = SaaParams(alpha=0.1, epsilon=0.1, theta=10)
    return inst, constant_samples(inst, [5.0] * 12, theta=10), params


def rounding_boundary_case():
    """Two one-component devices and a server 0 that holds either alone but
    not both: its capacity is fl(r*b) + fl(r*a), and the from-scratch load
    r * (a + b) of both rounds above it. A candidate count that adds one
    component's load to the other's meets capacity exactly, so it calls the
    move feasible.
    One scenario, budget 0. Returns (inst, samples, params)."""
    r, a, b = 6.732655185893089, 3.4280804238748326, 1.368761715425752
    inst = build_instance(
        servers=[(0, 0, r, r * b + r * a), (100, 0, 1.0, 1e9)],
        devices=[(0, 0, [(a, 200.0, (0.0,))]), (1, 0, [(b, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    return inst, constant_samples(inst, [a, b], theta=1), SaaParams(alpha=0.5, epsilon=0.5, theta=1)


@pytest.fixture(scope="session")
def small_instance():
    cfg = GenConfig(num_servers=3, num_devices=2, components_range=(2, 2))
    return generate_instance(cfg, 424242)


@pytest.fixture(scope="session")
def small_params():
    return SaaParams(alpha=0.01, epsilon=0.005, theta=100)


@pytest.fixture(scope="session")
def small_samples(small_instance, small_params):
    return draw_samples(small_instance, small_params, 777)
