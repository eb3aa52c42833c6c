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
        EdgeServer(id=i + 1, position=Point(x, y), cost_per_cycle=rate, capacity=cap)
        for i, (x, y, rate, cap) in enumerate(servers)
    )
    dev = []
    for i, (x, y, comps) in enumerate(devices):
        components = tuple(
            DtComponent(
                id=j + 1,
                mean_cycles=mean,
                offload_kb=kb,
                exchange_kb=tuple(row),
            )
            for j, (mean, kb, row) in enumerate(comps)
        )
        dev.append(PhysicalDevice(id=i + 1, position=Point(x, y), components=components))
    return Instance(servers=srv, devices=tuple(dev), unit_transport_cost=unit_cost)


def constant_samples(inst, values, theta):
    """SampleSet where every scenario repeats the given per-component cycles."""
    cycles = np.tile(np.asarray(values, dtype=np.float64)[:, None], (1, theta))
    return SampleSet(cycles=cycles)


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
