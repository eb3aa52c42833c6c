from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from dtplace import (
    ConfigurationError,
    EdgeServer,
    GenConfig,
    Instance,
    Point,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    manhattan,
    validate_instance,
)

from conftest import build_instance


def test_manhattan_examples():
    assert manhattan(Point(0, 0), Point(3, 4)) == 7
    assert manhattan(Point(5, 5), Point(5, 5)) == 0
    assert manhattan(Point(120, 0), Point(0, 120)) == 240


def test_manhattan_is_a_metric_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, q, w = (Point(*rng.uniform(0, 120, 2)) for _ in range(3))
        assert manhattan(p, q) >= 0
        assert manhattan(p, q) == manhattan(q, p)
        assert manhattan(p, w) <= manhattan(p, q) + manhattan(q, w) + 1e-12
    assert manhattan(Point(3.5, 2.5), Point(3.5, 2.5)) == 0


def test_generate_counts_and_component_ranges():
    cfg = GenConfig(num_servers=6, num_devices=5, components_range=(1, 3))
    inst = generate_instance(cfg, 42)
    assert inst.num_servers == 6
    assert inst.num_devices == 5
    for dev in inst.devices:
        assert 1 <= len(dev.components) <= 3


def test_generate_is_deterministic():
    cfg = GenConfig(num_servers=4, num_devices=3, components_range=(1, 3))
    a = generate_instance(cfg, 9)
    b = generate_instance(cfg, 9)
    assert instance_to_dict(a) == instance_to_dict(b)
    c = generate_instance(cfg, 10)
    assert instance_to_dict(a) != instance_to_dict(c)


def test_generated_distances_match_recomputation():
    cfg = GenConfig(num_servers=2, num_devices=1, components_range=(1, 1))
    inst = generate_instance(cfg, 7)
    for s in range(2):
        expect = manhattan(inst.servers[s].position, inst.devices[0].position)
        assert inst.dist_server_device[s, 0] == expect
    for a in range(2):
        for b in range(2):
            expect = manhattan(inst.servers[a].position, inst.servers[b].position)
            assert inst.dist_server_server[a, b] == expect


def test_distance_matrices_are_derived_and_read_only():
    srv = (EdgeServer(position=Point(1.0, 2.0), cost_per_cycle=1.0, capacity=1.0),) * 2
    inst = Instance(servers=srv, devices=(), unit_transport_cost=0.5)
    assert inst.dist_server_device.shape == (2, 0)
    assert inst.dist_server_server.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError):
        inst.dist_server_server[0, 1] = 1.0


def test_generated_values_respect_config_bounds():
    cfg = GenConfig(num_servers=5, num_devices=4, components_range=(1, 4))
    for seed in range(5):
        inst = generate_instance(cfg, seed)
        for s in inst.servers:
            assert s.cost_per_cycle > 0
            assert 0.3e9 <= s.capacity <= 0.4e9
            assert 0 <= s.position.x <= 120 and 0 <= s.position.y <= 120
        for d in inst.devices:
            assert 0 <= d.position.x <= 120 and 0 <= d.position.y <= 120
            for c in d.components:
                assert 1e6 <= c.mean_cycles <= 1e7
                assert 100 <= c.offload_kb <= 500
        assert 0 <= inst.unit_transport_cost <= 1


def test_validate_accepts_generator_output():
    cfg = GenConfig(num_servers=3, num_devices=3, components_range=(1, 3))
    for seed in range(6):
        assert validate_instance(generate_instance(cfg, seed)) == []


def test_validate_flags_asymmetric_exchange():
    # The constructor does not validate, so it can build the broken instance.
    cfg = GenConfig(num_servers=2, num_devices=1, components_range=(2, 2))
    inst = generate_instance(cfg, 3)
    dev = inst.devices[0]
    first = dev.components[0]
    row = (first.exchange_kb[0], first.exchange_kb[1] + 1.0)
    comps = (replace(first, exchange_kb=row), *dev.components[1:])
    broken = replace(inst, devices=(replace(dev, components=comps),))
    assert any("asymmetric" in v for v in validate_instance(broken))


def test_validate_flags_nonpositive_fields():
    cfg = GenConfig(num_servers=2, num_devices=1, components_range=(1, 1))
    inst = generate_instance(cfg, 5)
    dev = inst.devices[0]
    broken = replace(
        inst,
        servers=(replace(inst.servers[0], cost_per_cycle=0.0), *inst.servers[1:]),
        devices=(replace(dev, components=(replace(dev.components[0], offload_kb=-1.0),)),),
    )
    violations = validate_instance(broken)
    assert any("cost_per_cycle" in v for v in violations)
    assert any("offload_kb" in v for v in violations)


def test_instance_from_dict_refuses_what_validation_flags():
    data = instance_to_dict(generate_instance(GenConfig(2, 2, (1, 2)), 5))
    data["servers"][1]["capacity"] = float("nan")
    with pytest.raises(ConfigurationError, match="^server 2 capacity not positive and finite$"):
        instance_from_dict(data)


def test_generate_instance_refuses_an_overflowing_area_side():
    # GenConfig accepts the side (2 * side is finite), but costs would overflow.
    cfg = GenConfig(3, 3, (1, 2), area_side=1e306)
    with pytest.raises(ConfigurationError, match="area_side 1e[+]306 is too large: costs can"):
        generate_instance(cfg, 5)


def test_serialization_round_trip_is_exact():
    cfg = GenConfig(num_servers=4, num_devices=3, components_range=(1, 3))
    inst = generate_instance(cfg, 99)
    data = instance_to_dict(inst)
    again = instance_to_dict(instance_from_dict(data))
    assert data == again


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_servers=0, num_devices=1, components_range=(1, 1)),
        dict(num_servers=1, num_devices=0, components_range=(1, 1)),
        dict(num_servers=1, num_devices=1, components_range=(0, 1)),
        dict(num_servers=1, num_devices=1, components_range=(3, 2)),
        dict(num_servers=1, num_devices=1, components_range=(1, 1), area_side=0.0),
        dict(num_servers=1, num_devices=1, components_range=(1, 1), area_side=-1.0),
        dict(num_servers=1, num_devices=1, components_range=(1, 1), area_side=float("inf")),
        dict(num_servers=1, num_devices=1, components_range=(1, 1), area_side=float("nan")),
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        GenConfig(**kwargs)


def test_constructor_rejects_wrong_length_exchange_row():
    cfg = GenConfig(num_servers=2, num_devices=1, components_range=(2, 2))
    data = instance_to_dict(generate_instance(cfg, 3))
    data["devices"][0]["components"][0]["exchange_kb"].append(1.0)
    with pytest.raises(ValueError, match="exchange vector length"):
        instance_from_dict(data)


def check_sibling_table(inst):
    """Every valid slot of the sibling table is the raw exchange entry, in
    ascending flat order; padding points at the component itself with 0."""
    K = inst.total_components
    width = max(len(dev.components) for dev in inst.devices) - 1
    assert inst.sibling_index.shape == inst.sibling_exchange_kb.shape == (K, width)
    for table in (inst.sibling_index, inst.sibling_exchange_kb):
        with pytest.raises(ValueError):
            table[...] = 0
    for d, dev in enumerate(inst.devices):
        for c, comp in enumerate(dev.components):
            k = inst.flat_index(d, c)
            others = [j for j in range(len(dev.components)) if j != c]
            n = len(others)
            assert inst.sibling_index[k, :n].tolist() == [inst.flat_index(d, j) for j in others]
            assert inst.sibling_exchange_kb[k, :n].tolist() == [comp.exchange_kb[j] for j in others]
            assert inst.sibling_index[k, n:].tolist() == [k] * (width - n)
            assert inst.sibling_exchange_kb[k, n:].tolist() == [0.0] * (width - n)


def exchange_rows(n, base):
    return [tuple(0.0 if c == c2 else base + c + c2 for c2 in range(n)) for c in range(n)]


@pytest.mark.parametrize(
    "sizes", [(3, 1, 2, 4, 1), (1, 1, 1)], ids=["mixed-sizes", "all-singletons"]
)
def test_sibling_table_matches_raw_exchange_rows(sizes):
    devices = [
        (float(i), 0.0, [(1e6, 100.0, row) for row in exchange_rows(n, 10.0 * (i + 1))])
        for i, n in enumerate(sizes)
    ]
    inst = build_instance(servers=[(0.0, 0.0, 1.0, 1e9)], devices=devices, unit_cost=0.5)
    check_sibling_table(inst)


def test_generated_instance_holds_no_pair_matrix():
    inst = generate_instance(GenConfig(num_servers=100, num_devices=1000, components_range=(1, 3)), 1)
    check_sibling_table(inst)
    K = inst.total_components
    arrays = [v for v in vars(inst).values() if isinstance(v, np.ndarray)]
    assert arrays and all(a.size < K * K for a in arrays)
