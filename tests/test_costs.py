from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtplace import (
    GenConfig,
    Placement,
    evaluate,
    features,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    placement_from_triples,
    placement_to_triples,
)
from dtplace.costs import measure

from conftest import build_instance


def _check_range(value, bound, name):
    if not 0 <= value < bound:
        raise IndexError(f"{name} index {value} out of range [0, {bound})")


def offloading_cost(inst, d, c, s):
    """Reference for one offload term: pushing component (d, c) to server s
    costs distance * KB * unit cost."""
    _check_range(d, inst.num_devices, "device")
    _check_range(c, len(inst.devices[d].components), "component")
    _check_range(s, inst.num_servers, "server")
    return float(
        inst.dist_server_device[s, d]
        * inst.devices[d].components[c].offload_kb
        * inst.unit_transport_cost
    )


def communication_cost(inst, d, c, c2, s, s2):
    """Reference for one exchange term: siblings (d, c) on s and (d, c2) on s2,
    one ordered exchange."""
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
        * inst.devices[d].components[c].exchange_kb[c2]
        * inst.unit_transport_cost
    )


def explicit_pair_costs(inst, pl):
    """Independent oracle: materialize the full pair-indicator tensor.

    Builds y[s, s2, c, c2] per device exactly as the placement implies and
    sums offload and exchange terms with five nested loops.
    """
    a = list(pl.servers)
    r = inst.unit_transport_cost
    off = 0.0
    com = 0.0
    for d, dev in enumerate(inst.devices):
        n = len(dev.components)
        base = inst.flat_index(d, 0)
        x = np.zeros((inst.num_servers, n))
        for c in range(n):
            x[a[base + c], c] = 1.0
        for s in range(inst.num_servers):
            for c in range(n):
                off += inst.dist_server_device[s, d] * dev.components[c].offload_kb * r * x[s, c]
        for s in range(inst.num_servers):
            for c in range(n):
                for s2 in range(inst.num_servers):
                    for c2 in range(n):
                        y = x[s, c] * x[s2, c2]
                        com += (
                            inst.dist_server_server[s, s2]
                            * dev.components[c].exchange_kb[c2]
                            * r
                            * y
                        )
    return off, com


def explicit_features(inst, pl):
    a = list(pl.servers)
    f1 = 0.0
    f2 = 0.0
    for d, dev in enumerate(inst.devices):
        n = len(dev.components)
        base = inst.flat_index(d, 0)
        for c in range(n):
            f1 += inst.dist_server_device[a[base + c], d]
            for c2 in range(n):
                if c != c2:
                    f2 += inst.dist_server_server[a[base + c], a[base + c2]]
    return f1, f2


def two_server_instance(unit_cost=0.5):
    # device 0 sits 10 m from server 0 and 30 m from server 1 (L1)
    return build_instance(
        servers=[(0.0, 0.0, 1.0, 1e9), (20.0, 0.0, 1.0, 1e9)],
        devices=[
            (10.0, 0.0, [
                (5e6, 200.0, (0.0, 100.0)),
                (5e6, 300.0, (100.0, 0.0)),
            ])
        ],
        unit_cost=unit_cost,
    )


def test_offloading_cost_examples():
    inst = two_server_instance()
    # e = 10 m, h = 200 KB, r = 0.5
    assert offloading_cost(inst, 0, 0, 0) == pytest.approx(1000.0)
    colocated = build_instance(
        servers=[(10.0, 0.0, 1.0, 1e9)],
        devices=[(10.0, 0.0, [(5e6, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    assert offloading_cost(colocated, 0, 0, 0) == 0.0
    free = two_server_instance(unit_cost=0.0)
    for s in range(2):
        assert offloading_cost(free, 0, 0, s) == 0.0
        assert offloading_cost(free, 0, 1, s) == 0.0


def test_communication_cost_examples():
    inst = two_server_instance()
    # l = 20 m, g = 100 KB, r = 0.5
    assert communication_cost(inst, 0, 0, 1, 0, 1) == pytest.approx(1000.0)
    assert communication_cost(inst, 0, 0, 1, 1, 1) == 0.0
    assert communication_cost(inst, 0, 0, 0, 1, 1) == 0.0  # zero self-exchange


def test_cost_index_contracts():
    inst = two_server_instance()
    with pytest.raises(IndexError):
        offloading_cost(inst, 1, 0, 0)
    with pytest.raises(IndexError):
        offloading_cost(inst, 0, 2, 0)
    with pytest.raises(IndexError):
        communication_cost(inst, 0, 0, 1, 0, 2)
    with pytest.raises(ValueError):
        communication_cost(inst, 0, 1, 1, 0, 1)


def test_evaluate_single_server_has_no_communication():
    cfg = GenConfig(num_servers=1, num_devices=3, components_range=(2, 3))
    inst = generate_instance(cfg, 8)
    pl = Placement(servers=(0,) * inst.total_components)
    cost = evaluate(inst, pl)
    assert cost.communication == 0.0
    assert cost.total == cost.offload


def test_evaluate_single_component_is_offload_only():
    one = build_instance(
        servers=[(0.0, 0.0, 1.0, 1e9), (20.0, 0.0, 1.0, 1e9)],
        devices=[(10.0, 0.0, [(5e6, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    for s in range(2):
        cost = evaluate(one, Placement(servers=(s,)))
        assert cost.total == offloading_cost(one, 0, 0, s)


def test_evaluate_matches_explicit_pair_oracle_on_seeded_instances():
    cfg = GenConfig(num_servers=3, num_devices=2, components_range=(2, 2))
    for seed in range(5):
        inst = generate_instance(cfg, seed)
        rng = np.random.default_rng(seed + 100)
        for _ in range(10):
            pl = Placement(
                servers=tuple(int(s) for s in rng.integers(0, 3, inst.total_components))
            )
            cost = evaluate(inst, pl)
            off, com = explicit_pair_costs(inst, pl)
            assert cost.offload == pytest.approx(off, rel=1e-12)
            assert cost.communication == pytest.approx(com, rel=1e-12)
            assert cost.total == cost.offload + cost.communication


def test_evaluate_matches_oracle_exhaustively_on_tiny_instance():
    cfg = GenConfig(num_servers=2, num_devices=2, components_range=(1, 2))
    inst = generate_instance(cfg, 12)
    assert inst.num_servers * inst.total_components <= 12
    for combo in itertools.product(range(2), repeat=inst.total_components):
        pl = Placement(servers=combo)
        cost = evaluate(inst, pl)
        off, com = explicit_pair_costs(inst, pl)
        assert math.isclose(cost.offload, off, rel_tol=1e-12, abs_tol=1e-9)
        assert math.isclose(cost.communication, com, rel_tol=1e-12, abs_tol=1e-9)


def test_cost_scales_linearly_in_unit_cost():
    cfg = GenConfig(num_servers=3, num_devices=2, components_range=(1, 3))
    base = generate_instance(cfg, 21)
    data = instance_to_dict(base)
    data["unit_transport_cost"] = 2.0 * base.unit_transport_cost
    doubled = instance_from_dict(data)
    data["unit_transport_cost"] = 0.0
    free = instance_from_dict(data)
    rng = np.random.default_rng(0)
    for _ in range(5):
        pl = Placement(servers=tuple(int(s) for s in rng.integers(0, 3, base.total_components)))
        assert evaluate(free, pl).total == 0.0
        assert evaluate(doubled, pl).total == pytest.approx(2 * evaluate(base, pl).total, rel=1e-12)


def test_evaluate_and_features_are_pure(small_instance):
    pl = Placement(servers=(0,) * small_instance.total_components)
    first = evaluate(small_instance, pl)
    second = evaluate(small_instance, pl)
    assert first.total == second.total
    assert features(small_instance, pl) == features(small_instance, pl)


def test_features_examples_and_oracle():
    cfg = GenConfig(num_servers=3, num_devices=2, components_range=(2, 2))
    inst = generate_instance(cfg, 31)
    one_srv = GenConfig(num_servers=1, num_devices=2, components_range=(2, 2))
    inst1 = generate_instance(one_srv, 31)
    f = features(inst1, Placement(servers=(0,) * inst1.total_components))
    assert f.dist_com == 0.0

    nearest = tuple(
        int(np.argmin(inst.dist_server_device[:, int(inst.component_device[k])]))
        for k in range(inst.total_components)
    )
    f = features(inst, Placement(servers=nearest))
    expected = sum(
        inst.dist_server_device[:, int(inst.component_device[k])].min()
        for k in range(inst.total_components)
    )
    assert f.dist_off == pytest.approx(expected, rel=1e-12)

    rng = np.random.default_rng(5)
    for _ in range(5):
        pl = Placement(servers=tuple(int(s) for s in rng.integers(0, 3, inst.total_components)))
        f = features(inst, pl)
        f1, f2 = explicit_features(inst, pl)
        assert f.dist_off == pytest.approx(f1, rel=1e-12)
        assert f.dist_com == pytest.approx(f2, rel=1e-12)


def test_costs_and_features_match_explicit_oracles_at_scale():
    # Devices of 1, 2 and 3 components, so sibling rows of width 2 are full,
    # half padded and all padding.
    cfg = GenConfig(num_servers=20, num_devices=60, components_range=(1, 3))
    inst = generate_instance(cfg, 5)
    assert {len(dev.components) for dev in inst.devices} == {1, 2, 3}
    rng = np.random.default_rng(9)
    for _ in range(3):
        pl = Placement(tuple(int(s) for s in rng.integers(0, 20, inst.total_components)))
        off, com = explicit_pair_costs(inst, pl)
        f1, f2 = explicit_features(inst, pl)
        cost, feat = measure(inst, pl.array())
        for got in (evaluate(inst, pl), cost):
            assert got.offload == pytest.approx(off, rel=1e-9)
            assert got.communication == pytest.approx(com, rel=1e-9)
        for got in (features(inst, pl), feat):
            assert got.dist_off == pytest.approx(f1, rel=1e-9)
            assert got.dist_com == pytest.approx(f2, rel=1e-9)


@st.composite
def placed_instances(draw):
    cfg = GenConfig(
        num_servers=draw(st.integers(1, 5)),
        num_devices=draw(st.integers(1, 6)),
        components_range=(1, draw(st.integers(1, 4))),
    )
    inst = generate_instance(cfg, draw(st.integers(0, 2**32 - 1)))
    servers = draw(
        st.lists(
            st.integers(0, cfg.num_servers - 1),
            min_size=inst.total_components,
            max_size=inst.total_components,
        )
    )
    return inst, Placement(tuple(servers))


@settings(max_examples=200, deadline=None)
@given(case=placed_instances())
def test_measure_is_evaluate_and_features_bit_for_bit(case):
    inst, pl = case
    cost, feat = measure(inst, pl.array())
    ref_cost, ref_feat = evaluate(inst, pl), features(inst, pl)
    for got, want in (
        (cost.offload, ref_cost.offload),
        (cost.communication, ref_cost.communication),
        (cost.total, ref_cost.total),
        (feat.dist_off, ref_feat.dist_off),
        (feat.dist_com, ref_feat.dist_com),
    ):
        assert got.hex() == want.hex()


def test_incomplete_placement_rejected(small_instance):
    with pytest.raises(ValueError):
        evaluate(small_instance, Placement(servers=(0,)))
    with pytest.raises(ValueError):
        evaluate(
            small_instance,
            Placement(servers=(99,) * small_instance.total_components),
        )


def test_placement_triples_round_trip(small_instance):
    rng = np.random.default_rng(2)
    pl = Placement(
        servers=tuple(int(s) for s in rng.integers(0, 3, small_instance.total_components))
    )
    triples = placement_to_triples(small_instance, pl)
    again = placement_from_triples(small_instance, triples)
    assert again.servers == pl.servers
    with pytest.raises(ValueError):
        placement_from_triples(small_instance, triples[:-1])
    with pytest.raises(ValueError):
        placement_from_triples(small_instance, triples + [triples[0]])
