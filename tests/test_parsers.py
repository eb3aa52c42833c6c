"""The library's file parsers refuse bad input with one exception type.

Each of ``instance_from_dict``, ``placement_from_triples``,
``samples_from_dict`` and ``ExperimentConfig.from_dict`` is fed a valid
parsed file with one node replaced, one key deleted or the whole document
replaced. It must return or raise :class:`ConfigurationError` itself, not
a ``KeyError``, ``TypeError``, ``IndexError`` or bare ``ValueError``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from dtplace import (
    ConfigurationError,
    ExperimentConfig,
    GenConfig,
    SaaParams,
    draw_samples,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    placement_from_triples,
    samples_from_dict,
    samples_to_dict,
)

HUGE = int("9" * 400)
VALUES = [True, None, 0, -1, 2, 1.5, float("inf"), float("nan"), HUGE, "x", "111",
          [], [1, 2], [1, 2, 3, 4], {}, {"id": 1}]

INST = generate_instance(GenConfig(2, 2, (1, 2)), 8)
FILES = {
    "instance": instance_to_dict(INST),
    "placement": [[d, c, 1] for d, dev in enumerate(INST.devices, 1)
                  for c in range(1, len(dev.components) + 1)],
    "samples": samples_to_dict(draw_samples(INST, SaaParams(0.05, 0.025, 4), 3)),
    "experiment": {"axis": "devices", "axis_values": [2, 3], "components_range": [1, 2],
                   "replications": 1, "master_seed": 1, "theta": 30},
}
PARSERS = {
    "instance": instance_from_dict,
    "placement": lambda doc: placement_from_triples(INST, doc),
    "samples": samples_from_dict,
    "experiment": ExperimentConfig.from_dict,
}


def node_paths(node, path=()):
    """Paths to every node below the top of a parsed JSON document."""
    if not isinstance(node, (dict, list)):
        return []
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    return [p for key in keys for p in [(*path, key), *node_paths(node[key], (*path, key))]]


def mutated(target, kind, index, value):
    """A copy of ``target``'s file with ``value`` in place of the document
    (``top``) or of the node ``index`` picks (``replace``), or with that
    key or list entry deleted (``delete``)."""
    doc = json.loads(json.dumps(FILES[target]))
    if kind == "top":
        return value
    paths = node_paths(doc)
    *parents, last = paths[index % len(paths)]
    node = doc
    for key in parents:
        node = node[key]
    if kind == "delete":
        del node[last]
    else:
        node[last] = value
    return doc


@pytest.mark.parametrize("target", FILES)
def test_the_unchanged_files_parse(target):
    PARSERS[target](json.loads(json.dumps(FILES[target])))


@settings(max_examples=300, deadline=None)
@given(
    target=st.sampled_from(list(FILES)),
    kind=st.sampled_from(["replace", "delete", "top"]),
    index=st.integers(min_value=0),
    value=st.sampled_from(VALUES),
)
@example(target="instance", kind="top", index=0, value=[1, 2])
@example(target="experiment", kind="replace", index=2, value=[1, 2, 3, 4])
@example(target="placement", kind="replace", index=0, value=[1, 2, 3, 4])
@example(target="samples", kind="replace", index=5, value=[])
def test_parsers_raise_only_configuration_error(target, kind, index, value):
    try:
        PARSERS[target](mutated(target, kind, index, value))
    except Exception as exc:  # noqa: BLE001 - the exact type is the point
        assert type(exc) is ConfigurationError, repr(exc)
        assert "\n" not in str(exc)
