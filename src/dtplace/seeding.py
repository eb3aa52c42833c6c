"""Deterministic named RNG streams.

Every stochastic operation derives its generator from (seed, *labels), so
sub-seeds depend only on stable string labels. Adding a new consumer with a
new label never perturbs the draws of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigurationError


def _label_words(label: str) -> list[int]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in (0, 4, 8, 12)]


def seed_sequence(seed: int, *labels: str) -> np.random.SeedSequence:
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    entropy = [seed]
    for label in labels:
        entropy.extend(_label_words(label))
    return np.random.SeedSequence(entropy)


def stream(seed: int, *labels: str) -> np.random.Generator:
    """Generator for the named stream rooted at ``seed``."""
    return np.random.default_rng(seed_sequence(seed, *labels))


def child_seed(seed: int, *labels: str) -> int:
    """Integer sub-seed for handing to an operation that seeds itself."""
    return int(seed_sequence(seed, *labels).generate_state(1, np.uint64)[0])
