"""Deterministic stream derivation on top of the Philox counter-based generator.

Every random draw in the package goes through a named stream so that
benchmark trials are reproducible independently of execution order or
worker count.
"""

import hashlib

import numpy as np


def derive_key(*parts) -> int:
    """Stable 128-bit key from an arbitrary tuple of hashable tags.

    Tags are hashed through their repr, so use plain ints/strs/tuples.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def as_seed(value, field: str) -> int:
    """value as a plain int seed, or a ValueError that names field.

    Tags are hashed through their repr, so 1.0, True and np.int64(1) would
    each draw other numbers than 1: only an integer that is not a bool is
    a seed.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def derive_seed(*parts) -> int:
    """64-bit seed for configs that persist a single integer."""
    return derive_key(*parts) & 0xFFFFFFFFFFFFFFFF


def stream(*parts) -> np.random.Generator:
    """Independent generator for the given tag tuple."""
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))
