"""Seeded, splittable random streams.

Every stochastic entry point in this package takes a ``(seed, shards)``
pair or an explicit ``numpy.random.Generator``. Child streams are seeded with ``numpy.random.default_rng(derive_seed(seed, *path))``: hashing
the seed together with an index path keeps runs, shards and subsystems on
independent streams that reproduce exactly across processes and platforms.
None of this is cryptographic randomness.
"""

from __future__ import annotations

import hashlib


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, path...) into a stable 64-bit child seed."""
    tag = ":".join(str(p) for p in (seed, *path)).encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")
