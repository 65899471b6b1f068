"""The cyclic group Z_m.

Group elements are plain ints kept in canonical form 0 <= value < m.
Python integers are unbounded, so ``group_sum`` never overflows. The
2**63 cap on the modulus is what the batched protocol engine relies on:
it holds residues in uint64, and any pairwise sum of two residues stays
below 2**64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

GroupElement = int

MAX_MODULUS = 2**63


@dataclass(frozen=True)
class Modulus:
    """Order of the group Z_m; all protocol arithmetic reduces modulo m."""

    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise TypeError(f"modulus must be an int, got {type(self.m).__name__}")
        if self.m < 2:
            raise ValueError(f"modulus must be >= 2, got {self.m}")
        if self.m > MAX_MODULUS:
            raise ValueError(f"modulus must be <= 2**63, got {self.m}")


def group_sum(elements: Iterable[GroupElement], mod: Modulus) -> GroupElement:
    """Sum of the elements in Z_m; the empty sum is 0."""
    return sum(elements) % mod.m

