"""Brute-force reference for the transcript law: every share completion
and every permutation tuple of the plain protocol, each with equal weight.

It is independent of the histogram law in ``shufflesum.oracle`` and walks
m^((k-1)n) * (n!)^k ordered outcomes per input, so it stays within
``ENUMERATION_BUDGET`` only on tiny instances. Tests compare the package's
exact values with it there.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterator, Sequence

from shufflesum.oracle import CollisionMode
from shufflesum.randgraph import ENUMERATION_BUDGET, EnumerationBudgetError


@dataclass(frozen=True)
class OutputDistribution:
    """Exact law of the flattened transcript (kn residues, block-ordered).

    ``mass`` maps each outcome to its integer count out of ``denominator``
    = m^((k-1)n) * (n!)^k equally likely (share completion, permutation
    tuple) pairs. Probabilities are exact rationals.
    """

    n: int
    k: int
    m: int
    mass: dict[tuple[int, ...], int]
    denominator: int

    def probability(self, outcome: tuple[int, ...]) -> Fraction:
        return Fraction(self.mass.get(outcome, 0), self.denominator)

    def total(self) -> Fraction:
        return Fraction(sum(self.mass.values()), self.denominator)


def _share_tuples(x: int, k: int, m: int) -> Iterator[tuple[int, ...]]:
    # every k-tuple over Z_m summing to x, each exactly once
    for free in product(range(m), repeat=k - 1):
        yield (*free, (x - sum(free)) % m)


def _law_budget(n: int, k: int, m: int, extra_log2: float = 0.0) -> int | None:
    """m^((k-1)n) * (n!)^k, or None when it clearly dwarfs the budget.

    The log-space early-out avoids materializing factorial(n)**k for large
    parameters; the 2-bit margin keeps boundary decisions on the exact
    integer path.
    """
    log2_est = (
        (k - 1) * n * math.log2(max(m, 1))
        + k * math.lgamma(n + 1) / math.log(2)
        + extra_log2
    )
    if log2_est > math.log2(ENUMERATION_BUDGET) + 2:
        return None
    return m ** ((k - 1) * n) * math.factorial(n) ** k


def exact_output_distribution(inputs: Sequence[int], k: int, m: int) -> OutputDistribution:
    """Exhaustive law of the plain protocol on fixed inputs.

    Enumerates every share completion and every permutation tuple with
    equal weight; rejects instances whose weighted outcome count
    m^((k-1)n) * (n!)^k exceeds the 10**7 budget.
    """
    n = len(inputs)
    if n < 1 or k < 1 or m < 1:
        raise ValueError(f"need n, k, m >= 1, got n={n}, k={k}, m={m}")
    denominator = _law_budget(n, k, m)
    if denominator is None or denominator > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            "m^((k-1)n) * (n!)^k exceeds the enumeration budget "
            f"{ENUMERATION_BUDGET} for n={n}, k={k}, m={m}"
        )
    perms = list(permutations(range(n)))
    perm_tuples = list(product(perms, repeat=k))
    per_user = [list(_share_tuples(x % m, k, m)) for x in inputs]
    counts: Counter = Counter()
    for mat in product(*per_user):
        blocks = [[mat[i][j] for i in range(n)] for j in range(k)]
        for pt in perm_tuples:
            flat = tuple(blocks[j][p] for j, perm in enumerate(pt) for p in perm)
            counts[flat] += 1
    return OutputDistribution(n, k, m, dict(counts), denominator)


def _tv_between(a: OutputDistribution, b: OutputDistribution) -> Fraction:
    keys = set(a.mass) | set(b.mass)
    total = sum(abs(a.probability(v) - b.probability(v)) for v in keys)
    return total / 2


def exact_tv(inputs_a: Sequence[int], inputs_b: Sequence[int], k: int, m: int) -> Fraction:
    """Exact total variation between the transcript laws of two inputs.

    Only defined for inputs with equal sums (otherwise the server's output
    itself distinguishes them and the security question is vacuous).
    """
    if len(inputs_a) != len(inputs_b):
        raise ValueError("input tuples must have the same length")
    if sum(inputs_a) % m != sum(inputs_b) % m:
        raise ValueError("inputs must have equal sums mod m")
    return _tv_between(
        exact_output_distribution(inputs_a, k, m),
        exact_output_distribution(inputs_b, k, m),
    )


class _LawCache:
    # the transcript law is invariant under permuting users, so cache by
    # sorted input tuple
    def __init__(self, k: int, m: int):
        self.k = k
        self.m = m
        self._laws: dict[tuple[int, ...], OutputDistribution] = {}

    def law(self, inputs: tuple[int, ...]) -> OutputDistribution:
        key = tuple(sorted(inputs))
        if key not in self._laws:
            self._laws[key] = exact_output_distribution(key, self.k, self.m)
        return self._laws[key]


def avg_case_tv_by_enumeration(n: int, k: int, m: int) -> Fraction:
    """Expected exact TV over the m^(2n-1) equally likely equal-sum pairs:
    the first input and all but the last coordinate of the second are
    free, the last coordinate solves the sum."""
    cache = _LawCache(k, m)
    total = Fraction(0)
    for x in product(range(m), repeat=n):
        target = sum(x) % m
        for free in product(range(m), repeat=n - 1):
            xp = (*free, (target - sum(free)) % m)
            total += _tv_between(cache.law(x), cache.law(xp))
    return total / m ** (2 * n - 1)


def collision_probability_by_enumeration(n: int, k: int, m: int, mode: CollisionMode) -> Fraction:
    """Exact collision probability over a uniform input. V_VS_V sums
    squared transcript probabilities; E_EVENT dot-products the law of an
    unshuffled sharing against the transcript law."""
    cache = _LawCache(k, m)
    total = Fraction(0)
    for x in product(range(m), repeat=n):
        law = cache.law(x)
        if mode is CollisionMode.V_VS_V:
            hit = Fraction(sum(c * c for c in law.mass.values()), law.denominator**2)
        else:
            # flat unshuffled sharing, share-index major: block j is the
            # users' j-th shares in user order
            plain: Counter = Counter()
            for mat in product(*[list(_share_tuples(xi % m, k, m)) for xi in x]):
                flat = tuple(mat[i][j] for j in range(k) for i in range(n))
                plain[flat] += 1
            plain_denom = m ** ((k - 1) * n)
            hit = sum(
                (Fraction(cnt, plain_denom) * law.probability(v) for v, cnt in plain.items()),
                Fraction(0),
            )
        total += hit
    return total / m**n
