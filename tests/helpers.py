"""Statistical and group helpers shared across the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

from scipy import stats

from shufflesum.oracle import exact_transcript_laws

# significance for every goodness-of-fit assertion in the suite
SIGNIFICANCE = 1e-6


def group_sum(elements, mod) -> int:
    """Sum of the elements in Z_m, by Python's unbounded ints; the empty sum is 0."""
    return sum(elements) % mod.m


def chisq_pvalue(observed: list[int], expected_probs: list[float]) -> float:
    """One-sample chi-square p-value against exact cell probabilities."""
    n = sum(observed)
    expected = [p * n for p in expected_probs]
    return stats.chisquare(observed, expected).pvalue


def two_sample_chisq_pvalue(counts_a: dict, counts_b: dict) -> float:
    """Chi-square homogeneity p-value for two empirical distributions."""
    keys = sorted(set(counts_a) | set(counts_b))
    table = [
        [counts_a.get(key, 0) for key in keys],
        [counts_b.get(key, 0) for key in keys],
    ]
    return stats.chi2_contingency(table).pvalue


def binomial_sigma(n: int, p: float) -> float:
    return math.sqrt(n * p * (1.0 - p))


def exact_sum(n: int, k: int, m: int, name: str):
    """One quantity of ``oracle.exact_transcript_laws``, by its exact_work key."""
    return exact_transcript_laws(n, k, m, [name])[name]


def dixon_m_power_C(n: int, k: int, m: int) -> Fraction:
    """Reference E[m^C] by Dixon's recursion (Math. Z. 110, 1969), as a rational.

    Of the a_j = (j!)^k tuples on j points, t_j are connected; splitting
    off the component of point 1 gives t_j = a_j - sum_{i<j} C(j-1, i-1)
    t_i a_{j-i}, and B_j, the sum of m^C over all tuples, satisfies B_0 = 1
    and B_j = m sum_{i<=j} C(j-1, i-1) t_i B_{j-i}. E[m^C] = B_n / a_n.
    """
    a = [math.factorial(j) ** k for j in range(n + 1)]
    t = [0] * (n + 1)
    b = [1] + [0] * n
    for j in range(1, n + 1):
        # ct[i] = C(j-1, i-1) t_i: point 1's component has i points, i < j
        ct = [0] + [math.comb(j - 1, i - 1) * t[i] for i in range(1, j)]
        t[j] = a[j] - sum(ct[i] * a[j - i] for i in range(1, j))
        b[j] = m * (t[j] + sum(ct[i] * b[j - i] for i in range(1, j)))
    return Fraction(b[n], a[n])
