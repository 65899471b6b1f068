"""Statistical and group helpers shared across the test suite."""

from __future__ import annotations

import math

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
