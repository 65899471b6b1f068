"""The benchmark's reference computations against brute force."""

import math
from fractions import Fraction
from itertools import permutations, product

import pytest

import reference


def brute_force_counts(n: int, k: int) -> list[int]:
    """N(n, c) by enumerating every k-tuple of permutations of [n]."""
    counts = [0] * (n + 1)
    perms = list(permutations(range(n)))
    for tup in product(perms, repeat=k):
        parent = list(range(n))

        def find(v: int) -> int:
            while parent[v] != v:
                v = parent[v]
            return v

        for p in tup:
            for v, w in enumerate(p):
                parent[find(v)] = find(w)
        counts[sum(1 for v in range(n) if find(v) == v)] += 1
    return counts


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2),
                                 (5, 2), (2, 3), (3, 3), (4, 3)])
def test_recursion_matches_brute_force(n, k):
    assert reference.component_counts(n, k) == brute_force_counts(n, k)


def test_law_at_the_reference_point():
    law = reference.component_law(19, 3)
    assert sum(law.values()) == 1
    assert float(law[1]) == pytest.approx(0.9972033, abs=1e-7)
    assert float(reference.m_power_expectation(19, 3, 2)) == pytest.approx(2.0056108, abs=1e-7)


def test_normalized_recursion_matches_exact_law():
    exact = reference.component_law(19, 3)
    approx = reference.component_law_float(19, 3, cmax=5)
    for c, p in approx.items():
        assert p == pytest.approx(float(exact[c]), rel=1e-12)
    tail = 1 - reference.component_law_float(1000, 3, cmax=2)[1]
    assert tail == pytest.approx(1.0e-6, rel=0.01)


def test_planner_formula_at_the_paper_point():
    m = 2**32
    assert reference.minimal_k(40, 10_000, m) == 11
    assert reference.sigma_for(11, 10_000, m) >= 40 > reference.sigma_for(10, 10_000, m)
    assert reference.theorem_bound(19, 3, 2) == pytest.approx(math.sqrt(2) * math.e / 19, rel=1e-15)


@pytest.mark.parametrize("trials,p,level", [(20, 0.3, 0.05), (50, 0.01, 1e-3), (40, 0.9, 1e-2)])
def test_binomial_interval_tails(trials, p, level):
    pmf = [math.comb(trials, x) * p**x * (1 - p) ** (trials - x) for x in range(trials + 1)]
    lo, hi = reference.binomial_interval(trials, p, level)
    assert sum(pmf[:lo]) <= level / 2 < sum(pmf[: lo + 1])
    assert sum(pmf[hi + 1:]) <= level / 2 < sum(pmf[hi:])


def test_mean_interval_holds_the_mean():
    law = {c: float(p) for c, p in reference.component_law(19, 3).items()}
    for m in (2, 5, 24):
        expect = sum(p * m**c for c, p in law.items())
        lo, hi = reference.mean_interval(law, m, 30_000, 1e-6)
        assert m < lo < expect < hi
    assert reference.mean_interval({1: 1.0}, 7, 100, 1e-6) == (7.0, 7.0)


def test_exact_fraction_of_m_power_expectation():
    # E[2^C] for n = 2, k = 1: C = 2 for the identity, 1 for the swap
    assert reference.m_power_expectation(2, 1, 2) == Fraction(4 + 2, 2)
