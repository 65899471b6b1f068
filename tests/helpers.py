"""Statistical and group helpers shared across the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

from scipy import stats

from shufflesum.oracle import exact_avg_tv, histogram_laws
from shufflesum.protocol import transcript_pieces

# significance for every goodness-of-fit assertion in the suite
SIGNIFICANCE = 1e-6


def group_sum(elements, mod) -> int:
    """Sum of the elements in Z_m, by Python's unbounded ints; the empty sum is 0."""
    return sum(elements) % mod.m


def transcript_line(blocks, clear, m, seed) -> str:
    """The whole line that ``protocol.transcript_pieces`` writes, as one str."""
    return b"".join(transcript_pieces(blocks, clear, m, seed)).decode()


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


def exact_sum(n: int, k: int, m: int, name: str) -> Fraction:
    """An exact transcript quantity as a sum over ``oracle.histogram_laws``, by
    its exact_work key: the package's ``exact_avg_tv``, or the reference
    collision probability ``walk_collision``."""
    return exact_avg_tv(n, k, m) if name == "exact_avg_tv" else walk_collision(n, k, m)


def walk_collision(n: int, k: int, m: int) -> Fraction:
    """Reference Pr[collision] by the histogram walk, sharing no code with E[m^C].

    A transcript with block histograms h has probability N(h) / (D prod_j
    multinomial(n; h_j)) at each of its orderings, D = m^((k-1)n). With F(h)
    = prod_j prod_a h_j(a)! = (n!)^k / prod_j multinomial(n; h_j), two
    executions on one input class collide with probability sum_h N(h)^2
    F(h) / ((n!)^k D^2); weighing the classes' orderings over m^n averages
    it over the input. It is also lemma 2's E, a fresh sharing equal to a
    shuffled one: N(h) counts the D ordered unshuffled sharings S of a
    class with h(S) = h, so E's sum_S N(h(S)) F(h(S)) = sum_h N(h)^2 F(h).
    """
    fact = [math.factorial(h) for h in range(n + 1)]
    cell_factorials: dict[int, int] = {}
    total = 0
    for _, orderings, law in histogram_laws(n, k, m):
        for key, count in law.items():
            if key not in cell_factorials:
                f, rest = 1, key
                for _ in range(k * m):
                    rest, h = divmod(rest, n + 1)
                    f *= fact[h]
                cell_factorials[key] = f
            total += orderings * count * count * cell_factorials[key]
    d = m ** ((k - 1) * n)
    return Fraction(total, fact[n] ** k * d * d * m**n)


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
