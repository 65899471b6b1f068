"""Reference computations for the benchmark's output checks.

Nothing here imports the program under test: every expected value is
derived from the method's own formulas, so a check that compares the
program against this module compares two independent computations.

Component law of the random permutation multigraph (n vertices, k
uniform permutations, one edge {v, p_i(v)} per vertex and permutation):
with a_j = (j!)^k the number of k-tuples on j points and t_j the number of
connected ("transitive") ones, splitting off the component of vertex 1
gives Dixon's recursion

    a_j = sum_{i=1..j} C(j-1, i-1) * t_i * a_{j-i}

and, for the count N(n, c) of tuples with c components,

    N(n, c) = sum_{i=1..n} C(n-1, i-1) * t_i * N(n-i, c-1).

Dividing by a_j gives the normalized form used at large n, where every
term is positive: with w(j, i) = (i/j) * C(j, i)^(1-k) and p_j = t_j / a_j,

    p_j = 1 - sum_{i<j} w(j, i) * p_i,
    P(j, c) = sum_{i=1..j} w(j, i) * p_i * P(j-i, c-1).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

LOG2_E = math.log2(math.e)


def sigma_for(k: int, n: int, m: int) -> float:
    """sigma = ((k-1)(log2 n - log2 e) - log2 m) / 2, the paper's closed form."""
    return ((k - 1) * (math.log2(n) - LOG2_E) - math.log2(m)) / 2


def minimal_k(sigma: float, n: int, m: int) -> int:
    """Smallest k >= 1 with sigma_for(k, n, m) >= sigma, by linear search."""
    k = 1
    while sigma_for(k, n, m) < sigma:
        k += 1
    return k


def theorem_bound(n: int, k: int, m: int) -> float:
    """sqrt(m (e/n)^(k-1)) = 2^-sigma; at (19, 3, 2) this is sqrt(2) e / 19."""
    return math.sqrt(m * (math.e / n) ** (k - 1))


def component_counts(n: int, k: int) -> list[int]:
    """N(n, c) for c = 0..n: k-tuples of permutations of [n] with c components."""
    a = [math.factorial(j) ** k for j in range(n + 1)]
    t = [0] * (n + 1)
    for j in range(1, n + 1):
        t[j] = a[j] - sum(math.comb(j - 1, i - 1) * t[i] * a[j - i] for i in range(1, j))
    table = [[1] + [0] * n]  # table[j][c] = N(j, c)
    for j in range(1, n + 1):
        row = [0] * (n + 1)
        for c in range(1, j + 1):
            row[c] = sum(
                math.comb(j - 1, i - 1) * t[i] * table[j - i][c - 1] for i in range(1, j - c + 2)
            )
        table.append(row)
    return table[n]


def component_law(n: int, k: int) -> dict[int, Fraction]:
    """Exact Pr[C = c] for every c with nonzero probability."""
    counts = component_counts(n, k)
    total = math.factorial(n) ** k
    return {c: Fraction(v, total) for c, v in enumerate(counts) if v}


def m_power_expectation(n: int, k: int, m: int) -> Fraction:
    """Exact E[m^C]."""
    return sum((p * m**c for c, p in component_law(n, k).items()), Fraction(0))


def component_law_float(n: int, k: int, cmax: int) -> dict[int, float]:
    """Pr[C = c] for c = 1..cmax by the normalized recursion, in floats.

    Pr[C = 1] is returned as 1 - Pr[C >= 2], with Pr[C >= 2] summed
    directly from positive terms, so tiny tails keep full relative precision.
    """
    lf = np.array([math.lgamma(j + 1) for j in range(n + 1)])
    p = np.zeros(n + 1)  # p[j] = Pr[connected on j vertices]
    tail = 0.0  # Pr[C >= 2] at j = n
    law = np.zeros((cmax + 1, n + 1))  # law[c, j] = P(j, c)
    law[0, 0] = 1.0
    for j in range(1, n + 1):
        i = np.arange(1, j + 1)
        w = (i / j) * np.exp((1 - k) * (lf[j] - lf[i] - lf[j - i]))
        disconnected = float(np.dot(w[:-1], p[1:j]))
        p[j] = 1.0 - disconnected
        if j == n:
            tail = disconnected
        wp = w * p[1 : j + 1]
        for c in range(1, cmax + 1):
            law[c, j] = float(np.dot(wp, law[c - 1, j - i]))
    out = {c: float(law[c, n]) for c in range(2, cmax + 1)}
    out[1] = 1.0 - tail
    return dict(sorted(out.items()))


def binomial_interval(trials: int, p: float, level: float) -> tuple[int, int]:
    """(lo, hi) with Pr[X < lo] <= level/2 and Pr[X > hi] <= level/2 for
    X ~ Binomial(trials, p), each tail summed exactly from the pmf."""
    if p <= 0.0:
        return 0, 0
    if p >= 1.0:
        return trials, trials
    x = np.arange(trials + 1)
    lg = np.array([math.lgamma(v + 1) for v in range(trials + 1)])
    pmf = np.exp(lg[trials] - lg - lg[::-1] + x * math.log(p) + (trials - x) * math.log1p(-p))
    below = np.concatenate(([0.0], np.cumsum(pmf)[:-1]))  # Pr[X < x]
    above = np.concatenate((np.cumsum(pmf[::-1])[::-1][1:], [0.0]))  # Pr[X > x]
    lo = int(np.count_nonzero(below <= level / 2)) - 1
    hi = int(np.argmax(above <= level / 2))
    return lo, hi


def mean_interval(law: dict[int, float], m: int, samples: int, level: float) -> tuple[float, float]:
    """Interval holding the mean of `samples` draws of m^C with probability
    at least 1 - level, C drawn from `law`.

    m^C is heavy-tailed, so a normal interval is too narrow. With N_c the
    number of draws with C = c, the mean is m + sum_{c>=2} (m^c - m) N_c /
    samples. Each N_c below the cut c* (the smallest c with samples *
    Pr[C >= c] <= level/2) is held to its exact binomial interval, sharing
    the other level/2; at and beyond c* no draw is assumed, by the union bound.
    """
    expect = math.fsum(p * float(m) ** c for c, p in law.items())
    heavy = [c for c in sorted(law) if c >= 2]
    cut = next(
        (c for c in heavy if samples * math.fsum(law[d] for d in heavy if d >= c) <= level / 2),
        heavy[-1] + 1 if heavy else 2,
    )
    below_cut = [c for c in heavy if c < cut]
    lower = upper = expect
    for c in heavy:
        weight = float(m) ** c - m
        if c >= cut:
            lower -= weight * law[c]
            continue
        lo, hi = binomial_interval(samples, law[c], level / 2 / len(below_cut))
        lower -= weight * (samples * law[c] - lo) / samples
        upper += weight * (hi - samples * law[c]) / samples
    return lower, upper


def chi_square_p_value(observed: list[int]) -> float:
    """Upper-tail p-value of Pearson's statistic against equal bin
    probabilities, by the Wilson-Hilferty normal approximation."""
    total = sum(observed)
    expected = total / len(observed)
    stat = sum((o - expected) ** 2 for o in observed) / expected
    dof = len(observed) - 1
    z = ((stat / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
    return 0.5 * math.erfc(z / math.sqrt(2))


def hoeffding_halfwidth(samples: int, confidence: float) -> float:
    """Two-sided Hoeffding halfwidth for a mean of [0, 1]-bounded draws."""
    return math.sqrt(math.log(2 / (1 - confidence)) / (2 * samples))
