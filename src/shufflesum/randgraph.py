"""Random multigraphs built from k independent uniform vertex permutations.

The graph on n vertices has one edge {v, p_i(v)} for every vertex v and
permutation p_i (self-loops allowed, multiplicities kept). Its number of
connected components C controls the collision probability of two protocol
executions: Pr[collision] <= E[m^C] / m^(kn), and for n >= 19, k >= 3 the
closed forms

    Pr[C = c]  <=  1.5^(c-1) / c! * (e/n)^((k-1)(c-1))
    E[m^C]     <=  m + m^2 * (n/e)^(1-k)      (needs m <= (1/2)(n/e)^(k-1))

hold. This module evaluates the bounds, computes E[m^C] exactly by
Dixon's recursion over connected permutation tuples, and estimates the
distribution and the expectation by Monte Carlo: numpy samples whole
batches of graphs and counts their components by label propagation.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO

import numpy as np

from .planner import validate_params
from .rng import derive_seed

ENUMERATION_BUDGET = 10**7

# two-sided 99% normal quantile, for Monte Carlo mean confidence intervals
_Z99 = 2.5758293035489004

# elements per numpy batch when mass-sampling (memory / speed knob). The
# component-count sampler does not depend on it: rng.permuted shuffles row
# after row, so any split of a shard draws the same stream. The collision
# sampler in oracle does: each of its batches draws inputs, then shares,
# then permutations, so a different cap gives a different stream.
_BATCH_ELEMENTS = 1 << 21


class EnumerationBudgetError(ValueError):
    """Requested exact computation exceeds the fixed 10**7 work budget."""


def lemma4_probability_bound(n: int, k: int, c: int, *, warn: bool = True) -> float:
    """Closed-form upper bound on Pr[C = c], evaluated in log space.

    Stated for n >= 19 and k >= 3; smaller parameters only produce a
    warning because the expression itself is defined everywhere. c = 1
    gives exactly 1.
    """
    if c < 1 or c > n:
        raise ValueError(f"component count must satisfy 1 <= c <= n, got c={c}")
    if warn and (n < 19 or k < 3):
        warnings.warn(
            f"probability bound is only proved for n >= 19 and k >= 3 (got n={n}, k={k})",
            stacklevel=2,
        )
    log_bound = (
        (c - 1) * math.log(1.5)
        - math.lgamma(c + 1)
        + (k - 1) * (c - 1) * (1.0 - math.log(n))
    )
    return math.exp(log_bound)


def expectation_bound(n: int, k: int, m: int) -> float:
    """Closed-form upper bound m + m^2 (n/e)^(1-k) on E[m^C].

    Raises ValueError unless n >= 19, k >= 3 and m <= (1/2)(n/e)^(k-1).
    """
    violated = [v for v in validate_params(n, k, m) if v != "sigma>=1"]
    if violated:
        raise ValueError(f"expectation bound preconditions violated: {', '.join(violated)}")
    return m + m * m * (math.e / n) ** (k - 1)


@dataclass(frozen=True)
class ComponentHistogram:
    """Observed component counts over i.i.d. sampled graphs."""

    n: int
    k: int
    counts: dict[int, int]
    samples: int
    seed: int

    def frequency(self, c: int) -> float:
        return self.counts.get(c, 0) / self.samples

    def to_csv(self) -> str:
        """Columns c, count, frequency, lemma4_bound for every observed c."""
        out = StringIO()
        out.write("c,count,frequency,lemma4_bound\n")
        for c in sorted(self.counts):
            bound = lemma4_probability_bound(self.n, self.k, c, warn=False)
            out.write(f"{c},{self.counts[c]},{self.counts[c] / self.samples!r},{bound!r}\n")
        return out.getvalue()


def _component_counts_from_perms(perms: np.ndarray) -> np.ndarray:
    """Component counts for a batch of graphs, perms shaped (batch, k, n).

    Vectorized minimum-label propagation: every vertex starts labeled with
    its own index and repeatedly takes the minimum label across its edges
    (both directions of every permutation) until nothing changes; a vertex
    then keeps its own index iff it is its component's minimum.
    """
    batch, k, n = perms.shape
    base = np.broadcast_to(np.arange(n), (batch, k, n))
    inv = np.empty_like(perms)
    np.put_along_axis(inv, perms, base, axis=-1)
    labels = np.tile(np.arange(n), (batch, 1))
    while True:
        new = labels.copy()
        for i in range(k):
            np.minimum(new, np.take_along_axis(new, perms[:, i, :], axis=1), out=new)
            np.minimum(new, np.take_along_axis(new, inv[:, i, :], axis=1), out=new)
        if np.array_equal(new, labels):
            break
        labels = new
    return (labels == np.arange(n)).sum(axis=1)


def _shard_sizes(samples: int, shards: int) -> list[int]:
    base, extra = divmod(samples, shards)
    return [base + (1 if s < extra else 0) for s in range(shards)]


def _sample_component_counts(n: int, k: int, samples: int, seed: int, shards: int) -> Counter:
    """Counter of component counts over `samples` graphs, sharded streams."""
    counts: Counter = Counter()
    batch_cap = max(1, _BATCH_ELEMENTS // (k * n))
    for s, shard_samples in enumerate(_shard_sizes(samples, shards)):
        rng = np.random.default_rng(derive_seed(seed, s))
        remaining = shard_samples
        while remaining > 0:
            batch = min(remaining, batch_cap)
            tiled = np.tile(np.arange(n), (batch, k, 1))
            perms = rng.permuted(tiled, axis=-1)
            cs = _component_counts_from_perms(perms)
            counts.update(cs.tolist())
            remaining -= batch
    return counts


def estimate_component_distribution(
    n: int, k: int, samples: int, seed: int, shards: int = 1
) -> ComponentHistogram:
    """Monte Carlo histogram of the component count C.

    Shard s draws from the stream derived from (seed, s); the merged counts
    are integers, so the result is bit-identical for a fixed (seed, shards).
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if shards < 1:
        raise ValueError(f"need shards >= 1, got {shards}")
    counts = _sample_component_counts(n, k, samples, seed, shards)
    return ComponentHistogram(n, k, dict(sorted(counts.items())), samples, seed)


def _histogram_m_power_stats(counts: Counter | dict[int, int], m: int, samples: int) -> tuple[float, float]:
    # exact integer accumulation over the histogram, floats only at the end
    total = sum(cnt * m**c for c, cnt in counts.items())
    total_sq = sum(cnt * m ** (2 * c) for c, cnt in counts.items())
    mean = Fraction(total, samples)
    if samples > 1:
        var = (Fraction(total_sq) - Fraction(total * total, samples)) / (samples - 1)
    else:
        var = Fraction(0)
    try:
        mean_f = float(mean)
        hw = _Z99 * math.sqrt(float(var) / samples)
    except OverflowError:
        mean_f = math.inf
        hw = math.inf
    return mean_f, hw


def estimate_m_power_C(
    n: int, k: int, m: int, samples: int, seed: int, shards: int = 1
) -> tuple[float, float]:
    """Monte Carlo (mean, 99% CI halfwidth) estimate of E[m^C].

    The same (n, k, samples, seed, shards) sees the same graphs as
    estimate_component_distribution. Accumulation is exact over integer
    component counts, so no overflow before the final division; the normal
    CI is a fair approximation for small m but optimistic for large m,
    where m^C is heavy-tailed.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    hist = estimate_component_distribution(n, k, samples, seed, shards)
    return _histogram_m_power_stats(hist.counts, m, samples)




def exact_m_power_C(n: int, k: int, m: int) -> Fraction:
    """Exact E[m^C] by Dixon's recursion (Math. Z. 110, 1969), as a rational.

    Of the a_j = (j!)^k tuples on j points, t_j are connected; splitting
    off the component of point 1 gives t_j = a_j - sum_{i<j} C(j-1, i-1)
    t_i a_{j-i}, and B_j, the sum of m^C over all tuples, satisfies B_0 = 1
    and B_j = m sum_{i<=j} C(j-1, i-1) t_i B_{j-i}. E[m^C] = B_n / a_n.

    That is about n^2 products of integers of up to w words, where
    w = ceil((k log2(n!) + n log2(m)) / 64), each costing about
    w^log2(3) word products (Karatsuba), then one w-word gcd. Raises
    EnumerationBudgetError when n^2 w^log2(3) + w^2 exceeds
    ENUMERATION_BUDGET.
    """
    if n < 1 or k < 1 or m < 1:
        raise ValueError(f"need n, k, m >= 1, got n={n}, k={k}, m={m}")
    # n^2 alone bounds the work from below; testing it first keeps lgamma finite
    over = n * n > ENUMERATION_BUDGET
    if not over:
        words = math.ceil((k * math.lgamma(n + 1) / math.log(2) + n * math.log2(m)) / 64)
        over = n * n * words ** math.log2(3) + words * words > ENUMERATION_BUDGET
    if over:
        raise EnumerationBudgetError(
            f"E[m^C] recursion exceeds the work budget {ENUMERATION_BUDGET} for n={n}, k={k}, m={m}"
        )
    a = [math.factorial(j) ** k for j in range(n + 1)]
    t = [0] * (n + 1)
    b = [1] + [0] * n
    for j in range(1, n + 1):
        # ct[i] = C(j-1, i-1) t_i: point 1's component has i points, i < j
        ct = [0] + [math.comb(j - 1, i - 1) * t[i] for i in range(1, j)]
        t[j] = a[j] - sum(ct[i] * a[j - i] for i in range(1, j))
        b[j] = m * (t[j] + sum(ct[i] * b[j - i] for i in range(1, j)))
    return Fraction(b[n], a[n])
