"""Random multigraphs built from k independent uniform vertex permutations.

The graph on n vertices has one edge {v, p_i(v)} for every vertex v and
permutation p_i (self-loops allowed, multiplicities kept). Its number of
connected components C controls the collision probability of two protocol
executions: Pr[collision] <= E[m^C] / m^(kn), and for n >= 19, k >= 3 the
closed forms

    Pr[C = c]  <=  1.5^(c-1) / c! * (e/n)^((k-1)(c-1))
    E[m^C]     <=  m + m^2 * (n/e)^(1-k)      (needs m <= (1/2)(n/e)^(k-1))

hold, where ``planner.regime_flags`` says so. This module evaluates the
bounds, computes E[m^C] exactly by Dixon's recursion over connected
permutation tuples, and estimates the distribution and the expectation by
Monte Carlo: numpy samples batches of graphs and counts their components
by label propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .planner import regime_flags
from .rng import derive_seed

ENUMERATION_BUDGET = 10**7


class EnumerationBudgetError(ValueError):
    """Requested exact computation or one draw exceeds the fixed 10**7 work budget."""


def _figure(value: int | float) -> str:
    """value as a refusal prints it: an integer of 2**64 or more as its log2,
    "2^1024.6", so that the message stays one line at any size."""
    return f"2^{math.log2(value):.1f}" if isinstance(value, int) and value >= 2**64 else str(value)


def _require_budget(units: int | float, unit: str, quantity: str, **sizes: int) -> None:
    """The one raise past ENUMERATION_BUDGET, in one format for every exact quantity and draw."""
    if units > ENUMERATION_BUDGET:
        given = ", ".join(f"{name}={_figure(value)}" for name, value in sizes.items())
        raise EnumerationBudgetError(
            f"{quantity} takes {_figure(units)} {unit}, over the budget {ENUMERATION_BUDGET}, for {given}"
        )


def _check_sizes(n: int, k: int, m: int) -> None:
    """The one (n, k, m) check of every E[m^C], exact-law and bound entry point."""
    if n < 1 or k < 1 or m < 2:
        raise ValueError(f"need n, k >= 1 and m >= 2, got n={n}, k={k}, m={m}")


def _inf_past_range(convert, *args) -> float:
    """convert(*args), a float conversion of a non-negative value (float(x),
    math.exp(x), pow(2.0, x), ...), or inf where it raises OverflowError: the
    package's one decision on the edge of float range, which no constant states."""
    try:
        return convert(*args)
    except OverflowError:
        return math.inf


# confidence of the Monte Carlo mean intervals, and its two-sided normal quantile
MEAN_CI_CONFIDENCE = 0.99
_Z99 = 2.5758293035489004

# elements per batch of shard_batches, the one driver and unit of work of
# both Monte Carlo samplers, so it sets their peak memory. At 2^17 the
# counter's flat permutations (1 MiB) and labels fit a 2 MiB L2 cache;
# 2^16 measured the same, 2^18 lost a third of the gain. Component counts
# do not depend on it (rng.permuted draws row after row), but collision
# hits do: each batch draws inputs, shares, permutations, so it stays fixed.
_BATCH_ELEMENTS = 1 << 17


def shard_batches(
    samples: int, shards: int, n: int, k: int, seed: int, *tag: int
) -> Iterator[tuple[np.random.Generator, int]]:
    """Yield (rng, size) for each batch of `samples` draws of k * n numbers; the one
    admission of a draw, which refuses sizes below 1 and k * n over ENUMERATION_BUDGET
    when called. Shard s < samples takes samples // shards draws, one more if s <
    samples % shards, from default_rng(derive_seed(seed, *tag, s)), in batches of
    at most _BATCH_ELEMENTS // (k * n) draws."""
    if min(samples, shards, n, k) < 1:
        raise ValueError(f"need samples, shards, n, k >= 1, got {samples}, {shards}, {n}, {k}")
    _require_budget(k * n, "entries", "one draw", n=n, k=k)
    cap = max(1, _BATCH_ELEMENTS // (k * n))
    base, extra = divmod(samples, shards)

    def batches():
        for s in range(min(shards, samples)):
            rng = np.random.default_rng(derive_seed(seed, *tag, s))
            size = base + (s < extra)
            for done in range(0, size, cap):
                yield rng, min(cap, size - done)

    return batches()


def lemma4_probability_bound(n: int, k: int, c: int) -> float:
    """Closed-form upper bound on Pr[C = c], evaluated in log space.

    Proved for n >= 19 and k >= 3 (``planner.regime_flags``), but evaluated
    everywhere: c = 1 gives exactly 1, and past float range it is inf.
    """
    if c < 1 or c > n:
        raise ValueError(f"component count must satisfy 1 <= c <= n, got c={c}")
    log_bound = (
        (c - 1) * math.log(1.5)
        - math.lgamma(c + 1)
        + (k - 1) * (c - 1) * (1.0 - math.log(n))
    )
    return _inf_past_range(math.exp, log_bound)


def expectation_bound(n: int, k: int, m: int) -> float:
    """Closed-form upper bound m + m^2 (n/e)^(1-k) on E[m^C].

    Raises ValueError outside the regime where ``planner.regime_flags``
    says it is proved, where the float power can overflow (n = 1, k = 800).
    """
    violated = [label for label, ok in regime_flags(n, k, m=m).items() if not ok]
    if violated:
        raise ValueError(f"expectation bound preconditions violated: {', '.join(violated)}")
    return m + m * m * (math.e / n) ** (k - 1)


@dataclass(frozen=True)
class Quantity:
    """One reported number: its value, an interval [lo, hi] that holds it (a
    None end is unbounded), how it was obtained, and for a sample the
    interval's confidence and the work behind it."""

    value: Fraction | float | None
    lo: Fraction | float | None
    hi: Fraction | float | None
    provenance: str  # "exact" or "monte-carlo"
    confidence: float | None = None
    samples: int | None = None
    hits: int | None = None

    @classmethod
    def exact(cls, x: Fraction) -> Quantity:
        return cls(x, x, x, "exact")

    @classmethod
    def sampled(
        cls, value: float, halfwidth: float, confidence: float, samples: int, hits: int | None = None
    ) -> Quantity:
        return cls(value, value - halfwidth, value + halfwidth, "monte-carlo", confidence, samples, hits)

    def to_json(self) -> dict:
        """Floats, inf past float range; "fraction" for a rational value; no None work field."""
        ends = {"value": self.value, "lo": self.lo, "hi": self.hi}
        out = {name: x if x is None else _inf_past_range(float, x) for name, x in ends.items()}
        out["provenance"] = self.provenance
        if isinstance(self.value, Fraction):
            out["fraction"] = f"{self.value.numerator}/{self.value.denominator}"
        work = {"confidence": self.confidence, "samples": self.samples, "hits": self.hits}
        return out | {name: x for name, x in work.items() if x is not None}


def _component_counts_from_perms(perms: np.ndarray) -> np.ndarray:
    """Component counts for a batch of graphs, perms shaped (batch, k, n).

    Minimum-label propagation on one flat label array, where graph b's
    vertex v is b*n + v. Each round pulls p(v)'s label into v and pushes
    v's label to p(v) (one scatter: a permutation repeats no index); then
    it hooks each old label onto the least new label of the vertices that
    held it, and jumps every label to its label's label (Shiloach and
    Vishkin, J. Algorithms 1982). The hook moves a label along a whole
    cycle of labels at once, so the rounds grow like log n even at k = 1,
    where propagation alone moves a label one cycle step per round.

    Invariant: a vertex's label is a vertex of its own component, and no
    larger than the vertex itself. So a graph whose vertices all carry one
    label is connected, and its label is its vertex 0: the loop stops once
    every graph of the batch is like that, or at the fixed point. Either
    way a vertex keeps its own index iff it is the minimum of its component.
    """
    batch, k, n = perms.shape
    vertices = np.arange(batch * n)
    flat = (perms + n * np.arange(batch)[:, None, None]).transpose(1, 0, 2).reshape(k, -1)
    labels = vertices
    while True:
        new = labels.copy()
        for p in flat:
            np.minimum(new, new[p], out=new)
            new[p] = np.minimum(new[p], new)
        np.minimum.at(new, labels, new)
        new = new[new]
        grid = new.reshape(batch, n)
        if (grid == grid[:, :1]).all() or np.array_equal(new, labels):
            break
        labels = new
    return (new == vertices).reshape(batch, n).sum(axis=1)


def estimate_component_distribution(
    n: int, k: int, samples: int, seed: int, shards: int = 1
) -> dict[int, int]:
    """Monte Carlo histogram of the component count C: {c: graphs with c
    components} over the c seen, its counts summing to ``samples``.

    ``shard_batches`` admits and seeds the draws; the merged counts are
    integers, so the result is bit-identical for a fixed (seed, shards).
    """
    batches = shard_batches(samples, shards, n, k, seed)
    totals = np.zeros(n + 1, dtype=np.int64)
    for rng, size in batches:
        perms = rng.permuted(np.tile(np.arange(n), (size, k, 1)), axis=-1)
        totals += np.bincount(_component_counts_from_perms(perms), minlength=n + 1)
    return {c: int(count) for c, count in enumerate(totals) if count}


def _sqrt_or_inf(x: Fraction, divisor: int = 1) -> float:
    """sqrt(x / divisor) of a non-negative x; by logarithms when x itself is
    past float range, and inf only when the root is past it too."""
    value = _inf_past_range(float, x)
    if value < math.inf:
        return math.sqrt(value / divisor)
    return _inf_past_range(math.exp, (math.log(x.numerator) - math.log(x.denominator * divisor)) / 2)


def estimate_m_power_C(
    n: int, k: int, m: int, samples: int, seed: int, shards: int = 1
) -> Quantity:
    """Monte Carlo estimate of E[m^C], its interval the MEAN_CI_CONFIDENCE normal CI.

    The same (n, k, samples, seed, shards) sees the same graphs as
    estimate_component_distribution. Accumulation is exact over integer
    component counts, so no overflow before the final division; the normal
    CI is a fair approximation for small m but optimistic for large m,
    where m^C is heavy-tailed. Mean or halfwidth is inf past float range.
    """
    _check_sizes(n, k, m)
    counts = estimate_component_distribution(n, k, samples, seed, shards)
    total = sum(cnt * m**c for c, cnt in counts.items())
    total_sq = sum(cnt * m ** (2 * c) for c, cnt in counts.items())
    var = Fraction(0)
    if samples > 1:
        var = (Fraction(total_sq) - Fraction(total * total, samples)) / (samples - 1)
    mean = _inf_past_range(float, Fraction(total, samples))
    return Quantity.sampled(mean, _Z99 * _sqrt_or_inf(var, samples), MEAN_CI_CONFIDENCE, samples)


def m_power_c_work(n: int, k: int, m: int) -> float:
    """Word products exact_m_power_C takes, inf past float range: about n^2
    products of integers of up to w = ceil((k log2(n!) + n log2(m)) / 64)
    words, each about w^log2(3) word products (Karatsuba), then one w-word
    gcd, n^2 w^log2(3) + w^2 in all."""
    def work() -> float:
        words = math.ceil((k * math.lgamma(n + 1) / math.log(2) + n * math.log2(m)) / 64)
        return n * n * words ** math.log2(3) + words * words

    return _inf_past_range(work)


def exact_m_power_C(n: int, k: int, m: int) -> Fraction:
    """Exact E[m^C] by Dixon's recursion (Math. Z. 110, 1969), as a rational.

    Of the a_j = (j!)^k tuples on j points, t_j are connected; splitting
    off the component of point 1 gives t_j = a_j - sum_{i<j} C(j-1, i-1)
    t_i a_{j-i}, and B_j, the sum of m^C over all tuples, satisfies B_0 = 1
    and B_j = m sum_{i<=j} C(j-1, i-1) t_i B_{j-i}. E[m^C] = B_n / a_n.
    Raises EnumerationBudgetError when its cost, ``m_power_c_work``,
    exceeds ENUMERATION_BUDGET.
    """
    _check_sizes(n, k, m)
    _require_budget(m_power_c_work(n, k, m), "word products", "exact_m_power_c", n=n, k=k, m=m)
    a = [math.factorial(j) ** k for j in range(n + 1)]
    t = [0] * (n + 1)
    b = [1] + [0] * n
    for j in range(1, n + 1):
        # ct[i] = C(j-1, i-1) t_i: point 1's component has i points, i < j
        ct = [0] + [math.comb(j - 1, i - 1) * t[i] for i in range(1, j)]
        t[j] = a[j] - sum(ct[i] * a[j - i] for i in range(1, j))
        b[j] = m * (t[j] + sum(ct[i] * b[j - i] for i in range(1, j)))
    return Fraction(b[n], a[n])
