"""Random multigraphs built from k independent uniform vertex permutations.

The graph on n vertices has one edge {v, p_i(v)} for every vertex v and
permutation p_i (self-loops allowed, multiplicities kept). Its number of
connected components C controls the collision probability of two protocol
executions: Pr[collision] <= E[m^C] / m^(kn), and for n >= 19, k >= 3 the
closed forms

    Pr[C = c]  <=  1.5^(c-1) / c! * (e/n)^((k-1)(c-1))
    E[m^C]     <=  m + m^2 * (n/e)^(1-k)      (needs m <= (1/2)(n/e)^(k-1))

hold, where ``planner.regime_flags`` says so. This module evaluates the
bounds, computes E[m^C] exactly from Burnside's identity, and estimates
the distribution and the expectation by Monte Carlo: numpy draws each
batch of graphs' permutations straight into the flat layout of the
label-propagation counter, which stops at the first labelling that every
edge agrees with.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator

import numpy as np

ENUMERATION_BUDGET = 10**7


class EnumerationBudgetError(ValueError):
    """Requested exact computation or one draw exceeds the fixed 10**7 work budget."""


def _figure(value: int | float) -> str:
    """value as a refusal prints it: an integer of 2**64 or more as its log2,
    "2^1024.6", so that the message stays one line at any size."""
    return f"2^{math.log2(value):.1f}" if isinstance(value, int) and value >= 2**64 else str(value)


def within_budget(units: int | float) -> bool:
    """Whether work of `units` fits ENUMERATION_BUDGET: the one budget edge, for the refusal and every gate."""
    return units <= ENUMERATION_BUDGET


def _require_budget(units: int | float, unit: str, quantity: str, **sizes: int) -> None:
    """The one raise past ENUMERATION_BUDGET, in one format for every exact quantity and draw."""
    if not within_budget(units):
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
# both Monte Carlo samplers, so it sets their peak memory. At 2^16 the
# graph sampler's one buffer, allocated per call and reused by every batch,
# holds k rows of batch * n permutations, k rows of their inverses and 4
# label rows, (2k + 4) / k * 2^16 words: 1.7 MiB at k = 3, inside one 2 MiB
# L2 cache, which 2^17 (3.3 MiB) would spill out of. Component counts do
# not depend on it (rng.permuted draws row after row), but collision hits
# do: each batch draws inputs, shares, permutations, so where one shard
# draws more than 2^16 residues its hits follow the batches of this cap.
_BATCH_ELEMENTS = 1 << 16


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, path...) into a stable 64-bit child seed."""
    tag = ":".join(str(p) for p in (seed, *path)).encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


def shard_batches(
    samples: int, shards: int, n: int, k: int, seed: int, *tag: int
) -> Iterator[tuple[np.random.Generator, int]]:
    """Yield (rng, size) for each batch of `samples` draws of k * n numbers; the one
    admission of a draw, which refuses sizes below 1 and k * n over ENUMERATION_BUDGET
    when called. Shard s < samples takes samples // shards draws, one more if s <
    samples % shards, from default_rng(derive_seed(seed, *tag, s)), in batches of
    at most _BATCH_ELEMENTS // (k * n) draws.

    The one place that seeds a numpy stream: every stochastic entry point
    takes a (seed, shards) pair and draws from these streams. Hashing the
    seed with the index path (tag, shard) keeps runs, shards and samplers on
    independent streams that reproduce exactly across processes and
    platforms; a stream's seed is its ``bit_generator.seed_seq.entropy``.
    None of this is cryptographic randomness."""
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
    _check_sizes(n, k, 2)  # the bound has no m: check n and k
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

    Proved where ``planner.regime_flags(n, k, m=m)`` holds, but evaluated
    everywhere: past float range (n = 1, k = 800) it is inf.
    """
    _check_sizes(n, k, m)
    return _inf_past_range(lambda: m + m * m * (math.e / n) ** (k - 1))


@dataclass(frozen=True)
class Quantity:
    """One reported number: its value, an interval [lo, hi] that holds it (a
    None end is unbounded), how it was obtained, and for a sample the
    interval's confidence and the work behind it."""

    value: Fraction | float | None
    lo: Fraction | float | None
    hi: Fraction | float | None
    provenance: str  # "exact", "monte-carlo" or "uninformative"
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

    @classmethod
    def uninformative(cls) -> Quantity:
        """A sample not drawn because it could not inform: no value, 0 samples, 0 hits."""
        return cls(None, None, None, "uninformative", samples=0, hits=0)

    def to_json(self) -> dict:
        """Floats, inf past float range; "fraction" for a rational value; no None work field.
        Decimal writes the fraction's digits: str(int) refuses more than
        sys.get_int_max_str_digits() of them, which E[m^C] / m^(kn) passes."""
        ends = {"value": self.value, "lo": self.lo, "hi": self.hi}
        out = {name: x if x is None else _inf_past_range(float, x) for name, x in ends.items()}
        out["provenance"] = self.provenance
        if isinstance(self.value, Fraction):
            out["fraction"] = f"{Decimal(self.value.numerator)}/{Decimal(self.value.denominator)}"
        work = {"confidence": self.confidence, "samples": self.samples, "hits": self.hits}
        return out | {name: x for name, x in work.items() if x is not None}


def _component_counts(edges: np.ndarray, n: int, work: np.ndarray) -> np.ndarray:
    """Component counts for a batch of graphs on n vertices each, from edges
    shaped (k, batch * n): graph b's vertex v is b*n + v, and row i holds
    b*n + p_i(v) there, p_i the graph's i-th permutation. work is an int64
    array of 4 + k rows of at least batch * n: row 0 holds arange, which the
    counter reads; it overwrites the other rows, so no gather allocates.
    Rows 4 on take the inverse q_i of each permutation, written once per
    batch (q[p] = vertices); zip(..., strict=True) refuses a work array
    without one inverse row per permutation.

    Minimum-label propagation on one flat label array, by gathers only.
    Each round pulls p(v)'s label into v, then q(v)'s: pulling q(u)'s label
    into u = p(v) pushes v's label to p(v), new[p(v)] = min(new[p(v)],
    new[v]), element by element, with no scatter. Then it hooks each old
    label onto the least new label of the vertices that held it, and jumps
    every label to its label's label (Shiloach and Vishkin, J. Algorithms
    1982). The hook moves a label along a whole cycle of labels at once, so
    the rounds grow like log n even at k = 1, where propagation alone moves
    a label one cycle step per round. Gathers write into the work rows with
    mode="clip", which keeps every valid index: with out=, numpy's default
    mode="raise" buffers the result in a new array. Rows shorter than k
    would spend a round on 3k calls, so blocks of 2^16 // length are gathered.

    Invariant: a vertex's label is a vertex of its own component, and no
    larger than the vertex itself. From round 2 on (round 1 is not checked:
    at n = 1000 every graph needs a second), the loop stops once every edge
    joins equal labels: new[p] == new for each p. A vertex then keeps its own index iff it is its
    component's label, so exactly one per component does:
    - every edge joins equal labels, so labels are constant on a component;
    - that label is a vertex of the component (the invariant), labelled itself;
    - every other vertex of the component carries it too, not its own index.
    While some edge joins unequal labels, the next round lowers a label, so
    the loop ends.
    """
    k, size = edges.shape
    vertices, labels, new, pulled, *inverse = work[:, :size]
    for p, q in zip(edges, inverse, strict=True):
        q[p] = vertices
    step = 1 if size >= k else max(1, _BATCH_ELEMENTS // size)
    blocks = [(edges[i : i + step], work[4 + i : 4 + i + step, :size]) for i in range(0, k, step)]
    scratch = pulled[None] if step == 1 else np.empty((min(step, k), size), dtype=np.int64)
    np.copyto(labels, vertices)
    first = True
    while True:
        np.copyto(new, labels)
        if step == 1:
            for p, q in zip(edges, inverse, strict=True):
                np.minimum(new, np.take(new, p, out=pulled, mode="clip"), out=new)
                np.minimum(new, np.take(new, q, out=pulled, mode="clip"), out=new)
        else:
            for rows in (rows for block in blocks for rows in block):
                np.minimum(new, np.take(new, rows, out=scratch[: len(rows)], mode="clip").min(axis=0), out=new)
        np.minimum.at(new, labels, new)
        np.take(new, new, out=labels, mode="clip")
        if not first and all(
            (np.take(labels, rows, out=scratch[: len(rows)], mode="clip") == labels).all() for rows, _ in blocks
        ):
            break
        first = False
    return (labels == vertices).reshape(-1, n).sum(axis=1)


def estimate_component_distribution(
    n: int, k: int, samples: int, seed: int, shards: int = 1
) -> dict[int, int]:
    """Monte Carlo histogram of the component count C: {c: graphs with c
    components} over the c seen, its counts summing to ``samples``.

    ``shard_batches`` admits and seeds the draws; the merged counts are
    integers, so the result is bit-identical for a fixed (seed, shards).

    One buffer serves every batch of the call: k rows of permutations, then
    the counter's 4 + k work rows (4 label rows and the k inverses), 2k + 4
    rows in all, each as long as the first batch, the largest. Past the cap,
    where one graph alone fills a batch (k * n > 2^16), that is 2k + 4 words
    per vertex: 267 MB for one graph at the budget edge k * n = 10^7, k = 3.
    Each batch of `size` graphs is drawn straight into the counter's (k,
    size * n) layout: rng.permuted shuffles the template arange(size * n),
    seen as (size, k, n) with graph b's row b*n + arange(n) repeated k
    times, into the (size, k, n) transposed view of the k rows. numpy
    shuffles the rows of that view in the same (graph, permutation) order
    as those of a contiguous array, each from its own copy of the template
    row, so the stream and the counts are those of shuffling
    np.tile(np.arange(n), (size, k, 1)) and then adding b*n to graph b.
    Allocating once also spares a fresh process the page faults of arrays
    allocated and freed every round: the C allocator can hand their pages
    back to the system, and the next array faults them in again.
    """
    batches = shard_batches(samples, shards, n, k, seed)
    totals = np.zeros(n + 1, dtype=np.int64)
    buffer = None
    for rng, size in batches:
        if buffer is None:  # the first batch is the largest
            buffer = np.empty((2 * k + 4, size * n), dtype=np.int64)
            buffer[k] = np.arange(size * n)
        edges, work = buffer[:k, : size * n], buffer[k:]
        template = np.broadcast_to(work[0, : size * n].reshape(size, 1, n), (size, k, n))
        rng.permuted(template, axis=-1, out=edges.reshape(k, size, n).transpose(1, 0, 2))
        totals += np.bincount(_component_counts(edges, n, work), minlength=n + 1)
    return {c: int(count) for c, count in enumerate(totals) if count}


def _sqrt_or_inf(x: Fraction, divisor: int = 1) -> float:
    """sqrt(x / divisor) of a non-negative x; by logarithms where a positive x is
    past float range or below its normal floats (2^-1631 reads 0.0), and inf
    only when the root is past float range too."""
    value = _inf_past_range(float, x)
    if sys.float_info.min <= value < math.inf or not x:
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
    where m^C is heavy-tailed. Mean or halfwidth is inf past float range,
    and where the halfwidth is, the lower end is m, since m <= m^C.
    Where every graph had the same C = c, one sample included, the normal
    CI has width 0 or none; the interval is then [m, m^c + m^n q] instead,
    since m <= m^C <= m^n, with q = 1 - (1 - MEAN_CI_CONFIDENCE)^(1/samples)
    the exact upper limit on Pr[C != c] after no graph with C != c; its
    upper end reads inf past float range.
    """
    _check_sizes(n, k, m)
    counts = estimate_component_distribution(n, k, samples, seed, shards)
    total = sum(cnt * m**c for c, cnt in counts.items())
    mean = _inf_past_range(float, Fraction(total, samples))
    if len(counts) == 1:
        (c,) = counts
        q = -math.expm1(math.log1p(-MEAN_CI_CONFIDENCE) / samples)
        hi = _inf_past_range(lambda: float(m) ** c + q * float(m) ** n)
        return Quantity(mean, float(m), hi, "monte-carlo", MEAN_CI_CONFIDENCE, samples)
    total_sq = sum(cnt * m ** (2 * c) for c, cnt in counts.items())
    var = (Fraction(total_sq) - Fraction(total * total, samples)) / (samples - 1)
    halfwidth = _Z99 * _sqrt_or_inf(var, samples)
    if halfwidth == math.inf:
        # mean - halfwidth reads -inf, or inf - inf = NaN past float range: the floor m holds
        return Quantity(mean, float(m), math.inf, "monte-carlo", MEAN_CI_CONFIDENCE, samples)
    return Quantity.sampled(mean, halfwidth, MEAN_CI_CONFIDENCE, samples)


def m_power_c_work(n: int, k: int, m: int) -> float:
    """Word products exact_m_power_C takes at most, inf past float range:
    about n^2 products of integers of up to w = ceil((k log2(n!) + n
    log2(m)) / 64) words, each about w^log2(3) word products (Karatsuba),
    then one w-word gcd, n^2 w^log2(3) + w^2 in all. It bounds Miller's
    products by integers of k factorial powers, where Miller's integers
    carry k - 1."""
    def work() -> float:
        words = math.ceil((k * math.lgamma(n + 1) / math.log(2) + n * math.log2(m)) / 64)
        return n * n * words ** math.log2(3) + words * words

    return _inf_past_range(work)


def exact_m_power_C(n: int, k: int, m: int) -> Fraction:
    """Exact E[m^C] = sum_h multinom(n; h)^(1-k) (Burnside), over the
    histograms h of n vertices in m colours, as a rational. Proof: m^C
    counts the colourings c: [n] -> Z_m fixed by every permutation; a
    uniform one fixes c with probability 1/multinom(n; h(c)); the k
    permutations are independent; multinom(n; h) colourings have histogram h.

    So E[m^C] (n!)^(k-1) = b_n, the z^n coefficient of (sum_j a_j z^j)^m
    with a_j = (j!)^(k-1), by J. C. P. Miller's recurrence (TAOCP vol. 2,
    4.7): b_0 = 1, j b_j = sum_{i=1..j} ((m+1) i - j) a_i b_{j-i}, each
    division exact. Raises EnumerationBudgetError when its cost,
    ``m_power_c_work``, exceeds ENUMERATION_BUDGET.
    """
    _check_sizes(n, k, m)
    _require_budget(m_power_c_work(n, k, m), "word products", "exact_m_power_c", n=n, k=k, m=m)
    a = [math.factorial(j) ** (k - 1) for j in range(n + 1)]
    b = [1] + [0] * n
    for j in range(1, n + 1):
        b[j] = sum(((m + 1) * i - j) * a[i] * b[j - i] for i in range(1, j + 1)) // j
    return Fraction(b[n], a[n])
