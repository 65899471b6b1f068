"""Ground-truth security measurement.

Each block of the transcript is shuffled by a uniform permutation, so a
transcript's probability depends only on its k block histograms over Z_m:
P(v) = P(h(v)) / prod_j multinomial(n; h_j). ``histogram_laws`` builds the
exact integer law of the histograms as a convolution of the users' share
rows, one law per input multiset, and ``exact_avg_tv`` sums the exact
total-variation distance over histogram tuples, a rational that never
touches floats. The exact collision probability needs no walk:
``exact_collision`` is E[m^C] / m^(kn). ``exact_work`` states each exact
quantity's own cost, TV's in histogram updates and the others' in word
products, against ``ENUMERATION_BUDGET``; beyond it Monte Carlo takes
over. ``verify_chain`` assembles both sides next to the chain of
closed-form bounds, in the report dict that ``verify chain`` prints:

    avg TV  <=  sqrt(m^(kn-1) * Pr[collision] - 1)          (lemma 1)
    Pr[two transcripts collide] = Pr[fresh sharing = shuffled sharing]
                                                             (lemma 2)
    Pr[collision]  <=  E[m^C] / m^(kn)   (C from randgraph)  (lemma 3)
    avg TV  <=  sqrt(m (e/n)^(k-1)) = 2^-sigma               (theorem)

and reports the status of every inequality. Lemma 3 holds with equality.
Fix the k permutations pi, whose graph has C components. A uniform share
matrix S in Z_m^(kn), the sharing of a uniform input, has the same user
sums after shuffling as before with probability m^(C-n): the linear map S
-> colsum(pi(S)) - colsum(S) is onto the vectors that sum to 0 on each
component, since its image is spanned by the differences e_v - e_p(v)
along the graph's edges. A fresh sharing R of the same input then equals
pi(S) with probability m^(-(k-1)n), which gives m^C / m^(kn); average over
pi, and lemma 2 makes it both collision probabilities. So the report gives
``exact_collision`` as both exact collisions and checks lemmas 2 and 3
where they can fail: against the engine's two samplers here, and in the
tests against an independent sum over the histogram laws and an ordered
enumeration. Every number is a ``randgraph.Quantity`` with an
interval [lo, hi] (lo = hi when exact), which only the printer,
``cli.emit_report``, turns into JSON, and ``check`` decides every
inequality from two intervals: "fail", which makes a command exit 1, only
where they refute it. The checks, and the regime each closed-form one
rests on, are ``verify_chain``'s ``checks``.

Two transcripts collide only if the k-1 uniform blocks of the shuffled one
match, so Pr[collision] <= m^-((k-1)n), and the report's
collision_hits_log2_bound = log2(samples) - (k-1) n log2(m) bounds the log2
of the hits a collision sample expects. At or below UNINFORMATIVE_HITS the
samplers draw nothing: mc_collision_{v,e} read provenance "uninformative",
0 samples, 0 hits and no value; lemma2_mc_consistency and
mc_matches_exact_collision_{v,e} read "unavailable"; and lemma1_bound,
without an exact collision probability, is that same record.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Iterator

import numpy as np

from .planner import regime_flags, sigma_for
from .protocol import Modulus, run_batch, share_batch
from .randgraph import (
    ENUMERATION_BUDGET,
    Quantity,
    _check_sizes,
    _inf_past_range,
    _require_budget,
    _sqrt_or_inf,
    estimate_m_power_C,
    exact_m_power_C,
    expectation_bound,
    m_power_c_work,
    shard_batches,
    within_budget,
)

HOEFFDING_CONFIDENCE = 0.999

# expected collision hits at or below which verify_chain draws no collision
# sample: the chance that it records even one hit is at most this
UNINFORMATIVE_HITS = 1e-6


def hoeffding_halfwidth(samples: int) -> float:
    """Two-sided Hoeffding halfwidth at HOEFFDING_CONFIDENCE for a [0,1]-bounded sample mean."""
    return math.sqrt(math.log(2.0 / (1.0 - HOEFFDING_CONFIDENCE)) / (2.0 * samples))


def sampled_frequency(hits: int, samples: int) -> Quantity:
    """The frequency of an event seen in `hits` of `samples` draws, with its Hoeffding interval."""
    return Quantity.sampled(hits / samples, hoeffding_halfwidth(samples), HOEFFDING_CONFIDENCE, samples, hits)


class CollisionMode(enum.Enum):
    # two full independent executions on a shared uniform input
    V_VS_V = "v-vs-v"
    # a fresh unshuffled sharing against a shuffled independent sharing
    E_EVENT = "e-event"


def _units(classes: int | None, log_l: float, n: int, m: int, terms) -> int | float:
    # sum of L^a n^b m^c over the (a, b, c) terms, L = classes: exact below 2^64, from logarithms past it
    log2_terms = [
        _inf_past_range(float, a) * log_l + b * math.log2(n) + _inf_past_range(float, c) * math.log2(m)
        for a, b, c in terms
    ]
    top = max(log2_terms)
    if top == math.inf:
        return math.inf
    log2 = top + math.log2(sum(2.0 ** (t - top) for t in log2_terms))
    if log2 <= 64:
        return sum(classes**a * n**b * m**c for a, b, c in terms)
    return _inf_past_range(pow, 2.0, log2)


def exact_work(n: int, k: int, m: int) -> dict[str, int | float]:
    """The work each exact quantity takes, against ENUMERATION_BUDGET.

    exact_avg_tv walks the histogram laws. With L = C(n+m-1, n) input
    classes, S = L^k histogram tuples (each block's histogram is one of
    C(n+m-1, m-1) = L) and U = n m^(k-1) updates per tuple, it takes L U S
    + L^2 S histogram updates (the convolution, then the class pairs), each
    term written once as the exponents (a, b, c) of L^a n^b m^c: exact ints
    up to 2^64, floats from logarithms past it, so no huge integer is ever
    built. L is estimated by Stirling's formula when min(n, m-1) > 128,
    where L > 2^128.

    The other two are in word products. exact_m_power_c is randgraph's
    ``m_power_c_work``. exact_collision_v is that plus w^2, w the 64-bit
    words of its denominator (n!)^(k-1) m^(kn): the division's gcd and the
    fraction's decimal digits, which CPython writes in quadratic time. Every
    cost reads math.inf past float range, as ``_inf_past_range`` decides,
    for a count or its logarithm.
    """
    _check_sizes(n, k, m)
    r = min(n, m - 1)
    if r <= 128:
        classes = math.comb(n + m - 1, r)
        log_l = math.log2(classes)
    else:  # log C(r+s, r) without the cancellation of lgamma(n+m) - lgamma(m); inf once s is past float range
        classes, s = None, n + m - 1 - r
        head = _inf_past_range(lambda: (s + 0.5) * math.log1p(r / s))
        log_l = (head + r * math.log(s + r) - r - math.lgamma(r + 1)) / math.log(2)
    miller = m_power_c_work(n, k, m)

    def collision() -> float:
        words = math.ceil(((k - 1) * math.lgamma(n + 1) / math.log(2) + k * n * math.log2(m)) / 64)
        return miller + words * words

    return {
        "exact_avg_tv": _units(classes, log_l, n, m, [(k + 1, 1, k - 1), (k + 2, 0, 0)]),
        "exact_collision_v": _inf_past_range(collision),
        "exact_m_power_c": miller,
    }


def _share_rows(n: int, k: int, m: int) -> list[list[int]]:
    # rows[x]: the packed histogram increment of each of the m^(k-1) share
    # tuples of input x, one share per block
    cell = [[(n + 1) ** (j * m + a) for a in range(m)] for j in range(k)]
    rows: list[list[int]] = [[] for _ in range(m)]
    for free in product(range(m), repeat=k - 1):
        head = sum(cell[j][s] for j, s in enumerate(free))
        for x in range(m):
            rows[x].append(head + cell[k - 1][(x - sum(free)) % m])
    return rows


def histogram_laws(n: int, k: int, m: int) -> Iterator[tuple[tuple[int, ...], int, dict[int, int]]]:
    """Exact integer law of the k block histograms, one per input class.

    Yields (xs, orderings, law) for every sorted input tuple xs, in
    lexicographic order; ``orderings`` input tuples sort to xs. ``law[key]``
    counts the m^((k-1)n) equally likely share matrices whose blocks have
    the histograms h_1..h_k packed in key = sum of h_j(a) (n+1)^(jm+a) over
    blocks j and residues a. The law is the n-fold convolution of the
    users' share rows, so it depends on the inputs only through xs.
    """
    _check_sizes(n, k, m)
    rows = _share_rows(n, k, m)
    for xs in combinations_with_replacement(range(m), n):
        law = {0: 1}
        for x in xs:
            grown: defaultdict[int, int] = defaultdict(int)
            for key, count in law.items():
                for step in rows[x]:
                    grown[key + step] += count
            law = grown
        yield xs, math.factorial(n) // math.prod(math.factorial(xs.count(a)) for a in set(xs)), law


def exact_avg_tv(n: int, k: int, m: int) -> Fraction:
    """The exact average TV between inputs, from one walk of ``histogram_laws``;
    past its ``exact_work`` it raises EnumerationBudgetError.

    A shuffled block is uniform over the orderings of its histogram, so a
    transcript with histograms h has the same probability N(h) / (D prod_j
    multinomial(n; h_j)), D = m^((k-1)n), at every ordering, and the TV
    between inputs x and x' is sum_h |N_x(h) - N_x'(h)| / 2D. This averages
    it over the m^(2n-1) equally likely pairs (x uniform, x' uniform given
    its sum), pairing the input classes after the walk.
    """
    _require_budget(exact_work(n, k, m)["exact_avg_tv"], "histogram updates", "exact_avg_tv", n=n, k=k, m=m)
    by_sum: defaultdict[int, list[tuple[int, dict[int, int]]]] = defaultdict(list)
    for xs, orderings, law in histogram_laws(n, k, m):
        by_sum[sum(xs) % m].append((orderings, law))
    total = 0
    for classes in by_sum.values():
        # each unordered pair of classes twice, halved; a class against itself 0
        for i, (wa, a) in enumerate(classes):
            for wb, b in classes[:i]:
                gap = sum(abs(c - b.get(h, 0)) for h, c in a.items())
                gap += sum(c for h, c in b.items() if h not in a)
                total += wa * wb * gap
    return Fraction(total, m ** ((k - 1) * n) * m ** (2 * n - 1))


def exact_collision(n: int, k: int, m: int, m_power_c: Fraction) -> Fraction:
    """Pr[collision] = E[m^C] / m^(kn) exactly, for V and for E alike (lemmas 2
    and 3, proved in the module docstring), from m_power_c = E[m^C]; past its
    ``exact_work`` it raises EnumerationBudgetError."""
    _require_budget(exact_work(n, k, m)["exact_collision_v"], "word products", "exact_collision_v", n=n, k=k, m=m)
    return m_power_c / m ** (k * n)


_MODE_TAG = {CollisionMode.V_VS_V: 1, CollisionMode.E_EVENT: 2}


def collision_probability(
    n: int,
    k: int,
    m: int,
    samples: int,
    seed: int,
    mode: CollisionMode,
    shards: int = 1,
) -> Quantity:
    """Monte Carlo frequency of the collision event, with its Hoeffding interval.

    Each sample draws a uniform input and runs the protocol engine on it
    (``protocol.run_batch``): V_VS_V compares two shuffled executions on
    the shared input, E_EVENT an unshuffled sharing (``share_batch``) with
    a shuffled execution. ``randgraph.shard_batches`` admits the draws
    (sizes, budget) and seeds them: shard s draws from the numpy stream
    ``default_rng(derive_seed(seed, mode tag, s))``, in batches of at most
    ``randgraph._BATCH_ELEMENTS`` residues per transcript, which bounds its
    memory. Integer hit counts merge exactly, so results are bit-identical
    for fixed (seed, shards) and cap. Each batch draws inputs, shares and
    permutations in turn, so hits, unlike component counts, follow the cap.
    m outside [2, 2**63], the engine's group sizes, raises ValueError.
    """
    mod = Modulus(m)
    hits = 0
    for rng, size in shard_batches(samples, shards, n, k, seed, _MODE_TAG[mode]):
        x = rng.integers(0, m, size=(size, n), dtype=np.uint64)
        if mode is CollisionMode.V_VS_V:
            first, _ = run_batch(x, k, mod, rng)
        else:
            first, _ = share_batch(x, k, mod, rng)
        second, _ = run_batch(x, k, mod, rng)
        hits += int((first == second).all(axis=(1, 2)).sum())
    return sampled_frequency(hits, samples)


def lemma1_radicand(x: Fraction, exponent: int, m: int) -> Fraction:
    """Lemma 1's radicand x m^exponent - 1, exactly: x = Pr[collision] at exponent kn - 1,
    or, on the graph route, x = E[m^C] at exponent -1."""
    return x * Fraction(m) ** exponent - 1


def _root(x: Fraction | float, exponent: int, m: int) -> float | None:
    """sqrt(x m^exponent - 1), or None where the radicand is negative, never
    clamped. The sign is decided exactly for a rational x and by logarithms
    for a float; the root reads inf past float range."""
    if isinstance(x, (int, Fraction)):
        radicand = lemma1_radicand(x, exponent, m)
        return None if radicand < 0 else _sqrt_or_inf(radicand)
    if x <= 0:
        return None
    # log(radicand + 1); the radicand is >= 0 iff this is
    log_arg = _inf_past_range(float, exponent) * math.log(m) + math.log(x)
    if log_arg < 0:
        return None
    # as _sqrt_or_inf: by the logarithm only where the radicand is past float range
    root = _inf_past_range(lambda: math.sqrt(math.expm1(log_arg)))
    return root if root < math.inf else _inf_past_range(math.exp, log_arg / 2)


def _root_bound(q: Quantity, exponent: int, m: int) -> Quantity:
    # _root of the value, and of each end unequal to it, so an exact record
    # takes one root; == decides that without hashing, which for a Fraction
    # is a modular inverse. The root is increasing, so the interval still
    # holds the value
    value = _root(q.value, exponent, m)
    lo, hi = (value if end == q.value else _root(end, exponent, m) for end in (q.lo, q.hi))
    return replace(q, value=value, lo=lo, hi=hi)


def lemma1_bound(p: Quantity, n: int, k: int, m: int) -> Quantity:
    """Distance bound sqrt(m^(kn-1) p - 1) on the collision probability p.

    Keeps p's provenance, confidence and work. An exact p decides the
    radicand's sign exactly. An estimate below the uniform floor m^(1-kn)
    leaves a negative radicand; that end reads None, never clamped, to tell
    estimation noise from a genuinely zero bound.
    """
    _check_sizes(n, k, m)
    if not 0 <= p.value <= 1:
        raise ValueError(f"collision probability must be in [0, 1], got {p.value}")
    return _root_bound(p, k * n - 1, m)


def theorem_bound(n: int, k: int, m: int) -> float:
    """Closed-form distance sqrt(m (e/n)^(k-1)) = 2^-sigma; inf past float range (n < e)."""
    return _inf_past_range(pow, 2.0, -sigma_for(k, n, m))


def check(a, relation: str, b, regime: dict[str, bool] | None = None) -> str:
    """The one decision of every check: "not-applicable" when a flag of
    `regime`, the preconditions of the result it rests on, is false; else
    "unavailable" when a side is None; "fail" only where the intervals of a
    and b refute `a relation b`, for relation "<=" or "=="; "pass" otherwise.
    A bare number is its own interval; a record's None end is unbounded."""
    if not all((regime or {}).values()):
        return "not-applicable"
    if a is None or b is None:
        return "unavailable"
    (a_lo, a_hi), (b_lo, b_hi) = ((x.lo, x.hi) if isinstance(x, Quantity) else (x, x) for x in (a, b))
    gaps = {"<=": [(a_lo, b_hi)], "==": [(a_lo, b_hi), (b_lo, a_hi)]}[relation]
    refuted = any(lo is not None and hi is not None and lo > hi for lo, hi in gaps)
    return "fail" if refuted else "pass"


def _ln(x: Fraction) -> float:
    # ln x at any size, from the numerator and denominator; -inf at x = 0
    return math.log(x.numerator) - math.log(x.denominator) if x else -math.inf


def verify_chain(n: int, k: int, m: int, samples: int, seed: int, shards: int = 1) -> dict:
    """Measure the whole bound chain on one instance: the report that
    ``verify chain`` prints.

    Each exact quantity is computed wherever its own work fits the budget,
    else it is None (``exact_work`` gives the work each would take). The
    E[m^C] estimate is always sampled; the two collision estimates only
    where ``collision_hits_log2_bound``, log2 of an upper bound on their
    expected hits, is above log2(UNINFORMATIVE_HITS), and otherwise are
    "uninformative" records with 0 samples, 0 hits and no value, as is
    lemma1_bound when no exact collision probability exists. Every computed
    number is a ``Quantity``: exact ones are rationals with lo = hi = value,
    Monte Carlo ones carry their interval, confidence and samples, and the
    two bounds keep the provenance, interval and work of the quantity under
    their root. Only ``theorem1_bound``, a closed form, is a plain number.
    exact_collision_v and exact_collision_e are one record,
    ``exact_collision``'s E[m^C] / m^(kn): given the permutations, a uniform
    share matrix keeps its user sums under the shuffle with probability
    m^(C-n), the shuffle's difference map being onto the vectors with zero
    sum on each component, and a fresh sharing of the same input then
    matches it with probability m^(-(k-1)n); lemma 2 makes that both V and
    E, and lemma 3 an identity. ``checks`` holds the status of every
    inequality of the chain, each decided by ``check``: "pass", "fail",
    "unavailable" (budget, or a collision sample not drawn) or
    "not-applicable" (outside the regime of its closed form;
    ``preconditions_ok`` holds the theorem's and the E[m^C] bound's).
    Deterministic given (n, k, m, samples, seed, shards).
    """
    work = exact_work(n, k, m)
    tv = Quantity.exact(exact_avg_tv(n, k, m)) if within_budget(work["exact_avg_tv"]) else None
    emc = Quantity.exact(exact_m_power_C(n, k, m)) if within_budget(work["exact_m_power_c"]) else None
    # V's cost includes E[m^C]'s, so emc exists wherever V fits
    cv = Quantity.exact(exact_collision(n, k, m, emc.value)) if within_budget(work["exact_collision_v"]) else None

    # first, as it admits the draw of k * n entries that the collision samplers share
    mc_emc = estimate_m_power_C(n, k, m, samples, seed, shards)
    # Pr[collision] <= m^-((k-1)n): the k-1 uniform blocks of the shuffled
    # execution must all match, so this bounds the expected hits
    log2_hits = math.log2(samples) - (k - 1) * n * math.log2(m)
    mc_v, mc_e = (
        collision_probability(n, k, m, samples, seed, mode, shards)
        if log2_hits > math.log2(UNINFORMATIVE_HITS) else None
        for mode in CollisionMode
    )
    p = cv or mc_v
    unsampled = Quantity.uninformative()

    kn = k * n
    # the graph route's radicand E[m^C]/m^(kn) * m^(kn-1) - 1 collapses to E[m^C]/m - 1
    l3 = _root_bound(emc or mc_emc, -1, m)
    thm = theorem_bound(n, k, m) if n >= 2 else None
    theorem = regime_flags(n, k, sigma_for(k, n, m) if n >= 2 else -math.inf)
    graph = regime_flags(n, k, m=m)

    # E[m^C] - m against m^2 (e/n)^(k-1) on logarithms: m plus that rounds to m
    # from k = 21 at n = 19, m = 2, and it underflows to 0.0 from k = 385
    log_excess = 2 * math.log(m) + (k - 1) * (1 - math.log(n))
    checks = {
        "lemma1_exact_soundness": check(tv and tv.value**2, "<=", cv and lemma1_radicand(cv.value, kn - 1, m)),
        "lemma2_mc_consistency": check(mc_v, "==", mc_e),
        "mc_matches_exact_collision_v": check(mc_v, "==", cv),
        "mc_matches_exact_collision_e": check(mc_e, "==", cv),
        "expectation_bound_exact": check(emc and _ln(emc.value - m), "<=", log_excess, graph),
        "expectation_bound_mc": check(mc_emc, "<=", expectation_bound(n, k, m), graph),
        "graph_route_le_theorem1": check(l3, "<=", thm, theorem),
        "theorem1_dominates_exact_tv": check(tv, "<=", thm, theorem),
    }

    unit = "histogram updates for exact_avg_tv; word products for the others"
    return {
        "params": {"n": n, "k": k, "m": m},
        "samples": samples,
        "seed": seed,
        "shards": shards,
        "exact_avg_tv": tv,
        "exact_collision_v": cv,
        "exact_collision_e": cv,
        "exact_m_power_c": emc,
        "exact_work": {"budget": ENUMERATION_BUDGET, "unit": unit, **work},
        "mc_collision_v": mc_v or unsampled,
        "mc_collision_e": mc_e or unsampled,
        "collision_hits_log2_bound": log2_hits,
        "mc_m_power_c": mc_emc,
        "lemma1_bound": lemma1_bound(p, n, k, m) if p else unsampled,
        "lemma3_bound": l3,
        "theorem1_bound": thm,
        "preconditions_ok": theorem | graph,
        "checks": checks,
    }
