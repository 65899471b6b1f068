"""Ground-truth security measurement.

Each block of the transcript is shuffled by a uniform permutation, so a
transcript's probability depends only on its k block histograms over Z_m:
P(v) = P(h(v)) / prod_j multinomial(n; h_j). ``histogram_laws`` builds the
exact integer law of the histograms as a convolution of the users' share
rows, one law per input multiset, and the exact total-variation distance
and collision probabilities are sums over histogram tuples, rationals
that never touch floats. ``exact_work`` states their cost in histogram
updates, and E[m^C]'s in word products, against ``ENUMERATION_BUDGET``;
beyond it Monte Carlo takes over. ``verify_chain`` assembles both sides
next to the chain of closed-form bounds, in the report dict that ``verify
chain`` prints:

    avg TV  <=  sqrt(m^(kn-1) * Pr[collision] - 1)          (lemma 1)
    Pr[two transcripts collide] = Pr[fresh sharing = shuffled sharing]
                                                             (lemma 2)
    Pr[collision]  <=  E[m^C] / m^(kn)   (C from randgraph)  (lemma 3)
    avg TV  <=  sqrt(m (e/n)^(k-1)) = 2^-sigma               (theorem)

and reports the status of every inequality. The lemma-3 inequality holds
with equality, and the report checks that identity too. Every number is a
``randgraph.Quantity`` with an interval [lo, hi] (lo = hi when exact),
which only the printer, ``cli.emit_report``, turns into JSON, and
``check`` decides every inequality from two intervals: "fail", which makes
a command exit 1, only where they refute it. Its checks: lemma1_exact_soundness,
lemma2_exact_identity, lemma3_exact_soundness, lemma3_exact_identity,
lemma2_mc_consistency and mc_matches_exact_collision_{v,e}; in the proved
regime only, else "not-applicable", expectation_bound_{exact,mc} (the exact
one on the logarithm of E[m^C] - m), graph_route_le_theorem1 and
theorem1_dominates_exact_tv.
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
)

HOEFFDING_CONFIDENCE = 0.999


def hoeffding_halfwidth(samples: int) -> float:
    """Two-sided Hoeffding halfwidth at HOEFFDING_CONFIDENCE for a [0,1]-bounded sample mean."""
    return math.sqrt(math.log(2.0 / (1.0 - HOEFFDING_CONFIDENCE)) / (2.0 * samples))


class CollisionMode(enum.Enum):
    # two full independent executions on a shared uniform input
    V_VS_V = "v-vs-v"
    # a fresh unshuffled sharing against a shuffled independent sharing
    E_EVENT = "e-event"


_WORK_KEY = {CollisionMode.V_VS_V: "exact_collision_v", CollisionMode.E_EVENT: "exact_collision_e"}


def _units(exact, *log2_terms: float) -> int | float:
    # the exact count below 2^64, a float from its terms' logarithms past it
    top = max(log2_terms)
    if top == math.inf:
        return math.inf
    log2 = top + math.log2(sum(2.0 ** (t - top) for t in log2_terms))
    if log2 <= 64:
        return exact()
    return _inf_past_range(pow, 2.0, log2)


def exact_work(n: int, k: int, m: int) -> dict[str, int | float]:
    """The work each exact quantity takes, against ENUMERATION_BUDGET.

    With L = C(n+m-1, n) input classes, S = L^k histogram tuples (each
    block's histogram is one of C(n+m-1, m-1) = L) and U = n m^(k-1)
    updates per tuple:

        exact_collision_v   L U S
        exact_avg_tv        L U S + L^2 S             (class pairs)
        exact_collision_e   L U S + L m^((k-1)n)      (ordered sharings)

    in histogram updates: exact ints up to 2^64, floats from logarithms past
    it, so no huge integer is ever built, and math.inf past float range (as
    ``_inf_past_range`` decides, for a count or its logarithm). L is
    estimated by Stirling's formula when min(n, m-1) > 128, where L > 2^128.
    ``exact_m_power_c`` is randgraph's ``m_power_c_work``, in word products.
    """
    _check_sizes(n, k, m)
    r = min(n, m - 1)
    if r <= 128:
        classes = math.comb(n + m - 1, r)
        log_l = math.log2(classes)
    else:  # log C(r+s, r) without the cancellation of lgamma(n+m) - lgamma(m); inf once s is past float range
        s = n + m - 1 - r
        head = _inf_past_range(lambda: (s + 0.5) * math.log1p(r / s))
        log_l = (head + r * math.log(s + r) - r - math.lgamma(r + 1)) / math.log(2)
    k_float = _inf_past_range(float, k)
    log_conv = (k_float + 1) * log_l + math.log2(n) + (k_float - 1) * math.log2(m)

    def conv() -> int:
        return classes ** (k + 1) * n * m ** (k - 1)

    return {
        "exact_avg_tv": _units(lambda: conv() + classes ** (k + 2), log_conv, (k_float + 2) * log_l),
        "exact_collision_v": _units(conv, log_conv),
        "exact_collision_e": _units(
            lambda: conv() + classes * m ** ((k - 1) * n), log_conv,
            log_l + _inf_past_range(float, (k - 1) * n) * math.log2(m),
        ),
        "exact_m_power_c": m_power_c_work(n, k, m),
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


def exact_avg_case_tv(n: int, k: int, m: int) -> Fraction:
    """Expected exact TV over uniform equal-sum input pairs.

    A shuffled block is uniform over the orderings of its histogram, so a
    transcript with histograms h has the same probability N(h) / (D prod_j
    multinomial(n; h_j)), D = m^((k-1)n), at every ordering, and the TV
    between inputs x and x' is sum_h |N_x(h) - N_x'(h)| / 2D over histogram
    tuples. The m^(2n-1) equally likely pairs (x uniform, x' uniform given
    its sum) are grouped by input class. Raises EnumerationBudgetError when
    ``exact_work`` puts it over ENUMERATION_BUDGET.
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


def _sharing_keys(rows: list[list[int]], xs: tuple[int, ...]) -> list[int]:
    # packed histograms of every ordered unshuffled sharing of xs
    keys = [0]
    for x in xs:
        keys = [key + step for key in keys for step in rows[x]]
    return keys


def exact_collision_probability(n: int, k: int, m: int, mode: CollisionMode) -> Fraction:
    """Exact collision probability over a uniform input, from the histogram laws.

    With F(h) = prod_j prod_a h_j(a)! = (n!)^k / prod_j multinomial(n; h_j),
    V_VS_V sums N(h)^2 F(h) over histogram tuples h. E_EVENT is computed
    apart from it: it walks the D = m^((k-1)n) ordered unshuffled sharings
    S of each input class and sums N(h(S)) F(h(S)), so the lemma-2
    identity between the two is checked, not assumed. Both are weighted by
    the classes' orderings over (n!)^k D^2 m^n. Raises
    EnumerationBudgetError when ``exact_work`` puts the mode over
    ENUMERATION_BUDGET.
    """
    _require_budget(exact_work(n, k, m)[_WORK_KEY[mode]], "histogram updates", _WORK_KEY[mode], n=n, k=k, m=m)
    rows = _share_rows(n, k, m)
    fact = [math.factorial(h) for h in range(n + 1)]
    cell_factorials: dict[int, int] = {}
    total = 0
    for xs, orderings, law in histogram_laws(n, k, m):
        weight = {}
        for key, count in law.items():
            if key not in cell_factorials:
                f, rest = 1, key
                for _ in range(k * m):
                    rest, h = divmod(rest, n + 1)
                    f *= fact[h]
                cell_factorials[key] = f
            weight[key] = count * cell_factorials[key]
        if mode is CollisionMode.V_VS_V:
            hit = sum(count * weight[key] for key, count in law.items())
        else:
            left, right = _sharing_keys(rows, xs[: n // 2]), _sharing_keys(rows, xs[n // 2 :])
            hit = sum(weight[a + b] for a in left for b in right)
        total += orderings * hit
    d = m ** ((k - 1) * n)
    return Fraction(total, fact[n] ** k * d * d * m**n)


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
    return Quantity.sampled(hits / samples, hoeffding_halfwidth(samples), HOEFFDING_CONFIDENCE, samples, hits)


def _root(x: Fraction | float, exponent: int, m: int) -> float | None:
    """sqrt(x m^exponent - 1), or None where the radicand is negative, never
    clamped. The sign is decided exactly for a rational x and by logarithms
    for a float; the root reads inf past float range."""
    if isinstance(x, (int, Fraction)):
        radicand = x * Fraction(m) ** exponent - 1
        return None if radicand < 0 else _sqrt_or_inf(radicand)
    if x <= 0:
        return None
    # log(radicand + 1); the radicand is >= 0 iff this is
    log_arg = _inf_past_range(float, exponent) * math.log(m) + math.log(x)
    if log_arg < 0:
        return None
    if log_arg > 700:
        return _inf_past_range(math.exp, log_arg / 2)
    return math.sqrt(math.expm1(log_arg))


def _root_bound(q: Quantity, exponent: int, m: int) -> Quantity:
    # _root of the value and of both ends, once each where they are equal (an
    # exact record); the root is increasing, so the interval still holds the value
    roots = {x: _root(x, exponent, m) for x in {q.value, q.lo, q.hi}}
    return replace(q, value=roots[q.value], lo=roots[q.lo], hi=roots[q.hi])


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


def check(a, relation: str, b) -> str:
    """The one decision of every check: "fail" only where the intervals of a
    and b refute `a relation b`, for relation "<=" or "=="; "pass" otherwise;
    "unavailable" when a side is None. A bare number is its own interval, and
    a record's None end is unbounded, so it refutes nothing."""
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
    else it is None (``exact_work`` gives the work each would take); Monte
    Carlo estimates are always produced. Every computed number is a
    ``Quantity``: exact ones are rationals with lo = hi = value, Monte Carlo
    ones carry their interval, confidence and samples, and the two bounds
    keep the provenance, interval and work of the quantity under their root.
    Only ``theorem1_bound``, a closed form, is a plain number. ``checks``
    holds the status of every inequality of the chain, each decided by
    ``check``: "pass", "fail", "unavailable" (budget) or "not-applicable"
    (outside the proved n/k/sigma regime). Deterministic given
    (n, k, m, samples, seed, shards).
    """
    work = exact_work(n, k, m)
    fits = {name: units <= ENUMERATION_BUDGET for name, units in work.items()}
    tv = exact_avg_case_tv(n, k, m) if fits["exact_avg_tv"] else None
    cv = exact_collision_probability(n, k, m, CollisionMode.V_VS_V) if fits["exact_collision_v"] else None
    ce = exact_collision_probability(n, k, m, CollisionMode.E_EVENT) if fits["exact_collision_e"] else None
    emc = exact_m_power_C(n, k, m) if fits["exact_m_power_c"] else None
    tv, cv, ce, emc = (None if x is None else Quantity.exact(x) for x in (tv, cv, ce, emc))

    mc_v = collision_probability(n, k, m, samples, seed, CollisionMode.V_VS_V, shards)
    mc_e = collision_probability(n, k, m, samples, seed, CollisionMode.E_EVENT, shards)
    mc_emc = estimate_m_power_C(n, k, m, samples, seed, shards)

    kn = k * n
    # the graph route's radicand E[m^C]/m^(kn) * m^(kn-1) - 1 collapses to E[m^C]/m - 1
    l3 = _root_bound(emc or mc_emc, -1, m)
    thm = theorem_bound(n, k, m) if n >= 2 else None
    preconditions = regime_flags(n, k, sigma_for(k, n, m) if n >= 2 else -math.inf)

    route = emc and Quantity.exact(emc.value / m**kn)
    checks = {
        "lemma1_exact_soundness": check(tv and tv.value**2, "<=", cv and cv.value * m ** (kn - 1) - 1),
        "lemma2_exact_identity": check(cv, "==", ce),
        "lemma3_exact_soundness": check(cv, "<=", route),
        "lemma3_exact_identity": check(cv, "==", route),
        "lemma2_mc_consistency": check(mc_v, "==", mc_e),
        "mc_matches_exact_collision_v": check(mc_v, "==", cv),
        "mc_matches_exact_collision_e": check(mc_e, "==", ce),
    }
    # the closed forms hold only in the proved regime, and expectation_bound raises outside it
    in_regime = all(preconditions.values())
    # E[m^C] - m against m^2 (e/n)^(k-1) on logarithms: m plus that rounds to m
    # from k = 21 at n = 19, m = 2, and it underflows to 0.0 from k = 385
    log_excess = 2 * math.log(m) + (k - 1) * (1 - math.log(n))
    closed_form = {
        "expectation_bound_exact": check(emc and _ln(emc.value - m), "<=", log_excess),
        "expectation_bound_mc": check(mc_emc, "<=", expectation_bound(n, k, m) if in_regime else None),
        "graph_route_le_theorem1": check(l3, "<=", thm),
        "theorem1_dominates_exact_tv": check(tv, "<=", thm),
    }
    checks |= {name: status if in_regime else "not-applicable" for name, status in closed_form.items()}

    unit = "histogram updates; word products for exact_m_power_c"
    return {
        "params": {"n": n, "k": k, "m": m},
        "samples": samples,
        "seed": seed,
        "shards": shards,
        "exact_avg_tv": tv,
        "exact_collision_v": cv,
        "exact_collision_e": ce,
        "exact_m_power_c": emc,
        "exact_work": {"budget": ENUMERATION_BUDGET, "unit": unit, **work},
        "mc_collision_v": mc_v,
        "mc_collision_e": mc_e,
        "mc_m_power_c": mc_emc,
        "lemma1_bound": lemma1_bound(cv or mc_v, n, k, m),
        "lemma3_bound": l3,
        "theorem1_bound": thm,
        "preconditions_ok": preconditions,
        "checks": checks,
    }
