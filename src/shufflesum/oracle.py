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
next to the chain of closed-form bounds:

    avg TV  <=  sqrt(m^(kn-1) * Pr[collision] - 1)          (lemma 1)
    Pr[two transcripts collide] = Pr[fresh sharing = shuffled sharing]
                                                             (lemma 2)
    Pr[collision]  <=  E[m^C] / m^(kn)   (C from randgraph)  (lemma 3)
    avg TV  <=  sqrt(m (e/n)^(k-1)) = 2^-sigma               (theorem)

and reports the status of every inequality. The lemma-3 inequality holds
with equality, and the report checks that identity too.
"""

from __future__ import annotations

import enum
import math
import operator
from collections import defaultdict
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Iterator

import numpy as np

from .planner import regime_flags, sigma_for
from .protocol import Modulus, run_batch, share_batch
from .randgraph import (
    ENUMERATION_BUDGET,
    MEAN_CI_CONFIDENCE,
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


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo frequency with a Hoeffding 99.9% confidence halfwidth."""

    value: float
    ci_halfwidth: float
    samples: int
    hits: int


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
) -> Estimate:
    """Monte Carlo frequency of the collision event.

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
    return Estimate(hits / samples, hoeffding_halfwidth(samples), samples, hits)


@dataclass(frozen=True)
class Lemma1Bound:
    """sqrt(m^(kn-1) p - 1) or an explicit radicand-negative marker."""

    value: float | None
    status: str  # "ok" | "radicand-negative"
    provenance: str = "exact"  # or "monte-carlo": how the radicand was obtained


def _bound_from_exact_radicand(rad: Fraction) -> Lemma1Bound:
    if rad < 0:
        return Lemma1Bound(None, "radicand-negative")
    return Lemma1Bound(_sqrt_or_inf(rad), "ok")


def _bound_from_log1p_arg(log_arg: float) -> Lemma1Bound:
    # log_arg = log(radicand + 1); radicand >= 0 iff log_arg >= 0
    if log_arg < 0:
        return Lemma1Bound(None, "radicand-negative", "monte-carlo")
    if log_arg > 700:
        return Lemma1Bound(_inf_past_range(math.exp, log_arg / 2), "ok", "monte-carlo")
    return Lemma1Bound(math.sqrt(math.expm1(log_arg)), "ok", "monte-carlo")


def lemma1_bound(collision_prob, n: int, k: int, m: int) -> Lemma1Bound:
    """Distance bound sqrt(m^(kn-1) * collision_prob - 1), log-space safe.

    Exact inputs (int / Fraction) decide the radicand's sign exactly and
    give provenance "exact"; a float is a Monte Carlo estimate, provenance
    "monte-carlo". An estimate below the uniform floor m^(1-kn) leaves a
    negative radicand; that is reported as an explicit status, never
    silently clamped, to distinguish estimation noise from a genuinely
    zero bound.
    """
    _check_sizes(n, k, m)
    kn = k * n
    if isinstance(collision_prob, (int, Fraction)) and not isinstance(collision_prob, bool):
        p = Fraction(collision_prob)
        if not 0 <= p <= 1:
            raise ValueError(f"collision probability must be in [0, 1], got {p}")
        return _bound_from_exact_radicand(p * m ** (kn - 1) - 1)
    p = float(collision_prob)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"collision probability must be in [0, 1], got {p}")
    if p == 0.0:
        return Lemma1Bound(None, "radicand-negative", "monte-carlo")
    return _bound_from_log1p_arg(_inf_past_range(float, kn - 1) * math.log(m) + math.log(p))


def theorem_bound(n: int, k: int, m: int) -> float:
    """Closed-form distance sqrt(m (e/n)^(k-1)) = 2^-sigma; inf past float range (n < e)."""
    return _inf_past_range(pow, 2.0, -sigma_for(k, n, m))


def _check(test, *inputs) -> str:
    """"pass" or "fail" by test(*inputs); "unavailable" when an input is None."""
    if any(x is None for x in inputs):
        return "unavailable"
    return "pass" if test(*inputs) else "fail"


def json_value(value):
    """JSON form of a report value; exact rationals and Monte Carlo
    estimates state their provenance, bounds carry their own."""
    if isinstance(value, Fraction):
        fraction = f"{value.numerator}/{value.denominator}"
        return {"fraction": fraction, "value": _inf_past_range(float, value), "provenance": "exact"}
    if isinstance(value, Estimate):
        return {**asdict(value), "confidence": HOEFFDING_CONFIDENCE, "provenance": "monte-carlo"}
    if isinstance(value, Lemma1Bound):
        return asdict(value)
    if isinstance(value, dict):
        return dict(value)
    return value


@dataclass(frozen=True)
class SecurityReport:
    """Every measured and derived quantity of one chain verification.

    Exact entries are rationals (None when the instance is beyond the
    work budget; ``exact_work`` gives the work each would take); Monte
    Carlo entries always carry their sample counts and confidence
    halfwidths. ``checks`` records the status of every inequality in the
    chain: "pass", "fail", "unavailable" (budget) or "not-applicable"
    (outside the proved n/k/sigma regime).
    """

    n: int
    k: int
    m: int
    samples: int
    seed: int
    shards: int
    exact_avg_tv: Fraction | None
    exact_collision_v: Fraction | None
    exact_collision_e: Fraction | None
    exact_m_power_c: Fraction | None
    exact_work: dict[str, int | float]
    mc_collision_v: Estimate
    mc_collision_e: Estimate
    mc_m_power_c: float
    mc_m_power_c_halfwidth: float
    lemma1_bound: Lemma1Bound
    lemma3_bound: Lemma1Bound
    theorem1_bound: float | None
    preconditions_ok: dict[str, bool]
    checks: dict[str, str]

    def all_checks_pass(self) -> bool:
        return all(v != "fail" for v in self.checks.values())

    def to_dict(self) -> dict:
        out = {f.name: json_value(getattr(self, f.name)) for f in fields(self)}
        del out["n"], out["k"], out["m"], out["mc_m_power_c_halfwidth"]
        out["params"] = {"n": self.n, "k": self.k, "m": self.m}
        unit = "histogram updates; word products for exact_m_power_c"
        out["exact_work"] = {"budget": ENUMERATION_BUDGET, "unit": unit, **self.exact_work}
        out["mc_m_power_c"] = {
            "value": self.mc_m_power_c,
            "ci_halfwidth": self.mc_m_power_c_halfwidth,
            "confidence": MEAN_CI_CONFIDENCE,
            "samples": self.samples,
            "provenance": "monte-carlo",
        }
        return out


def verify_chain(
    n: int, k: int, m: int, samples: int, seed: int, shards: int = 1
) -> SecurityReport:
    """Measure the whole bound chain on one instance.

    Each exact quantity is computed wherever its own work fits the budget;
    Monte Carlo estimates are always produced. Every inequality of the
    chain is then evaluated and reported. Deterministic given
    (n, k, m, samples, seed, shards).
    """
    work = exact_work(n, k, m)
    fits = {name: units <= ENUMERATION_BUDGET for name, units in work.items()}
    tv = exact_avg_case_tv(n, k, m) if fits["exact_avg_tv"] else None
    cv = exact_collision_probability(n, k, m, CollisionMode.V_VS_V) if fits["exact_collision_v"] else None
    ce = exact_collision_probability(n, k, m, CollisionMode.E_EVENT) if fits["exact_collision_e"] else None
    emc = exact_m_power_C(n, k, m) if fits["exact_m_power_c"] else None

    mc_v = collision_probability(n, k, m, samples, seed, CollisionMode.V_VS_V, shards)
    mc_e = collision_probability(n, k, m, samples, seed, CollisionMode.E_EVENT, shards)
    emc_est, emc_hw = estimate_m_power_C(n, k, m, samples, seed, shards)

    kn = k * n
    l1 = lemma1_bound(cv if cv is not None else mc_v.value, n, k, m)
    # the graph route's radicand E[m^C]/m^(kn) * m^(kn-1) - 1 collapses to E[m^C]/m - 1
    if emc is not None:
        l3 = graph_lo = _bound_from_exact_radicand(emc / m - 1)
    else:
        l3 = _bound_from_log1p_arg(math.log(emc_est) - math.log(m))
        graph_lo = _bound_from_log1p_arg(math.log(max(emc_est - emc_hw, float(m))) - math.log(m))
    thm = theorem_bound(n, k, m) if n >= 2 else None
    preconditions = regime_flags(n, k, sigma_for(k, n, m) if n >= 2 else -math.inf)

    route = Fraction(emc, m**kn) if emc is not None else None
    checks = {
        "lemma1_exact_soundness": _check(lambda t, c: t * t <= c * m ** (kn - 1) - 1, tv, cv),
        "lemma2_exact_identity": _check(operator.eq, cv, ce),
        "lemma3_exact_soundness": _check(operator.le, cv, route),
        "lemma3_exact_identity": _check(operator.eq, cv, route),
        "lemma2_mc_consistency": _check(
            lambda a, b: abs(a.value - b.value) <= a.ci_halfwidth + b.ci_halfwidth, mc_v, mc_e
        ),
    }
    for name, est, exact in (("v", mc_v, cv), ("e", mc_e, ce)):
        checks[f"mc_matches_exact_collision_{name}"] = _check(
            lambda e, x: abs(e.value - float(x)) <= e.ci_halfwidth, est, exact
        )
    # the closed forms hold only in the proved regime, and expectation_bound raises outside it
    in_regime = all(preconditions.values())
    for name, test, *inputs in (
        ("expectation_bound_exact", lambda e: e <= Fraction(expectation_bound(n, k, m)), emc),
        ("expectation_bound_mc", lambda: emc_est - emc_hw <= expectation_bound(n, k, m)),
        ("graph_route_le_theorem1", lambda: (graph_lo.value or 0.0) <= thm),
        ("theorem1_dominates_exact_tv", lambda t: float(t) <= thm, tv),
    ):
        checks[name] = _check(test, *inputs) if in_regime else "not-applicable"

    return SecurityReport(
        n=n,
        k=k,
        m=m,
        samples=samples,
        seed=seed,
        shards=shards,
        exact_avg_tv=tv,
        exact_collision_v=cv,
        exact_collision_e=ce,
        exact_m_power_c=emc,
        exact_work=work,
        mc_collision_v=mc_v,
        mc_collision_e=mc_e,
        mc_m_power_c=emc_est,
        mc_m_power_c_halfwidth=emc_hw,
        lemma1_bound=l1,
        lemma3_bound=l3,
        theorem1_bound=thm,
        preconditions_ok=preconditions,
        checks=checks,
    )
