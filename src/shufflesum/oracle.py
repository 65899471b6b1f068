"""Ground-truth security measurement.

On tiny instances the full transcript law of the protocol is enumerable
(m^((k-1)n) share completions times (n!)^k permutation tuples, every
outcome equally likely), which gives exact total-variation distances and
exact collision probabilities as rationals. On larger instances Monte
Carlo takes over. ``verify_chain`` assembles both sides next to the chain
of closed-form bounds:

    avg TV  <=  sqrt(m^(kn-1) * Pr[collision] - 1)          (lemma 1)
    Pr[two transcripts collide] = Pr[fresh sharing = shuffled sharing]
                                                             (lemma 2)
    Pr[collision]  <=  E[m^C] / m^(kn)   (C from randgraph)  (lemma 3)
    avg TV  <=  sqrt(m (e/n)^(k-1)) = 2^-sigma               (theorem)

and reports the status of every inequality. Exactness matters: the lemma-2
check is an identity of rationals, so the enumeration counts integer
outcomes over a common denominator and never touches floats.
"""

from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterator, Sequence

import numpy as np

from . import randgraph
from .group import Modulus
from .planner import sigma_for, validate_params
from .protocol import run_batch, share_batch
from .randgraph import (
    ENUMERATION_BUDGET,
    EnumerationBudgetError,
    _shard_sizes,
    estimate_m_power_C,
    exact_m_power_C,
    expectation_bound,
)
from .rng import derive_seed

HOEFFDING_CONFIDENCE = 0.999


def hoeffding_halfwidth(samples: int, confidence: float = HOEFFDING_CONFIDENCE) -> float:
    """Two-sided Hoeffding halfwidth for a [0,1]-bounded sample mean."""
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    delta = 1.0 - confidence
    return math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


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


@dataclass(frozen=True)
class OutputDistribution:
    """Exact law of the flattened transcript (kn residues, block-ordered).

    ``mass`` maps each outcome to its integer count out of ``denominator``
    = m^((k-1)n) * (n!)^k equally likely (share completion, permutation
    tuple) pairs. Probabilities are exact rationals.
    """

    n: int
    k: int
    m: int
    mass: dict[tuple[int, ...], int]
    denominator: int

    def probability(self, outcome: tuple[int, ...]) -> Fraction:
        return Fraction(self.mass.get(outcome, 0), self.denominator)

    def total(self) -> Fraction:
        return Fraction(sum(self.mass.values()), self.denominator)


def _share_tuples(x: int, k: int, m: int) -> Iterator[tuple[int, ...]]:
    # every k-tuple over Z_m summing to x, each exactly once
    for free in product(range(m), repeat=k - 1):
        yield (*free, (x - sum(free)) % m)


def _law_budget(n: int, k: int, m: int, extra_log2: float = 0.0) -> int | None:
    """m^((k-1)n) * (n!)^k, or None when it clearly dwarfs the budget.

    The log-space early-out avoids materializing factorial(n)**k for large
    parameters; the 2-bit margin keeps boundary decisions on the exact
    integer path.
    """
    log2_est = (
        (k - 1) * n * math.log2(max(m, 1))
        + k * math.lgamma(n + 1) / math.log(2)
        + extra_log2
    )
    if log2_est > math.log2(ENUMERATION_BUDGET) + 2:
        return None
    return m ** ((k - 1) * n) * math.factorial(n) ** k


def exact_output_distribution(inputs: Sequence[int], k: int, m: int) -> OutputDistribution:
    """Exhaustive law of the plain protocol on fixed inputs.

    Enumerates every share completion and every permutation tuple with
    equal weight; rejects instances whose weighted outcome count
    m^((k-1)n) * (n!)^k exceeds the 10**7 budget.
    """
    n = len(inputs)
    if n < 1 or k < 1 or m < 1:
        raise ValueError(f"need n, k, m >= 1, got n={n}, k={k}, m={m}")
    denominator = _law_budget(n, k, m)
    if denominator is None or denominator > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            "m^((k-1)n) * (n!)^k exceeds the enumeration budget "
            f"{ENUMERATION_BUDGET} for n={n}, k={k}, m={m}"
        )
    perms = list(permutations(range(n)))
    perm_tuples = list(product(perms, repeat=k))
    per_user = [list(_share_tuples(x % m, k, m)) for x in inputs]
    counts: Counter = Counter()
    for mat in product(*per_user):
        blocks = [[mat[i][j] for i in range(n)] for j in range(k)]
        for pt in perm_tuples:
            flat = tuple(blocks[j][p] for j, perm in enumerate(pt) for p in perm)
            counts[flat] += 1
    return OutputDistribution(n, k, m, dict(counts), denominator)


def _tv_between(a: OutputDistribution, b: OutputDistribution) -> Fraction:
    keys = set(a.mass) | set(b.mass)
    total = sum(abs(a.probability(v) - b.probability(v)) for v in keys)
    return total / 2


def exact_tv(inputs_a: Sequence[int], inputs_b: Sequence[int], k: int, m: int) -> Fraction:
    """Exact total variation between the transcript laws of two inputs.

    Only defined for inputs with equal sums (otherwise the server's output
    itself distinguishes them and the security question is vacuous).
    """
    if len(inputs_a) != len(inputs_b):
        raise ValueError("input tuples must have the same length")
    if sum(inputs_a) % m != sum(inputs_b) % m:
        raise ValueError("inputs must have equal sums mod m")
    return _tv_between(
        exact_output_distribution(inputs_a, k, m),
        exact_output_distribution(inputs_b, k, m),
    )


class _LawCache:
    # the transcript law is invariant under permuting users, so cache by
    # sorted input tuple
    def __init__(self, k: int, m: int):
        self.k = k
        self.m = m
        self._laws: dict[tuple[int, ...], OutputDistribution] = {}

    def law(self, inputs: tuple[int, ...]) -> OutputDistribution:
        key = tuple(sorted(inputs))
        if key not in self._laws:
            self._laws[key] = exact_output_distribution(key, self.k, self.m)
        return self._laws[key]


def exact_avg_case_tv(n: int, k: int, m: int) -> Fraction:
    """Expected exact TV over uniform equal-sum input pairs.

    The conditioned pair set is parameterized exactly: the first input and
    all but the last coordinate of the second are free, the last coordinate
    solves the sum, giving m^(2n-1) equally likely pairs.
    """
    if n < 1 or k < 1 or m < 1:
        raise ValueError(f"need n, k, m >= 1, got n={n}, k={k}, m={m}")
    per_law = _law_budget(n, k, m, extra_log2=(2 * n - 1) * math.log2(max(m, 1)))
    pairs = m ** (2 * n - 1)
    if per_law is None or pairs * per_law > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"m^(2n-1) conditioned pairs x m^((k-1)n) (n!)^k outcomes exceeds "
            f"the enumeration budget {ENUMERATION_BUDGET} for n={n}, k={k}, m={m}"
        )
    cache = _LawCache(k, m)
    total = Fraction(0)
    for x in product(range(m), repeat=n):
        target = sum(x) % m
        for free in product(range(m), repeat=n - 1):
            xp = (*free, (target - sum(free)) % m)
            total += _tv_between(cache.law(x), cache.law(xp))
    return total / pairs


def exact_collision_probability(n: int, k: int, m: int, mode: CollisionMode) -> Fraction:
    """Exact collision probability over a uniform input, by enumeration.

    V_VS_V sums squared transcript probabilities; E_EVENT dot-products the
    law of an unshuffled sharing against the transcript law. The two are
    provably equal; computing both exercises that identity.
    """
    if n < 1 or k < 1 or m < 1:
        raise ValueError(f"need n, k, m >= 1, got n={n}, k={k}, m={m}")
    per_law = _law_budget(n, k, m, extra_log2=n * math.log2(max(m, 1)))
    if per_law is None or m**n * per_law > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"m^n x m^((k-1)n) x (n!)^k exceeds the enumeration budget "
            f"{ENUMERATION_BUDGET} for n={n}, k={k}, m={m}"
        )
    cache = _LawCache(k, m)
    total = Fraction(0)
    for x in product(range(m), repeat=n):
        law = cache.law(x)
        if mode is CollisionMode.V_VS_V:
            hit = Fraction(
                sum(c * c for c in law.mass.values()), law.denominator**2
            )
        else:
            # flat unshuffled sharing, share-index major: block j is the
            # users' j-th shares in user order
            plain: Counter = Counter()
            for mat in product(*[list(_share_tuples(xi % m, k, m)) for xi in x]):
                flat = tuple(mat[i][j] for j in range(k) for i in range(n))
                plain[flat] += 1
            plain_denom = m ** ((k - 1) * n)
            hit = sum(
                (Fraction(cnt, plain_denom) * law.probability(v) for v, cnt in plain.items()),
                Fraction(0),
            )
        total += hit
    return total / m**n


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
    a shuffled execution. Samples are drawn in batches of at most
    ``randgraph._BATCH_ELEMENTS`` residues per transcript. Shard s draws
    from the numpy stream ``default_rng(derive_seed(seed, mode tag, s))``;
    integer hit counts merge exactly, so results are bit-identical for
    fixed (seed, shards) and a fixed batch cap. Each batch draws its
    inputs, shares and permutations in turn, so the hits, unlike the
    component-count sampler's counts, depend on the cap. m = 1 is the
    degenerate single-element group where every transcript is all-zeros,
    so the probability is exactly 1; m above 2**63, the engine's uint64
    bound, raises ValueError.
    """
    if samples < 1 or shards < 1:
        raise ValueError(f"need samples >= 1 and shards >= 1, got {samples}, {shards}")
    if n < 1 or k < 1 or m < 1:
        raise ValueError(f"need n, k, m >= 1, got n={n}, k={k}, m={m}")
    if m == 1:
        return Estimate(1.0, 0.0, samples, samples)
    mod = Modulus(m)
    batch_cap = max(1, randgraph._BATCH_ELEMENTS // (k * n))
    hits = 0
    for s, shard_samples in enumerate(_shard_sizes(samples, shards)):
        rng = np.random.default_rng(derive_seed(seed, _MODE_TAG[mode], s))
        for done in range(0, shard_samples, batch_cap):
            x = rng.integers(0, m, size=(min(batch_cap, shard_samples - done), n), dtype=np.uint64)
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

    def value_or_zero(self) -> float:
        return self.value if self.value is not None else 0.0


def _safe_exp(x: float) -> float:
    return math.inf if x > 709.0 else math.exp(x)


def _bound_from_exact_radicand(rad: Fraction) -> Lemma1Bound:
    if rad < 0:
        return Lemma1Bound(None, "radicand-negative")
    try:
        return Lemma1Bound(math.sqrt(float(rad)), "ok")
    except OverflowError:
        log_rad = math.log(rad.numerator) - math.log(rad.denominator)
        return Lemma1Bound(_safe_exp(log_rad / 2), "ok")


def _bound_from_log1p_arg(log_arg: float) -> Lemma1Bound:
    # log_arg = log(radicand + 1); radicand >= 0 iff log_arg >= 0
    if log_arg < 0:
        return Lemma1Bound(None, "radicand-negative")
    if log_arg > 700:
        return Lemma1Bound(_safe_exp(log_arg / 2), "ok")
    return Lemma1Bound(math.sqrt(math.expm1(log_arg)), "ok")


def lemma1_bound(collision_prob, n: int, k: int, m: int) -> Lemma1Bound:
    """Distance bound sqrt(m^(kn-1) * collision_prob - 1), log-space safe.

    Exact inputs (int / Fraction) decide the radicand's sign exactly. A
    Monte Carlo estimate below the uniform floor m^(1-kn) leaves a negative
    radicand; that is reported as an explicit status, never silently
    clamped, to distinguish estimation noise from a genuinely zero bound.
    """
    if n < 1 or k < 1 or m < 2:
        raise ValueError(f"need n, k >= 1 and m >= 2, got n={n}, k={k}, m={m}")
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
        return Lemma1Bound(None, "radicand-negative")
    return _bound_from_log1p_arg((kn - 1) * math.log(m) + math.log(p))


def theorem_bound(n: int, k: int, m: int) -> float:
    """Closed-form average-case distance sqrt(m (e/n)^(k-1)) = 2^-sigma."""
    return 2.0 ** (-sigma_for(k, n, m))


def _check(cond: bool) -> str:
    return "pass" if cond else "fail"


@dataclass(frozen=True)
class SecurityReport:
    """Every measured and derived quantity of one chain verification.

    Exact entries are rationals (None when the instance is beyond the
    enumeration budget); Monte Carlo entries always carry their sample
    counts and confidence halfwidths. ``checks`` records the status of
    every inequality in the chain: "pass", "fail", "unavailable" (budget)
    or "not-applicable" (outside the proved n/k/sigma regime).
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
    mc_collision_v: Estimate
    mc_collision_e: Estimate
    mc_m_power_c: float
    mc_m_power_c_halfwidth: float
    lemma1_bound: Lemma1Bound
    lemma1_source: str
    lemma3_bound: Lemma1Bound
    lemma3_source: str
    theorem1_bound: float | None
    preconditions_ok: dict[str, bool]
    checks: dict[str, str]

    def all_checks_pass(self) -> bool:
        return all(v != "fail" for v in self.checks.values())

    def to_dict(self) -> dict:
        def frac(f: Fraction | None) -> dict | None:
            if f is None:
                return None
            return {"fraction": f"{f.numerator}/{f.denominator}", "value": float(f), "provenance": "exact"}

        def est(e: Estimate) -> dict:
            return {
                "value": e.value,
                "ci_halfwidth": e.ci_halfwidth,
                "confidence": HOEFFDING_CONFIDENCE,
                "samples": e.samples,
                "hits": e.hits,
                "provenance": "monte-carlo",
            }

        def bnd(b: Lemma1Bound, source: str) -> dict:
            return {"value": b.value, "status": b.status, "provenance": source}

        return {
            "params": {"n": self.n, "k": self.k, "m": self.m},
            "samples": self.samples,
            "seed": self.seed,
            "shards": self.shards,
            "exact_avg_tv": frac(self.exact_avg_tv),
            "exact_collision_v": frac(self.exact_collision_v),
            "exact_collision_e": frac(self.exact_collision_e),
            "exact_m_power_c": frac(self.exact_m_power_c),
            "mc_collision_v": est(self.mc_collision_v),
            "mc_collision_e": est(self.mc_collision_e),
            "mc_m_power_c": {
                "value": self.mc_m_power_c,
                "ci_halfwidth": self.mc_m_power_c_halfwidth,
                "confidence": 0.99,
                "samples": self.samples,
                "provenance": "monte-carlo",
            },
            "lemma1_bound": bnd(self.lemma1_bound, self.lemma1_source),
            "lemma3_bound": bnd(self.lemma3_bound, self.lemma3_source),
            "theorem1_bound": self.theorem1_bound,
            "preconditions_ok": dict(self.preconditions_ok),
            "checks": dict(self.checks),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def verify_chain(
    n: int, k: int, m: int, samples: int, seed: int, shards: int = 1
) -> SecurityReport:
    """Measure the whole bound chain on one instance.

    Exact quantities are computed wherever the enumeration budget allows;
    Monte Carlo estimates are always produced. Every inequality of the
    chain is then evaluated and reported. Deterministic given
    (n, k, m, samples, seed, shards).
    """
    exact_tv_val = exact_cv = exact_ce = exact_emc = None
    try:
        exact_cv = exact_collision_probability(n, k, m, CollisionMode.V_VS_V)
        exact_ce = exact_collision_probability(n, k, m, CollisionMode.E_EVENT)
    except EnumerationBudgetError:
        pass
    try:
        exact_tv_val = exact_avg_case_tv(n, k, m)
    except EnumerationBudgetError:
        pass
    try:
        exact_emc = exact_m_power_C(n, k, m)
    except EnumerationBudgetError:
        pass

    mc_v = collision_probability(n, k, m, samples, seed, CollisionMode.V_VS_V, shards)
    mc_e = collision_probability(n, k, m, samples, seed, CollisionMode.E_EVENT, shards)
    emc_est, emc_hw = estimate_m_power_C(n, k, m, samples, seed, shards)

    kn = k * n
    if exact_cv is not None:
        l1 = lemma1_bound(exact_cv, n, k, m)
        l1_source = "exact"
    else:
        l1 = lemma1_bound(mc_v.value, n, k, m)
        l1_source = "monte-carlo"

    if exact_emc is not None:
        l3 = lemma1_bound(Fraction(exact_emc, m**kn), n, k, m)
        l3_source = "exact"
    else:
        # radicand of the graph route collapses to E[m^C]/m - 1
        l3 = _bound_from_log1p_arg(math.log(emc_est) - math.log(m))
        l3_source = "monte-carlo"

    thm = theorem_bound(n, k, m) if n >= 2 else None
    violations = validate_params(n, k, m)
    preconditions = {lab: lab not in violations for lab in ("n>=19", "k>=3", "sigma>=1")}
    in_regime = all(preconditions.values())

    checks: dict[str, str] = {}
    if exact_tv_val is not None and exact_cv is not None:
        rad = exact_cv * m ** (kn - 1) - 1
        checks["lemma1_exact_soundness"] = _check(exact_tv_val * exact_tv_val <= rad)
    else:
        checks["lemma1_exact_soundness"] = "unavailable"
    if exact_cv is not None and exact_ce is not None:
        checks["lemma2_exact_identity"] = _check(exact_cv == exact_ce)
    else:
        checks["lemma2_exact_identity"] = "unavailable"
    if exact_cv is not None and exact_emc is not None:
        checks["lemma3_exact_soundness"] = _check(exact_cv <= Fraction(exact_emc, m**kn))
    else:
        checks["lemma3_exact_soundness"] = "unavailable"

    checks["lemma2_mc_consistency"] = _check(
        abs(mc_v.value - mc_e.value) <= mc_v.ci_halfwidth + mc_e.ci_halfwidth
    )
    if exact_cv is not None:
        checks["mc_matches_exact_collision_v"] = _check(
            abs(mc_v.value - float(exact_cv)) <= mc_v.ci_halfwidth
        )
        checks["mc_matches_exact_collision_e"] = _check(
            abs(mc_e.value - float(exact_ce)) <= mc_e.ci_halfwidth
        )
    else:
        checks["mc_matches_exact_collision_v"] = "unavailable"
        checks["mc_matches_exact_collision_e"] = "unavailable"

    if in_regime:
        exp_bound = expectation_bound(n, k, m)
        checks["expectation_bound_mc"] = _check(emc_est - emc_hw <= exp_bound)
        if exact_emc is not None:
            graph_lo = lemma1_bound(Fraction(exact_emc, m**kn), n, k, m)
        else:
            low = max(emc_est - emc_hw, float(m))
            graph_lo = _bound_from_log1p_arg(math.log(low) - math.log(m))
        checks["graph_route_le_theorem1"] = _check(graph_lo.value_or_zero() <= thm)
        if exact_tv_val is not None:
            checks["theorem1_dominates_exact_tv"] = _check(float(exact_tv_val) <= thm)
        else:
            checks["theorem1_dominates_exact_tv"] = "unavailable"
    else:
        checks["expectation_bound_mc"] = "not-applicable"
        checks["graph_route_le_theorem1"] = "not-applicable"
        checks["theorem1_dominates_exact_tv"] = "not-applicable"

    return SecurityReport(
        n=n,
        k=k,
        m=m,
        samples=samples,
        seed=seed,
        shards=shards,
        exact_avg_tv=exact_tv_val,
        exact_collision_v=exact_cv,
        exact_collision_e=exact_ce,
        exact_m_power_c=exact_emc,
        mc_collision_v=mc_v,
        mc_collision_e=mc_e,
        mc_m_power_c=emc_est,
        mc_m_power_c_halfwidth=emc_hw,
        lemma1_bound=l1,
        lemma1_source=l1_source,
        lemma3_bound=l3,
        lemma3_source=l3_source,
        theorem1_bound=thm,
        preconditions_ok=preconditions,
        checks=checks,
    )
