"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line when its checks hold (run with ``pytest -s`` to see them)."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from helpers import SIGNIFICANCE, exact_sum, group_sum, two_sample_chisq_pvalue
from shufflesum.oracle import (
    CollisionMode,
    collision_probability,
    hoeffding_halfwidth,
    theorem_bound,
    verify_chain,
)
from shufflesum.planner import baseline_k_lower_bound, plan_shuffled_k, sigma_for
from shufflesum.protocol import Modulus, aggregate_batch, run_batch
from shufflesum.randgraph import (
    Quantity,
    estimate_component_distribution,
    estimate_m_power_C,
    exact_m_power_C,
    expectation_bound,
    lemma4_probability_bound,
)
from transcript_enumeration import collision_probability_by_enumeration, exact_output_distribution

ENUMERABLE_INSTANCES = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2), (2, 1, 2), (2, 1, 3), (1, 2, 2)]


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {text}: PASS")


def test_criterion_01_headline_parameters():
    res = plan_shuffled_k(40, 10**4, 2**32)
    assert res.k_shuffled == 11
    assert res.total_messages == 12
    report(1, "plan(sigma=40, n=10^4, m=2^32) -> 11 shuffled / 12 total messages")


def test_criterion_02_prior_analysis_comparison():
    assert baseline_k_lower_bound(40) == 80
    assert plan_shuffled_k(40, 10**4, 2**32).total_messages == 12 < 80
    report(2, "total 12 beats the prior-analysis floor 2*sigma = 80")


def test_criterion_03_planner_minimality():
    rng = random.Random(303)
    for _ in range(10_000):
        sigma = rng.uniform(1, 128)
        n = int(10 ** rng.uniform(math.log10(19), 9))
        m = 2 ** rng.randint(1, 63)
        k = plan_shuffled_k(sigma, n, m).k_shuffled
        assert sigma_for(k, n, m) >= sigma
        assert sigma_for(k - 1, n, m) < sigma
    report(3, "minimal k on 10^4 random (sigma, n, m)")


def test_criterion_04_protocol_sum_conservation():
    rng = np.random.default_rng(404)
    moduli = [Modulus(2), Modulus(7), Modulus(2**32)]
    # 100 random (m, n, k) per variant, 50 executions each
    runs = 50
    for i in range(100):
        mod = moduli[i % 3]
        for clear in (False, True):
            n, k = int(rng.integers(1, 101)), int(rng.integers(1, 17))
            x = rng.integers(0, mod.m, size=(runs, n), dtype=np.uint64)
            expected = [group_sum(row, mod) for row in x.tolist()]
            blocks, clear_block = run_batch(x, k, mod, rng, clear)
            assert aggregate_batch(blocks, clear_block, mod).tolist() == expected
    report(4, "10^4 executions (both variants) conserve the sum exactly")


def test_criterion_05_single_shuffling_identity_exact():
    for n, k, m in ENUMERABLE_INSTANCES:
        pv = exact_sum(n, k, m, "exact_collision_v")
        pe = collision_probability_by_enumeration(n, k, m, CollisionMode.E_EVENT)
        assert pv == pe, (n, k, m)
    report(5, "Pr[V=V'] = Pr[R = S o R'] exactly on all enumerable instances")


def test_criterion_06_bound_chain_exact_soundness():
    for n, k, m in ENUMERABLE_INSTANCES:
        tv = exact_sum(n, k, m, "exact_avg_tv")
        p = exact_sum(n, k, m, "exact_collision_v")
        radicand = p * m ** (k * n - 1) - 1
        assert tv * tv <= radicand, (n, k, m)
        assert p <= Fraction(exact_m_power_C(n, k, m), m ** (k * n)), (n, k, m)
    report(6, "avg TV <= sqrt(m^(kn-1) p - 1) and p <= E[m^C]/m^(kn), exactly")


def test_criterion_07_component_distribution_bound():
    samples = 100_000
    halfwidth = hoeffding_halfwidth(samples)
    for n, k in itertools.product((19, 30, 50), (3, 4)):
        counts = estimate_component_distribution(n, k, samples, seed=707 + n + k)
        for c, count in counts.items():
            bound = lemma4_probability_bound(n, k, c)
            assert count / samples <= bound + halfwidth, (n, k, c)
    report(7, "empirical Pr[C=c] within bound + Hoeffding 99.9% halfwidth on 6 grids")


def test_criterion_08_expectation_bound():
    samples = 1_000_000
    for m in (2, 5, 24):
        assert exact_m_power_C(19, 3, m) <= expectation_bound(19, 3, m), m
        est = estimate_m_power_C(19, 3, m, samples, seed=808 + m)
        assert est.lo <= expectation_bound(19, 3, m), m
    # CI covers the exactly enumerable small cases
    for n, k, m in [(2, 3, 2), (3, 2, 2)]:
        est = estimate_m_power_C(n, k, m, 200_000, seed=818)
        assert est.lo <= exact_m_power_C(n, k, m) <= est.hi, (n, k, m)
    report(8, "E[m^C], exact and estimated, below closed-form bound; CI covers exact values")


def test_criterion_09_chain_at_reference_scale():
    rep = verify_chain(19, 3, 2, samples=50_000, seed=909)
    closed_form = theorem_bound(19, 3, 2)
    assert abs(closed_form - 0.2023) < 1e-3
    assert abs(closed_form - math.sqrt(2.0) * math.e / 19) < 1e-12
    # graph-route distance bound, at the CI-upper expectation, stays under
    # the closed form
    upper = math.sqrt(max(rep["mc_m_power_c"].hi / 2 - 1, 0.0))
    assert upper <= closed_form
    assert rep["checks"]["expectation_bound_mc"] == "pass"
    assert rep["checks"]["graph_route_le_theorem1"] == "pass"
    # direct transcript collisions are unobservably rare here (~2^-56), so
    # the direct-route estimate must sit below the uniform floor and be
    # flagged rather than silently clamped
    assert rep["mc_collision_v"].hits == 0
    assert rep["lemma1_bound"].value is None
    assert "fail" not in rep["checks"].values()
    report(9, "chain report at (19,3,2): graph route consistent with 0.2023 closed form")


def _randomized_then_permuted_law(inputs, k, m):
    """Exhaustive law of: run the randomized-inputs variant, then apply a
    uniform permutation to the clear block. Independent of the oracle's
    plain-protocol enumeration."""
    n = len(inputs)
    perms = list(itertools.permutations(range(n)))
    per_user = []
    for x in inputs:
        options = []
        for u in range(m):
            masked = (x - u) % m
            for free in itertools.product(range(m), repeat=k - 1):
                body = (*free, (masked - sum(free)) % m)
                options.append((*body, u))
        per_user.append(options)
    counts = Counter()
    for mat in itertools.product(*per_user):
        blocks = [[mat[i][j] for i in range(n)] for j in range(k)]
        clear = [mat[i][k] for i in range(n)]
        for pt in itertools.product(perms, repeat=k):
            shuffled = tuple(blocks[j][p] for j, perm in enumerate(pt) for p in perm)
            for extra in perms:
                counts[shuffled + tuple(clear[p] for p in extra)] += 1
    denom = (m**k) ** n * math.factorial(n) ** (k + 1)
    return counts, denom


def test_criterion_10_randomized_inputs_reduction():
    n, k, m = 2, 1, 2
    inputs = [0, 1]
    mod = Modulus(m)

    # exact enumeration: permuted-clear law equals the (k+1)-share plain law
    counts, denom = _randomized_then_permuted_law(inputs, k, m)
    plain = exact_output_distribution(tuple(inputs), k + 1, m)
    law_a = {v: Fraction(c, denom) for v, c in counts.items()}
    law_b = {v: plain.probability(v) for v in plain.mass}
    assert law_a == law_b

    # sampled: the two constructions are indistinguishable by chi-square
    rng = np.random.default_rng(1010)
    samples = 100_000
    x = np.tile(np.array(inputs, dtype=np.uint64), (samples, 1))
    blocks, clear = run_batch(x, k, mod, rng, clear=True)
    permuted_flat = np.concatenate(
        (blocks.reshape(samples, -1), rng.permuted(clear, axis=-1)), axis=1
    )
    direct_blocks, _ = run_batch(x, k + 1, mod, rng)
    permuted = Counter(map(tuple, permuted_flat.tolist()))
    direct = Counter(map(tuple, direct_blocks.reshape(samples, -1).tolist()))
    assert two_sample_chisq_pvalue(permuted, direct) > SIGNIFICANCE
    report(10, "permuting the clear block reproduces the (k+1)-share plain law")


def test_criterion_11_determinism():
    chain_a = verify_chain(3, 2, 2, samples=20_000, seed=1111, shards=2)
    chain_b = verify_chain(3, 2, 2, samples=20_000, seed=1111, shards=2)
    # through the printer's own serialization of a Quantity
    assert json.dumps(chain_a, default=Quantity.to_json) == json.dumps(chain_b, default=Quantity.to_json)

    counts_a = estimate_component_distribution(19, 3, 50_000, seed=1112, shards=3)
    counts_b = estimate_component_distribution(19, 3, 50_000, seed=1112, shards=3)
    assert counts_a == counts_b

    est_a = collision_probability(2, 2, 2, 20_000, seed=1113, mode=CollisionMode.V_VS_V, shards=4)
    est_b = collision_probability(2, 2, 2, 20_000, seed=1113, mode=CollisionMode.V_VS_V, shards=4)
    assert est_a == est_b
    report(11, "Monte Carlo reports bit-identical for fixed (seed, shards)")
