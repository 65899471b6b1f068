import collections
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import pytest

from helpers import dixon_m_power_C, exact_sum
from shufflesum import oracle, randgraph
from shufflesum.oracle import (
    HOEFFDING_CONFIDENCE,
    CollisionMode,
    check,
    collision_probability,
    hoeffding_halfwidth,
    lemma1_bound,
    theorem_bound,
    verify_chain,
)
from shufflesum.randgraph import (
    ENUMERATION_BUDGET,
    EnumerationBudgetError,
    Quantity,
    estimate_component_distribution,
    exact_m_power_C,
)
from transcript_enumeration import (
    avg_case_tv_by_enumeration,
    collision_probability_by_enumeration,
    exact_output_distribution,
    exact_tv,
)

# instances small enough to enumerate completely; these values are pinned
# from the exhaustive-enumeration oracle itself and act as regressions
SMALL_INSTANCES = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2), (2, 1, 2), (2, 1, 3), (1, 2, 2)]

FROZEN_COLLISION = {
    (2, 2, 2): Fraction(5, 32),
    (2, 2, 3): Fraction(1, 18),
    (3, 2, 2): Fraction(1, 24),
    (2, 3, 2): Fraction(9, 256),
    (2, 1, 2): Fraction(3, 4),
    (2, 1, 3): Fraction(2, 3),
    (1, 2, 2): Fraction(1, 2),
}

FROZEN_AVG_TV = {
    (2, 2, 2): Fraction(1, 8),
    (2, 2, 3): Fraction(8, 27),
    (3, 2, 2): Fraction(3, 16),
    (2, 3, 2): Fraction(1, 16),
    (2, 1, 2): Fraction(1, 4),
    (2, 1, 3): Fraction(4, 9),
    (1, 2, 2): Fraction(0),
}


class TestExactOutputDistribution:
    def test_single_user_two_shares(self):
        dist = exact_output_distribution((1,), 2, 2)
        assert dist.mass == {(0, 1): 1, (1, 0): 1}
        assert dist.denominator == 2
        assert dist.probability((0, 1)) == Fraction(1, 2)

    def test_two_users_one_share(self):
        dist = exact_output_distribution((0, 1), 1, 2)
        assert dist.mass == {(0, 1): 1, (1, 0): 1}

    @pytest.mark.parametrize("n,k,m", SMALL_INSTANCES)
    def test_total_mass_and_support(self, n, k, m):
        inputs = tuple(i % m for i in range(n))
        dist = exact_output_distribution(inputs, k, m)
        assert dist.total() == 1
        target = sum(inputs) % m
        for outcome in dist.mass:
            assert len(outcome) == k * n
            assert all(0 <= v < m for v in outcome)
            assert sum(outcome) % m == target

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            exact_output_distribution(tuple(range(9)) , 3, 4)
        with pytest.raises(EnumerationBudgetError):
            exact_output_distribution((0,) * 1000, 2, 2**32)


class TestExactTv:
    def test_identical_inputs(self):
        assert exact_tv((0, 1), (0, 1), 2, 2) == 0

    def test_permuted_inputs_one_share(self):
        assert exact_tv((0, 1), (1, 0), 1, 2) == 0

    def test_symmetric(self):
        a, b = (0, 1, 1), (1, 1, 0)
        assert exact_tv(a, b, 2, 2) == exact_tv(b, a, 2, 2)

    def test_rejects_unequal_sums(self):
        with pytest.raises(ValueError):
            exact_tv((0, 0), (0, 1), 2, 2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            exact_tv((0,), (0, 0), 2, 2)

    def test_range_and_triangle(self):
        # equal-sum triple over Z_3
        a, b, c = (0, 2), (1, 1), (2, 0)
        ab = exact_tv(a, b, 2, 3)
        bc = exact_tv(b, c, 2, 3)
        ac = exact_tv(a, c, 2, 3)
        for t in (ab, bc, ac):
            assert 0 <= t <= 1
        assert ac <= ab + bc


class TestExactAvgTv:
    @pytest.mark.parametrize("n,k,m", SMALL_INSTANCES)
    def test_frozen_values(self, n, k, m):
        assert exact_sum(n, k, m, "exact_avg_tv") == FROZEN_AVG_TV[(n, k, m)]

    @pytest.mark.parametrize("k,m", [(1, 2), (2, 3), (3, 5)])
    def test_single_user_is_zero(self, k, m):
        # equal sums force identical inputs when n=1
        assert exact_sum(1, k, m, "exact_avg_tv") == 0

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            exact_sum(9, 3, 4, "exact_avg_tv")


class TestExactCollision:
    @pytest.mark.parametrize("n,k,m", SMALL_INSTANCES)
    def test_frozen_values_both_modes(self, n, k, m):
        pv = exact_sum(n, k, m, "exact_collision_v")
        assert pv == FROZEN_COLLISION[(n, k, m)]
        # single-shuffling identity, exact in the rationals, against the
        # ordered enumeration of fresh sharings
        assert pv == collision_probability_by_enumeration(n, k, m, CollisionMode.E_EVENT)

    @pytest.mark.parametrize("n,k,m", SMALL_INSTANCES)
    def test_graph_route_dominates(self, n, k, m):
        pv = exact_sum(n, k, m, "exact_collision_v")
        assert pv <= Fraction(exact_m_power_C(n, k, m), m ** (k * n))

    def test_budget_guard(self):
        # E[m^C] fits at (2, 20000, 2^63), but V's 2.5e6-bit denominator does
        # not: its gcd and decimal digits take 1.6e9 word products
        emc = exact_m_power_C(2, 20000, 2**63)
        with pytest.raises(EnumerationBudgetError, match="^exact_collision_v takes .* word products, over the budget"):
            oracle.exact_collision(2, 20000, 2**63, emc)


# the exact transcript quantities, in report order
EXACT_SUMS = ("exact_avg_tv", "exact_collision_v")

# every instance the ordered enumerator in transcript_enumeration reaches
REFERENCE_INSTANCES = SMALL_INSTANCES + [(3, 3, 2), (4, 2, 2), (3, 2, 3), (2, 4, 2)]


# the 71 instances with n <= 8, k <= 5, m <= 5 where the walk's collision sum
# takes at most 3e5 histogram updates, L^(k+1) n m^(k-1), and two past them
WALK_GRID = sorted(
    {
        (n, k, m)
        for n, k, m in itertools.product(range(1, 9), range(1, 6), range(2, 6))
        if math.comb(n + m - 1, n) ** (k + 1) * n * m ** (k - 1) <= 3 * 10**5
    }
    | {(6, 2, 3), (10, 3, 2)}
)


def packed(histograms, n, m):
    # the key ``histogram_laws`` files a tuple of block histograms under
    return sum(h * (n + 1) ** (j * m + a) for j, hist in enumerate(histograms) for a, h in enumerate(hist))


class TestHistogramLaw:
    @pytest.mark.parametrize("n,k,m", REFERENCE_INSTANCES)
    def test_matches_ordered_enumeration(self, n, k, m):
        assert exact_sum(n, k, m, "exact_avg_tv") == avg_case_tv_by_enumeration(n, k, m)
        # lemma 2: the one exact collision sum is both V's and E's
        for mode in CollisionMode:
            assert exact_sum(n, k, m, "exact_collision_v") == collision_probability_by_enumeration(n, k, m, mode), mode

    @pytest.mark.parametrize("inputs,k,m", [((0, 1, 1), 2, 2), ((1, 2), 2, 3), ((0, 0, 1), 3, 2)])
    def test_law_gives_every_ordered_outcome(self, inputs, k, m):
        # an ordered transcript v has mass N(h(v)) * prod_j prod_a h_j(a)!
        # out of m^((k-1)n) (n!)^k
        n = len(inputs)
        law = next(law for xs, _, law in oracle.histogram_laws(n, k, m) if xs == tuple(sorted(inputs)))
        assert sum(law.values()) == m ** ((k - 1) * n)
        reference = exact_output_distribution(inputs, k, m)
        mass = {}
        for key, count in law.items():
            digits = [key // (n + 1) ** i % (n + 1) for i in range(k * m)]
            mass[key] = count * math.prod(math.factorial(h) for h in digits)
        seen = set()
        for v, count in reference.mass.items():
            blocks = [v[j * n : (j + 1) * n] for j in range(k)]
            key = packed([[block.count(a) for a in range(m)] for block in blocks], n, m)
            assert count == mass[key], v
            seen.add(key)
        assert seen == set(law)
        # law counts the ordered unshuffled sharings of the inputs by their
        # block histograms, so lemma 2's E is V's sum regrouped
        tuples = [[t for t in itertools.product(range(m), repeat=k) if sum(t) % m == x] for x in inputs]
        sharings = collections.Counter(
            packed([[[t[j] for t in sharing].count(a) for a in range(m)] for j in range(k)], n, m)
            for sharing in itertools.product(*tuples)
        )
        assert sharings == law

    def test_classes_and_orderings(self):
        classes = [(xs, w) for xs, w, _ in oracle.histogram_laws(3, 2, 3)]
        assert [xs for xs, _ in classes] == sorted(itertools.combinations_with_replacement(range(3), 3))
        assert sum(w for _, w in classes) == 3**3
        assert dict(classes)[(0, 1, 2)] == 6 and dict(classes)[(1, 1, 1)] == 1

    def test_pinned_values_past_the_ordered_enumeration(self):
        assert exact_sum(4, 3, 2, "exact_avg_tv") == Fraction(245, 4096)
        assert exact_sum(5, 2, 2, "exact_avg_tv") == Fraction(165, 1024)
        assert exact_sum(4, 3, 2, "exact_collision_v") == Fraction(155, 294912)
        assert exact_sum(5, 2, 2, "exact_collision_v") == Fraction(13, 5120)
        # exact TV falls with n at k = 3, m = 2
        assert exact_sum(5, 3, 2, "exact_avg_tv") == Fraction(985, 16384)
        assert round(float(exact_sum(5, 3, 2, "exact_avg_tv")), 4) == 0.0601
        assert exact_sum(10, 3, 2, "exact_avg_tv") == Fraction(928207003, 34359738368)
        assert round(float(exact_sum(10, 3, 2, "exact_avg_tv")), 4) == 0.0270
        # V at the reference point, where the walk is over the budget, against
        # Dixon's recursion: lemma 1 then reads 0.05297 there
        v = oracle.exact_collision(19, 3, 2, exact_m_power_C(19, 3, 2))
        assert v == dixon_m_power_C(19, 3, 2) / 2**57 == Fraction(35051863075, 2518686938297026694740967424)
        assert round(lemma1_bound(Quantity.exact(exact_m_power_C(19, 3, 2)), 2).value, 6) == 0.052966

    @pytest.mark.parametrize("n,k,m", WALK_GRID)
    def test_collision_equals_graph_route(self, n, k, m):
        # lemma 3 holds with equality: the package's Pr[V = V'] = E[m^C] /
        # m^(kn) equals the walk's sum, and Dixon's E[m^C] agrees
        p = exact_sum(n, k, m, "exact_collision_v")
        assert oracle.exact_collision(n, k, m, exact_m_power_C(n, k, m)) == p
        assert p == dixon_m_power_C(n, k, m) / m ** (k * n)


class TestExactWork:
    def test_reference_point_counts(self):
        # L = 20 input classes, S = 20^3 histogram tuples, U = 19 * 2^2
        conv = 20 * 76 * 8000
        # n^2 w^log2(3) + w^2 word products, w = 3 words
        miller = 19 * 19 * 3 ** math.log2(3) + 3 * 3
        assert oracle.exact_work(19, 3, 2) == {
            "exact_avg_tv": conv + 20**2 * 8000,
            # and w^2 more for the w = 3 words of V's denominator (19!)^2 2^57
            "exact_collision_v": miller + 3 * 3,
            "exact_m_power_c": miller,
        }
        assert conv + 20**2 * 8000 == 15_360_000
        # the chain-exact instances, (10, 3, 2) and (15, 1, 4): L U S and L^2 S
        # class pairs, U = n m^(k-1)
        for (n, k, m), (conv, pairs) in {
            (3, 3, 2): (4 * 12 * 4**3, 4**2 * 4**3),
            (4, 2, 2): (5 * 8 * 5**2, 5**2 * 5**2),
            (10, 3, 2): (11 * 40 * 11**3, 11**2 * 11**3),
            (15, 1, 4): (816 * 15 * 816, 816**2 * 816),
        }.items():
            work = oracle.exact_work(n, k, m)["exact_avg_tv"]
            assert work == conv + pairs and type(work) is int

    @pytest.mark.parametrize("n,k,m", [(19, 3, 2), (9, 3, 4)])
    def test_over_budget(self, n, k, m):
        # the walk is over the budget; E[m^C] and V, in word products, are not
        work = oracle.exact_work(n, k, m)
        assert work["exact_avg_tv"] > ENUMERATION_BUDGET
        assert work["exact_m_power_c"] < work["exact_collision_v"] <= ENUMERATION_BUDGET
        with pytest.raises(EnumerationBudgetError, match=f"takes {work['exact_avg_tv']} histogram updates"):
            exact_sum(n, k, m, "exact_avg_tv")
        assert 0 < oracle.exact_collision(n, k, m, exact_m_power_C(n, k, m)) < 1

    @pytest.mark.parametrize(
        "n, k, m, fitting",
        [
            *[(n, k, m, EXACT_SUMS) for n, k, m in [(3, 3, 2), (4, 2, 2), (3, 2, 3), (4, 3, 2), (5, 2, 2)]],
            (10, 3, 2, EXACT_SUMS),
            (15, 1, 4, ("exact_collision_v",)),
        ],
    )
    def test_every_request_equals_the_full_one(self, n, k, m, fitting):
        # the chain-exact instances, (10, 3, 2), and one where only the
        # collision probability fits: verify_chain computes exactly the
        # quantities that fit, each the value its own function gives
        work = oracle.exact_work(n, k, m)
        assert tuple(name for name in EXACT_SUMS if work[name] <= ENUMERATION_BUDGET) == fitting
        rep = verify_chain(n, k, m, samples=10, seed=1)
        full = {
            "exact_avg_tv": lambda: oracle.exact_avg_tv(n, k, m),
            "exact_collision_v": lambda: oracle.exact_collision(n, k, m, exact_m_power_C(n, k, m)),
        }
        assert {name: rep[name] for name in EXACT_SUMS} == {
            name: Quantity.exact(full[name]()) if name in fitting else None for name in EXACT_SUMS
        }

    @pytest.mark.parametrize("n, k, m, names", [
        (10, 2, 3, ["exact_avg_tv", "exact_collision_v"]),
        (15, 1, 4, ["exact_collision_v", "exact_avg_tv"]),
        (19, 3, 2, ["exact_collision_v", "exact_avg_tv"]),
    ])
    def test_request_over_the_budget(self, n, k, m, names):
        # the walk is refused over the budget, and only the walk: the chain
        # still reports the exact collision probability
        work = oracle.exact_work(n, k, m)
        assert [name for name in names if work[name] > ENUMERATION_BUDGET] == ["exact_avg_tv"]
        with pytest.raises(EnumerationBudgetError, match="^exact_avg_tv takes .* histogram updates, over the budget"):
            oracle.exact_avg_tv(n, k, m)
        rep = verify_chain(n, k, m, samples=10, seed=1)
        assert rep["exact_avg_tv"] is None and rep["exact_collision_v"].provenance == "exact"

    def test_empty_request_builds_nothing(self, monkeypatch):
        # m^(k-1) share tuples per input at k = 384: with the walk over the
        # budget, the chain builds none of them
        def refuse(*args):
            raise AssertionError("share rows built")

        monkeypatch.setattr(oracle, "_share_rows", refuse)
        rep = verify_chain(19, 384, 2, samples=10, seed=1)
        assert rep["exact_avg_tv"] is None and rep["exact_collision_v"].provenance == "exact"

    def test_large_counts_from_logarithms(self):
        # past 2^64 a float close to the exact count; no huge integer is built
        # (r = min(n, m-1) = 129 > 128: C(259, 129) takes the Stirling estimate)
        classes = math.comb(259, 129)
        approx = oracle.exact_work(130, 1, 130)["exact_avg_tv"]
        assert isinstance(approx, float) and math.isclose(approx, classes**2 * 129 + classes**3, rel_tol=1e-2)
        work = oracle.exact_work(10**4, 11, 2**32)
        assert work["exact_avg_tv"] == math.inf
        assert ENUMERATION_BUDGET < work["exact_m_power_c"] < work["exact_collision_v"] < math.inf

    def test_log_space_product_past_float_range(self):
        # n = 2^1023 is a float, (k-1) n log2(m) is not: every count reads
        # inf, so the exact quantities are over the budget, not an OverflowError
        n = 2**1023
        assert set(oracle.exact_work(n, 3, 2).values()) == {math.inf}
        with pytest.raises(EnumerationBudgetError, match="takes inf histogram updates"):
            exact_sum(n, 3, 2, "exact_avg_tv")
        with pytest.raises(EnumerationBudgetError, match="takes inf word products"):
            oracle.exact_collision(n, 3, 2, Fraction(2))

    @pytest.mark.parametrize(
        "n, k, m", [(2, 2**1100, 2), (1, 2**1100, 2**63), (2**1100, 3, 2**63)], ids=["k", "k-m63", "n-m63"]
    )
    def test_sizes_past_float_range(self, n, k, m):
        # k or n past float range (n through the Stirling branch at m = 2^63):
        # every count reads inf, so the exact quantities are over the budget
        assert set(oracle.exact_work(n, k, m).values()) == {math.inf}
        with pytest.raises(EnumerationBudgetError, match="takes inf histogram updates"):
            exact_sum(n, k, m, "exact_avg_tv")

    @pytest.mark.parametrize(
        "n, k, m, words",
        [(19, 3, 2, 3), (154, 3, 2, 36), (55, 4, 2**62, 225), (2, 20000, 2, 938), (2, 20000, 2**63, 39688)],
    )
    def test_collision_cost(self, n, k, m, words):
        # V's cost is E[m^C]'s plus w^2 word products, w the 64-bit words of
        # (n!)^(k-1) m^(kn), recomputed here from its bit count
        bits = (k - 1) * math.log2(math.factorial(n)) + k * n * math.log2(m)
        assert math.ceil(bits / 64) == words
        work = oracle.exact_work(n, k, m)
        assert work["exact_collision_v"] == work["exact_m_power_c"] + words * words

    def test_collision_fits_wherever_m_power_c_does_at_m2(self):
        # the w^2 term refuses V only where the digits would take seconds:
        # at m = 2 it never moves V off exact where E[m^C] is exact
        for n, k in itertools.product([1, 2, 19, 60, 154, 155, 400], [1, 3, 11]):
            work = oracle.exact_work(n, k, 2)
            assert (work["exact_collision_v"] <= ENUMERATION_BUDGET) == (work["exact_m_power_c"] <= ENUMERATION_BUDGET)
        assert oracle.exact_work(154, 3, 2)["exact_collision_v"] <= ENUMERATION_BUDGET
        assert oracle.exact_work(2, 20000, 2**63)["exact_collision_v"] > ENUMERATION_BUDGET

    @pytest.mark.parametrize("m", [2, 2**32, 2**63])
    @pytest.mark.parametrize("k", [1, 3, 11])
    @pytest.mark.parametrize("n", [1, 2, 19, 60, 154, 155, 400, 1000, 4000, 10**200])
    def test_m_power_c_decision(self, n, k, m):
        # the table decides exactly where exact_m_power_C raises, and decides it
        # by n^2 w^log2(3) + w^2 word products, recomputed here independently
        over = oracle.exact_work(n, k, m)["exact_m_power_c"] > ENUMERATION_BUDGET
        if n * n > ENUMERATION_BUDGET:
            assert over
        else:
            words = math.ceil((k * math.lgamma(n + 1) / math.log(2) + n * math.log2(m)) / 64)
            assert over == (n * n * words ** math.log2(3) + words * words > ENUMERATION_BUDGET)
        if over:
            with pytest.raises(EnumerationBudgetError, match="exact_m_power_c takes .* word products"):
                exact_m_power_C(n, k, m)
        else:
            assert exact_m_power_C(n, k, m) >= 1

    def test_m_power_c_budget_edge(self):
        # about 24 ms at n = 154; n = 155 is the first n over budget at k = 3, m = 2
        assert oracle.exact_work(154, 3, 2)["exact_m_power_c"] <= ENUMERATION_BUDGET
        assert oracle.exact_work(155, 3, 2)["exact_m_power_c"] > ENUMERATION_BUDGET


class TestMonteCarloCollision:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("m", [2, 5])
    def test_single_user_matches_closed_form(self, k, m):
        est = collision_probability(1, k, m, 20_000, seed=31, mode=CollisionMode.V_VS_V)
        assert est.lo <= Fraction(1, m ** (k - 1)) <= est.hi

    def test_both_modes_match_enumeration(self):
        exact = float(FROZEN_COLLISION[(2, 1, 2)])
        for mode in CollisionMode:
            est = collision_probability(2, 1, 2, 50_000, seed=32, mode=mode)
            assert est.lo <= exact <= est.hi

    def test_degenerate_group(self):
        # m = 1 is rejected by Modulus, as at every other engine entry point
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            collision_probability(3, 2, 1, 1000, seed=33, mode=CollisionMode.V_VS_V)

    @pytest.mark.parametrize(
        "n, k, entries",
        [(2**1023, 3, "2^1024.6"), (2, 2**1100, "2^1101.0"), (10**7 + 1, 1, "10000001")],
        ids=["n", "k", "edge"],
    )
    def test_draw_over_budget(self, n, k, entries):
        # randgraph.shard_batches admits every draw: one transcript of more
        # than ENUMERATION_BUDGET residues is refused before anything is drawn;
        # an entry count of 2^64 or more prints as its log2
        for mode in CollisionMode:
            with pytest.raises(EnumerationBudgetError, match=re.escape(f"one draw takes {entries} entries")):
                collision_probability(n, k, 2, 1, seed=35, mode=mode)

    def test_deterministic(self):
        kwargs = dict(samples=5000, seed=34, mode=CollisionMode.E_EVENT, shards=2)
        assert collision_probability(3, 2, 4, **kwargs) == collision_probability(3, 2, 4, **kwargs)

    def test_hits_consistent(self):
        # 4001 does not divide by 3; with 3 samples on 5 shards, two are empty
        for samples, shards in [(4000, 1), (4001, 3), (3, 5)]:
            est = collision_probability(2, 2, 2, samples, seed=35, mode=CollisionMode.V_VS_V, shards=shards)
            assert est.samples == samples
            assert est.value == est.hits / samples
            # one user with one share always collides: every sample counted once
            always = collision_probability(1, 1, 5, samples, seed=35, mode=CollisionMode.E_EVENT, shards=shards)
            assert always.hits == samples

    @pytest.mark.parametrize("mode", list(CollisionMode))
    def test_same_estimate_in_one_batch_or_several(self, monkeypatch, mode):
        instances = [(1, 1, 5), (2, 1, 2)]

        def estimates():
            return {
                inst: collision_probability(*inst, 5000, seed=36, mode=mode, shards=2)
                for inst in instances
            }

        whole = estimates()
        # 2500 samples per shard in batches of at most 7: many batches and
        # a short last one
        monkeypatch.setattr(randgraph, "_BATCH_ELEMENTS", 7)
        split = estimates()
        # one user with one share always collides, whatever the draws
        full = Quantity.sampled(1.0, hoeffding_halfwidth(5000), HOEFFDING_CONFIDENCE, 5000, 5000)
        assert whole[(1, 1, 5)] == split[(1, 1, 5)] == full
        # where the draws decide, batches consume the stream in another
        # order; every sample is still counted once, at the exact rate
        exact = float(FROZEN_COLLISION[(2, 1, 2)])
        for est in (whole[(2, 1, 2)], split[(2, 1, 2)]):
            assert est.samples == 5000 and est.value == est.hits / 5000
            assert est.lo <= exact <= est.hi

    def test_numpy_stream_pin(self):
        # Deliberate pin of the numpy Generator stream (NEP 19 allows it to
        # change between numpy versions): a shift moves this count and
        # fails here, so the change is noticed rather than silent.
        est = collision_probability(2, 2, 2, 20_000, seed=1113, mode=CollisionMode.V_VS_V, shards=4)
        assert est.hits == 3136

    def test_batch_cap_read_at_call_time(self, monkeypatch):
        # the sampler's batches follow randgraph's one cap; at 64 the
        # batch-major draws give another stream than the pin above
        monkeypatch.setattr(randgraph, "_BATCH_ELEMENTS", 64)
        est = collision_probability(2, 2, 2, 20_000, seed=1113, mode=CollisionMode.V_VS_V, shards=4)
        assert est.hits == 3127

    def test_memory_follows_batch_cap_not_samples(self):
        # tracemalloc sees numpy's buffers; the peak follows the batch cap,
        # an L2-sized buffer for either sampler, whatever the sample count
        peaks = []
        tracemalloc.start()
        try:
            estimate_component_distribution(1000, 3, 4000, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            collision_probability(19, 3, 2, 200_000, 1, CollisionMode.V_VS_V)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 3 * 2**20, peaks


def sampled(p):
    # a Monte Carlo record of zero halfwidth: its interval is its value
    return Quantity.sampled(p, 0.0, HOEFFDING_CONFIDENCE, 1000)


class TestLemma1Bound:
    """lemma1_bound roots E[m^C] / m - 1 of an E[m^C] record: lemma 3 holds with
    equality, so lemma 1's radicand m^(kn-1) Pr[collision] - 1 is that one."""

    def test_uniform_floor_exact(self):
        # E[m^C] = m, every graph connected, as at n = 1: a zero bound
        for m in (2, 3, 2**63):
            assert lemma1_bound(Quantity.exact(Fraction(m)), m) == Quantity(0.0, 0.0, 0.0, "exact")

    def test_single_user_two_shares_float(self):
        assert lemma1_bound(sampled(2.0), 2).value == 0.0

    def test_below_floor_is_flagged(self):
        b = lemma1_bound(Quantity.exact(Fraction(199, 100)), 2)
        assert b.value is None and b.lo is None and b.hi is None
        assert lemma1_bound(sampled(1.5), 2).value is None
        assert lemma1_bound(sampled(0.0), 2).value is None

    def test_exact_uses_rational_sign(self):
        # a hair above the floor m stays a number on the exact path, and a
        # float's sign is decided as the rational it is, even though the
        # excess is far below float resolution
        assert lemma1_bound(Quantity.exact(2 + Fraction(1, 2**80)), 2).value is not None
        assert lemma1_bound(Quantity.exact(2 - Fraction(1, 2**80)), 2).value is None
        above = math.nextafter(2**32, math.inf)
        assert lemma1_bound(sampled(above), 2**32).value == math.sqrt(math.ulp(2.0**32) / 2**32)
        assert lemma1_bound(sampled(math.nextafter(2**32, 0)), 2**32).value is None

    def test_log_space_large_instance(self):
        # an E[m^C] estimate past float range reads inf, and so does its root;
        # an infinite lower end is below the floor, and a NaN one, inf - inf,
        # bounds nothing
        for lo in (-math.inf, math.nan):
            b = lemma1_bound(Quantity(math.inf, lo, math.inf, "monte-carlo", 0.99, 100), 2**32)
            assert b.value == b.hi == math.inf and b.lo is None

    def test_exact_root_near_float_max(self):
        # the radicand 10^616 - 1 is past float range, its root 1.0e308 is not
        b = lemma1_bound(Quantity.exact(Fraction(10**616 + 1) * 2**63), 2**63)
        assert b.value is not None and math.isclose(b.value, 1e308, rel_tol=1e-12)

    def test_moderate_value(self):
        # E[2^C] = 3 at (n=2, k=1, m=2): sqrt(3/2 - 1) = sqrt(1/2)
        b = lemma1_bound(Quantity.exact(Fraction(3)), 2)
        assert abs(b.value - math.sqrt(0.5)) < 1e-12

    def test_interval_ends_take_the_root(self):
        # the bound keeps the estimate's provenance and work; an end below
        # the floor m reads None, and the others their own root
        q = Quantity.sampled(2.0, 1.6, HOEFFDING_CONFIDENCE, 100, 50)
        b = lemma1_bound(q, 2)
        assert b.lo is None and b.value == 0.0
        assert math.isclose(b.hi, math.sqrt(3.6 / 2 - 1), rel_tol=1e-12)
        assert (b.provenance, b.confidence, b.samples, b.hits) == ("monte-carlo", HOEFFDING_CONFIDENCE, 100, 50)

    def test_exact_record_is_rooted_without_hashing(self, monkeypatch):
        # the root of the exact E[m^C] at (19, 3, 2) decides that an exact
        # record's ends equal its value without hashing the Fraction, which
        # costs a modular inverse per hash
        emc = Quantity.exact(exact_m_power_C(19, 3, 2))
        expected = lemma1_bound(emc, 2)

        def unhashable(self):
            raise AssertionError("an exact record's Fraction was hashed")

        monkeypatch.setattr(Fraction, "__hash__", unhashable)
        got = lemma1_bound(emc, 2)
        assert got == expected
        assert got.provenance == "exact" and got.lo == got.value == got.hi

    def test_tiny_exact_root_is_not_zero(self):
        # at (19, 385, 2) the radicand is 2^-1631.2, below float range, while
        # its root 3.0151e-246 is a normal float: it does not read 0.0
        emc = exact_m_power_C(19, 385, 2)
        assert float(emc / 2 - 1) == 0.0
        b = lemma1_bound(Quantity.exact(emc), 2)
        assert math.isclose(b.value, 3.0151478785209812e-246, rel_tol=1e-12)


class TestCheck:
    def test_fails_only_where_the_intervals_refute(self):
        est = Quantity.sampled(0.5, 0.125, HOEFFDING_CONFIDENCE, 100)  # [0.375, 0.625]
        assert check(est, "<=", 0.5) == check(est, "<=", 0.375) == "pass"
        assert check(est, "<=", 0.25) == "fail"
        assert check(0.75, "<=", est) == "fail" and check(0.5, "<=", est) == "pass"
        assert check(0.5, "==", est) == check(est, "==", 0.625) == "pass"
        assert check(0.25, "==", est) == check(est, "==", 0.75) == "fail"
        overlapping = Quantity.sampled(0.75, 0.125, HOEFFDING_CONFIDENCE, 100)
        disjoint = Quantity.sampled(0.875, 0.125, HOEFFDING_CONFIDENCE, 100)
        assert check(est, "==", overlapping) == check(overlapping, "==", est) == "pass"
        assert check(est, "==", disjoint) == check(disjoint, "==", est) == "fail"

    def test_exact_sides_compare_exactly(self):
        third = Quantity.exact(Fraction(1, 3))
        assert check(third, "==", Fraction(1, 3)) == check(third, "<=", third) == "pass"
        # the float nearest 1/3 is below it
        assert check(third, "<=", 1 / 3) == "fail"

    def test_none(self):
        # a missing side is unavailable; a None end is unbounded and refutes nothing
        assert check(None, "<=", 1.0) == check(1.0, "==", None) == "unavailable"
        assert check(Quantity(None, None, 5.0, "monte-carlo"), "<=", 1.0) == "pass"
        assert check(2.0, "<=", Quantity(None, 0.5, None, "monte-carlo")) == "pass"
        assert check(2.0, "<=", Quantity(None, None, 1.0, "monte-carlo")) == "fail"


class TestTheoremBound:
    def test_reference_instance(self):
        assert abs(theorem_bound(19, 3, 2) - 0.2023) < 1e-4
        assert abs(theorem_bound(19, 3, 2) - math.sqrt(2 * (math.e / 19) ** 2)) < 1e-12


class TestVerifyChain:
    def test_exact_instance_all_pass(self):
        rep = verify_chain(3, 2, 2, samples=20_000, seed=41)
        assert rep["exact_avg_tv"].value == Fraction(3, 16)
        assert rep["exact_collision_v"].value == Fraction(1, 24)
        assert rep["lemma1_bound"].provenance == "exact"
        for name in ("lemma1_exact_soundness", "lemma2_mc_consistency", "mc_matches_exact_collision_v"):
            assert rep["checks"][name] == "pass", name
        assert "fail" not in rep["checks"].values()

    def test_single_user_everything_zero(self):
        rep = verify_chain(1, 2, 2, samples=5000, seed=42)
        assert rep["exact_avg_tv"].value == 0
        assert (rep["lemma1_bound"].value or 0.0) >= 0
        assert (rep["lemma3_bound"].value or 0.0) >= 0
        assert "fail" not in rep["checks"].values()

    def test_out_of_regime_marked(self):
        rep = verify_chain(3, 2, 2, samples=1000, seed=43)
        assert rep["checks"]["expectation_bound_exact"] == "not-applicable"
        assert rep["checks"]["expectation_bound_mc"] == "not-applicable"
        assert not rep["preconditions_ok"]["n>=19"]

    def test_large_instance_uses_monte_carlo(self):
        rep = verify_chain(19, 3, 2, samples=2000, seed=44)
        # the walk is over the budget; both collision probabilities are E[m^C] / m^(kn)
        assert rep["exact_avg_tv"] is None
        v = Quantity.exact(Fraction(35051863075, 2518686938297026694740967424))
        assert rep["exact_collision_v"] == rep["exact_collision_e"] == v
        assert rep["lemma1_bound"] is rep["lemma3_bound"]
        assert rep["lemma1_bound"] == lemma1_bound(rep["exact_m_power_c"], 2)
        assert rep["lemma1_bound"].provenance == "exact"
        assert v.value * 2**56 - 1 == rep["exact_m_power_c"].value / 2 - 1
        # the collision samplers would expect 2^-27 hits, so they draw nothing
        assert rep["mc_collision_v"] == Quantity(None, None, None, "uninformative", samples=0, hits=0)
        # E[m^C] is exact at any n the recursion's budget allows
        assert rep["exact_m_power_c"].value == Fraction(35051863075, 17476901442)
        assert rep["lemma3_bound"].provenance == "exact"
        assert abs(rep["theorem1_bound"] - 0.2023) < 1e-4
        assert rep["preconditions_ok"] == {"n>=19": True, "k>=3": True, "sigma>=1": True, "m-bound": True}
        assert rep["checks"]["expectation_bound_exact"] == "pass"
        assert rep["checks"]["expectation_bound_mc"] == "pass"
        assert rep["checks"]["graph_route_le_theorem1"] == "pass"

    def test_lemma1_bound_exact_where_only_v_is_over_budget(self):
        # V needs 1.008e7 word products here, just over the budget, E[m^C]
        # 1.5e3: lemma 1's bound is the exact root of E[m^C] / m - 1 = (m - 1)
        # 2^-1600, a radicand below float range whose root is a normal float
        rep = verify_chain(2, 1600, 2**63, samples=1, seed=1)
        assert rep["exact_collision_v"] is None
        assert rep["exact_m_power_c"].provenance == "exact"
        assert rep["exact_m_power_c"].value == 2**63 + Fraction(2**63 * (2**63 - 1), 2**1600)
        assert rep["lemma1_bound"] is rep["lemma3_bound"]
        assert rep["lemma1_bound"] == lemma1_bound(rep["exact_m_power_c"], 2**63)
        assert rep["lemma1_bound"].provenance == "exact"
        assert math.isclose(rep["lemma1_bound"].value, 4.554579973613338e-232, rel_tol=1e-12)

    @pytest.mark.parametrize("m", [2, 2**32])
    @pytest.mark.parametrize("k", [384, 385, 400])
    def test_exact_expectation_bound_past_float_underflow(self, k, m):
        # m^2 (e/19)^(k-1) underflows to 0.0 from k = 385 at m = 2, while the
        # exact E[m^C] - m is still positive and within budget: decided on
        # logarithms, the check still passes
        rep = verify_chain(19, k, m, samples=10, seed=1)
        assert rep["exact_m_power_c"].value > m
        assert rep["checks"]["expectation_bound_exact"] == "pass"
        assert "fail" not in rep["checks"].values()

    def test_exact_expectation_bound_unavailable_past_budget(self):
        # in the regime, but E[2^C] at n = 1000 is past the recursion's budget:
        # the exact check cannot decide, the Monte Carlo one still does
        rep = verify_chain(1000, 3, 2, samples=200, seed=47)
        assert all(rep["preconditions_ok"].values())
        assert rep["exact_m_power_c"] is None
        # the report states why: the recursion's cost is past the budget
        work = rep["exact_work"]
        assert work["exact_m_power_c"] > work["budget"]
        assert rep["checks"]["expectation_bound_exact"] == "unavailable"
        assert rep["checks"]["expectation_bound_mc"] == "pass"

    def test_deterministic_report(self):
        a = verify_chain(2, 2, 3, samples=3000, seed=45, shards=2)
        b = verify_chain(2, 2, 3, samples=3000, seed=45, shards=2)
        assert json.dumps(a, default=Quantity.to_json) == json.dumps(b, default=Quantity.to_json)

    def test_report_is_json_shaped(self):
        rep = verify_chain(2, 2, 2, samples=1000, seed=46)
        parsed = json.loads(json.dumps(rep, default=Quantity.to_json))
        assert parsed["params"] == {"n": 2, "k": 2, "m": 2}
        assert parsed["exact_collision_v"]["fraction"] == "5/32"
        assert parsed["mc_collision_v"]["provenance"] == "monte-carlo"
        assert parsed["seed"] == 46
        # every reported value states how it was obtained
        ref = json.loads(json.dumps(verify_chain(19, 3, 2, samples=1000, seed=46), default=Quantity.to_json))
        for report in (parsed, ref):
            for entry in report.values():
                if isinstance(entry, dict) and "value" in entry:
                    assert entry["provenance"] in ("exact", "monte-carlo", "uninformative"), entry
        uninformative = {"value": None, "lo": None, "hi": None, "provenance": "uninformative", "samples": 0, "hits": 0}
        assert ref["mc_collision_v"] == ref["mc_collision_e"] == uninformative
        assert ref["exact_collision_v"]["fraction"] == "35051863075/2518686938297026694740967424"
        assert ref["lemma1_bound"]["provenance"] == "exact"

    def test_exact_collision_without_e_event(self):
        # E is V's sum regrouped, so one exact collision probability is both,
        # wherever V fits the budget: at (10, 3, 2) the E sampler meets it
        rep = verify_chain(10, 3, 2, samples=2000, seed=47)
        assert rep["exact_collision_v"].value == Fraction(28523, 15152644620288)
        assert rep["exact_collision_e"] == rep["exact_collision_v"]
        assert rep["lemma1_bound"].provenance == "exact"
        assert rep["checks"]["mc_matches_exact_collision_e"] == "pass"
        assert "fail" not in rep["checks"].values()

    @pytest.mark.parametrize("n,k,m", [(3, 2, 2), (4, 3, 2), (2, 2, 3)])
    def test_lemma3_identity_checked(self, n, k, m):
        # the report's one exact collision probability is E[m^C] / m^(kn); the
        # identity is checked here against the walk, not by the report, where
        # it would compare a record with itself
        rep = verify_chain(n, k, m, samples=1000, seed=48)
        assert rep["exact_collision_v"].value == exact_sum(n, k, m, "exact_collision_v")
        assert rep["exact_collision_v"].value == rep["exact_m_power_c"].value / m ** (k * n)
        assert not [name for name in rep["checks"] if name.startswith(("lemma2_exact", "lemma3_exact"))]
        assert rep["checks"]["mc_matches_exact_collision_v"] == rep["checks"]["mc_matches_exact_collision_e"] == "pass"

    def test_report_states_work_against_budget(self):
        work = verify_chain(19, 3, 2, samples=100, seed=49)["exact_work"]
        assert work == {
            "budget": ENUMERATION_BUDGET,
            "unit": "histogram updates for exact_avg_tv; word products for the others",
            **oracle.exact_work(19, 3, 2),
        }
        assert work["exact_avg_tv"] == 15_360_000 > work["budget"]
        assert work["exact_m_power_c"] < work["exact_collision_v"] <= work["budget"]


class TestCollisionSkip:
    """verify_chain draws no collision sample that expects at most
    UNINFORMATIVE_HITS hits, by the bound Pr[collision] <= m^-((k-1)n)."""

    @pytest.mark.parametrize(
        "n,k,m", sorted(set(REFERENCE_INSTANCES) | {(4, 3, 2), (5, 2, 2), (3, 3, 3), (6, 2, 3), (10, 3, 2), (15, 1, 4)})
    )
    def test_exact_collision_within_the_bound(self, n, k, m):
        assert exact_sum(n, k, m, "exact_collision_v") <= Fraction(1, m ** ((k - 1) * n))

    def test_frozen_collision_within_the_bound(self):
        for (n, k, m), p in FROZEN_COLLISION.items():
            assert p <= Fraction(1, m ** ((k - 1) * n)), (n, k, m)

    def test_skip_edge(self):
        # at (21, 2, 2) a sample expects at most 2^-21 hits: 2 samples (2^-20
        # <= 10^-6) are skipped, 3 (1.4e-6) are drawn
        assert 2**-20 <= oracle.UNINFORMATIVE_HITS < 3 * 2**-21
        skipped = verify_chain(21, 2, 2, samples=2, seed=3)
        drawn = verify_chain(21, 2, 2, samples=3, seed=3)
        assert skipped["collision_hits_log2_bound"] == -20
        assert drawn["collision_hits_log2_bound"] == math.log2(3) - 21
        unsampled = Quantity(None, None, None, "uninformative", samples=0, hits=0)
        assert skipped["mc_collision_v"] == skipped["mc_collision_e"] == unsampled
        assert drawn["mc_collision_v"].samples == drawn["mc_collision_e"].samples == 3
        for name in ("lemma2_mc_consistency", "mc_matches_exact_collision_v", "mc_matches_exact_collision_e"):
            assert skipped["checks"][name] == "unavailable", name
        assert drawn["checks"]["lemma2_mc_consistency"] == "pass"
        assert drawn["checks"]["mc_matches_exact_collision_v"] == "pass"
        # the exact collision probability still gives lemma 1's bound
        assert skipped["lemma1_bound"] == drawn["lemma1_bound"]
        assert skipped["lemma1_bound"].provenance == "exact"
        # the graph sampler's stream does not depend on the skip
        assert skipped["mc_m_power_c"] == randgraph.estimate_m_power_C(21, 2, 2, 2, seed=3)

    def test_skipped_sampler_draws_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("collision sampled")

        monkeypatch.setattr(oracle, "collision_probability", refuse)
        rep = verify_chain(19, 3, 2, samples=2000, seed=909, shards=3)
        assert rep["collision_hits_log2_bound"] == math.log2(2000) - 38
        assert rep["mc_collision_v"].hits == rep["mc_collision_e"].hits == 0


def test_hoeffding_halfwidth_value():
    # sqrt(ln(2/0.001) / (2 * 10^5))
    expected = math.sqrt(math.log(2000) / 2e5)
    assert abs(hoeffding_halfwidth(100_000) - expected) < 1e-15
