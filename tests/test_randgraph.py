import math
import random
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import permutations, product
from statistics import NormalDist

import numpy as np
import pytest
from helpers import dixon_m_power_C

from shufflesum import oracle, randgraph
from shufflesum.oracle import hoeffding_halfwidth
from shufflesum.planner import regime_flags
from shufflesum.randgraph import (
    ENUMERATION_BUDGET,
    MEAN_CI_CONFIDENCE,
    EnumerationBudgetError,
    Quantity,
    _component_counts,
    estimate_component_distribution,
    estimate_m_power_C,
    exact_m_power_C,
    expectation_bound,
    lemma4_probability_bound,
    m_power_c_work,
    shard_batches,
)


# Brute-force reference for the component count: one graph at a time, a
# stdlib Random sampler and a union-find counter.


@dataclass(frozen=True)
class PermutationMultigraph:
    """n vertices (0-based) and k permutations; edges are implicit."""

    n: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1 vertices, got {self.n}")
        if len(self.perms) < 1:
            raise ValueError("need at least one permutation")
        for p in self.perms:
            if sorted(p) != list(range(self.n)):
                raise ValueError(f"not a permutation of range({self.n}): {p}")

    @property
    def k(self) -> int:
        return len(self.perms)


def sample_graph(n: int, k: int, rng: random.Random) -> PermutationMultigraph:
    """Graph from k i.i.d. uniform permutations (Fisher-Yates each)."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    perms = []
    for _ in range(k):
        p = list(range(n))
        rng.shuffle(p)
        perms.append(tuple(p))
    return PermutationMultigraph(n, tuple(perms))


def connected_components(g: PermutationMultigraph) -> int:
    """Number of connected components, ignoring edge multiplicity.

    Union-find with path halving, directly on the edges v -- p(v); the edge
    multiset is never materialized.
    """
    parent = list(range(g.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in g.perms:
        for v, w in enumerate(p):
            ra, rb = find(v), find(w)
            if ra != rb:
                parent[ra] = rb
    return sum(1 for v in range(g.n) if find(v) == v)


def enumerated_component_counts(n: int, k: int) -> Counter:
    """Component count of every one of the (n!)^k permutation tuples."""
    all_perms = list(permutations(range(n)))
    return Counter(
        connected_components(PermutationMultigraph(n, pt)) for pt in product(all_perms, repeat=k)
    )


def bfs_components(g: PermutationMultigraph) -> int:
    """Independent component counter: materialize adjacency, breadth-first."""
    adj = [[] for _ in range(g.n)]
    for p in g.perms:
        for v, w in enumerate(p):
            adj[v].append(w)
            adj[w].append(v)
    seen = [False] * g.n
    comps = 0
    for s in range(g.n):
        if seen[s]:
            continue
        comps += 1
        seen[s] = True
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        nxt.append(w)
            frontier = nxt
    return comps


class TestSampling:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            sample_graph(0, 1, random.Random(0))
        with pytest.raises(ValueError):
            sample_graph(1, 0, random.Random(0))

    def test_single_vertex(self):
        g = sample_graph(1, 4, random.Random(0))
        assert g.perms == ((0,),) * 4
        assert connected_components(g) == 1

    def test_deterministic_given_seed(self):
        assert sample_graph(10, 3, random.Random(5)) == sample_graph(10, 3, random.Random(5))

    def test_two_vertices_fair(self):
        rng = random.Random(1)
        n = 100_000
        swaps = sum(sample_graph(2, 1, rng).perms[0] == (1, 0) for _ in range(n))
        assert abs(swaps - n / 2) <= 4 * math.sqrt(n * 0.25)

    def test_validates_bijection(self):
        with pytest.raises(ValueError):
            PermutationMultigraph(2, ((0, 0),))


class TestComponents:
    def test_identity_gives_n(self):
        g = PermutationMultigraph(6, (tuple(range(6)), tuple(range(6))))
        assert connected_components(g) == 6

    def test_full_cycle(self):
        g = PermutationMultigraph(5, ((1, 2, 3, 4, 0),))
        assert connected_components(g) == 1

    def test_two_transpositions(self):
        g = PermutationMultigraph(4, ((1, 0, 3, 2),))
        assert connected_components(g) == 2

    def test_union_find_matches_bfs(self):
        rng = random.Random(2)
        for _ in range(10_000):
            g = sample_graph(rng.randint(1, 50), rng.randint(1, 5), rng)
            assert connected_components(g) == bfs_components(g)

    def test_n_components_iff_all_identity(self):
        rng = random.Random(3)
        for _ in range(500):
            g = sample_graph(rng.randint(1, 12), rng.randint(1, 3), rng)
            all_identity = all(p == tuple(range(g.n)) for p in g.perms)
            assert (connected_components(g) == g.n) == all_identity


def union_find_counts(perms: np.ndarray) -> list[int]:
    """connected_components of every graph of a (batch, k, n) array."""
    n = perms.shape[-1]
    return [
        connected_components(PermutationMultigraph(n, tuple(tuple(int(v) for v in p) for p in g)))
        for g in perms
    ]


def flat_edges(perms: np.ndarray) -> np.ndarray:
    """The counter's (k, batch * n) layout of a (batch, k, n) array: graph
    b's permutations offset by b * n, then transposed and flattened."""
    batch, k, n = perms.shape
    return (perms + n * np.arange(batch)[:, None, None]).transpose(1, 0, 2).reshape(k, -1)


def batch_counts(perms: np.ndarray) -> list[int]:
    """_component_counts of a (batch, k, n) array, built into its layout,
    with 4 + k work rows one longer than the batch: the counter reads only its width."""
    batch, k, n = perms.shape
    work = np.full((4 + k, batch * n + 1), -1)
    work[0] = np.arange(batch * n + 1)
    return _component_counts(flat_edges(perms), n, work).tolist()


def count_rounds(monkeypatch) -> list[int]:
    """A one-element list that counts the counter's rounds from now on:
    each round hooks labels by one np.minimum.at call."""
    minimum, rounds = np.minimum, [0]

    class Counted:
        def __call__(self, *args, **kwargs):
            return minimum(*args, **kwargs)

        def at(self, *args):
            rounds[0] += 1
            return minimum.at(*args)

    monkeypatch.setattr(np, "minimum", Counted())
    return rounds


class TestBatchCounts:
    def test_matches_union_find(self):
        # k = 1 and 2 at large n: few edges, long label chains
        rng = np.random.default_rng(4)
        for n, k in [(1, 1), (2, 3), (5, 2), (8, 3), (13, 4), (100, 1), (1000, 1), (300, 2), (1000, 2)]:
            perms = rng.permuted(np.tile(np.arange(n), (64, k, 1)), axis=-1)
            assert batch_counts(perms) == union_find_counts(perms), (n, k)

    def test_connected_identity_and_mixed_batches(self):
        # a batch all connected, one of identity graphs (C = n: every edge is
        # a self-loop), one with mixed counts
        n, k = 10, 2
        cycle = np.tile(np.roll(np.arange(n), 1), (4, k, 1))
        identity = np.tile(np.arange(n), (4, k, 1))
        mixed = np.random.default_rng(6).permuted(np.tile(np.arange(n), (4, k, 1)), axis=-1)
        mixed[0] = identity[0]
        counts = {}
        for name, perms in [("cycle", cycle), ("identity", identity), ("mixed", mixed)]:
            counts[name] = batch_counts(perms)
            assert counts[name] == union_find_counts(perms), name
        assert counts["cycle"] == [1] * 4 and counts["identity"] == [n] * 4
        assert len(set(counts["mixed"])) > 1

    def test_rounds_grow_like_log_n(self, monkeypatch):
        # k = 1: each graph is one permutation's cycles, and propagation
        # alone moves a label one cycle step a round (about 300 rounds here)
        n = 1000
        perms = np.random.default_rng(7).permuted(np.tile(np.arange(n), (20, 1, 1)), axis=-1)
        rounds = count_rounds(monkeypatch)
        assert batch_counts(perms) == union_find_counts(perms)
        assert 1 <= rounds[0] <= 4 * math.ceil(math.log2(n))

    def test_stops_at_first_consistent_labelling(self, monkeypatch):
        # at (19, 3) every batch of 1149 graphs (and the last of 606) holds
        # disconnected ones, and two rounds label each component; a third
        # that changes nothing is waste
        rounds = count_rounds(monkeypatch)
        assert len([size for _, size in shard_batches(7500, 1, 19, 3, 7)]) == 7
        estimate_component_distribution(19, 3, 7500, seed=7)
        assert rounds[0] == 2 * 7

    def test_single_cycle_worst_case(self):
        # k=1 cycle: slowest label propagation, still exact
        n = 40
        cycle = np.arange(1, n + 1) % n
        perms = np.broadcast_to(cycle, (3, 1, n)).copy()
        assert batch_counts(perms) == [1, 1, 1] == union_find_counts(perms)

    def test_no_leakage_between_graphs(self):
        # graph b's vertex v sits at b*n + v in one flat array; a wrong
        # offset merges neighbouring graphs, which rows of one kind hide
        rng = np.random.default_rng(5)
        for n, k in [(1, 1), (1, 3), (6, 2), (11, 3)]:
            identity = np.tile(np.arange(n), (k, 1))
            cycle = np.tile(np.roll(np.arange(n), 1), (k, 1))
            randoms = rng.permuted(np.tile(np.arange(n), (4, k, 1)), axis=-1)
            rows = [identity, cycle, randoms[0], identity, randoms[1], randoms[2], cycle, randoms[3]]
            for perms in (np.stack(rows), np.stack(rows[:1]), np.stack(rows[1:2])):
                assert batch_counts(perms) == union_find_counts(perms)
            assert batch_counts(np.stack(rows))[:2] == [n, 1]

    @pytest.mark.parametrize("cap", [None, 256], ids=["one-block", "blocks"])
    def test_rows_shorter_than_k(self, monkeypatch, cap):
        # rows shorter than k are gathered in blocks of cap // row-length
        # rows; at cap 256 the last block of each case is short
        if cap is not None:
            monkeypatch.setattr(randgraph, "_BATCH_ELEMENTS", cap)
        rng = np.random.default_rng(8)
        for batch, k, n in [(1, 3, 2), (2, 31, 5), (4, 200, 3), (3, 50, 1)]:
            perms = rng.permuted(np.tile(np.arange(n), (batch, k, 1)), axis=-1)
            assert batch_counts(perms) == union_find_counts(perms), (batch, k, n)
        # identity rows, and in one graph a 40-cycle as the last row: at cap
        # 256, rows of 80 make blocks of 3 and a last block of one, whose
        # labels take more than the 2 rounds the first blocks agree after
        n, k = 40, 100
        identity = np.tile(np.arange(n), (k, 1))
        cycle = identity.copy()
        cycle[-1] = np.roll(np.arange(n), 1)
        perms = np.stack([cycle, identity])
        rounds = count_rounds(monkeypatch)
        assert batch_counts(perms) == [1, n] == union_find_counts(perms)
        assert rounds[0] > 2

    def test_large_k_gathers_in_few_calls(self, monkeypatch):
        # one graph of 2 vertices and 20000 permutations: row by row, each
        # round took 3k gathers (0.3 s); in one block it takes 4
        take, calls = np.take, [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return take(*args, **kwargs)

        perms = np.random.default_rng(9).permuted(np.tile(np.arange(2), (1, 20000, 1)), axis=-1)
        monkeypatch.setattr(np, "take", counted)
        assert batch_counts(perms) == [1]
        assert calls[0] <= 4 * 3

    @pytest.mark.parametrize(
        "n, k, samples, shards, cap",
        [(19, 3, 7500, 1, None), (19, 3, 7500, 3, None), (1000, 3, 50, 1, None),
         (5, 2, 37, 3, 64), (7, 1, 9, 2, 7), (1, 2, 5, 1, None)],
    )
    def test_draws_equal_tiled_permutations(self, monkeypatch, n, k, samples, shards, cap):
        # the sampler permutes into the (k, batch * n) buffer; it must hold
        # exactly the tiled draw plus offsets, transposed, batch by batch,
        # the short last batch of each shard included (7500 = 6 * 1149 + 606)
        if cap is not None:
            monkeypatch.setattr(randgraph, "_BATCH_ELEMENTS", cap)
        expected = [
            flat_edges(rng.permuted(np.tile(np.arange(n), (size, k, 1)), axis=-1))
            for rng, size in shard_batches(samples, shards, n, k, 11)
        ]
        drawn, counter = [], randgraph._component_counts

        def recorded(edges, *args):
            drawn.append(edges.copy())
            return counter(edges, *args)

        monkeypatch.setattr(randgraph, "_component_counts", recorded)
        estimate_component_distribution(n, k, samples, seed=11, shards=shards)
        assert len(drawn) == len(expected)
        assert all(np.array_equal(d, e) for d, e in zip(drawn, expected))


class TestClosedFormBounds:
    def test_c1_is_one(self):
        assert lemma4_probability_bound(19, 3, 1) == 1.0
        assert lemma4_probability_bound(50, 4, 1) == 1.0

    def test_known_value(self):
        got = lemma4_probability_bound(19, 3, 2)
        assert abs(got - 1.5 / 2 * (math.e / 19) ** 2) < 1e-12
        assert abs(got - 0.01536) < 1e-4

    def test_strictly_decreasing_in_c(self):
        for n, k in [(19, 3), (30, 4), (50, 3)]:
            bounds = [lemma4_probability_bound(n, k, c) for c in range(1, n + 1)]
            assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            lemma4_probability_bound(19, 3, 0)
        with pytest.raises(ValueError):
            lemma4_probability_bound(19, 3, 20)

    def test_past_float_range_is_inf(self):
        # n = 2 < e: the bound grows with k, here past float range
        assert lemma4_probability_bound(2, 5000, 2) == math.inf
        assert lemma4_probability_bound(2, 2400, 2) == math.inf

    def test_finite_up_to_float_range(self):
        # the log bound, 709.54, is past 709 but its exp is still a float
        log_bound = math.log(1.5) - math.lgamma(3) + 2313 * (1.0 - math.log(2))
        assert lemma4_probability_bound(2, 2314, 2) == math.exp(log_bound)
        assert math.isclose(lemma4_probability_bound(2, 2314, 2), 1.3056e308, rel_tol=1e-4)

    @pytest.mark.parametrize(
        "bound, sizes", [(expectation_bound, (0, 3, 2)), (expectation_bound, (19, 3, 0)),
                         (expectation_bound, (-3, 3, 2)), (lemma4_probability_bound, (19, 0, 2))],
    )
    def test_rejects_bad_sizes(self, bound, sizes):
        # unchecked, these would read ZeroDivisionError, 0.0, 5.28 and 5.24 (a probability bound above 1)
        with pytest.raises(ValueError, match="need n, k >= 1 and m >= 2"):
            bound(*sizes)

    def test_expectation_bound_value(self):
        got = expectation_bound(19, 3, 2)
        assert abs(got - (2 + 4 * (math.e / 19) ** 2)) < 1e-12
        assert abs(got - 2.0819) < 1e-4

    def test_expectation_bound_limit(self):
        assert expectation_bound(10**9, 3, 2) - 2 < 1e-12

    def test_expectation_bound_preconditions(self):
        # proved only where regime_flags holds, but evaluated everywhere, like
        # lemma 4's bound: n = 18, k = 2 and m = 25 each leave the regime
        for n, k, m in ((18, 3, 2), (19, 2, 2), (19, 3, 25)):
            assert not all(regime_flags(n, k, m=m).values())
            bound = expectation_bound(n, k, m)
            assert math.isfinite(bound) and bound == m + m * m * (math.e / n) ** (k - 1)
        # the float power overflows at n = 1, k = 800: the bound reads inf
        assert expectation_bound(1, 800, 2) == math.inf
        # m = 24 is inside (1/2)(19/e)^2 ~ 24.4
        assert all(regime_flags(19, 3, m=24).values())
        assert expectation_bound(19, 3, 24) > 24


class TestEstimators:
    def test_single_vertex_all_mass_at_one(self):
        assert estimate_component_distribution(1, 3, 5000, seed=0) == {1: 5000}

    def test_counts_total_samples(self):
        # 12_345 does not divide by 4; with 3 samples on 5 shards, two are empty
        for samples, shards in [(12_345, 1), (12_345, 4), (3, 5)]:
            counts = estimate_component_distribution(7, 2, samples, seed=1, shards=shards)
            assert sum(counts.values()) == samples

    def test_deterministic(self):
        a = estimate_component_distribution(9, 3, 20_000, seed=2, shards=3)
        b = estimate_component_distribution(9, 3, 20_000, seed=2, shards=3)
        assert a == b

    def test_counts_do_not_depend_on_batch_cap(self, monkeypatch):
        # rng.permuted shuffles row after row, so splitting a shard into
        # smaller batches draws the same permutations
        full = estimate_component_distribution(8, 3, 2000, seed=9, shards=2)
        monkeypatch.setattr(randgraph, "_BATCH_ELEMENTS", 100)
        assert estimate_component_distribution(8, 3, 2000, seed=9, shards=2) == full

    def test_empty_shards_are_not_seeded(self, monkeypatch):
        # shards s >= samples draw nothing, so their streams are never made
        seeds = []
        monkeypatch.setattr(randgraph, "derive_seed", lambda *path: seeds.append(path) or len(seeds))
        assert [size for _, size in shard_batches(3, 10_000, 2, 2, 7)] == [1, 1, 1]
        assert seeds == [(7, 0), (7, 1), (7, 2)]

    def test_draw_admitted_when_called(self):
        # both checks run at the call, before a batch is asked for, so
        # nothing sized by n or k is allocated for a refused draw
        for sizes in [(0, 1, 2, 2), (1, 0, 2, 2), (1, 1, 0, 2), (1, 1, 2, 0)]:
            with pytest.raises(ValueError, match="need samples, shards, n, k >= 1"):
                shard_batches(*sizes, 1)
        message = "one draw takes 10000001 entries, over the budget 10000000, for n=10000001, k=1"
        with pytest.raises(EnumerationBudgetError, match=message):
            shard_batches(1, 1, 10**7 + 1, 1, 1)
        shard_batches(1, 1, 10**7, 1, 1)  # at the budget: admitted, and nothing drawn yet

    def test_budget_message_prints_sizes_from_2_64_as_log2(self):
        # below 2^64 every integer prints in full; from 2^64 as its log2, so the line stays short
        with pytest.raises(EnumerationBudgetError, match=r"takes 18446744073709551615 entries, .* n=18446744073709551615, k=1$"):
            shard_batches(1, 1, 2**64 - 1, 1, 1)
        with pytest.raises(EnumerationBudgetError, match=r"takes 2\^64\.0 entries, .* n=2\^64\.0, k=1$"):
            shard_batches(1, 1, 2**64, 1, 1)

    @pytest.mark.parametrize("n, k", [(2**1023, 3), (19, 2**1100), (10**11, 3)], ids=["n", "k", "n-int"])
    def test_estimators_refuse_draws_over_budget(self, n, k):
        with pytest.raises(EnumerationBudgetError, match="one draw takes"):
            estimate_component_distribution(n, k, 1, seed=1)
        with pytest.raises(EnumerationBudgetError, match="one draw takes"):
            estimate_m_power_C(n, k, 2, 1, seed=1)

    def test_numpy_stream_pin(self):
        # Deliberate pin of the numpy Generator stream (NEP 19 allows it to
        # change between numpy versions): a shift moves these counts and
        # fails here, so the change is noticed rather than silent.
        assert estimate_component_distribution(8, 2, 1000, seed=5) == {1: 850, 2: 137, 3: 13}

    def test_two_vertices_three_perms(self):
        # C=2 only when all three permutations are the identity: 1/8
        samples = 100_000
        counts = estimate_component_distribution(2, 3, samples, seed=3)
        assert abs(counts.get(2, 0) / samples - 1 / 8) <= hoeffding_halfwidth(samples)

    def test_m_power_small_exact_cases(self):
        est = estimate_m_power_C(2, 1, 2, 50_000, seed=4)
        assert est.lo <= 3 <= est.hi
        est = estimate_m_power_C(2, 3, 2, 100_000, seed=5)
        assert est.lo <= 2.25 <= est.hi

    def test_m_power_degenerate_m1(self):
        # Z_1 is not a group the protocol runs on: every entry point rejects it
        for call in (
            lambda: estimate_m_power_C(5, 2, 1, 1000, seed=6),
            lambda: exact_m_power_C(3, 2, 1),
            lambda: oracle.exact_avg_tv(3, 2, 1),
            lambda: oracle.exact_collision(3, 2, 1, Fraction(1)),
            lambda: oracle.exact_work(3, 2, 1),
        ):
            with pytest.raises(ValueError):
                call()

    def test_m_power_halfwidth_past_float_variance(self):
        # at (300, 1, 2^63) the variance of m^C is past float range but the
        # 99% halfwidth z sqrt(var / samples) is not
        n, k, m, samples = 300, 1, 2**63, 2000
        counts = estimate_component_distribution(n, k, samples, seed=1)
        total = sum(cnt * m**c for c, cnt in counts.items())
        total_sq = sum(cnt * m ** (2 * c) for c, cnt in counts.items())
        var = (Fraction(total_sq) - Fraction(total * total, samples)) / (samples - 1)
        with localcontext() as ctx:
            ctx.prec = 50
            root = (Decimal(var.numerator) / Decimal(var.denominator) / samples).sqrt()
        exact = NormalDist().inv_cdf(0.995) * float(root)
        est = estimate_m_power_C(n, k, m, samples, seed=1)
        hw = est.hi - est.value
        assert math.isclose(hw, exact, rel_tol=1e-9)
        assert math.isclose(hw, 3.8303e281, rel_tol=1e-4)

    def test_z99_is_the_quantile_of_the_confidence(self):
        # _Z99 is the normal quantile of MEAN_CI_CONFIDENCE written as a literal: the two agree within an ulp
        assert math.isclose(randgraph._Z99, NormalDist().inv_cdf((1 + MEAN_CI_CONFIDENCE) / 2), rel_tol=1e-15)

    def test_m_power_interval_when_every_graph_has_one_count(self):
        # every graph connected: the normal CI would be [2, 2], which excludes
        # the exact E[2^C] > 2; the interval is [m, m^c + m^n q] instead
        n, k, m, samples = 19, 6, 2, 200
        assert estimate_component_distribution(n, k, samples, seed=1) == {1: samples}
        est = estimate_m_power_C(n, k, m, samples, seed=1)
        assert est.value == m
        assert est.lo <= exact_m_power_C(n, k, m) <= est.hi
        q = 1 - (1 - MEAN_CI_CONFIDENCE) ** (1 / samples)
        assert math.isclose(est.hi, m + m**n * q, rel_tol=1e-12)
        # m^n past float range: the upper end reads inf
        assert estimate_component_distribution(200, k, samples, seed=1) == {1: samples}
        assert estimate_m_power_C(200, k, 2**63, samples, seed=1).hi == math.inf

    def test_m_power_deterministic(self):
        assert estimate_m_power_C(19, 3, 2, 5000, seed=7, shards=2) == estimate_m_power_C(
            19, 3, 2, 5000, seed=7, shards=2
        )

    def test_monte_carlo_covers_exact(self):
        exact = exact_m_power_C(3, 2, 2)
        est = estimate_m_power_C(3, 2, 2, 1_000_000, seed=8)
        assert est.lo <= exact <= est.hi

    def test_ci_coverage_rate(self):
        # 99% CI over repeated trials; 40 trials, require >= 36 covered
        exact = float(exact_m_power_C(2, 3, 2))
        covered = 0
        for trial in range(40):
            est = estimate_m_power_C(2, 3, 2, 20_000, seed=1000 + trial)
            covered += est.lo <= exact <= est.hi
        assert covered >= 36


class TestQuantity:
    def test_to_json(self):
        exact = {"value": 0.25, "lo": 0.25, "hi": 0.25, "provenance": "exact", "fraction": "1/4"}
        assert Quantity.exact(Fraction(1, 4)).to_json() == exact
        big = Quantity.exact(Fraction(10**400, 3)).to_json()
        assert big["value"] == big["hi"] == math.inf and big["fraction"] == f"{10**400}/3"
        # no None work field; the value is kept even when None
        sampled = {"value": 2.0, "lo": 1.5, "hi": 2.5, "provenance": "monte-carlo", "confidence": 0.99, "samples": 100}
        assert Quantity.sampled(2.0, 0.5, 0.99, 100).to_json() == sampled
        bound = {"value": None, "lo": None, "hi": 1.0, "provenance": "monte-carlo"}
        assert Quantity(None, None, 1.0, "monte-carlo").to_json() == bound


class TestExactExpectation:
    def test_frozen_values(self):
        assert exact_m_power_C(2, 1, 2) == 3
        assert exact_m_power_C(2, 3, 2) == Fraction(9, 4)
        assert exact_m_power_C(3, 2, 2) == Fraction(8, 3)

    def test_single_vertex(self):
        for k, m in [(1, 2), (5, 3), (2, 97)]:
            assert exact_m_power_C(1, k, m) == m

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            exact_m_power_C(1000, 3, 2)
        with pytest.raises(EnumerationBudgetError):
            exact_m_power_C(10**4, 11, 2**32)
        with pytest.raises(EnumerationBudgetError):
            exact_m_power_C(100, 100, 2)
        with pytest.raises(EnumerationBudgetError):
            exact_m_power_C(10**200, 3, 2)

    def test_matches_enumeration(self):
        # every (n, k) with (n!)^k <= 10^5 and k <= 5, enumerated once each
        instances = [
            (n, k)
            for n in range(1, 9)
            for k in range(1, 6)
            if math.factorial(n) ** k <= 10**5
        ]
        assert len(instances) == 23
        for n, k in instances:
            counts = enumerated_component_counts(n, k)
            tuples = math.factorial(n) ** k
            assert sum(counts.values()) == tuples
            for m in (2, 3, 5):
                expected = Fraction(sum(cnt * m**c for c, cnt in counts.items()), tuples)
                assert exact_m_power_C(n, k, m) == expected, (n, k, m)

    def test_matches_dixon(self):
        # every in-budget instance with n <= 30, k <= 5, and three at the edge
        grid = product(range(1, 31), range(1, 6), (2, 3, 5, 16, 257, 2**63))
        instances = [*grid, (154, 3, 2), (82, 3, 2**63), (19, 697, 2)]
        assert all(m_power_c_work(*instance) <= ENUMERATION_BUDGET for instance in instances)
        for n, k, m in instances:
            assert exact_m_power_C(n, k, m) == dixon_m_power_C(n, k, m), (n, k, m)

    @pytest.mark.parametrize("n, k", [(19, 3), (40, 5), (154, 3)])
    def test_m2_burnside_sum(self, n, k):
        # m = 2: a histogram is the size h of colour 0, E[2^C] = sum_h C(n, h)^(1-k)
        expected = sum(Fraction(1, math.comb(n, h) ** (k - 1)) for h in range(n + 1))
        assert exact_m_power_C(n, k, 2) == expected

    @pytest.mark.parametrize("m", [2, 7, 2**63])
    def test_one_permutation_closed_form(self, m):
        # k = 1: every histogram weighs 1, so E[m^C] counts them, C(n+m-1, n)
        for n in (1, 2, 5, 19, 40):
            assert exact_m_power_C(n, 1, m) == math.comb(n + m - 1, n), n

    def test_reference_point(self):
        got = exact_m_power_C(19, 3, 2)
        assert got == Fraction(35051863075, 17476901442)
        # exact lemma-3 distance bound, far under the theorem's 0.2023
        assert abs(math.sqrt(got / 2 - 1) - 0.05297) < 1e-5

    def test_below_closed_form_expectation_bound(self):
        # decided as verify chain decides it, on logarithms of the excess over m
        # and of its bound m^2 (e/n)^(k-1): the float m + bound rounds to m from
        # k = 21 at n = 19, m = 2
        def checked(grid):
            count = 0
            for n, k in grid:
                top = int((n / math.e) ** (k - 1) / 2)
                for m in (2, 3, 5, top // 2, top):
                    if not all(regime_flags(n, k, m=m).values()):
                        continue
                    excess = exact_m_power_C(n, k, m) - m
                    log_excess = math.log(excess.numerator) - math.log(excess.denominator)
                    log_bound = 2 * math.log(m) + (k - 1) * (1 - math.log(n))
                    assert oracle.check(log_excess, "<=", log_bound) == "pass", (n, k, m)
                    count += 1
            return count

        # the bound's own regime: 60 instances, 12 more than sigma >= 1 allows
        assert checked(product((19, 30, 50, 100), (3, 4, 5))) == 60
        # m = top is past the m-bound, by float rounding, at 20 of these k
        assert checked((19, k) for k in range(6, 41)) == 155
