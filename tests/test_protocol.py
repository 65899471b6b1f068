import itertools
import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import SIGNIFICANCE, binomial_sigma, chisq_pvalue, two_sample_chisq_pvalue
from shufflesum.group import Modulus, group_sum
from shufflesum.oracle import exact_output_distribution
from shufflesum.protocol import (
    Transcript,
    Variant,
    aggregate,
    aggregate_batch,
    run_batch,
    run_ikos,
    run_ikos_randomized,
    shuffle_block,
    transcript_from_dict,
    transcript_to_dict,
)


class TestShuffleBlock:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            shuffle_block([], random.Random(0))

    def test_single_element_fixed(self):
        assert shuffle_block([5], random.Random(0)) == (5,)

    @given(st.lists(st.integers(0, 96), min_size=1, max_size=20), st.integers(0, 2**32))
    def test_preserves_multiset(self, elements, seed):
        out = shuffle_block(elements, random.Random(seed))
        assert sorted(out) == sorted(elements)

    def test_orderings_uniform(self):
        # 3 distinct elements: all 6 orderings equally likely
        rng = random.Random(8)
        n = 60_000
        orderings = list(itertools.permutations((10, 20, 30)))
        counts = Counter(shuffle_block((10, 20, 30), rng) for _ in range(n))
        sigma = binomial_sigma(n, 1 / 6)
        for o in orderings:
            assert abs(counts[o] - n / 6) <= 4 * sigma


class TestEngine:
    @pytest.mark.parametrize("m", [2**63, 2**63 - 1])
    @pytest.mark.parametrize("clear", [False, True])
    def test_no_overflow_at_modulus_cap(self, m, clear):
        # every input m - 1 drives each pairwise add to its largest value
        n, k, runs = 1000, 11, 3
        mod = Modulus(m)
        x = np.full((runs, n), m - 1, dtype=np.uint64)
        blocks, masks = run_batch(x, k, mod, np.random.default_rng(63), clear)
        assert blocks.shape == (runs, k, n)
        assert int(blocks.max()) < m
        if clear:
            assert int(masks.max()) < m
        else:
            assert masks is None
        expected = n * (m - 1) % m
        for r in range(runs):
            # Python-int sum, independent of the engine's uint64 adds
            total = sum(blocks[r].ravel().tolist())
            if masks is not None:
                total += sum(masks[r].tolist())
            assert total % m == expected
        assert aggregate_batch(blocks, masks, mod).tolist() == [expected] * runs

    def test_law_matches_exact_enumeration(self):
        inputs, k, m = (1, 2), 2, 3
        runs = 100_000
        law = exact_output_distribution(inputs, k, m)
        x = np.tile(np.array(inputs, dtype=np.uint64), (runs, 1))
        blocks, _ = run_batch(x, k, Modulus(m), np.random.default_rng(2006))
        counts = Counter(map(tuple, blocks.reshape(runs, -1).tolist()))
        assert set(counts) <= set(law.mass)
        outcomes = sorted(law.mass)
        observed = [counts[o] for o in outcomes]
        assert chisq_pvalue(observed, [float(law.probability(o)) for o in outcomes]) > SIGNIFICANCE


class TestRunPlain:
    def test_rejects_bad_args(self):
        m = Modulus(7)
        with pytest.raises(ValueError):
            run_ikos([], 2, m, random.Random(0))
        with pytest.raises(ValueError):
            run_ikos([1], 0, m, random.Random(0))

    def test_sum_conservation(self):
        rng = random.Random(9)
        for _ in range(1000):
            m = Modulus(rng.choice([2, 7, 2**32]))
            n = rng.randint(1, 20)
            k = rng.randint(1, 8)
            x = [rng.randrange(m.m) for _ in range(n)]
            t = run_ikos(x, k, m, rng)
            assert aggregate(t, m) == group_sum(x, m)
            assert t.n == n and t.k == k and t.variant is Variant.PLAIN

    def test_single_user_blocks_are_shares_in_order(self):
        rng = random.Random(10)
        m = Modulus(97)
        captured = []
        t = run_ikos([42], 5, m, rng, on_shares=captured.append)
        (shares,) = captured[0]
        assert tuple(b[0] for b in t.blocks) == shares.shares

    def test_blocks_are_permutations_of_captured_shares(self):
        rng = random.Random(11)
        m = Modulus(11)
        for _ in range(200):
            n, k = rng.randint(1, 12), rng.randint(1, 5)
            x = [rng.randrange(11) for _ in range(n)]
            captured = []
            t = run_ikos(x, k, m, rng, on_shares=captured.append)
            per_user = captured[0]
            for j, block in enumerate(t.blocks):
                assert Counter(block) == Counter(sv.shares[j] for sv in per_user)

    def test_two_users_single_share_uniform(self):
        # n=2, m=2, k=1, inputs (0,1): transcript is (0,1) or (1,0), each 1/2
        rng = random.Random(12)
        m = Modulus(2)
        n = 20_000
        counts = Counter(run_ikos([0, 1], 1, m, rng).blocks[0] for _ in range(n))
        assert set(counts) == {(0, 1), (1, 0)}
        assert abs(counts[(0, 1)] - n / 2) <= 4 * binomial_sigma(n, 0.5)

    def test_values_in_range(self):
        rng = random.Random(13)
        m = Modulus(7)
        t = run_ikos([1, 2, 3], 4, m, rng)
        assert all(0 <= v < 7 for v in t.flattened())


class TestRunRandomized:
    def test_structure_and_conservation(self):
        rng = random.Random(14)
        for _ in range(500):
            m = Modulus(rng.choice([2, 7, 2**32]))
            n = rng.randint(1, 15)
            k = rng.randint(1, 6)
            x = [rng.randrange(m.m) for _ in range(n)]
            t = run_ikos_randomized(x, k, m, rng)
            # k shuffled messages plus one clear message per user
            assert len(t.blocks) == k and len(t.clear_block) == n
            assert t.variant is Variant.RANDOMIZED_INPUTS
            assert aggregate(t, m) == group_sum(x, m)

    def test_clear_block_marginal_uniform(self):
        rng = random.Random(15)
        m = Modulus(5)
        n_runs = 50_000
        counts = [0] * 5
        for _ in range(n_runs):
            t = run_ikos_randomized([2, 4], 1, m, rng)
            counts[t.clear_block[0]] += 1
        assert chisq_pvalue(counts, [0.2] * 5) > SIGNIFICANCE

    def test_simulation_relation_sampled(self):
        # permuting the clear block reproduces the (k+1)-share plain law
        rng = random.Random(16)
        m = Modulus(2)
        inputs = [0, 1]
        n_runs = 30_000
        permuted = Counter()
        plain = Counter()
        for _ in range(n_runs):
            t = run_ikos_randomized(inputs, 1, m, rng)
            permuted[t.blocks[0] + shuffle_block(t.clear_block, rng)] += 1
            plain[run_ikos(inputs, 2, m, rng).flattened()] += 1
        assert two_sample_chisq_pvalue(permuted, plain) > SIGNIFICANCE


class TestAggregate:
    def test_zeros(self):
        m = Modulus(5)
        assert aggregate(Transcript(((0, 0), (0, 0))), m) == 0

    def test_full_group_sum(self):
        rng = random.Random(17)
        m = Modulus(7)
        t = run_ikos([3, 4], 5, m, rng)
        assert aggregate(t, m) == 0

    def test_invariant_under_block_permutation(self):
        rng = random.Random(18)
        m = Modulus(11)
        t = run_ikos([1, 2, 3, 4], 3, m, rng)
        scrambled = Transcript(tuple(shuffle_block(b, rng) for b in t.blocks))
        assert aggregate(scrambled, m) == aggregate(t, m)


class TestSerialization:
    def test_schema_and_roundtrip(self):
        rng = random.Random(19)
        m = Modulus(7)
        t = run_ikos_randomized([1, 2, 3], 2, m, rng)
        d = transcript_to_dict(t, m, seed=123)
        assert set(d) == {"n", "k", "m", "variant", "blocks", "clear_block", "seed"}
        assert d["variant"] == "randomized" and d["seed"] == 123
        parsed = json.loads(json.dumps(d))
        t2, m2, seed = transcript_from_dict(parsed)
        assert t2 == t and m2 == m and seed == 123

    def test_plain_has_null_clear_block(self):
        rng = random.Random(20)
        m = Modulus(7)
        d = transcript_to_dict(run_ikos([1, 2], 3, m, rng), m, seed=0)
        assert d["clear_block"] is None and d["variant"] == "plain"

    def test_inconsistent_record_rejected(self):
        rng = random.Random(21)
        m = Modulus(7)
        d = transcript_to_dict(run_ikos([1, 2], 3, m, rng), m, seed=0)
        d["n"] = 5
        with pytest.raises(ValueError):
            transcript_from_dict(d)
