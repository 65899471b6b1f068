import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import SIGNIFICANCE, binomial_sigma, chisq_pvalue, group_sum, two_sample_chisq_pvalue
from shufflesum.protocol import Modulus, aggregate_batch, run_batch, share_batch, transcript_record
from transcript_enumeration import exact_output_distribution


def tiled(inputs, runs: int) -> np.ndarray:
    """``runs`` copies of one input vector, as an engine input array."""
    return np.tile(np.array(inputs, dtype=np.uint64), (runs, 1))


def flattened(blocks: np.ndarray, clear: np.ndarray | None = None) -> list[tuple[int, ...]]:
    """Each run's kn (or (k+1)n) residues, block-ordered."""
    flat = blocks.reshape(len(blocks), -1)
    if clear is not None:
        flat = np.concatenate((flat, clear), axis=1)
    return list(map(tuple, flat.tolist()))


def random_instances(rng: np.random.Generator, count: int, moduli, max_n: int, max_k: int):
    """``count`` random (m, k, inputs) instances of one run each, n <= max_n users."""
    for _ in range(count):
        m = Modulus(int(rng.choice(moduli)))
        n, k = int(rng.integers(1, max_n + 1)), int(rng.integers(1, max_k + 1))
        yield m, k, rng.integers(0, m.m, size=(1, n), dtype=np.uint64)


class TestShuffleBlock:
    """Each shuffler's permutation, seen through k = 1 runs, whose one block
    is the inputs themselves in shuffled order."""

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            run_batch(np.zeros((1, 0), dtype=np.uint64), 1, Modulus(97), np.random.default_rng(0))

    def test_single_element_fixed(self):
        blocks, _ = run_batch(tiled([5], 1), 1, Modulus(97), np.random.default_rng(0))
        assert blocks.tolist() == [[[5]]]

    @given(st.lists(st.integers(0, 96), min_size=1, max_size=20), st.integers(0, 2**32))
    def test_preserves_multiset(self, elements, seed):
        blocks, _ = run_batch(tiled(elements, 1), 1, Modulus(97), np.random.default_rng(seed))
        assert sorted(blocks[0, 0].tolist()) == sorted(elements)

    def test_orderings_uniform(self):
        # 3 distinct elements: all 6 orderings equally likely
        n = 60_000
        blocks, _ = run_batch(tiled((10, 20, 30), n), 1, Modulus(97), np.random.default_rng(8))
        counts = Counter(flattened(blocks))
        sigma = binomial_sigma(n, 1 / 6)
        for o in itertools.permutations((10, 20, 30)):
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
        m, rng = Modulus(7), np.random.default_rng(0)
        for clear in (False, True):
            with pytest.raises(ValueError):
                run_batch(np.zeros((1, 0), dtype=np.uint64), 2, m, rng, clear)
            with pytest.raises(ValueError):
                run_batch(tiled([1], 1), 0, m, rng, clear)
            # int64 inputs would otherwise come back as float64 residues
            with pytest.raises(ValueError):
                run_batch(np.array([[1, 2]]), 2, m, rng, clear)
            with pytest.raises(ValueError):
                run_batch(np.array([1, 2], dtype=np.uint64), 2, m, rng, clear)
            with pytest.raises(ValueError):
                share_batch([[1, 2]], 2, m, rng, clear)
            # residues >= m would pass through unreduced (k = 1) or wrap
            # in the last share's subtraction near 2**64
            with pytest.raises(ValueError):
                run_batch(np.array([[10, 3]], dtype=np.uint64), 1, m, rng, clear)
            with pytest.raises(ValueError):
                share_batch(np.array([[2**64 - 1]], dtype=np.uint64), 2, m, rng, clear)

    def test_sum_conservation(self):
        rng = np.random.default_rng(9)
        for m, k, x in random_instances(rng, 1000, [2, 7, 2**32], 20, 8):
            blocks, clear = run_batch(x, k, m, rng)
            assert aggregate_batch(blocks, clear, m).tolist() == [group_sum(x[0].tolist(), m)]
            assert blocks.shape == (1, k, x.shape[1]) and clear is None

    def test_single_user_blocks_are_shares_in_order(self):
        m = Modulus(97)
        shares, _ = share_batch(tiled([42], 1), 5, m, np.random.default_rng(10))
        blocks, _ = run_batch(tiled([42], 1), 5, m, np.random.default_rng(10))
        assert (blocks == shares).all()

    def test_blocks_are_permutations_of_captured_shares(self):
        # run_batch shuffles exactly the shares share_batch draws on the same seed
        rng = np.random.default_rng(11)
        m = Modulus(11)
        for seed, (_, k, x) in enumerate(random_instances(rng, 200, [11], 12, 5)):
            shares, _ = share_batch(x, k, m, np.random.default_rng(seed))
            blocks, _ = run_batch(x, k, m, np.random.default_rng(seed))
            assert (np.sort(blocks, axis=-1) == np.sort(shares, axis=-1)).all()

    def test_two_users_single_share_uniform(self):
        # n=2, m=2, k=1, inputs (0,1): transcript is (0,1) or (1,0), each 1/2
        n = 20_000
        blocks, _ = run_batch(tiled([0, 1], n), 1, Modulus(2), np.random.default_rng(12))
        counts = Counter(flattened(blocks))
        assert set(counts) == {(0, 1), (1, 0)}
        assert abs(counts[(0, 1)] - n / 2) <= 4 * binomial_sigma(n, 0.5)

    def test_values_in_range(self):
        blocks, _ = run_batch(tiled([1, 2, 3], 1), 4, Modulus(7), np.random.default_rng(13))
        assert blocks.dtype == np.uint64 and int(blocks.max()) < 7


class TestRunRandomized:
    def test_structure_and_conservation(self):
        rng = np.random.default_rng(14)
        for m, k, x in random_instances(rng, 500, [2, 7, 2**32], 15, 6):
            blocks, clear = run_batch(x, k, m, rng, clear=True)
            # k shuffled messages plus one clear message per user
            assert blocks.shape == (1, k, x.shape[1]) and clear.shape == x.shape
            assert aggregate_batch(blocks, clear, m).tolist() == [group_sum(x[0].tolist(), m)]

    def test_clear_block_marginal_uniform(self):
        n_runs = 50_000
        _, clear = run_batch(tiled([2, 4], n_runs), 1, Modulus(5), np.random.default_rng(15), clear=True)
        counts = np.bincount(clear[:, 0], minlength=5)
        assert chisq_pvalue(counts.tolist(), [0.2] * 5) > SIGNIFICANCE

    def test_simulation_relation_sampled(self):
        # permuting the clear block reproduces the (k+1)-share plain law
        rng = np.random.default_rng(16)
        m = Modulus(2)
        x = tiled([0, 1], 30_000)
        blocks, clear = run_batch(x, 1, m, rng, clear=True)
        permuted = Counter(flattened(blocks, rng.permuted(clear, axis=-1)))
        plain = Counter(flattened(run_batch(x, 2, m, rng)[0]))
        assert two_sample_chisq_pvalue(permuted, plain) > SIGNIFICANCE


class TestAggregate:
    def test_zeros(self):
        assert aggregate_batch(np.zeros((1, 2, 2), dtype=np.uint64), None, Modulus(5)).tolist() == [0]

    def test_full_group_sum(self):
        m = Modulus(7)
        blocks, _ = run_batch(tiled([3, 4], 1), 5, m, np.random.default_rng(17))
        assert aggregate_batch(blocks, None, m).tolist() == [0]

    def test_invariant_under_block_permutation(self):
        rng = np.random.default_rng(18)
        m = Modulus(11)
        blocks, _ = run_batch(tiled([1, 2, 3, 4], 1), 3, m, rng)
        scrambled = rng.permuted(blocks, axis=-1)
        assert aggregate_batch(scrambled, None, m).tolist() == aggregate_batch(blocks, None, m).tolist()


class TestSerialization:
    def test_schema_and_roundtrip(self):
        m = Modulus(7)
        blocks, clear = run_batch(tiled([1, 2, 3], 2), 2, m, np.random.default_rng(19), clear=True)
        d = transcript_record(blocks, clear, 1, m, seed=123)
        assert set(d) == {"n", "k", "m", "variant", "blocks", "clear_block", "seed"}
        assert d["variant"] == "randomized" and d["seed"] == 123
        assert (d["n"], d["k"], d["m"]) == (3, 2, 7)
        parsed = json.loads(json.dumps(d))
        assert parsed["blocks"] == blocks[1].tolist()
        assert parsed["clear_block"] == clear[1].tolist()

    def test_plain_has_null_clear_block(self):
        m = Modulus(7)
        blocks, clear = run_batch(tiled([1, 2], 1), 3, m, np.random.default_rng(20))
        d = transcript_record(blocks, clear, 0, m, seed=0)
        assert d["clear_block"] is None and d["variant"] == "plain"
