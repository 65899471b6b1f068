import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SIGNIFICANCE,
    binomial_sigma,
    chisq_pvalue,
    group_sum,
    transcript_line,
    two_sample_chisq_pvalue,
)
from shufflesum import protocol, randgraph
from shufflesum.protocol import Modulus, aggregate_batch, run_batch, share_batch
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

    @pytest.mark.parametrize("m", [97, 2**32, 2**63 - 25, 2**63])
    def test_exact_at_the_largest_residues(self, m):
        # every residue m - 1: each half-sum is as large as it gets, and
        # Python ints give the reference sum
        blocks = np.full((2, 11, 10_000), m - 1, dtype=np.uint64)
        clear = np.full((2, 10_000), m - 1, dtype=np.uint64)
        expected = group_sum([m - 1] * 12 * 10_000, Modulus(m))
        assert aggregate_batch(blocks, clear, Modulus(m)).tolist() == [expected, expected]

    @given(st.integers(2, 2**63), st.integers(1, 30), st.integers(1, 4), st.booleans(), st.integers(0, 2**32))
    def test_equals_python_sum(self, m, n, k, clear, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, m, size=(3, k, n), dtype=np.uint64)
        clear_block = rng.integers(0, m, size=(3, n), dtype=np.uint64) if clear else None
        expected = [
            group_sum(blocks[r].ravel().tolist() + ([] if clear_block is None else clear_block[r].tolist()), Modulus(m))
            for r in range(3)
        ]
        assert aggregate_batch(blocks, clear_block, Modulus(m)).tolist() == expected


def transcript_record(blocks: np.ndarray, clear: np.ndarray | None, r: int, m: Modulus, seed: int) -> dict:
    """Run r of a ``run_batch`` result as a JSON-shaped record of Python
    ints: the reference that ``transcript_line`` must print byte for byte."""
    _, k, n = blocks.shape
    return {
        "n": n,
        "k": k,
        "m": m.m,
        "variant": "plain" if clear is None else "randomized",
        "blocks": blocks[r].tolist(),
        "clear_block": None if clear is None else clear[r].tolist(),
        "seed": seed,
    }


def assert_line_is_record(blocks, clear, r, m, seed):
    line = transcript_line(blocks[r], None if clear is None else clear[r], m, seed)
    expected = json.dumps(transcript_record(blocks, clear, r, m, seed), sort_keys=True)
    if line != expected:
        # where the lines part, rather than pytest's diff of two strings of up to megabytes
        at = next((i for i, (a, b) in enumerate(zip(line, expected)) if a != b), min(len(line), len(expected)))
        pytest.fail(f"lines part at {at}: {line[at - 20 : at + 20]!r} != {expected[at - 20 : at + 20]!r}")


# values on each side of every change of digit count d = 1..19, so that every
# padding of d + 2 bytes to whole words is written, and of the writer's
# uint32/uint64 switch, and the largest residue; and values with a zero
# 4-digit group below a nonzero one, whose zero word comes from the text half
# of the table, not the NUL-padded one
EDGE_RESIDUES = sorted(
    {10 ** (d - 1) + step for d in range(1, 20) for step in (-1, 0)} | {2**32 - 1, 2**32, 2**63 - 1}
    | {10**8, 10**8 + 1, 10**12 + 1, 10**16 + 10**4, 10**18 + 10**8 + 5, 10**6 + 7}
)


class TestSerialization:
    def test_schema_and_roundtrip(self):
        m = Modulus(7)
        blocks, clear = run_batch(tiled([1, 2, 3], 2), 2, m, np.random.default_rng(19), clear=True)
        d = json.loads(transcript_line(blocks[1], clear[1], m, seed=123))
        assert set(d) == {"n", "k", "m", "variant", "blocks", "clear_block", "seed"}
        assert d["variant"] == "randomized" and d["seed"] == 123
        assert (d["n"], d["k"], d["m"]) == (3, 2, 7)
        assert d["blocks"] == blocks[1].tolist()
        assert d["clear_block"] == clear[1].tolist()

    def test_plain_has_null_clear_block(self):
        m = Modulus(7)
        blocks, clear = run_batch(tiled([1, 2], 1), 3, m, np.random.default_rng(20))
        d = json.loads(transcript_line(blocks[0], clear, m, seed=0))
        assert d["clear_block"] is None and d["variant"] == "plain"

    @pytest.mark.parametrize("m", [2, 10, 97, 2**32, 2**63])
    @pytest.mark.parametrize("n, k", [(1, 1), (1, 4), (6, 1), (50, 3)])
    @pytest.mark.parametrize("clear", [False, True], ids=["plain", "randomized"])
    def test_line_is_the_json_record(self, m, n, k, clear):
        rng = np.random.default_rng(21)
        blocks, clear_block = run_batch(rng.integers(0, m, size=(2, n), dtype=np.uint64), k, Modulus(m), rng, clear)
        assert_line_is_record(blocks, clear_block, 1, Modulus(m), seed=2**64 - 1)

    @pytest.mark.parametrize("value", EDGE_RESIDUES)
    def test_edge_residues(self, value):
        # one value alone, and beside 0 and 2^63 - 1 so that the row's width differs from its own
        m = Modulus(2**63)
        row = np.array([value], dtype=np.uint64)
        assert_line_is_record(row[None, None], row[None], 0, m, seed=0)
        mixed = np.array([[[value, 0, 2**63 - 1, value]]], dtype=np.uint64)
        assert_line_is_record(mixed, None, 0, m, seed=1)

    def test_word_tables(self):
        # the text half, then the same words with every leading "0" NUL, but
        # a last word's units digit, so that 0 still reads "0, "
        def top(word):
            digits = word[:4] if word[2:] != ", " else word[:1]
            lead = len(digits) - len(digits.lstrip("0"))
            return "\0" * lead + word[lead:]

        text = [f"{i:04d}" for i in range(10**4)] + [f"{i:02d}, " for i in range(100)]
        words = protocol._WORDS.tobytes()
        assert len(words) == 8 * protocol._HALF == 8 * len(text)
        assert words[: 4 * protocol._HALF] == "".join(text).encode()
        assert words[4 * protocol._HALF :] == "".join(map(top, text)).encode()
        assert words[4 * (protocol._HALF + protocol._LAST) :][:8] == b"\x000, \x001, "

    def test_work_arrays_made_once_per_line(self, monkeypatch):
        # the writer makes its work arrays once per line, not per row, per
        # chunk or for the clear block: one row, one row and a clear block,
        # then 12 rows, then 12 rows of 10 chunks each
        empty, calls = np.empty, [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return empty(*args, **kwargs)

        m = Modulus(2**32)
        rng = np.random.default_rng(23)
        blocks, clear = run_batch(rng.integers(0, m.m, size=(1, 10**4), dtype=np.uint64), 11, m, rng, clear=True)
        monkeypatch.setattr(np, "empty", counted)
        counts = []
        for rows, clear_row, chunk in [(blocks[0, :1], None, None), (blocks[0, :1], clear[0], None),
                                       (blocks[0], clear[0], None), (blocks[0], clear[0], 1000)]:
            if chunk is not None:
                monkeypatch.setattr(randgraph, "_BATCH_ELEMENTS", chunk)
            calls[0] = 0
            transcript_line(rows, clear_row, m, seed=0)
            counts.append(calls[0])
        # a clear block adds no set of its own to the blocks'
        assert counts[0] > 0 and counts == [counts[0]] * 4

    def test_row_longer_than_a_chunk(self):
        # a row crosses the chunk seam at _BATCH_ELEMENTS values, with a
        # narrow value on each side of it
        n = randgraph._BATCH_ELEMENTS + 3
        rng = np.random.default_rng(22)
        row = rng.integers(0, 10**12, size=n, dtype=np.uint64)
        row[randgraph._BATCH_ELEMENTS - 1 : randgraph._BATCH_ELEMENTS + 1] = [7, 0]
        assert_line_is_record(row[None, None], row[None], 0, Modulus(10**12), seed=3)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        k=st.integers(1, 4),
        m=st.one_of(st.integers(2, 1000), st.integers(2, 2**63), st.sampled_from([2**32, 2**63])),
        seed=st.integers(0, 2**64 - 1),
        clear=st.booleans(),
        chunk=st.sampled_from([1, 2, 7, randgraph._BATCH_ELEMENTS]),
    )
    def test_line_is_the_json_record_fuzz(self, n, k, m, seed, clear, chunk):
        # chunks of 1, 2 and 7 values put seams inside every row
        rng = np.random.default_rng(seed)
        blocks, clear_block = run_batch(rng.integers(0, m, size=(1, n), dtype=np.uint64), k, Modulus(m), rng, clear)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(randgraph, "_BATCH_ELEMENTS", chunk)
            assert_line_is_record(blocks, clear_block, 0, Modulus(m), seed)
