"""Additive sharing as the protocol engine does it (``share_batch``): the
plain k-share split and, with ``clear=True``, the recursive split that
masks the input with a uniform u sent in the clear."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import SIGNIFICANCE, binomial_sigma, chisq_pvalue, two_sample_chisq_pvalue
from shufflesum.protocol import Modulus, aggregate_batch, share_batch


def secrets(x: int, runs: int) -> np.ndarray:
    """``runs`` sharings of the one-user input x."""
    return np.full((runs, 1), x, dtype=np.uint64)


def share_tuples(shares: np.ndarray, masks: np.ndarray | None = None) -> list[tuple[int, ...]]:
    """Each run's share vector (then its mask u) of a one-user sharing."""
    rows = shares[:, :, 0]
    if masks is not None:
        rows = np.concatenate((rows, masks), axis=1)
    return list(map(tuple, rows.tolist()))


def reconstruct(shares: np.ndarray, m: Modulus) -> list[int]:
    """Python-int sum of each run's shares, independent of the engine's adds."""
    return [sum(row) % m.m for row in shares.reshape(len(shares), -1).tolist()]


def test_single_share_is_the_secret():
    x = np.array([[0, 1, 50, 96]], dtype=np.uint64)
    shares, _ = share_batch(x, 1, Modulus(97), np.random.default_rng(0))
    assert shares.tolist() == [[[0, 1, 50, 96]]]


def test_rejects_zero_shares():
    with pytest.raises(ValueError):
        share_batch(secrets(3, 1), 0, Modulus(7), np.random.default_rng(0))


def test_roundtrip_many():
    rng = np.random.default_rng(42)
    # 5 moduli x 10 share counts x 200 secrets = 10^4 sharings
    for m, k in itertools.product([2, 3, 7, 97, 2**32], range(1, 11)):
        mod = Modulus(m)
        x = rng.integers(0, m, size=(200, 1), dtype=np.uint64)
        shares, _ = share_batch(x, k, mod, rng)
        assert reconstruct(shares, mod) == x[:, 0].tolist()


@given(
    m=st.sampled_from([2, 5, 2**32, 2**63]),
    k=st.integers(1, 12),
    x=st.integers(0, 2**63 - 1),
)
def test_roundtrip_property(m, k, x):
    mod = Modulus(m)
    shares, _ = share_batch(secrets(x % m, 1), k, mod, np.random.default_rng(7))
    assert reconstruct(shares, mod) == [x % m]


def test_two_share_law_over_z2():
    # x=1, m=2: only (0,1) and (1,0) are possible, each with chance 1/2
    n = 100_000
    shares, _ = share_batch(secrets(1, n), 2, Modulus(2), np.random.default_rng(3))
    counts = Counter(share_tuples(shares))
    assert set(counts) == {(0, 1), (1, 0)}
    sigma = binomial_sigma(n, 0.5)
    assert abs(counts[(0, 1)] - n / 2) <= 3 * sigma


@pytest.mark.parametrize("m,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_uniform_conditional_law(m, k):
    # every k-tuple summing to x shows up with frequency 1/m^(k-1)
    x = 1
    n = 100_000
    shares, _ = share_batch(secrets(x, n), k, Modulus(m), np.random.default_rng(m * 10 + k))
    counts = Counter(share_tuples(shares))
    tuples = [
        (*free, (x - sum(free)) % m)
        for free in itertools.product(range(m), repeat=k - 1)
    ]
    assert set(counts) <= set(tuples)
    p = 1 / m ** (k - 1)
    se = binomial_sigma(n, p)
    for t in tuples:
        assert abs(counts[t] - n * p) <= 4 * se


class TestShareRecursive:
    """k_plus_1 shares of x as (k_plus_1 - 1 shares of x - u, u):
    ``share_batch(..., k_plus_1 - 1, clear=True)``."""

    def test_rejects_single_share(self):
        with pytest.raises(ValueError):
            share_batch(secrets(3, 1), 0, Modulus(7), np.random.default_rng(0), clear=True)

    def test_concatenation_reconstructs(self):
        rng = np.random.default_rng(5)
        # 3 moduli x 7 share counts x 100 secrets = 2100 sharings
        for m, k1 in itertools.product([2, 5, 2**32], range(2, 9)):
            mod = Modulus(m)
            x = rng.integers(0, m, size=(100, 1), dtype=np.uint64)
            body, u = share_batch(x, k1 - 1, mod, rng, clear=True)
            assert body.shape == (100, k1 - 1, 1)
            assert reconstruct(np.concatenate((body[:, :, 0], u), axis=1), mod) == x[:, 0].tolist()

    def test_trailing_element_is_uniform(self):
        n = 100_000
        _, u = share_batch(secrets(2, n), 2, Modulus(5), np.random.default_rng(6), clear=True)
        counts = np.bincount(u[:, 0], minlength=5)
        assert chisq_pvalue(counts.tolist(), [0.2] * 5) > SIGNIFICANCE

    def test_joint_law_m2(self):
        # x=0, two shares: outcomes (0,0) and (1,1), each with chance 1/2
        n = 50_000
        body, u = share_batch(secrets(0, n), 1, Modulus(2), np.random.default_rng(7), clear=True)
        counts = Counter(share_tuples(body, u))
        assert set(counts) == {(0, 0), (1, 1)}
        assert abs(counts[(0, 0)] - n / 2) <= 4 * binomial_sigma(n, 0.5)

    @pytest.mark.parametrize("m,k1", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_same_law_as_direct_sharing(self, m, k1):
        # recursive split vs direct sharing of the same secret
        rng = np.random.default_rng(m * 100 + k1)
        mod = Modulus(m)
        x = secrets(1, 100_000)
        direct, _ = share_batch(x, k1, mod, rng)
        body, u = share_batch(x, k1 - 1, mod, rng, clear=True)
        assert two_sample_chisq_pvalue(
            Counter(share_tuples(direct)), Counter(share_tuples(body, u))
        ) > SIGNIFICANCE


def test_reconstruct_examples():
    # the server's reconstruction: the Z_m sum of every share it receives
    m = Modulus(5)
    shares, _ = share_batch(secrets(4, 1), 1, m, np.random.default_rng(0))
    assert aggregate_batch(shares, None, m).tolist() == [4]
    assert aggregate_batch(np.array([[[3], [4]]], dtype=np.uint64), None, m).tolist() == [2]


@given(st.permutations([0, 3, 1, 4, 2]))
def test_reconstruct_permutation_invariant(perm):
    m = Modulus(5)
    scrambled = np.array([[perm]], dtype=np.uint64)
    ordered = np.array([[[0, 1, 2, 3, 4]]], dtype=np.uint64)
    assert aggregate_batch(scrambled, None, m).tolist() == aggregate_batch(ordered, None, m).tolist()
