import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SIGNIFICANCE, binomial_sigma, chisq_pvalue
from shufflesum.protocol import MAX_MODULUS, Modulus, _sub, aggregate_batch, share_batch

moduli = st.sampled_from([2, 3, 5, 7, 64, 97, 2**32, 2**63 - 1, 2**63])


@st.composite
def mod_and_elements(draw, count):
    m = draw(moduli)
    xs = tuple(draw(st.integers(0, m - 1)) for _ in range(count))
    return Modulus(m), xs


def add(a: int, b: int, m: Modulus) -> int:
    """The protocol engine's sum in Z_m (``aggregate_batch``), on one pair of residues."""
    return int(aggregate_batch(np.array([[[a, b]]], np.uint64), None, m)[0])


def neg(a: int, m: Modulus) -> int:
    """The engine's uint64 subtraction 0 - a in Z_m."""
    return int(_sub(np.zeros(1, np.uint64), np.array([a], np.uint64), np.uint64(m.m))[0])


def engine_draws(m: int, count: int, seed: int) -> np.ndarray:
    """``count`` uniform residues as the engine draws them: the clear masks
    of a one-share randomized sharing of zeros."""
    zeros = np.zeros((1, count), dtype=np.uint64)
    _, masks = share_batch(zeros, 1, Modulus(m), np.random.default_rng(seed), clear=True)
    return masks[0]


class TestModulus:
    @pytest.mark.parametrize("bad", [1, 0, -5])
    def test_rejects_small(self, bad):
        with pytest.raises(ValueError):
            Modulus(bad)

    def test_rejects_above_cap(self):
        with pytest.raises(ValueError):
            Modulus(MAX_MODULUS + 1)

    def test_accepts_cap(self):
        assert Modulus(MAX_MODULUS).m == 2**63

    @pytest.mark.parametrize("bad", ["7", 7.0, True])
    def test_rejects_non_int(self, bad):
        with pytest.raises(TypeError):
            Modulus(bad)


class TestArithmetic:
    def test_add_examples(self):
        m = Modulus(7)
        assert add(3, 5, m) == 1
        assert add(0, 4, m) == 4

    def test_add_near_cap_matches_bigint(self):
        # double-width intermediate: compare against Python's unbounded ints
        m = Modulus(2**63 - 1)
        assert add(2**62, 2**62, m) == (2**62 + 2**62) % (2**63 - 1) == 1

    def test_neg_examples(self):
        m = Modulus(7)
        assert neg(0, m) == 0
        assert neg(3, m) == 4

    def test_neg_involution(self):
        m = Modulus(2**32)
        xs = np.random.default_rng(11).integers(0, m.m, size=1000, dtype=np.uint64)
        zero, mm = np.zeros_like(xs), np.uint64(m.m)
        assert (_sub(zero, _sub(zero, xs, mm), mm) == xs).all()

    @given(mod_and_elements(3))
    def test_associative(self, case):
        m, (a, b, c) = case
        assert add(add(a, b, m), c, m) == add(a, add(b, c, m), m)

    @given(mod_and_elements(2))
    def test_commutative_and_canonical(self, case):
        m, (a, b) = case
        s = add(a, b, m)
        assert s == add(b, a, m)
        assert 0 <= s < m.m

    @given(mod_and_elements(1))
    def test_identity_and_inverse(self, case):
        m, (a,) = case
        assert add(a, 0, m) == a
        assert add(a, neg(a, m), m) == 0

    @given(mod_and_elements(2))
    def test_sub_matches_bigint(self, case):
        # a - b wraps in uint64 where a < b; the residue must still be exact,
        # up to m = 2**63, and at the extreme pairs of each modulus
        m, (a, b) = case
        pairs = [(a, b), (0, m.m - 1), (m.m - 1, 0), (m.m - 1, m.m - 1)]
        got = _sub(*(np.array(xs, np.uint64) for xs in zip(*pairs)), np.uint64(m.m))
        assert got.tolist() == [(x - y) % m.m for x, y in pairs]



class TestUniformElement:
    """Uniform residues as the engine draws them (``Generator.integers``)."""

    def test_coin_is_balanced(self):
        n = 100_000
        ones = int(engine_draws(2, n, seed=0).sum())
        assert abs(ones - n / 2) <= 5 * binomial_sigma(n, 0.5)

    def test_m3_counts_within_four_sigma(self):
        n = 300_000
        counts = np.bincount(engine_draws(3, n, seed=1), minlength=3)
        sigma = binomial_sigma(n, 1 / 3)
        for c in counts:
            assert abs(c - n / 3) <= 4 * sigma

    def test_fixed_seed_reproduces(self):
        assert (engine_draws(2**32, 100, seed=99) == engine_draws(2**32, 100, seed=99)).all()

    @pytest.mark.parametrize("m,buckets", [(2, 2), (3, 3), (7, 7), (2**32, 256)])
    def test_chi_square_uniformity(self, m, buckets):
        # buckets divide m evenly, so the bucketed law is exactly uniform
        n = 1_000_000
        draws = engine_draws(m, n, seed=m)
        counts = np.bincount(draws * np.uint64(buckets) // np.uint64(m), minlength=buckets)
        assert chisq_pvalue(counts.tolist(), [1 / buckets] * buckets) > SIGNIFICANCE
