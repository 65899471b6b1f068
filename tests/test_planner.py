import math
import random

import pytest

from shufflesum.planner import (
    LOG2_E,
    baseline_k_lower_bound,
    plan_shuffled_k,
    regime_flags,
    sigma_for,
)


class TestSigmaFor:
    def test_headline_value(self):
        assert abs(sigma_for(11, 10**4, 2**32) - 43.2) < 0.1

    def test_small_instance_value(self):
        assert abs(sigma_for(3, 19, 2) - 2.305) < 0.001

    @pytest.mark.parametrize("n", [10, 100, 10**6])
    def test_single_share_kills_n_term(self, n):
        for m in (2, 2**32):
            assert sigma_for(1, n, m) == -math.log2(m) / 2

    def test_domain(self):
        with pytest.raises(ValueError):
            sigma_for(3, 1, 2)
        with pytest.raises(ValueError):
            sigma_for(0, 19, 2)
        with pytest.raises(ValueError):
            sigma_for(3, 19, 1)

    def test_monotone_in_k(self):
        for n, m in [(3, 2), (19, 2**32), (10**6, 2**20)]:
            sigmas = [sigma_for(k, n, m) for k in range(1, 30)]
            assert all(b > a for a, b in zip(sigmas, sigmas[1:]))

    def test_monotone_in_n(self):
        for k, m in [(2, 2), (5, 2**32)]:
            sigmas = [sigma_for(k, n, m) for n in (3, 10, 100, 10**4, 10**8)]
            assert all(b > a for a, b in zip(sigmas, sigmas[1:]))

    def test_monotone_in_m(self):
        sigmas = [sigma_for(5, 1000, m) for m in (2, 2**8, 2**32, 2**62)]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))


class TestPlan:
    def test_headline(self):
        res = plan_shuffled_k(40, 10**4, 2**32)
        assert res.k_shuffled == 11
        assert res.total_messages == 12
        assert res.achieved_sigma >= 40
        assert all(res.preconditions_ok.values())

    def test_minimality_of_headline(self):
        assert sigma_for(11, 10**4, 2**32) >= 40
        assert sigma_for(10, 10**4, 2**32) < 40

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            plan_shuffled_k(40, 2, 2)
        with pytest.raises(ValueError):
            plan_shuffled_k(0, 100, 2)
        with pytest.raises(ValueError):
            plan_shuffled_k(-3, 100, 2)
        with pytest.raises(ValueError):
            plan_shuffled_k(40, 100, 1)

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            plan_shuffled_k(sigma, 10**4, 2**32)

    @pytest.mark.parametrize("sigma", [1e300, 1.7e308])
    def test_rejects_k_past_float_resolution(self, sigma):
        # the minimality check could not tell k from k + 1: it used to loop
        # forever at 1e300 and overflow at 1.7e308
        with pytest.raises(ValueError, match="past float resolution"):
            plan_shuffled_k(sigma, 100, 2)

    def test_small_sigma_small_n(self):
        # ceil((2*1 + 1) / (log2 19 - log2 e) + 1) = ceil(2.0695) = 3
        res = plan_shuffled_k(1, 19, 2)
        assert res.k_shuffled == 3
        assert res.total_messages == 4
        assert res.preconditions_ok == {"n>=19": True, "k>=3": True, "sigma>=1": True}

    def test_precondition_flags(self):
        assert not plan_shuffled_k(5, 10, 2).preconditions_ok["n>=19"]
        low_k = plan_shuffled_k(1, 10**6, 2)
        assert low_k.k_shuffled == 2
        assert not low_k.preconditions_ok["k>=3"]
        assert not plan_shuffled_k(0.5, 100, 2).preconditions_ok["sigma>=1"]

    def test_inverse_consistency_random(self):
        rng = random.Random(23)
        for _ in range(10_000):
            sigma = 2.0 ** rng.uniform(0, 7)
            n = int(10 ** rng.uniform(math.log10(19), 9))
            m = 2 ** rng.randint(1, 63)
            res = plan_shuffled_k(sigma, n, m)
            k = res.k_shuffled
            assert res.achieved_sigma == sigma_for(k, n, m) >= sigma
            assert sigma_for(k - 1, n, m) < sigma

    @pytest.mark.parametrize(
        "sigma, n, m, ceiling, planned",
        [
            # just above sigma_for(12): the float ceiling reads 12, one too few
            (math.nextafter(sigma_for(12, 19, 2), math.inf), 19, 2, 12, 13),
            # exactly sigma_for(56): the float ceiling reads 57, one too many
            (sigma_for(56, 10**4, 2**9), 10**4, 2**9, 57, 56),
        ],
        ids=["raise", "lower"],
    )
    def test_float_ceiling_corrected(self, sigma, n, m, ceiling, planned):
        # sigma on a boundary, where sigma_for must move the float ceiling
        assert math.ceil((2 * sigma + math.log2(m)) / (math.log2(n) - LOG2_E) + 1) == ceiling
        k = plan_shuffled_k(sigma, n, m).k_shuffled
        assert k == planned
        assert sigma_for(k, n, m) >= sigma > sigma_for(k - 1, n, m)

    def test_nonincreasing_in_n(self):
        ks = [plan_shuffled_k(40, n, 2**32).k_shuffled for n in (20, 100, 10**3, 10**4, 10**6, 10**9)]
        assert all(b <= a for a, b in zip(ks, ks[1:]))

    def test_polynomial_m_converges_to_three(self):
        # m = n^(3/2): the shuffled-message count settles at 3 as n grows
        ks = []
        for e in (20, 40, 80, 120, 168, 200, 400):
            n = 2**e
            m = 2 ** (3 * e // 2)
            ks.append(plan_shuffled_k(40, n, m).k_shuffled)
        assert all(b <= a for a, b in zip(ks, ks[1:]))
        assert ks[-1] == 3
        assert ks[-2] == 3


class TestBaseline:
    def test_values(self):
        assert baseline_k_lower_bound(40) == 80
        assert baseline_k_lower_bound(1) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            baseline_k_lower_bound(0)

    def test_beats_prior_analysis_at_headline(self):
        assert plan_shuffled_k(40, 10**4, 2**32).total_messages < baseline_k_lower_bound(40)


def violated(n, k, m, sigma=None):
    # the labels regime_flags marks false, sigma from the formula where it is defined
    if sigma is None:
        sigma = sigma_for(k, n, m)
    return [label for label, ok in regime_flags(n, k, sigma, m=m).items() if not ok]


class TestValidateParams:
    # regime_flags validates (n, k, sigma, m) against the proved regime, label by label

    def test_fully_valid(self):
        assert violated(19, 3, 2) == []
        assert regime_flags(19, 3, m=2) == {"n>=19": True, "k>=3": True, "m-bound": True}

    def test_small_n(self):
        assert violated(18, 3, 2) == ["n>=19"]

    def test_m_bound(self):
        # (1/2)(19/e)^2 is about 24.4, so m=24 passes and m=25 fails
        assert "m-bound" not in violated(19, 3, 24)
        violations = violated(19, 3, 25)
        assert "m-bound" in violations
        assert "n>=19" not in violations and "k>=3" not in violations
        assert regime_flags(19, 3, m=25) == {"n>=19": True, "k>=3": True, "m-bound": False}

    def test_small_k(self):
        assert "k>=3" in violated(100, 2, 2)

    def test_sigma_flag(self):
        assert "sigma>=1" in violated(19, 3, 30)
        assert "sigma>=1" not in violated(19, 3, 2)
        # each label only when its argument is given
        assert set(regime_flags(19, 3)) == {"n>=19", "k>=3"}
        assert set(regime_flags(19, 3, 2.0)) == {"n>=19", "k>=3", "sigma>=1"}

    def test_degenerate_inputs_flagged_not_raised(self):
        # sigma is undefined at n = 1, k = 0, m = 1
        violations = violated(1, 0, 1, sigma=-math.inf)
        assert set(violations) == {"n>=19", "k>=3", "m-bound", "sigma>=1"}
