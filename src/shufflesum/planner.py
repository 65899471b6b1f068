"""Closed-form security planning.

The protocol with k shuffled shares among n users over Z_m achieves
average-case statistical distance 2**-sigma for

    sigma = ((k - 1) * (log2(n) - log2(e)) - log2(m)) / 2

valid for n >= 19, k >= 3, sigma >= 1; the randomized-inputs variant turns
the same sigma into a worst-case guarantee at the cost of one extra clear
message per user. Inverting for k gives the minimal number of shuffled
messages for a target sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LOG2_E = math.log2(math.e)


def sigma_for(k: int, n: int, m: int) -> float:
    """Security exponent (bits) achieved by k shuffled shares, n users, Z_m.

    May be negative; the guarantee is only meaningful for n >= 19, k >= 3
    and a result >= 1, but the formula is evaluated as stated everywhere.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    return ((k - 1) * (math.log2(n) - LOG2_E) - math.log2(m)) / 2


@dataclass(frozen=True)
class PlanResult:
    """Outcome of planning: minimal shuffled-message count and its sigma.

    ``preconditions_ok`` flags whether the analyzed regime covers the plan
    (n >= 19, k >= 3, requested sigma >= 1); outside it the numbers are
    still the formula values, just without a proved guarantee.
    """

    k_shuffled: int
    total_messages: int
    achieved_sigma: float
    preconditions_ok: dict[str, bool]


def plan_shuffled_k(sigma: float, n: int, m: int) -> PlanResult:
    """Minimal k with sigma_for(k, n, m) >= sigma; total adds 1 clear message.

    Raises ValueError for a sigma that is not finite, n <= 2 (the formula's
    denominator log2(n) - log2(e) must be positive), sigma <= 0, m < 2, or
    a k so large that floats no longer tell k from k + 1.
    """
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if n <= 2:
        raise ValueError(f"need n >= 3 so that log2(n) > log2(e), got n={n}")
    if sigma <= 0:
        raise ValueError(f"need sigma > 0, got {sigma}")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    denom = math.log2(n) - LOG2_E
    arg = (2 * sigma + math.log2(m)) / denom + 1
    if math.ulp(arg) >= 1:
        raise ValueError(f"sigma={sigma} needs about {arg:.3g} messages, past float resolution")
    # the float ceiling may be off by one either way; sigma_for decides
    k = max(1, math.ceil(arg))
    while sigma_for(k, n, m) < sigma:
        k += 1
    while k > 1 and sigma_for(k - 1, n, m) >= sigma:
        k -= 1
    return PlanResult(k, k + 1, sigma_for(k, n, m), regime_flags(n, k, sigma))


def baseline_k_lower_bound(sigma: float) -> float:
    """Message floor 2*sigma from the earlier analysis, for comparison tables."""
    if sigma <= 0:
        raise ValueError(f"need sigma > 0, got {sigma}")
    return 2.0 * sigma


def regime_flags(n: int, k: int, sigma: float | None = None, m: int | None = None) -> dict[str, bool]:
    """Which preconditions of the proved regime hold, by label: n >= 19, k >= 3,
    with sigma the theorem's sigma >= 1, with m the E[m^C] bound's
    m <= (1/2)(n/e)**(k-1). The one place that decides where a bound is proved."""
    flags = {"n>=19": n >= 19, "k>=3": k >= 3}
    if sigma is not None:
        flags["sigma>=1"] = sigma >= 1
    if m is not None:
        # compared in log2 space to avoid overflow
        flags["m-bound"] = min(n, k, m) >= 1 and math.log2(m) <= -1.0 + (k - 1) * (math.log2(n) - LOG2_E)
    return flags
