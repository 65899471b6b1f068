"""Secure summation by splitting inputs into additive shares and mixing
them through independent shufflers, together with the closed-form security
planner and a verification harness that measures the actual transcript
distributions against the proved bounds.

The protocol runs on one batched numpy engine over Z_m (``Modulus`` /
``share_batch`` / ``run_batch`` / ``aggregate_batch``, all in
``protocol``). All randomness is deterministic and seeded numpy
``Generator`` streams. Nothing here is a cryptographic RNG.
This package simulates and analyzes the protocol, it does not deploy it.
"""

__version__ = "0.1.0"

from .planner import PlanResult, baseline_k_lower_bound, plan_shuffled_k, sigma_for
from .protocol import Modulus, aggregate_batch, run_batch, share_batch
from .randgraph import (
    ComponentHistogram,
    EnumerationBudgetError,
    Quantity,
    estimate_component_distribution,
    estimate_m_power_C,
    exact_m_power_C,
    expectation_bound,
    lemma4_probability_bound,
)

__all__ = [
    "Modulus",
    "share_batch",
    "run_batch",
    "aggregate_batch",
    "PlanResult",
    "sigma_for",
    "plan_shuffled_k",
    "baseline_k_lower_bound",
    "ComponentHistogram",
    "EnumerationBudgetError",
    "Quantity",
    "lemma4_probability_bound",
    "expectation_bound",
    "estimate_component_distribution",
    "estimate_m_power_C",
    "exact_m_power_C",
    "__version__",
]
