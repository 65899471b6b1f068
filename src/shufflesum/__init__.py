"""Secure summation by splitting inputs into additive shares and mixing
them through independent shufflers, together with the closed-form security
planner and a verification harness that measures the actual transcript
distributions against the proved bounds.

All randomness is deterministic and seeded (``random.Random`` /
``numpy.random.Generator``); nothing here is a cryptographic RNG. This
package simulates and analyzes the protocol, it does not deploy it.
"""

__version__ = "0.1.0"

from .group import GroupElement, Modulus, add, group_sum, neg, uniform_element
from .planner import PlanResult, baseline_k_lower_bound, plan_shuffled_k, sigma_for, validate_params
from .protocol import (
    Transcript,
    Variant,
    aggregate,
    aggregate_batch,
    run_batch,
    run_ikos,
    run_ikos_randomized,
    share_batch,
    shuffle_block,
)
from .randgraph import (
    ComponentHistogram,
    EnumerationBudgetError,
    PermutationMultigraph,
    connected_components,
    estimate_component_distribution,
    estimate_m_power_C,
    exact_m_power_C,
    expectation_bound,
    lemma4_probability_bound,
    sample_graph,
)
from .sharing import ShareVector, reconstruct, share, share_recursive

__all__ = [
    "GroupElement",
    "Modulus",
    "add",
    "neg",
    "group_sum",
    "uniform_element",
    "ShareVector",
    "share",
    "reconstruct",
    "share_recursive",
    "Variant",
    "Transcript",
    "shuffle_block",
    "run_ikos",
    "run_ikos_randomized",
    "aggregate",
    "share_batch",
    "run_batch",
    "aggregate_batch",
    "PlanResult",
    "sigma_for",
    "plan_shuffled_k",
    "baseline_k_lower_bound",
    "validate_params",
    "PermutationMultigraph",
    "ComponentHistogram",
    "EnumerationBudgetError",
    "sample_graph",
    "connected_components",
    "lemma4_probability_bound",
    "expectation_bound",
    "estimate_component_distribution",
    "estimate_m_power_C",
    "exact_m_power_C",
    "__version__",
]
