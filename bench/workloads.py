"""The four workloads and the checks on their outputs.

A workload is a function run once per round with a fresh seed. It drives
the program only through its CLI commands (``session.command``) and
counts every command run, protocol execution and output check as one
operation (``session.check``), so every round attempts the same number of
operations. Each check reads only the report fields it checks and
compares them with `reference`, never with a stored copy of an output.

Why four: without chain-exact no exact enumeration runs; without
graph-law component counting is 2 % of one workload; simulate-paper is
the paper's operating point and the only one where per-share work, not
per-call overhead, dominates; chain-ref is the reference point users
verify, and nearly all of it is collision sampling.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

import reference

# Hoeffding confidence the program states for its collision estimates
HOEFFDING_CONFIDENCE = 0.999
# a check on a random quantity fails on correct code with probability <= LEVEL
LEVEL = 1e-6

SIM_SIGMA, SIM_N, SIM_M_BITS = 40, 10_000, 32
SIM_RUNS = 3
CHAIN_REF = (19, 3, 2)
CHAIN_REF_SAMPLES = 500
# every exact path runs on these: transcript laws, lemma 2, E[m^C]
EXACT_LAW_INSTANCES = [(3, 3, 2), (4, 2, 2), (3, 2, 3)]
# only exact_m_power_C is within budget on these: (n!)^k = 13824 and 14400
EXACT_GRAPH_INSTANCES = [(4, 3, 2), (5, 2, 2)]
CHAIN_EXACT_SAMPLES = 500
GRAPH_DIST = (1000, 3)
GRAPH_DIST_SAMPLES = 500
GRAPH_EXP = (19, 3)
GRAPH_EXP_MS = (2, 5, 24)
GRAPH_EXP_SAMPLES = 7_500


def sub_seed(seed: int, *path) -> int:
    """32-bit seed derived from (seed, path...), stable across platforms."""
    tag = ":".join(str(p) for p in (seed, *path)).encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:4], "big")


def field(report, dotted: str):
    """report["a"]["b"]... for dotted = "a.b..."; raises on a missing field."""
    for key in dotted.split("."):
        report = report[key]
    return report


def fraction(report, dotted: str) -> Fraction:
    return Fraction(field(report, dotted + ".fraction"))


def _json(code: int, out: str) -> dict:
    return json.loads(out) if code == 0 else {}


# ---------------------------------------------------------------- simulate-paper


def prepare_simulate_paper() -> dict:
    m = 2**SIM_M_BITS
    return {"m": m, "k": reference.minimal_k(SIM_SIGMA, SIM_N, m)}


def check_plan(session, plan: dict, ref: dict) -> None:
    session.check("plan: k shuffled is the minimal k, total = k + 1", lambda: (
        field(plan, "k_shuffled") == ref["k"] == 11 and field(plan, "total_messages") == 12))
    session.check("plan: sigma(k) >= 40 > sigma(k - 1)", lambda: (
        reference.sigma_for(field(plan, "k_shuffled"), SIM_N, ref["m"]) >= SIM_SIGMA
        > reference.sigma_for(field(plan, "k_shuffled") - 1, SIM_N, ref["m"])))


def reported_input_sums(stderr: str) -> dict[int, tuple[int, bool]]:
    """run index -> (input_sum, conserved) from `run r: input_sum=... conserved=...`."""
    runs = {}
    for line in stderr.splitlines():
        head, _, rest = line.partition(":")
        if not head.startswith("run ") or not rest:
            continue
        fields = dict(part.split("=", 1) for part in rest.split() if "=" in part)
        runs[int(head[4:])] = (int(fields["input_sum"]), fields.get("conserved") == "yes")
    return runs


def check_transcripts(session, lines: list[str], sums: dict, k: int, m: int) -> None:
    """Per run: conservation, block shapes and ranges, own sum; then one
    chi-square test of the shuffled residues' top byte over all runs."""
    top_byte = np.zeros(256, dtype=np.int64)
    for r in range(SIM_RUNS):
        line = lines[r] if r < len(lines) else None
        session.check(f"run {r}: reported conserved", lambda: sums[r][1])
        try:
            record = json.loads(line)
            blocks = np.array(field(record, "blocks"), dtype=np.int64)
            clear = np.array(field(record, "clear_block"), dtype=np.int64)
        except (TypeError, ValueError, OverflowError, KeyError):
            blocks = clear = None
        shape_ok = session.check(
            f"run {r}: {k} blocks and a clear block of {SIM_N} residues in [0, m)", lambda: (
                blocks.shape == (k, SIM_N) and clear.shape == (SIM_N,)
                and 0 <= min(blocks.min(), clear.min()) and max(blocks.max(), clear.max()) < m))
        session.check(f"run {r}: residues sum to the reported input sum", lambda: (
            (int(blocks.sum()) + int(clear.sum())) % m == sums[r][0]))
        if shape_ok:
            top_byte += np.bincount((blocks >> (SIM_M_BITS - 8)).ravel(), minlength=256)
    session.check("shuffled residues are uniform (chi-square, 255 dof)", lambda: (
        top_byte.sum() == SIM_RUNS * k * SIM_N
        and reference.chi_square_p_value(top_byte.tolist()) >= LEVEL))


def simulate_paper(session, seed: int, ref: dict) -> None:
    code, out, _ = session.command(
        ["plan", "--sigma", str(SIM_SIGMA), "--n", str(SIM_N), "--m-bits", str(SIM_M_BITS),
         "--format", "json"])
    plan = _json(code, out)
    check_plan(session, plan, ref)
    k = plan.get("k_shuffled", ref["k"])
    path = session.out_dir / f"transcripts-{os.getpid()}.jsonl"
    try:
        _, _, err = session.command(
            ["simulate", "--n", str(SIM_N), "--k", str(k), "--m-bits", str(SIM_M_BITS),
             "--variant", "randomized", "--seed", str(seed), "--runs", str(SIM_RUNS),
             "--out", str(path)], out_file=path)
        lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
        check_transcripts(session, lines, reported_input_sums(err), k, ref["m"])
    finally:
        path.unlink(missing_ok=True)


# ---------------------------------------------------------------- chain-ref


def prepare_chain_ref() -> dict:
    n, k, m = CHAIN_REF
    law = {c: float(p) for c, p in reference.component_law(n, k).items()}
    return {
        "theorem": reference.theorem_bound(n, k, m),
        "m_power_c": reference.mean_interval(law, m, CHAIN_REF_SAMPLES, LEVEL),
    }


def check_chain_ref(session, report: dict, ref: dict) -> None:
    session.check("chain-ref: theorem bound is sqrt(2) e / 19", lambda: math.isclose(
        field(report, "theorem1_bound"), ref["theorem"], rel_tol=1e-12))
    lo, hi = ref["m_power_c"]
    session.check("chain-ref: Monte Carlo E[2^C] within the exact law's interval", lambda: (
        lo <= field(report, "mc_m_power_c.value") <= hi))
    session.check("chain-ref: no collision hit at p ~ 2^-56", lambda: (
        field(report, "mc_collision_v.hits") == 0 == field(report, "mc_collision_e.hits")))


def chain_ref(session, seed: int, ref: dict) -> None:
    n, k, m = CHAIN_REF
    code, out, _ = session.command(
        ["verify", "chain", "--n", str(n), "--k", str(k), "--m", str(m),
         "--samples", str(CHAIN_REF_SAMPLES), "--seed", str(seed), "--shards", "1",
         "--format", "json"])
    check_chain_ref(session, _json(code, out), ref)


# ---------------------------------------------------------------- chain-exact


def prepare_chain_exact() -> dict:
    return {inst: reference.m_power_expectation(*inst)
            for inst in EXACT_LAW_INSTANCES + EXACT_GRAPH_INSTANCES}


def check_chain_exact(session, report: dict, inst: tuple, m_power_c: Fraction) -> None:
    n, k, m = inst
    session.check(f"chain {inst}: exact E[m^C] equals the recursion", lambda: (
        fraction(report, "exact_m_power_c") == m_power_c))
    if inst not in EXACT_LAW_INSTANCES:
        return
    collision = m_power_c / m ** (k * n)
    halfwidth = reference.hoeffding_halfwidth(CHAIN_EXACT_SAMPLES, HOEFFDING_CONFIDENCE)
    session.check(f"chain {inst}: exact v-vs-v equals exact e-event (lemma 2)", lambda: (
        fraction(report, "exact_collision_v") == fraction(report, "exact_collision_e")))
    session.check(f"chain {inst}: exact collision equals E[m^C] / m^(kn)", lambda: (
        fraction(report, "exact_collision_v") == collision))
    session.check(f"chain {inst}: TV^2 <= m^(kn-1) p - 1 (lemma 1)", lambda: (
        fraction(report, "exact_avg_tv") ** 2
        <= fraction(report, "exact_collision_v") * m ** (k * n - 1) - 1))
    session.check(f"chain {inst}: Monte Carlo collision rates within Hoeffding halfwidth", lambda: all(
        abs(field(report, f"{key}.value") - collision) <= halfwidth
        for key in ("mc_collision_v", "mc_collision_e")))


def chain_exact(session, seed: int, ref: dict) -> None:
    for i, inst in enumerate(EXACT_LAW_INSTANCES + EXACT_GRAPH_INSTANCES):
        n, k, m = inst
        code, out, _ = session.command(
            ["verify", "chain", "--n", str(n), "--k", str(k), "--m", str(m),
             "--samples", str(CHAIN_EXACT_SAMPLES), "--seed", str(sub_seed(seed, i)),
             "--shards", "1", "--format", "json"])
        check_chain_exact(session, _json(code, out), inst, ref[inst])


# ---------------------------------------------------------------- graph-law


def prepare_graph_law() -> dict:
    n, k = GRAPH_EXP
    law19 = {c: float(p) for c, p in reference.component_law(n, k).items()}
    return {
        "dist": {c: reference.binomial_interval(GRAPH_DIST_SAMPLES, p, LEVEL)
                 for c, p in reference.component_law_float(*GRAPH_DIST, cmax=6).items()},
        "exp": {m: reference.mean_interval(law19, m, GRAPH_EXP_SAMPLES, LEVEL)
                for m in GRAPH_EXP_MS},
    }


def check_graph_dist(session, report: dict, intervals: dict[int, tuple[int, int]]) -> None:
    # a component count the exact law does not list must not occur at all
    def histogram_ok() -> bool:
        counts = {int(c): row["count"] for c, row in field(report, "components").items()}
        return sum(counts.values()) == GRAPH_DIST_SAMPLES and all(
            intervals.get(c, (0, 0))[0] <= counts.get(c, 0) <= intervals.get(c, (0, 0))[1]
            for c in set(counts) | set(intervals))

    session.check("graph-dist n=1000: every frequency within the exact law's interval", histogram_ok)


def check_graph_exp(session, report: dict, m: int, interval: tuple[float, float]) -> None:
    lo, hi = interval
    session.check(f"graph-exp m={m}: E[m^C] estimate within the exact law's interval",
                  lambda: lo <= field(report, "estimate") <= hi)


def graph_law(session, seed: int, ref: dict) -> None:
    n, k = GRAPH_DIST
    code, out, _ = session.command(
        ["verify", "graph-dist", "--n", str(n), "--k", str(k),
         "--samples", str(GRAPH_DIST_SAMPLES), "--seed", str(sub_seed(seed, 0)),
         "--shards", "1", "--format", "json"])
    check_graph_dist(session, _json(code, out), ref["dist"])
    n, k = GRAPH_EXP
    for m in GRAPH_EXP_MS:
        code, out, _ = session.command(
            ["verify", "graph-exp", "--n", str(n), "--k", str(k), "--m", str(m),
             "--samples", str(GRAPH_EXP_SAMPLES), "--seed", str(sub_seed(seed, m)),
             "--shards", "1", "--format", "json"])
        check_graph_exp(session, _json(code, out), m, ref["exp"][m])


# name -> (prepare: reference values computed once per run, round)
WORKLOADS = {
    "simulate-paper": (prepare_simulate_paper, simulate_paper),
    "chain-ref": (prepare_chain_ref, chain_ref),
    "chain-exact": (prepare_chain_exact, chain_exact),
    "graph-law": (prepare_graph_law, graph_law),
}
