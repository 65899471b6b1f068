"""Command-line front end: plan message counts, simulate protocol runs,
and verify the measured quantities against the closed-form bounds.

Every verify report holds ``preconditions_ok`` and ``checks``, one status
per check, each decided by ``oracle.check``: "pass", "fail" (only where the
data refute the bound), "unavailable" (past the work budget) or
"not-applicable" (outside the proved regime; ``preconditions_ok`` marks the
failed labels). The checks: chain those of ``oracle.verify_chain``,
graph-exp expectation_bound_mc, graph-dist lemma4_c<c> per observed
component count c, tv-exact lemma1_exact_soundness. Exit codes: 0 no check
reads "fail", 1 one does, 2 invalid or over-budget parameters, 3 an
unexpected error (traceback on stderr). Seeds are always explicit in the
output; a seed that was not supplied is generated once and recorded.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import secrets
import sys
import traceback

import click
import numpy as np

from . import __version__
from .oracle import (
    HOEFFDING_CONFIDENCE,
    CollisionMode,
    check,
    exact_avg_case_tv,
    exact_collision_probability,
    hoeffding_halfwidth,
    lemma1_bound,
    verify_chain,
)
from .planner import baseline_k_lower_bound, plan_shuffled_k, regime_flags
from .protocol import Modulus, aggregate_batch, run_batch, transcript_line
from .randgraph import (
    EnumerationBudgetError,
    Quantity,
    estimate_component_distribution,
    estimate_m_power_C,
    expectation_bound,
    lemma4_probability_bound,
    shard_batches,
)
from .rng import derive_seed

EXIT_VIOLATION = 1


def _resolve_m(m: int | None, m_bits: int | None) -> Modulus:
    if (m is None) == (m_bits is None):
        raise click.UsageError("specify exactly one of --m or --m-bits")
    try:
        return Modulus(m if m_bits is None else 2**m_bits)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _resolve_seed(seed: int | None) -> int:
    return seed if seed is not None else secrets.randbits(32)


def _echo(text: str, err: bool = False, nl: bool = True) -> None:
    """click.echo to the current sys.stdout or sys.stderr.

    Without a file, click.echo caches the stream in a WeakKeyDictionary
    whose value is the stream itself, so the entry never dies: a process
    that runs many commands with redirected streams would keep every one
    of them, and all the output written to it, alive.
    """
    click.echo(text, file=sys.stderr if err else sys.stdout, nl=nl)


@contextlib.contextmanager
def _stdout_may_close():
    """A reader closing stdout early (`| head`) is no crash: stdout then points at
    os.devnull, so the final flush succeeds, and the exit code reports the checks made."""
    try:
        yield
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, Quantity):
        value = value.to_json()
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    else:
        out[prefix] = value


def emit_report(report: dict, fmt: str) -> None:
    """Print a report as a table, JSON, or key,value CSV.

    The one place a ``Quantity`` becomes JSON: each one in the report prints
    as its ``to_json()`` dict, in every format. The CSV rows are the
    flattened (dotted-key) fields of the JSON object, so the two formats
    carry identical data field-for-field.
    """
    if fmt == "json":
        _echo(json.dumps(report, sort_keys=True, indent=2, default=Quantity.to_json))
        return
    flat: dict = {}
    _flatten("", report, flat)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key in sorted(flat):
            value = flat[key]
            writer.writerow([key, json.dumps(value) if value is not None else ""])
        _echo(buf.getvalue(), nl=False)
        return
    width = max((len(k) for k in flat), default=0)
    for key in sorted(flat):
        _echo(f"{key:<{width}}  {flat[key]}")


def _finish(report: dict, fmt: str) -> None:
    """Print the report with the program version; the one exit rule: exit 1
    if and only if one of its checks reads "fail"."""
    with _stdout_may_close():
        emit_report({"version": __version__, **report}, fmt)
    if "fail" in report.get("checks", {}).values():
        sys.exit(EXIT_VIOLATION)


def _options(*decorators):
    def apply(command):
        for decorator in reversed(decorators):
            command = decorator(command)
        return command

    return apply


_POSITIVE = click.IntRange(min=1)
_FORMAT = click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "json", "csv"]),
    default="table",
    show_default=True,
    help="Output format.",
)
_MODULUS = _options(
    click.option("--m", type=int, default=None, help="Group size."),
    click.option("--m-bits", type=_POSITIVE, default=None, help="Group size as 2**bits."),
)
_SEED = click.option("--seed", type=int, default=None, help="Base seed (generated and printed if omitted).")
_SAMPLING = _options(
    click.option("--samples", type=_POSITIVE, default=100_000, show_default=True),
    _SEED,
    click.option("--shards", type=_POSITIVE, default=1, show_default=True),
)
_N_K = _options(
    click.option("--n", type=_POSITIVE, required=True, help="Number of users."),
    click.option("--k", type=_POSITIVE, required=True, help="Shuffled shares per user."),
)


class _Group(click.Group):
    """Exits 2 on work over the budget, and 3, with the traceback on stderr, on
    any other exception not click's own: a crash never reads as a violated bound (1)."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except EnumerationBudgetError as exc:
            raise click.UsageError(str(exc)) from exc
        except Exception:
            traceback.print_exc()
            sys.exit(3)


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="shufflesum")
def main() -> None:
    """Split-and-mix secure summation: planning, simulation, verification."""


@main.command()
@click.option("--sigma", type=float, required=True, help="Target security exponent (bits).")
@click.option("--n", type=int, required=True, help="Number of users.")
@_MODULUS
@_FORMAT
def plan(sigma: float, n: int, m: int | None, m_bits: int | None, fmt: str) -> None:
    """Minimal messages per user for a target security level."""
    m_val = _resolve_m(m, m_bits).m
    try:
        result = plan_shuffled_k(sigma, n, m_val)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    report = {
        "params": {"sigma": sigma, "n": n, "m": m_val},
        "k_shuffled": result.k_shuffled,
        "total_messages": result.total_messages,
        "achieved_sigma": result.achieved_sigma,
        "baseline_k_lower_bound": baseline_k_lower_bound(sigma),
        "preconditions_ok": result.preconditions_ok,
    }
    _finish(report, fmt)


@main.command()
@_N_K
@_MODULUS
@click.option(
    "--variant",
    type=click.Choice(["plain", "randomized"]),
    default="plain",
    show_default=True,
)
@_SEED
@click.option("--runs", type=_POSITIVE, default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write transcripts (JSON lines) here instead of stdout.")
def simulate(n, k, m, m_bits, variant, seed, runs, out) -> None:
    """Run the protocol and record transcripts plus conservation checks."""
    mod = _resolve_m(m, m_bits)
    seed = _resolve_seed(seed)
    clear = variant == "randomized"
    failures = 0
    # run r is shard r's one draw, written as soon as it is made: memory stays at one run's worth
    draws = enumerate(shard_batches(runs, runs, n, k, seed))
    with _stdout_may_close(), click.open_file(out or "-", "w", encoding="utf-8") as fh:
        for r, (rng, size) in draws:
            inputs = rng.integers(0, mod.m, size=(size, n), dtype=np.uint64)
            blocks, clear_block = run_batch(inputs, k, mod, rng, clear)
            expected = sum(inputs[0].tolist()) % mod.m
            got = int(aggregate_batch(blocks, clear_block, mod)[0])
            conserved = got == expected
            failures += not conserved
            _echo(
                f"run {r}: input_sum={expected} aggregate={got} "
                f"conserved={'yes' if conserved else 'NO'}",
                err=True,
            )
            print(transcript_line(blocks, clear_block, 0, mod, derive_seed(seed, r)), file=fh)
    if out is not None:
        _echo(f"wrote {runs} transcript(s) to {out}", err=True)
    _echo(f"seed={seed}", err=True)
    if failures:
        _echo(f"{failures} conservation check(s) FAILED", err=True)
        sys.exit(EXIT_VIOLATION)


@main.group()
def verify() -> None:
    """Check measured quantities against the closed-form bounds."""


@verify.command("graph-dist")
@_N_K
@_SAMPLING
@_FORMAT
def verify_graph_dist(n, k, samples, seed, shards, fmt) -> None:
    """Empirical component-count law vs its closed-form bound."""
    seed = _resolve_seed(seed)
    counts = estimate_component_distribution(n, k, samples, seed, shards)
    halfwidth = hoeffding_halfwidth(samples)
    # lemma 4 is proved for n >= 19 and k >= 3 only; outside, nothing is checked
    preconditions = regime_flags(n, k)
    in_regime = all(preconditions.values())
    rows, checks = {}, {}
    for c, count in counts.items():
        bound = lemma4_probability_bound(n, k, c)
        freq = Quantity.sampled(count / samples, halfwidth, HOEFFDING_CONFIDENCE, samples, count)
        rows[str(c)] = {"count": count, "frequency": freq.value, "lemma4_bound": bound}
        checks[f"lemma4_c{c}"] = check(freq, "<=", bound) if in_regime else "not-applicable"
    report = {
        "params": {"n": n, "k": k},
        "samples": samples,
        "seed": seed,
        "shards": shards,
        "hoeffding_halfwidth": halfwidth,
        "components": rows,
        "preconditions_ok": preconditions,
        "checks": checks,
    }
    _finish(report, fmt)


@verify.command("graph-exp")
@_N_K
@_MODULUS
@_SAMPLING
@_FORMAT
def verify_graph_exp(n, k, m, m_bits, samples, seed, shards, fmt) -> None:
    """Monte Carlo E[m^C] vs its closed-form bound."""
    m_val = _resolve_m(m, m_bits).m
    seed = _resolve_seed(seed)
    estimate = estimate_m_power_C(n, k, m_val, samples, seed, shards)
    # the bound is proved for n >= 19, k >= 3 and the m-bound only; outside, nothing is checked
    preconditions = regime_flags(n, k, m=m_val)
    in_regime = all(preconditions.values())
    bound = expectation_bound(n, k, m_val) if in_regime else None
    report = {
        "params": {"n": n, "k": k, "m": m_val},
        "samples": samples,
        "seed": seed,
        "shards": shards,
        "estimate": estimate.value,
        "ci99_halfwidth": estimate.hi - estimate.value,
        "expectation_bound": bound,
        "preconditions_ok": preconditions,
        "checks": {"expectation_bound_mc": check(estimate, "<=", bound) if in_regime else "not-applicable"},
    }
    _finish(report, fmt)


@verify.command("tv-exact")
@_N_K
@_MODULUS
@_FORMAT
def verify_tv_exact(n, k, m, m_bits, fmt) -> None:
    """Exact average TV vs the exact collision-probability bound, both
    summed over block histograms; exit 2 past the work budget."""
    m_val = _resolve_m(m, m_bits).m
    tv = Quantity.exact(exact_avg_case_tv(n, k, m_val))
    collision = Quantity.exact(exact_collision_probability(n, k, m_val, CollisionMode.V_VS_V))
    radicand = collision.value * m_val ** (k * n - 1) - 1
    report = {
        "params": {"n": n, "k": k, "m": m_val},
        "exact_avg_tv": tv,
        "exact_collision": collision,
        "lemma1_bound": lemma1_bound(collision, n, k, m_val),
        # lemma 1 holds at every n, k and m
        "preconditions_ok": {},
        "checks": {"lemma1_exact_soundness": check(tv.value**2, "<=", radicand)},
    }
    _finish(report, fmt)


@verify.command("chain")
@_N_K
@_MODULUS
@_SAMPLING
@_FORMAT
def verify_chain_cmd(n, k, m, m_bits, samples, seed, shards, fmt) -> None:
    """Full bound-chain report: exact within the work budget, Monte Carlo always."""
    m_val = _resolve_m(m, m_bits).m
    _finish(verify_chain(n, k, m_val, samples, _resolve_seed(seed), shards), fmt)


if __name__ == "__main__":
    main()
