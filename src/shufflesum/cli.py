"""Command-line front end: plan message counts, simulate protocol runs,
and verify the measured quantities against the closed-form bounds.

Every verify report holds ``preconditions_ok`` and ``checks``, each status
decided by ``oracle.check``. Chain's checks, and its collision records, are
those of ``oracle.verify_chain``. graph-exp checks expectation_bound_mc, on
lemma 4's E[m^C] bound, and prints its E[m^C] record as mc_m_power_c, as
chain does, and its mean also as estimate; graph-dist checks lemma4_c<c> per
component count c seen; tv-exact checks lemma1_exact_soundness on the
walk's exact TV and chain's exact_collision_v, E[m^C] / m^(kn), refusing
TV's work first. Formats: table, one-line JSON, or key,value CSV
(``emit_report``). Exit codes: 0 no check reads "fail", 1 one does
(simulate: a conservation check failed), 2 invalid or over-budget
parameters, 3 an unexpected error (traceback on stderr). Seeds are always
explicit in the output; a seed that was not supplied is generated once and
recorded.
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
    check,
    exact_avg_tv,
    exact_collision,
    hoeffding_halfwidth,
    lemma1_bound,
    lemma1_radicand,
    sampled_frequency,
    verify_chain,
)
from .planner import baseline_k_lower_bound, plan_shuffled_k, regime_flags
from .protocol import Modulus, aggregate_batch, run_batch, transcript_line
from .randgraph import (
    EnumerationBudgetError,
    Quantity,
    estimate_component_distribution,
    estimate_m_power_C,
    exact_m_power_C,
    expectation_bound,
    lemma4_probability_bound,
    shard_batches,
)

EXIT_VIOLATION = 1


def _resolve_m(m: int | None, m_bits: int | None) -> Modulus:
    if (m is None) == (m_bits is None):
        raise click.UsageError("specify exactly one of --m or --m-bits")
    try:
        return Modulus(m if m_bits is None else 2**m_bits)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


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
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    else:
        out[prefix] = value


def emit_report(report: dict, fmt: str) -> None:
    """Print a report as a table, JSON, or key,value CSV.

    The one place a ``Quantity`` becomes JSON: the report is dumped once,
    each ``Quantity`` as its ``to_json()`` dict, on one line (no ``indent``,
    so ``json.dumps`` runs its C encoder). ``--format json`` prints that
    text; table and CSV are views of it, the flattened (dotted-key) fields of
    the object it parses to, field for field.
    """
    text = json.dumps(report, sort_keys=True, default=Quantity.to_json)
    if fmt == "json":
        _echo(text)
        return
    flat: dict = {}
    _flatten("", json.loads(text), flat)
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
# the one site that generates a seed: click calls the default only when --seed is absent
_SEED = click.option("--seed", type=int, default=lambda: secrets.randbits(32),
                     help="Base seed (generated and printed if omitted).")
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
            clear_row = None if clear_block is None else clear_block[0]
            print(transcript_line(blocks[0], clear_row, mod, rng.bit_generator.seed_seq.entropy), file=fh)
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
    counts = estimate_component_distribution(n, k, samples, seed, shards)
    preconditions = regime_flags(n, k)
    rows, checks = {}, {}
    for c, count in counts.items():
        bound = lemma4_probability_bound(n, k, c)
        freq = sampled_frequency(count, samples)
        rows[str(c)] = {"count": count, "frequency": freq.value, "lemma4_bound": bound}
        checks[f"lemma4_c{c}"] = check(freq, "<=", bound, preconditions)
    report = {
        "params": {"n": n, "k": k},
        "samples": samples,
        "seed": seed,
        "shards": shards,
        "hoeffding_halfwidth": hoeffding_halfwidth(samples),
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
    estimate = estimate_m_power_C(n, k, m_val, samples, seed, shards)
    preconditions = regime_flags(n, k, m=m_val)
    bound = expectation_bound(n, k, m_val)
    report = {
        "params": {"n": n, "k": k, "m": m_val},
        "samples": samples,
        "seed": seed,
        "shards": shards,
        "estimate": estimate.value,
        "mc_m_power_c": estimate,
        "expectation_bound": bound,
        "preconditions_ok": preconditions,
        "checks": {"expectation_bound_mc": check(estimate, "<=", bound, preconditions)},
    }
    _finish(report, fmt)


@verify.command("tv-exact")
@_N_K
@_MODULUS
@_FORMAT
def verify_tv_exact(n, k, m, m_bits, fmt) -> None:
    """Exact average TV, summed over block histograms, vs lemma 1's bound on
    the exact collision probability E[m^C] / m^(kn); exit 2 past the work budget."""
    m_val = _resolve_m(m, m_bits).m
    tv = Quantity.exact(exact_avg_tv(n, k, m_val))
    collision = Quantity.exact(exact_collision(n, k, m_val, exact_m_power_C(n, k, m_val)))
    radicand = lemma1_radicand(collision.value, k * n - 1, m_val)
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
    _finish(verify_chain(n, k, m_val, samples, seed, shards), fmt)


if __name__ == "__main__":
    main()
