import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflesum import cli, oracle
from shufflesum.cli import main
from shufflesum.oracle import verify_chain
from shufflesum.randgraph import exact_m_power_C, expectation_bound, lemma4_probability_bound


@pytest.fixture
def runner():
    return CliRunner()


# --m or --m-bits, valid or not, for the exit-code fuzz tests
M_OPTION = st.one_of(
    st.tuples(st.just("--m"), st.integers(-1, 6)),
    st.tuples(st.just("--m-bits"), st.integers(-1, 70)),
)


# n or k past the one-draw budget of 10^7 entries, up past float range: each
# such example is refused at once, so the exit-code fuzz tests stay fast
EDGE_SIZES = st.sampled_from([10**7 + 1, 10**11, 2**63, 2**1023, 2**1100])


def sizes(low, high):
    return st.one_of(st.integers(low, high), EDGE_SIZES)


def run_cli(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def flatten(prefix, value, out):
    if isinstance(value, dict):
        for key, sub in value.items():
            flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            flatten(f"{prefix}.{i}", sub, out)
    else:
        out[prefix] = value
    return out


class TestPlan:
    def test_headline(self, runner):
        res = run_cli(runner, ["plan", "--sigma", "40", "--n", "10000", "--m-bits", "32", "--format", "json"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["k_shuffled"] == 11
        assert report["total_messages"] == 12
        assert report["baseline_k_lower_bound"] == 80.0
        assert report["params"]["m"] == 2**32

    def test_table_output_mentions_messages(self, runner):
        res = run_cli(runner, ["plan", "--sigma", "40", "--n", "10000", "--m-bits", "32"])
        assert res.exit_code == 0
        assert "total_messages" in res.output

    def test_small_n_is_usage_error(self, runner):
        res = run_cli(runner, ["plan", "--sigma", "40", "--n", "2", "--m", "2"])
        assert res.exit_code == 2

    def test_nonpositive_sigma_is_usage_error(self, runner):
        res = run_cli(runner, ["plan", "--sigma", "0", "--n", "100", "--m", "2"])
        assert res.exit_code == 2

    def test_m_flags_mutually_exclusive(self, runner):
        assert run_cli(runner, ["plan", "--sigma", "1", "--n", "100", "--m", "2", "--m-bits", "1"]).exit_code == 2
        assert run_cli(runner, ["plan", "--sigma", "1", "--n", "100"]).exit_code == 2

    @pytest.mark.parametrize("sigma", ["inf", "-inf", "nan"])
    def test_non_finite_sigma_is_usage_error(self, runner, sigma):
        res = run_cli(runner, ["plan", "--sigma", sigma, "--n", "10000", "--m-bits", "32"])
        assert res.exit_code == 2
        assert "sigma must be finite" in res.output

    def test_modulus_above_cap_is_usage_error(self, runner):
        # the same Modulus check as simulate: 2**63 is the largest m
        args = ["plan", "--sigma", "40", "--n", "10000", "--m-bits"]
        assert run_cli(runner, args + ["63"]).exit_code == 0
        res = run_cli(runner, args + ["70"])
        assert res.exit_code == 2
        assert "modulus must be <= 2**63" in res.output

    @settings(max_examples=200, deadline=None)
    @given(
        sigma=st.floats(allow_nan=True, allow_infinity=True),
        n=st.integers(-10, 10**12),
        m=st.one_of(
            st.tuples(st.just("--m"), st.integers(-5, 2**70)),
            st.tuples(st.just("--m-bits"), st.integers(-5, 200)),
        ),
    )
    def test_exit_code_in_contract(self, sigma, n, m):
        # any parameters: a result, a violated bound or a usage error, never a crash
        res = run_cli(CliRunner(), ["plan", "--sigma", repr(sigma), "--n", str(n), m[0], str(m[1])])
        assert res.exit_code in (0, 1, 2), res.output

    def test_small_sigma_small_n(self, runner):
        res = run_cli(runner, ["plan", "--sigma", "1", "--n", "19", "--m", "2", "--format", "json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["k_shuffled"] == 3

    def test_csv_json_equivalence(self, runner):
        args = ["plan", "--sigma", "40", "--n", "10000", "--m-bits", "32"]
        as_json = json.loads(run_cli(runner, args + ["--format", "json"]).output)
        flat = flatten("", as_json, {})
        rows = list(csv.DictReader(io.StringIO(run_cli(runner, args + ["--format", "csv"]).output)))
        from_csv = {r["key"]: r["value"] for r in rows}
        assert set(from_csv) == set(flat)
        for key, value in flat.items():
            rendered = json.dumps(value) if value is not None else ""
            assert from_csv[key] == rendered


class TestSimulate:
    def test_conservation_and_schema(self, runner, tmp_path):
        out = tmp_path / "runs.jsonl"
        res = run_cli(
            runner,
            ["simulate", "--n", "5", "--k", "3", "--m", "7", "--seed", "9", "--runs", "10", "--out", str(out)],
        )
        assert res.exit_code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 10
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"n", "k", "m", "variant", "blocks", "clear_block", "seed"}
            assert rec["variant"] == "plain" and len(rec["blocks"]) == 3
        assert out.read_text(encoding="utf-8").endswith("\n")

    def test_same_seed_byte_identical(self, runner, tmp_path):
        args = ["simulate", "--n", "4", "--k", "2", "--m-bits", "8", "--seed", "77", "--runs", "5"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(runner, args + ["--out", str(a)]).exit_code == 0
        assert run_cli(runner, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_numpy_stream_pin(self, runner, tmp_path):
        # Deliberate pin of the numpy Generator stream (NEP 19 allows it to
        # change between numpy versions): a shift moves these residues and
        # fails here, so the change is noticed rather than silent.
        out = tmp_path / "pin.jsonl"
        args = ["simulate", "--n", "4", "--k", "2", "--m-bits", "8", "--seed", "77", "--out", str(out)]
        assert run_cli(runner, args).exit_code == 0
        blocks = json.loads(out.read_text(encoding="utf-8").splitlines()[0])["blocks"]
        assert [v for block in blocks for v in block][:5] == [135, 216, 151, 132, 25]

    def test_stdout_matches_out_file(self, runner, tmp_path):
        args = ["simulate", "--n", "3", "--k", "2", "--m", "11", "--variant", "randomized",
                "--seed", "5", "--runs", "3"]
        out = tmp_path / "s.jsonl"
        assert run_cli(runner, args + ["--out", str(out)]).exit_code == 0
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert res.stdout == out.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "variant, digest",
        [
            ("randomized", "01f69e8f288d18d3e34d8970ce216d588160bdaf9247aa9273fb2fa96e7bfe6e"),
            ("plain", "368fe20f019a1548c37338386e76832f123200d4ddddea0998e74dfafe29fc1b"),
        ],
    )
    def test_paper_point_bytes_pin(self, runner, variant, digest):
        # the transcripts at the paper's point (n = 10^4, 12 messages, m = 2^32),
        # pinned byte for byte: a change of writer must not move a byte
        args = ["simulate", "--n", "10000", "--k", "11", "--m-bits", "32", "--seed", "5",
                "--runs", "3", "--variant", variant]
        res = run_cli(runner, args)
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest

    def test_failed_conservation_exits_1(self, runner, monkeypatch):
        # a wrong sum is reported on stderr and exits 1, as a violated bound does
        aggregate = cli.aggregate_batch
        monkeypatch.setattr(cli, "aggregate_batch", lambda *args: aggregate(*args) + 1)
        res = run_cli(runner, ["simulate", "--n", "3", "--k", "2", "--m", "11", "--seed", "5"])
        assert res.exit_code == 1
        assert "conserved=NO" in res.stderr and "1 conservation check(s) FAILED" in res.stderr

    def test_paper_point_memory(self, runner, tmp_path):
        # tracemalloc sees numpy's buffers: numpy formats the residues, so the
        # peak is a few share blocks, not a Python int and a str per residue
        args = ["simulate", "--n", "10000", "--k", "11", "--m-bits", "32", "--seed", "5",
                "--runs", "3", "--variant", "randomized", "--out", str(tmp_path / "t.jsonl")]
        tracemalloc.start()
        try:
            res = run_cli(runner, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == 0
        assert peak < 6 * 2**20, peak

    def test_randomized_variant_has_clear_block(self, runner, tmp_path):
        out = tmp_path / "r.jsonl"
        res = run_cli(
            runner,
            ["simulate", "--n", "6", "--k", "2", "--m", "5", "--variant", "randomized",
             "--seed", "3", "--runs", "2", "--out", str(out)],
        )
        assert res.exit_code == 0
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            assert rec["variant"] == "randomized"
            assert len(rec["clear_block"]) == 6

    def test_generated_seed_is_reported(self, runner):
        res = runner.invoke(main, ["simulate", "--n", "2", "--k", "1", "--m", "3"])
        assert res.exit_code == 0
        assert "seed=" in res.output

    def test_invalid_params_exit_2(self, runner):
        assert run_cli(runner, ["simulate", "--n", "0", "--k", "1", "--m", "3"]).exit_code == 2
        assert run_cli(runner, ["simulate", "--n", "2", "--k", "1", "--m", "1"]).exit_code == 2

    def test_over_budget_writes_no_file(self, runner, tmp_path):
        # the draw is refused before --out is opened
        out = tmp_path / "t.jsonl"
        args = ["simulate", "--n", str(2**1023), "--k", "3", "--m", "2", "--seed", "1", "--out", str(out)]
        res = run_cli(runner, args)
        assert res.exit_code == 2 and "one draw takes" in res.output
        assert not out.exists()

    @settings(max_examples=40, deadline=None)
    @given(
        n=sizes(-1, 6),
        k=sizes(-1, 4),
        m=M_OPTION,
        runs=st.integers(-1, 3),
        variant=st.sampled_from(["plain", "randomized"]),
    )
    def test_exit_code_in_contract(self, n, k, m, runs, variant):
        args = ["simulate", "--n", str(n), "--k", str(k), m[0], str(m[1]),
                "--runs", str(runs), "--variant", variant, "--seed", "1"]
        res = run_cli(CliRunner(), args)
        assert res.exit_code in (0, 1, 2), res.output


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "chain", "--n", "19", "--k", "3", "--m", "2", "--samples", "200", "--format", "json"],
        ["verify", "graph-exp", "--n", "19", "--k", "3", "--m", "2", "--samples", "200", "--format", "json"],
        ["verify", "graph-dist", "--n", "19", "--k", "3", "--samples", "200", "--format", "json"],
        ["simulate", "--n", "4", "--k", "2", "--m", "7", "--runs", "2"],
    ],
    ids=["chain", "graph-exp", "graph-dist", "simulate"],
)
def test_generated_seed_round_trip(runner, args):
    # a seed left out is generated and printed; passing it back reproduces the run
    first = run_cli(runner, args)
    assert first.exit_code in (0, 1)  # a sampled check may read "fail" at some seed
    if args[0] == "simulate":
        seed = int(re.search(r"^seed=(\d+)$", first.stderr, re.MULTILINE).group(1))
    else:
        seed = json.loads(first.stdout)["seed"]
    again = run_cli(runner, [*args, "--seed", str(seed)])
    assert again.exit_code == first.exit_code
    assert again.stdout_bytes == first.stdout_bytes


class TestVerify:
    def test_graph_dist_passes(self, runner):
        res = run_cli(
            runner,
            ["verify", "graph-dist", "--n", "19", "--k", "3", "--samples", "20000", "--seed", "7", "--format", "json"],
        )
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["seed"] == 7
        assert report["preconditions_ok"] == {"n>=19": True, "k>=3": True}
        assert report["checks"] == {f"lemma4_c{c}": "pass" for c in report["components"]}

    @pytest.mark.parametrize("n, k", [(19, 1), (18, 3)])
    def test_graph_dist_outside_regime_not_checked(self, runner, n, k):
        # lemma 4 is proved only for n >= 19 and k >= 3; at (19, 1) the
        # frequencies exceed its closed form, which is no violation
        res = run_cli(
            runner,
            ["verify", "graph-dist", "--n", str(n), "--k", str(k), "--samples", "20000", "--seed", "1",
             "--format", "json"],
        )
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["preconditions_ok"] == {"n>=19": n >= 19, "k>=3": k >= 3}
        assert report["checks"] == {f"lemma4_c{c}": "not-applicable" for c in report["components"]}

    @settings(max_examples=40, deadline=None)
    @given(
        n=sizes(-1, 25),
        k=sizes(-1, 4),
        samples=st.integers(-1, 50),
        shards=st.integers(-1, 3),
    )
    def test_graph_dist_exit_code_in_contract(self, n, k, samples, shards):
        args = ["verify", "graph-dist", "--n", str(n), "--k", str(k),
                "--samples", str(samples), "--shards", str(shards), "--seed", "1"]
        res = run_cli(CliRunner(), args)
        assert res.exit_code in (0, 1, 2), res.output
        if n < 19 or k < 3:
            assert res.exit_code != 1, res.output

    @settings(max_examples=40, deadline=None)
    @given(
        n=sizes(-1, 25),
        k=sizes(-1, 4),
        m=M_OPTION,
        samples=st.integers(-1, 50),
        shards=st.integers(-1, 3),
    )
    def test_graph_exp_exit_code_in_contract(self, n, k, m, samples, shards):
        args = ["verify", "graph-exp", "--n", str(n), "--k", str(k), m[0], str(m[1]),
                "--samples", str(samples), "--shards", str(shards), "--seed", "1"]
        res = run_cli(CliRunner(), args)
        assert res.exit_code in (0, 1, 2), res.output

    def test_graph_exp_passes(self, runner):
        res = run_cli(
            runner,
            ["verify", "graph-exp", "--n", "19", "--k", "3", "--m", "2", "--samples", "20000", "--seed", "8", "--format", "json"],
        )
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["checks"] == {"expectation_bound_mc": "pass"}
        assert report["preconditions_ok"] == {"n>=19": True, "k>=3": True, "m-bound": True}

    def test_graph_exp_outside_regime_not_checked(self, runner):
        # the closed form is proved for n >= 19, k >= 3 and m <= (1/2)(n/e)^(k-1)
        # only; outside, it is still reported, next to the estimate, but not checked
        for n, k, m, failed in ((19, 3, 25, "m-bound"), (18, 3, 2, "n>=19"), (19, 2, 2, "k>=3")):
            res = run_cli(
                runner,
                ["verify", "graph-exp", "--n", str(n), "--k", str(k), "--m", str(m), "--samples", "2000",
                 "--seed", "1", "--format", "json"],
            )
            assert res.exit_code == 0, (n, k, m)
            report = json.loads(res.output)
            assert report["checks"] == {"expectation_bound_mc": "not-applicable"}, (n, k, m)
            assert report["expectation_bound"] == expectation_bound(n, k, m), (n, k, m)
            assert report["preconditions_ok"][failed] is False, (n, k, m)
            assert sum(not ok for ok in report["preconditions_ok"].values()) == 1, (n, k, m)
            assert report["estimate"] >= m

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 40),
        k=st.integers(1, 5),
        m=st.integers(2, 2**63),
        samples=st.integers(1, 50),
    )
    def test_graph_exp_outside_regime_never_exits_1(self, n, k, m, samples):
        args = ["verify", "graph-exp", "--n", str(n), "--k", str(k), "--m", str(m),
                "--samples", str(samples), "--seed", "1", "--format", "json"]
        res = run_cli(CliRunner(), args)
        assert res.exit_code in (0, 1), res.output
        report = json.loads(res.output)
        flags = report["preconditions_ok"]
        assert (flags["n>=19"], flags["k>=3"]) == (n >= 19, k >= 3)
        if not all(flags.values()):
            assert res.exit_code == 0, res.output
            assert report["checks"] == {"expectation_bound_mc": "not-applicable"}
            assert report["expectation_bound"] == expectation_bound(n, k, m)

    def test_one_sample_interval_exact_limit(self, runner):
        # the one graph drawn here has C = 2: like any sample of one count, its
        # 99% interval is [m, m^c + m^n q] with q = 1 - 0.01^1, not [4, 4], and
        # refutes no bound, while the exact E[2^C] = 2.0056 lies under 2.0819
        args = ["--n", "19", "--k", "3", "--m", "2", "--samples", "1", "--seed", "256"]
        code, report = verify_json(runner, "graph-exp", *args)
        assert code == 0
        assert report["checks"] == {"expectation_bound_mc": "pass"}
        assert report["estimate"] == 4.0
        ends = [field(report, f"mc_m_power_c.{end}") for end in ("lo", "value", "hi")]
        assert ends == pytest.approx([2.0, 4.0, 519049.12], rel=1e-12)
        code, report = verify_json(runner, "chain", *args)
        assert code == 0
        assert report["checks"]["expectation_bound_mc"] == "pass"
        assert "fail" not in report["checks"].values()
        assert [field(report, f"mc_m_power_c.{end}") for end in ("lo", "value", "hi")] == ends

    @pytest.mark.parametrize("n", [18, 19, 40])
    @pytest.mark.parametrize("k", [2, 3])
    def test_chain_and_graph_exp_decide_the_expectation_bound_alike(self, runner, n, k):
        # both draw the same graphs from the same seed and rest on one closed
        # form, so they must gate and decide it alike, around the edge of
        # m <= (1/2)(n/e)^(k-1) too: 24.4 at (19, 3), 108 at (40, 3)
        for m in (2, 5, 24, 25, 100):
            chain = verify_chain(n, k, m, samples=200, seed=9)
            code, exp = verify_json(runner, "graph-exp", "--n", str(n), "--k", str(k), "--m", str(m),
                                    "--samples", "200", "--seed", "9")
            assert chain["checks"]["expectation_bound_mc"] == exp["checks"]["expectation_bound_mc"], m
            assert chain["preconditions_ok"]["m-bound"] == exp["preconditions_ok"]["m-bound"], m
            assert chain["mc_m_power_c"].value == exp["estimate"], m

    @pytest.mark.parametrize("m", [["--m", "1"], ["--m-bits", "64"]])
    def test_graph_exp_modulus_out_of_range_exit_2(self, runner, m):
        # the same Modulus check as plan, simulate and chain
        res = run_cli(runner, ["verify", "graph-exp", "--n", "19", "--k", "3", *m, "--samples", "10", "--seed", "1"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("m", [["--m", "1"], ["--m-bits", "64"]])
    def test_tv_exact_modulus_out_of_range_exit_2(self, runner, m):
        res = run_cli(runner, ["verify", "tv-exact", "--n", "2", "--k", "2", *m])
        assert res.exit_code == 2

    def test_tv_exact_past_float_range_exit_2(self, runner):
        # at n = 2^1023 the work reads inf, over the budget: exit 2, not a crash
        res = run_cli(runner, ["verify", "tv-exact", "--n", str(2**1023), "--k", "3", "--m", "2"])
        assert res.exit_code == 2 and "takes inf histogram updates" in res.output

    @settings(max_examples=40, deadline=None)
    @given(
        n=sizes(-1, 6),
        k=sizes(-1, 4),
        m=M_OPTION,
    )
    def test_tv_exact_exit_code_in_contract(self, n, k, m):
        # a result, a violated bound, or a usage or budget error; never a crash
        res = run_cli(CliRunner(), ["verify", "tv-exact", "--n", str(n), "--k", str(k), m[0], str(m[1])])
        assert res.exit_code in (0, 1, 2), res.output

    @settings(max_examples=40, deadline=None)
    @given(
        n=sizes(-1, 6),
        k=sizes(-1, 4),
        m=M_OPTION,
        samples=st.integers(-1, 50),
        shards=st.integers(-1, 3),
    )
    def test_chain_exit_code_in_contract(self, n, k, m, samples, shards):
        args = ["verify", "chain", "--n", str(n), "--k", str(k), m[0], str(m[1]),
                "--samples", str(samples), "--shards", str(shards), "--seed", "1"]
        res = run_cli(CliRunner(), args)
        assert res.exit_code in (0, 1, 2), res.output

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(17, 64),
        k=st.integers(1, 4),
        m_bits=st.integers(55, 63),
        samples=st.integers(1, 20),
    )
    def test_chain_exit_code_past_float_range(self, n, k, m_bits, samples):
        # exact E[m^C] here is often far past float range, and the exact
        # collision probability's fraction past str(int)'s digit limit; the
        # walk is over budget, so each example stays fast
        args = ["verify", "chain", "--n", str(n), "--k", str(k), "--m-bits", str(m_bits),
                "--samples", str(samples), "--seed", "1"]
        res = run_cli(CliRunner(), args)
        assert res.exit_code in (0, 1, 2), res.output

    def test_chain_exact_m_power_c_past_float_range(self, runner):
        args = ["verify", "chain", "--n", "19", "--k", "3", "--m-bits", "63",
                "--samples", "2000", "--seed", "1", "--format", "json"]
        res = run_cli(runner, args)
        assert res.exit_code == 0, res.output
        exact = json.loads(res.output)["exact_m_power_c"]
        assert Fraction(exact["fraction"]) == exact_m_power_C(19, 3, 2**63)
        assert exact["value"] == float("inf")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_chain_fraction_past_the_digit_limit(self, runner, fmt):
        # E[2^C] = (2^20000 + 1) / 2^19999 and V, E[2^C] / 2^40000, have more
        # digits than str(int) writes by default; the report still writes them
        args = ["verify", "chain", "--n", "2", "--k", "20000", "--m", "2",
                "--samples", "1", "--seed", "1", "--format", fmt]
        res = run_cli(runner, args)
        assert res.exit_code == 0, res.output
        v = oracle.exact_collision(2, 20000, 2, exact_m_power_C(2, 20000, 2))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            fraction = f"{v.numerator}/{v.denominator}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(fraction) > limit
        if fmt == "json":
            assert json.loads(res.output)["exact_collision_v"]["fraction"] == fraction
        else:
            (line,) = [line for line in res.output.splitlines() if line.startswith("exact_collision_v.fraction ")]
            assert line.split()[1] == fraction

    def test_chain_collision_over_its_budget(self, runner):
        # at m = 2^63 V's denominator has 2.5e6 bits: E[m^C] is exact, V is
        # refused by its own cost and reads null, and the command still passes
        args = ["verify", "chain", "--n", "2", "--k", "20000", "--m-bits", "63",
                "--samples", "1", "--seed", "1", "--format", "json"]
        res = run_cli(runner, args)
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["exact_collision_v"] is None and report["exact_collision_e"] is None
        assert report["exact_m_power_c"]["provenance"] == "exact"
        assert report["exact_work"]["exact_collision_v"] > report["exact_work"]["budget"]

    def test_chain_theorem_bound_past_float_range(self, runner):
        # at n = 2 < e, sigma falls without bound as k grows: 2^-sigma is past float range
        args = ["verify", "chain", "--n", "2", "--k", "5000", "--m", "2",
                "--samples", "10", "--seed", "1", "--format", "json"]
        res = run_cli(runner, args)
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["theorem1_bound"] == float("inf")
        assert report["checks"]["graph_route_le_theorem1"] == "not-applicable"

    def test_tv_exact_small_instance(self, runner):
        res = run_cli(runner, ["verify", "tv-exact", "--n", "3", "--k", "2", "--m", "2", "--format", "json"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["checks"] == {"lemma1_exact_soundness": "pass"}
        assert report["exact_avg_tv"]["fraction"] == "3/16"
        assert report["exact_avg_tv"]["provenance"] == "exact"

    def test_tv_exact_over_budget_exit_2(self, runner):
        res = run_cli(runner, ["verify", "tv-exact", "--n", "9", "--k", "3", "--m", "4"])
        assert res.exit_code == 2

    def test_chain_small_instance(self, runner):
        res = run_cli(
            runner,
            ["verify", "chain", "--n", "3", "--k", "2", "--m", "2", "--samples", "5000", "--seed", "5", "--format", "json"],
        )
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["exact_collision_e"] == report["exact_collision_v"]
        assert report["version"]

    @pytest.mark.parametrize("args", [
        ["chain", "--n", "2", "--k", "2", "--m", "2", "--samples", "2000", "--seed", "6"],
        ["graph-dist", "--n", "19", "--k", "3", "--samples", "500", "--seed", "6"],
        ["graph-exp", "--n", "19", "--k", "3", "--m", "5", "--samples", "500", "--seed", "6"],
        ["tv-exact", "--n", "3", "--k", "2", "--m", "2"],
    ], ids=lambda args: args[0])
    def test_csv_json_equivalence(self, runner, args):
        # every Quantity goes through the printer's flattener as through its JSON
        as_json = json.loads(run_cli(runner, ["verify", *args, "--format", "json"]).output)
        flat = flatten("", as_json, {})
        rows = list(csv.DictReader(io.StringIO(run_cli(runner, ["verify", *args, "--format", "csv"]).output)))
        from_csv = {r["key"]: r["value"] for r in rows}
        assert set(from_csv) == set(flat)
        for key, value in flat.items():
            assert from_csv[key] == (json.dumps(value) if value is not None else ""), key

    def test_chain_rejects_degenerate_m(self, runner):
        assert run_cli(runner, ["verify", "chain", "--n", "2", "--k", "2", "--m", "1", "--seed", "1"]).exit_code == 2

    def test_chain_rejects_modulus_above_cap(self, runner):
        # the same Modulus check as plan and simulate
        args = ["verify", "chain", "--n", "2", "--k", "2", "--m-bits", "64", "--samples", "10", "--seed", "1"]
        res = run_cli(runner, args)
        assert res.exit_code == 2
        assert "modulus must be <= 2**63" in res.output


STATUSES = {"pass", "fail", "unavailable", "not-applicable"}


def verify_json(runner, *args):
    res = run_cli(runner, ["verify", *args, "--format", "json"])
    report = json.loads(res.output)
    assert set(report["checks"].values()) <= STATUSES, report["checks"]
    assert isinstance(report["preconditions_ok"], dict)
    return res.exit_code, report


def field(report, dotted):
    for key in dotted.split("."):
        report = report[key]
    return report


VERIFY_ARGS = {
    "chain": ["chain", "--n", "19", "--k", "3", "--m", "2", "--samples", "500", "--seed", "1"],
    "graph-exp": ["graph-exp", "--n", "19", "--k", "3", "--m", "2", "--samples", "2000", "--seed", "1"],
    "graph-dist": ["graph-dist", "--n", "19", "--k", "3", "--samples", "2000", "--seed", "1"],
    "tv-exact": ["tv-exact", "--n", "3", "--k", "2", "--m", "2"],
}


class TestOneExitRule:
    """Every verify command reports checks: {name: status}, and exits 1 iff one reads "fail"."""

    @pytest.mark.parametrize("command", list(VERIFY_ARGS))
    def test_passing_report_exits_0(self, runner, command):
        code, report = verify_json(runner, *VERIFY_ARGS[command])
        assert code == 0 and report["checks"]
        assert "fail" not in report["checks"].values()

    @pytest.mark.parametrize(
        "command, target, patch, failing",
        [
            ("chain", (oracle, "theorem_bound"), lambda n, k, m: 0.0, "graph_route_le_theorem1"),
            ("graph-exp", (cli, "expectation_bound"), lambda n, k, m: 1.0, "expectation_bound_mc"),
            # Pr[C = 1] is near 1, far above a zero bound and its Hoeffding halfwidth
            ("graph-dist", (cli, "lemma4_probability_bound"),
             lambda n, k, c: 0.0 if c == 1 else lemma4_probability_bound(n, k, c), "lemma4_c1"),
            ("tv-exact", (cli, "exact_avg_tv"), lambda n, k, m: Fraction(1), "lemma1_exact_soundness"),
        ],
    )
    def test_one_failed_check_exits_1(self, runner, monkeypatch, command, target, patch, failing):
        monkeypatch.setattr(*target, patch)
        code, report = verify_json(runner, *VERIFY_ARGS[command])
        assert code == 1
        assert [name for name, status in report["checks"].items() if status == "fail"] == [failing]

    def test_one_lemma1_radicand(self, runner, monkeypatch):
        # chain and tv-exact both decide lemma 1 on oracle.lemma1_radicand
        assert cli.lemma1_radicand is oracle.lemma1_radicand
        for module in (oracle, cli):
            monkeypatch.setattr(module, "lemma1_radicand", lambda x, exponent, m: Fraction(-1))
        for args in (["chain", "--n", "4", "--k", "3", "--m", "2", "--samples", "100", "--seed", "1"],
                     ["tv-exact", "--n", "3", "--k", "2", "--m", "2"]):
            code, report = verify_json(runner, *args)
            assert code == 1 and report["checks"]["lemma1_exact_soundness"] == "fail"

    def test_bound_at_the_planners_k(self, runner):
        # the float m + m^2 (e/n)^(k-1) rounds to m here, while the exact
        # E[2^C] is 2 + 1.6e-37: the check decides on the excess over m
        plan = run_cli(runner, ["plan", "--sigma", "40", "--n", "19", "--m", "2", "--format", "json"])
        assert json.loads(plan.output)["k_shuffled"] == 30
        args = ["--n", "19", "--k", "30", "--m", "2", "--samples", "100", "--seed", "1"]
        code, report = verify_json(runner, "chain", *args)
        assert code == 0
        assert report["checks"]["expectation_bound_exact"] == "pass"


class TestReportBytesPin:
    """Reports pinned byte for byte, digests taken before the cost, radicand,
    frequency and float-range helpers were each given one site; the table and
    CSV digests before those views were parsed from the JSON text. The chain
    digests were re-taken once exact_collision_e became exact_collision_v's
    record, without a cost or identity check of its own, and again once that
    record became E[m^C] / m^(kn), with its cost in word products and no
    lemma-3 check comparing it with itself; tv-exact's bytes did not move."""

    @pytest.mark.parametrize(
        "args, digest",
        [
            (["chain", "--n", "19", "--k", "3", "--m", "2", "--samples", "500", "--seed", "1"],
             "8c41d3f9e4acdcabffd1b695a8be596362906825ff77b1f1ae3bc51dfcf66877"),
            (["chain", "--n", "3", "--k", "3", "--m", "2", "--samples", "500", "--seed", "2"],
             "69b1ddd83d9ac5d9f52a28047c57bd985b25296444f6ce6b0d5a11ceecd32c58"),
            (["chain", "--n", "4", "--k", "2", "--m", "2", "--samples", "500", "--seed", "3"],
             "28cc3ea29094f9be17d7b1c8bc2a33d5617f92444bd591591f7e44ac9a6b09c1"),
            (["chain", "--n", "3", "--k", "2", "--m", "3", "--samples", "500", "--seed", "4"],
             "47cbb2e72fb0ab4111da90c6388e8e347d1c9a2042f332e122bac952be2eb4ac"),
            (["chain", "--n", "4", "--k", "3", "--m", "2", "--samples", "500", "--seed", "5"],
             "f2b8a53e3749d21e2c92b27d09c7ba110168bfe0b85f61499965cdc0e9d19230"),
            (["chain", "--n", "5", "--k", "2", "--m", "2", "--samples", "500", "--seed", "6"],
             "29f8fe49dad1eaf4c72c47bc1d83c3bdfbcb395faa64f035644ff2f2cc794114"),
            (["chain", "--n", "19", "--k", "385", "--m", "2", "--samples", "100", "--seed", "7"],
             "7cc6e892b8ecc71f950dc99fb4029e13d79d21e687532eecbcb252e8f627de9a"),
            (["chain", "--n", "60", "--k", "1", "--m-bits", "32", "--samples", "200", "--seed", "8"],
             "d4ca7bc4235b7703554a6d665988e5496a4a5cddbe0124756347b779116d0a33"),
            (["tv-exact", "--n", "3", "--k", "2", "--m", "2"],
             "590db536c53991b9d263c82d02d331b89f57c2af457eeb272f62714bbde30aef"),
            (["graph-exp", "--n", "19", "--k", "3", "--m", "5", "--samples", "2000", "--seed", "9"],
             "00c29cdb0f7ac12c8847d25599873a513ff413d2e04da7d1ef3acd7760c7f7e7"),
            (["graph-dist", "--n", "1000", "--k", "3", "--samples", "200", "--seed", "10"],
             "82a7a6256dec0bec33fa0d36be3833171228789a78581a32e09e146f6447a6b3"),
        ],
        ids=["chain-ref", "chain-332", "chain-422", "chain-323", "chain-432", "chain-522", "chain-k385",
             "chain-k1-m32", "tv-exact", "graph-exp", "graph-dist"],
    )
    def test_report_bytes_pin(self, runner, args, digest):
        res = run_cli(runner, ["verify", *args, "--format", "json"])
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest

    VIEWS = {
        "chain-ref": ["verify", "chain", "--n", "19", "--k", "3", "--m", "2", "--samples", "500", "--seed", "1"],
        "tv-exact": ["verify", "tv-exact", "--n", "3", "--k", "2", "--m", "2"],
        "graph-exp": ["verify", "graph-exp", "--n", "19", "--k", "3", "--m", "5", "--samples", "2000", "--seed", "9"],
        "graph-dist": ["verify", "graph-dist", "--n", "1000", "--k", "3", "--samples", "200", "--seed", "10"],
        "plan": ["plan", "--sigma", "40", "--n", "10000", "--m-bits", "32"],
    }

    @pytest.mark.parametrize(
        "name, fmt, digest",
        [
            ("chain-ref", "table", "46b3f0669bfccc57af7720cca210df4d73f706ad3e70e7ec2f1f5e3d30eddb3d"),
            ("chain-ref", "csv", "c33c80b194f04c0443dd8b17f64c2c0cce4206cc431ddbef45123268bb6f74bc"),
            ("tv-exact", "table", "30261be6ca2f8c400d0af417ed086eaf118e84a6ca8fe32846935aa38377856a"),
            ("tv-exact", "csv", "f27a83184a68d34c5c2fdefd0526031c205f703fafd20e39f264b0148dda2f6a"),
            ("graph-exp", "table", "6d99cf9b014d324ff48b6e12a7d1b941e1825351c19decf2d30d80b1de1a40b2"),
            ("graph-exp", "csv", "afb82f044d265156c487dcfb56fc7715ce2c4312446228f0f64688044bcb735d"),
            ("graph-dist", "table", "28accb0841fd3fae39b7eb625f6ee1d71c9e99e84cc31976c642366fc179eb8f"),
            ("graph-dist", "csv", "83ff543c4339555a20f2350c1a7b9aaa10fe328d8f6acee28bb9c42ce3725680"),
            ("plan", "table", "5b294bb6924df1509ee3d64537350eed6530a96c91c27e4c53a86e6f144b3624"),
            ("plan", "csv", "b4a2ebb7b3ab9e609705acabf356d5caf46b4f0d1a99317dba60ce19b9f8f3ae"),
        ],
        ids=[f"{name}-{fmt}" for name in VIEWS for fmt in ("table", "csv")],
    )
    def test_view_bytes_pin(self, runner, name, fmt, digest):
        res = run_cli(runner, [*self.VIEWS[name], "--format", fmt])
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


class TestOneWalk:
    """A command walks the histogram laws at most once, for the exact TV alone."""

    @pytest.mark.parametrize(
        "command, walks",
        [
            (lambda runner: verify_chain(4, 3, 2, samples=10, seed=1), 1),
            (lambda runner: run_cli(runner, ["verify", "tv-exact", "--n", "4", "--k", "3", "--m", "2"]), 1),
            # TV fits; V and E are E[m^C] / m^(kn), from no walk
            (lambda runner: verify_chain(10, 3, 2, samples=10, seed=1), 1),
            # TV does not fit the budget at the reference point
            (lambda runner: verify_chain(19, 3, 2, samples=10, seed=1), 0),
        ],
        ids=["chain", "tv-exact", "chain-1032", "chain-over-budget"],
    )
    def test_walks(self, runner, monkeypatch, command, walks):
        calls = []
        laws = oracle.histogram_laws
        monkeypatch.setattr(oracle, "histogram_laws", lambda *args: calls.append(args) or laws(*args))
        command(runner)
        assert len(calls) == walks


class TestBenchmarkPaths:
    """The report fields the benchmark reads keep their paths and types."""

    def test_chain_reference_point(self, runner):
        args = ["--n", "19", "--k", "3", "--m", "2", "--samples", "500", "--seed", "3"]
        code, report = verify_json(runner, "chain", *args)
        assert code == 0
        assert isinstance(report["theorem1_bound"], float)
        assert isinstance(field(report, "mc_m_power_c.value"), float)
        for mode in ("v", "e"):
            assert field(report, f"mc_collision_{mode}.hits") == 0
            assert field(report, f"mc_collision_{mode}.samples") == 0
            assert field(report, f"mc_collision_{mode}.value") is None
            assert field(report, f"mc_collision_{mode}.provenance") == "uninformative"

    @pytest.mark.parametrize("n, k, m", [(3, 3, 2), (4, 2, 2), (3, 2, 3), (4, 3, 2), (5, 2, 2)])
    def test_chain_exact_instances(self, runner, n, k, m):
        code, report = verify_json(runner, "chain", "--n", str(n), "--k", str(k), "--m", str(m),
                                   "--samples", "500", "--seed", "3")
        assert code == 0
        assert Fraction(field(report, "exact_m_power_c.fraction")) == exact_m_power_C(n, k, m)
        assert isinstance(field(report, "mc_m_power_c.value"), float)
        for mode in ("v", "e"):
            assert isinstance(field(report, f"mc_collision_{mode}.value"), float)
            assert isinstance(field(report, f"mc_collision_{mode}.hits"), int)
        if (n, k, m) in [(3, 3, 2), (4, 2, 2), (3, 2, 3)]:
            for name in ("exact_avg_tv", "exact_collision_v", "exact_collision_e"):
                Fraction(field(report, f"{name}.fraction"))

    @pytest.mark.parametrize("m", [2, 5, 24])
    def test_graph_exp(self, runner, m):
        code, report = verify_json(runner, "graph-exp", "--n", "19", "--k", "3", "--m", str(m),
                                   "--samples", "7500", "--seed", "3")
        assert code == 0
        assert isinstance(report["estimate"], float) and report["estimate"] >= m

    def test_graph_dist(self, runner):
        code, report = verify_json(runner, "graph-dist", "--n", "1000", "--k", "3", "--samples", "500", "--seed", "3")
        assert code == 0
        assert sum(field(report, f"components.{c}.count") for c in report["components"]) == 500


@pytest.mark.parametrize(
    "n, k, m", [(2, 2, 16), (3, 2, 7), (7, 1, 256), (10, 1, 5), (3, 3, 2), (4, 2, 2), (3, 2, 3), (4, 3, 2), (5, 2, 2)]
)
def test_informative_collision_samples_are_drawn(runner, n, k, m):
    # points where a collision sample records hits, and the chain-exact
    # instances (1.95 to 31 expected hits at 500 samples by samples m^-((k-1)n)):
    # both samplers draw every sample asked for
    code, report = verify_json(runner, "chain", "--n", str(n), "--k", str(k), "--m", str(m),
                               "--samples", "500", "--seed", "5")
    assert code == 0
    assert report["collision_hits_log2_bound"] == math.log2(500) - (k - 1) * n * math.log2(m)
    for mode in ("v", "e"):
        assert field(report, f"mc_collision_{mode}.provenance") == "monte-carlo"
        assert field(report, f"mc_collision_{mode}.samples") == 500
    assert report["checks"]["lemma2_mc_consistency"] == "pass"


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "chain", "--n", str(2**1023), "--k", "3", "--m", "2", "--samples", "1", "--seed", "1"],
        ["verify", "chain", "--n", "2", "--k", str(2**1100), "--m", "2", "--samples", "1", "--seed", "1"],
        ["verify", "tv-exact", "--n", "2", "--k", str(2**1100), "--m", "2"],
        ["verify", "tv-exact", "--n", str(2**1100), "--k", "3", "--m-bits", "63"],
        ["verify", "graph-dist", "--n", "100000000000", "--k", "3", "--samples", "1", "--seed", "1"],
        ["verify", "graph-dist", "--n", "19", "--k", "20000000", "--samples", "1", "--seed", "1"],
        ["verify", "graph-exp", "--n", "19", "--k", str(2**1100), "--m", "2", "--samples", "1", "--seed", "1"],
        ["simulate", "--n", str(2**1023), "--k", "3", "--m", "2", "--seed", "1"],
    ],
    ids=["chain-n", "chain-k", "tv-exact-k", "tv-exact-n", "graph-dist-n", "graph-dist-k", "graph-exp-k", "simulate-n"],
)
def test_over_budget_exit_2(runner, args):
    # a draw of more than 10^7 entries, or an exact quantity whose work reads
    # inf, is refused with click's error line; no numpy traceback, no long run.
    # Sizes from 2^64 print as log2 figures, so the line stays short
    res = run_cli(runner, args)
    assert res.exit_code == 2, res.output
    (line,) = [line for line in res.output.splitlines() if line.startswith("Error: ")]
    assert "over the budget" in line and len(line) < 200, line
    assert "Traceback" not in res.output


def test_crash_exits_3_with_traceback(runner, monkeypatch):
    # 1 means a violated bound, so an unexpected error must not exit 1
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "verify_chain", crash)
    res = run_cli(runner, ["verify", "chain", "--n", "2", "--k", "2", "--m", "2", "--samples", "10", "--seed", "1"])
    assert res.exit_code == 3
    assert "Traceback" in res.stderr and "RuntimeError: boom" in res.stderr


def close_after_first_bytes(args, prelude=""):
    """Run the CLI in a process whose stdout reader closes the pipe after
    100 bytes; return its exit code and stderr."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"from shufflesum import cli\n{prelude}\ncli.main()"
    with subprocess.Popen(
        [sys.executable, "-c", code, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        return proc.wait(timeout=120), stderr


class TestClosedStdout:
    def test_simulate_stops_at_the_closed_pipe(self):
        # each transcript is over 1 MB, so the reader is gone before the
        # first one is written; the second write at the latest ends the runs
        args = ["simulate", "--n", "10000", "--k", "11", "--m-bits", "32", "--runs", "3", "--seed", "1"]
        code, stderr = close_after_first_bytes(args)
        assert code == 0, stderr
        assert "Traceback" not in stderr and "Exception ignored" not in stderr
        assert "run 0: " in stderr and "run 2: " not in stderr and "seed=1" in stderr

    def test_failed_verify_still_exits_1(self):
        # a zero lemma-4 bound fails every check; the report, written many
        # times over, outlasts the reader
        prelude = (
            "cli.lemma4_probability_bound = lambda n, k, c: 0.0\n"
            "emit = cli.emit_report\n"
            "cli.emit_report = lambda report, fmt: [emit(report, fmt) for _ in range(10_000)]"
        )
        args = ["verify", "graph-dist", "--n", "19", "--k", "3", "--samples", "100", "--seed", "1"]
        code, stderr = close_after_first_bytes(args, prelude)
        assert code == 1, stderr
        assert "Traceback" not in stderr and "Exception ignored" not in stderr


def test_version_flag(runner):
    res = run_cli(runner, ["--version"])
    assert res.exit_code == 0 and "0.1.0" in res.output
