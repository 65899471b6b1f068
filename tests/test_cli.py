import csv
import hashlib
import io
import json
import os
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
from shufflesum.randgraph import exact_m_power_C, lemma4_probability_bound


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
        # only; outside, the estimate is reported and nothing is checked
        for n, k, m, failed in ((19, 3, 25, "m-bound"), (18, 3, 2, "n>=19"), (19, 2, 2, "k>=3")):
            res = run_cli(
                runner,
                ["verify", "graph-exp", "--n", str(n), "--k", str(k), "--m", str(m), "--samples", "2000",
                 "--seed", "1", "--format", "json"],
            )
            assert res.exit_code == 0, (n, k, m)
            report = json.loads(res.output)
            assert report["checks"] == {"expectation_bound_mc": "not-applicable"}, (n, k, m)
            assert report["expectation_bound"] is None, (n, k, m)
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
            assert report["expectation_bound"] is None

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
        # exact E[m^C] here is often far past float range; every exact
        # transcript law is over budget, so each example stays fast
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
        assert report["checks"]["lemma2_exact_identity"] == "pass"
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
            ("tv-exact", (cli, "exact_avg_case_tv"), lambda n, k, m: Fraction(1), "lemma1_exact_soundness"),
        ],
    )
    def test_one_failed_check_exits_1(self, runner, monkeypatch, command, target, patch, failing):
        monkeypatch.setattr(*target, patch)
        code, report = verify_json(runner, *VERIFY_ARGS[command])
        assert code == 1
        assert [name for name, status in report["checks"].items() if status == "fail"] == [failing]

    def test_bound_at_the_planners_k(self, runner):
        # the float m + m^2 (e/n)^(k-1) rounds to m here, while the exact
        # E[2^C] is 2 + 1.6e-37: the check decides on the excess over m
        plan = run_cli(runner, ["plan", "--sigma", "40", "--n", "19", "--m", "2", "--format", "json"])
        assert json.loads(plan.output)["k_shuffled"] == 30
        args = ["--n", "19", "--k", "30", "--m", "2", "--samples", "100", "--seed", "1"]
        code, report = verify_json(runner, "chain", *args)
        assert code == 0
        assert report["checks"]["expectation_bound_exact"] == "pass"


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
            assert field(report, f"mc_collision_{mode}.value") == 0.0

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
