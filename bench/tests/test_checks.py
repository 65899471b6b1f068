"""Every output check accepts the program's real output and rejects a
deliberately corrupted copy of it."""

import copy
import json

import pytest

import run
import workloads


class Recorder(run.Session):
    """A session that keeps every command's output and every failed check."""

    def __init__(self, cli_main=None):
        super().__init__(cli_main)
        self.outputs = []
        self.failures = []

    def check(self, what, predicate):
        ok = super().check(what, predicate)
        if not ok:
            self.failures.append(what)
        return ok

    def command(self, args, out_file=None):
        code, out, err = super().command(args, out_file)
        text = out_file.read_text() if out_file is not None and out_file.exists() else None
        self.outputs.append((code, out, err, text))
        return code, out, err


@pytest.fixture(scope="module")
def recorded():
    """name -> (recorder, reference) after one real round of each workload."""
    cli = run.import_program()
    run.OUT_DIR.mkdir(exist_ok=True)
    done = {}
    for name, (prepare, round_fn) in workloads.WORKLOADS.items():
        ref = prepare()
        recorder = Recorder(cli.main)
        round_fn(recorder, 7, ref)
        done[name] = (recorder, ref)
    return done


def failures(check, *args) -> list[str]:
    recorder = Recorder()
    check(recorder, *args)
    return recorder.failures


def test_real_outputs_pass_every_check(recorded):
    for name, (recorder, _) in recorded.items():
        assert recorder.attempted > 0 and recorder.failures == [], name


def test_plan_checks_reject_corruption(recorded):
    recorder, ref = recorded["simulate-paper"]
    plan = json.loads(recorder.outputs[0][1])
    assert failures(workloads.check_plan, plan, ref) == []
    assert len(failures(workloads.check_plan, {**plan, "k_shuffled": 10}, ref)) == 2
    assert len(failures(workloads.check_plan, {**plan, "total_messages": 13}, ref)) == 1
    assert len(failures(workloads.check_plan, {}, ref)) == 2


def test_transcript_checks_reject_corruption(recorded):
    recorder, ref = recorded["simulate-paper"]
    _, _, err, text = recorder.outputs[1]
    lines = text.splitlines()
    sums = workloads.reported_input_sums(err)
    k, m = ref["k"], ref["m"]
    assert failures(workloads.check_transcripts, lines, sums, k, m) == []

    def corrupt(edit):
        record = json.loads(lines[0])
        edit(record)
        return [json.dumps(record)] + lines[1:]

    def bump(record):
        record["blocks"][0][0] = (record["blocks"][0][0] + 1) % m

    def out_of_range(record):
        record["blocks"][1][5] = m

    def drop_clear(record):
        record["clear_block"] = None

    def short_block(record):
        record["blocks"][2].pop()

    assert failures(workloads.check_transcripts, corrupt(bump), sums, k, m) == [
        "run 0: residues sum to the reported input sum"]
    assert "run 0: 11 blocks and a clear block of 10000 residues in [0, m)" in failures(
        workloads.check_transcripts, corrupt(out_of_range), sums, k, m)
    for edit in (drop_clear, short_block):
        assert failures(workloads.check_transcripts, corrupt(edit), sums, k, m)
    last = workloads.SIM_RUNS - 1
    not_conserved = {**sums, last: (sums[last][0], False)}
    assert failures(workloads.check_transcripts, lines, not_conserved, k, m) == [
        f"run {last}: reported conserved"]
    wrong_sum = {**sums, last: ((sums[last][0] + 1) % m, True)}
    assert failures(workloads.check_transcripts, lines, wrong_sum, k, m) == [
        f"run {last}: residues sum to the reported input sum"]

    # residues confined to the low half of Z_m, sums kept: only uniformity fails
    skewed = []
    for line in lines:
        record = json.loads(line)
        total = sum(map(sum, record["blocks"])) + sum(record["clear_block"])
        record["blocks"] = [[v % (m // 2) for v in block] for block in record["blocks"]]
        shift = (total - sum(map(sum, record["blocks"])) - sum(record["clear_block"])) % m
        record["clear_block"][0] = (record["clear_block"][0] + shift) % m
        skewed.append(json.dumps(record))
    assert failures(workloads.check_transcripts, skewed, sums, k, m) == [
        "shuffled residues are uniform (chi-square, 255 dof)"]
    assert failures(workloads.check_transcripts, lines[:-1], sums, k, m)


def test_chain_ref_checks_reject_corruption(recorded):
    recorder, ref = recorded["chain-ref"]
    report = json.loads(recorder.outputs[0][1])
    assert failures(workloads.check_chain_ref, report, ref) == []
    corruptions = {
        "theorem1_bound": lambda r: r.update(theorem1_bound=r["theorem1_bound"] * (1 + 1e-9)),
        "mc_m_power_c": lambda r: r["mc_m_power_c"].update(value=2.1),
        "hits": lambda r: r["mc_collision_e"].update(hits=1),
        "missing": lambda r: r.pop("mc_collision_v"),
    }
    for edit in corruptions.values():
        bad = copy.deepcopy(report)
        edit(bad)
        assert len(failures(workloads.check_chain_ref, bad, ref)) == 1


def test_chain_exact_checks_reject_corruption(recorded):
    recorder, ref = recorded["chain-exact"]
    instances = workloads.EXACT_LAW_INSTANCES + workloads.EXACT_GRAPH_INSTANCES
    reports = {inst: json.loads(out[1]) for inst, out in zip(instances, recorder.outputs)}
    inst = (3, 3, 2)
    report = reports[inst]
    assert failures(workloads.check_chain_exact, report, inst, ref[inst]) == []

    def set_fraction(r, key, value):
        r[key]["fraction"] = f"{value.numerator}/{value.denominator}"

    p = workloads.fraction(report, "exact_collision_v")
    corruptions = [
        lambda r: set_fraction(r, "exact_collision_e", p * 2),
        lambda r: (set_fraction(r, "exact_collision_v", p * 2),
                   set_fraction(r, "exact_collision_e", p * 2)),
        lambda r: set_fraction(r, "exact_avg_tv", workloads.Fraction(1)),
        lambda r: r["mc_collision_v"].update(value=float(p) + 0.2),
        lambda r: set_fraction(r, "exact_m_power_c", ref[inst] + 1),
    ]
    for edit in corruptions:
        bad = copy.deepcopy(report)
        edit(bad)
        assert failures(workloads.check_chain_exact, bad, inst, ref[inst])
    graph_inst = workloads.EXACT_GRAPH_INSTANCES[0]
    bad = copy.deepcopy(reports[graph_inst])
    set_fraction(bad, "exact_m_power_c", ref[graph_inst] * 2)
    assert failures(workloads.check_chain_exact, bad, graph_inst, ref[graph_inst])


def test_graph_law_checks_reject_corruption(recorded):
    recorder, ref = recorded["graph-law"]
    dist = json.loads(recorder.outputs[0][1])
    assert failures(workloads.check_graph_dist, dist, ref["dist"]) == []
    for c, moved in ((2, 5), (7, 1)):
        bad = copy.deepcopy(dist)
        bad["components"]["1"]["count"] -= moved
        bad["components"].setdefault(str(c), {"count": 0})["count"] += moved
        assert failures(workloads.check_graph_dist, bad, ref["dist"])
    bad = copy.deepcopy(dist)
    bad["components"]["1"]["count"] -= 1
    assert failures(workloads.check_graph_dist, bad, ref["dist"])

    for (_, out, _, _), m in zip(recorder.outputs[1:], workloads.GRAPH_EXP_MS):
        report = json.loads(out)
        lo, hi = ref["exp"][m]
        assert failures(workloads.check_graph_exp, report, m, ref["exp"][m]) == []
        for estimate in (float(m), hi * 1.01, lo * 0.99):
            assert failures(workloads.check_graph_exp, {**report, "estimate": estimate}, m,
                            ref["exp"][m])
