import ast
import inspect
from pathlib import Path

import shufflesum
from shufflesum import oracle

PACKAGE = Path(shufflesum.__file__).parent


def test_all_names_resolve():
    missing = [name for name in shufflesum.__all__ if not hasattr(shufflesum, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(shufflesum.__all__) == len(set(shufflesum.__all__))


def test_public_names_pinned():
    assert sorted(shufflesum.__all__) == sorted([
        "Modulus",
        "share_batch",
        "run_batch",
        "aggregate_batch",
        "PlanResult",
        "sigma_for",
        "plan_shuffled_k",
        "baseline_k_lower_bound",
        "EnumerationBudgetError",
        "Quantity",
        "lemma4_probability_bound",
        "expectation_bound",
        "estimate_component_distribution",
        "estimate_m_power_C",
        "exact_m_power_C",
        "__version__",
    ])


REGIME_LABELS = ("n>=19", "k>=3", "sigma>=1", "m-bound")


def test_regime_labels_spelled_only_in_planner():
    # planner.regime_flags is the one place that decides the proved regime
    found = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "planner.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(label in node.value for label in REGIME_LABELS)
    ]
    assert found == []


def _nodes():
    # ("module.py:owner", node) for every node, the owner being the top-level
    # function or Class.method that holds it
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                owners = [(f"{top.name}.{getattr(node, 'name', '')}", node) for node in top.body]
            else:
                owners = [(getattr(top, "name", ""), top)]
            for owner, scope in owners:
                yield from ((f"{path.name}:{owner}", node) for node in ast.walk(scope))


def _sites(kind, part, name):
    # the owner of each `kind` node whose `part` mentions `name`
    return [
        site
        for site, node in _nodes()
        if isinstance(node, kind)
        and getattr(node, part) is not None
        and name in ast.unparse(getattr(node, part))
    ]


def test_one_budget_raise_site():
    # randgraph._require_budget alone decides past the budget; the library
    # gates by exact_work instead of catching, and the CLI's one handler, around
    # every command, turns it into exit 2
    assert _sites(ast.Raise, "exc", "EnumerationBudgetError") == ["randgraph.py:_require_budget"]
    assert _sites(ast.ExceptHandler, "type", "EnumerationBudgetError") == ["cli.py:_Group.invoke"]


def test_one_stream_site():
    # randgraph.shard_batches alone seeds numpy streams, so every draw passes
    # its size and budget checks
    assert _sites(ast.Call, "func", "default_rng") == ["randgraph.py:shard_batches"]


def test_one_seed_derivation():
    # randgraph.shard_batches alone derives a stream's seed, and a transcript
    # prints the seed of the stream it was drawn from; no rng module remains
    assert _sites(ast.Call, "func", "derive_seed") == ["randgraph.py:shard_batches"]
    assert not (PACKAGE / "rng.py").exists()


def test_one_sampled_frequency():
    # oracle.sampled_frequency alone builds the record of a sampled
    # frequency, its Hoeffding interval at HOEFFDING_CONFIDENCE
    sites = [
        site
        for site, node in _nodes()
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("Quantity.sampled")
        and "HOEFFDING_CONFIDENCE" in ast.unparse(node)
    ]
    assert sites == ["oracle.py:sampled_frequency"]


def test_one_cost_evaluation():
    # oracle.exact_work writes each transcript cost once, as exponent
    # triples, and evaluates all of them at one _units call
    assert _sites(ast.Call, "func", "_units") == ["oracle.py:exact_work"]


def test_one_enumeration_of_sharings():
    # oracle.histogram_laws alone builds the users' share rows, and takes
    # none from a caller: the exact collision probability is one sum over
    # its laws, with no second walk of ordered sharings beside it
    assert _sites(ast.Call, "func", "_share_rows") == ["oracle.py:histogram_laws"]
    assert "rows" not in inspect.signature(oracle.histogram_laws).parameters


def test_one_check_decision():
    # oracle.check alone gives a check its status, "not-applicable" outside
    # the regime it is given included, and cli._finish alone exits on "fail":
    # every check is decided by one function, every exit by one rule
    statuses = ("pass", "fail", "unavailable", "not-applicable")
    found = sorted(
        (node.value, site)
        for site, node in _nodes()
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in statuses
    )
    assert found == [
        ("fail", "cli.py:_finish"),
        ("fail", "oracle.py:check"),
        ("not-applicable", "oracle.py:check"),
        ("pass", "oracle.py:check"),
        ("unavailable", "oracle.py:check"),
    ]


def test_one_transcript_writer():
    # protocol.transcript_line alone formats a transcript: simulate calls it
    # and makes no json.dumps call of its own
    assert _sites(ast.Call, "func", "transcript_line") == ["cli.py:simulate"]
    assert "cli.py:simulate" not in _sites(ast.Call, "func", "dumps")


def test_one_json_form_of_a_quantity():
    # cli.emit_report alone turns a Quantity into JSON, once, for every format:
    # reports hold Quantity records until they are printed
    sites = [site for site, node in _nodes() if isinstance(node, ast.Attribute) and node.attr == "to_json"]
    assert sites == ["cli.py:emit_report"]


def test_one_seed_generator():
    # the module-level --seed option alone generates a seed, as its default,
    # which click calls only when --seed is absent
    assert _sites(ast.Call, "func", "randbits") == ["cli.py:"]


def test_one_budget_edge():
    # randgraph.within_budget alone compares work with ENUMERATION_BUDGET:
    # the refusal and every exact gate ask it
    sites = [site for site, node in _nodes() if isinstance(node, ast.Compare) and "ENUMERATION_BUDGET" in ast.unparse(node)]
    assert sites == ["randgraph.py:within_budget"]


def test_one_float_range_site():
    # randgraph._inf_past_range alone decides past float range: one handler,
    # and no constant says where the range ends (exp's 709.78, 2^1024), or
    # near it (700)
    assert _sites(ast.ExceptHandler, "type", "OverflowError") == ["randgraph.py:_inf_past_range"]
    edges = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and node.value in (700, 709.0, 1024)
    ]
    assert edges == []


def _definitions(path: Path, tree: ast.Module):
    # top-level functions and classes, and the methods of those classes
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node
            yield from (f for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            # click callbacks are reached through their decorators
            if not (path.name == "cli.py" and node.decorator_list):
                yield node


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from (e.value for e in node.value.elts)


def test_no_definition_only_tests_use():
    # helpers that only tests call belong in tests/, not in the package
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in _definitions(path, tree)
        if not (node.name.startswith("__") and node.name.endswith("__")) and node.name not in used
    ]
    assert unused == []


def test_component_rounds_gather_only():
    # randgraph._component_counts propagates labels by gathers alone: each
    # permutation's inverse is written once per batch, before the loop, so
    # the round loop assigns to no subscript (no fancy-index scatter)
    (loop,) = [
        node
        for site, node in _nodes()
        if site == "randgraph.py:_component_counts" and isinstance(node, ast.While)
    ]
    stores = [
        ast.unparse(node)
        for node in ast.walk(loop)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
    ]
    assert stores == []
