"""Rules that hold for the package source as a whole."""

import ast
from collections import Counter
from pathlib import Path
from typing import Iterator

import edgeprice
from edgeprice.uniform import Decisions

PACKAGE_DIR = Path(edgeprice.__file__).resolve().parent


def _nodes():
    """(module path, node) for every AST node of the package source."""
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert PACKAGE_DIR / "uniform.py" in modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.relative_to(PACKAGE_DIR), node


def test_no_assert_statements():
    # runtime invariants are explicit raises, so they survive python -O
    found = [f"{path}:{node.lineno}" for path, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_scalar_best_response_stays_off_the_solvers():
    # the solvers price from Scenario.columns; the scalar follower is the
    # reference they are checked against, called only where it is defined
    # and by the oracles
    found = [f"{path}:{node.lineno}" for path, node in _nodes()
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "best_response"
             and path.name not in ("follower.py", "verify.py")]
    assert found == []


def test_outcomes_are_priced_only_in_uniform():
    # uniform._priced_outcome computes every outcome at a price; the other
    # modules reach it through evaluate_price(s), ration_tie or a solver, so
    # none imports, calls or names it
    found = [f"{path}:{node.lineno}" for path, node in _nodes()
             if "_priced_outcome" in (getattr(node, "id", None),
                                      getattr(node, "attr", None),
                                      getattr(node, "name", None))
             and path.name != "uniform.py"]
    assert found == []


PRICING_PATH = ("uniform.py", "differentiated.py", "protocol.py", "bench.py",
                "cli.py")
DECISION_READERS = ("cli.py", "bench.py", "protocol.py")


def test_pricing_path_reads_only_the_columns():
    # the solvers, the replay and the front ends read per-user data from
    # Scenario.columns; the scalar users and kinetics serve the oracles, so
    # the pricing path may only count the users. Likewise the front ends and
    # the replay read an outcome's decisions as columns, .decisions.<column>,
    # or count them; the OffloadDecision records serve the oracles
    nodes = [(path, node) for path, node in _nodes()
             if str(path) in PRICING_PATH]
    counted = {id(node.args[0]) for _, node in nodes
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "len"
               and len(node.args) == 1}
    columns = {id(node.value) for _, node in nodes
               if isinstance(node, ast.Attribute)
               and node.attr in Decisions._fields}
    found = [f"{path}:{node.lineno} .{node.attr}" for path, node in nodes
             if isinstance(node, ast.Attribute)
             and (node.attr == "kinetics"
                  or node.attr == "users" and id(node) not in counted
                  or node.attr == "decisions" and str(path) in DECISION_READERS
                  and id(node) not in counted | columns)]
    assert found == []


def test_differentiated_imports_nothing_from_kinetics():
    found = [f"{path}:{node.lineno}" for path, node in _nodes()
             if path.name == "differentiated.py"
             and isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[-1] == "kinetics"]
    assert found == []


def test_each_audit_problem_is_written_once():
    # each rule the audit checks is stated in one place, so each problem it
    # can flag has one wording: the leading literal of an f-string passed to
    # a call named flag
    heads = [arg.values[0].value for _, node in _nodes()
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "flag"
             for arg in node.args
             if isinstance(arg, ast.JoinedStr)
             and isinstance(arg.values[0], ast.Constant)]
    assert len(heads) > 10
    assert [head for head, n in Counter(heads).items() if n > 1] == []


def _private_definitions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """(name, node) for each module-level function, class or assignment
    whose name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_helper_is_read():
    # a module-level helper that nothing reads is a leftover: it must be
    # read in its own module outside its definition, in a module that
    # imports it from there, or as an attribute
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.rglob("*.py"))}
    reads = {stem: Counter(node.id for node in ast.walk(tree)
                           if isinstance(node, ast.Name)
                           and isinstance(node.ctx, ast.Load))
             for stem, tree in trees.items()}
    attributes = {node.attr for tree in trees.values()
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    importers = [(node.module.split(".")[-1], alias.name, stem)
                 for stem, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module
                 for alias in node.names]
    checked, found = 0, []
    for stem, tree in trees.items():
        for name, node in _private_definitions(tree):
            checked += 1
            own = sum(isinstance(n, ast.Name) and n.id == name
                      and isinstance(n.ctx, ast.Load) for n in ast.walk(node))
            if (reads[stem][name] > own or name in attributes
                    or any(reads[user][name] for source, imported, user
                           in importers if (source, imported) == (stem, name))):
                continue
            found.append(f"{stem}.py:{node.lineno} {name}")
    assert checked > 20
    assert found == []


def test_trace_float_format_is_written_once():
    # every float the package writes as text goes through one of two
    # formats, each written once: %.17g, which reads back bit for bit (trace
    # and CSV), and %.9g, for people to read (run)
    sources = "".join(path.read_text(encoding="utf-8")
                      for path in sorted(PACKAGE_DIR.rglob("*.py")))
    assert sources.count("%.17g") == 1
    assert sources.count("%.9g") == 1
