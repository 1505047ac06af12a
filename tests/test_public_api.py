"""The package holds only code it runs: every function in
``phasesync.__all__``, and every top-level function and class of the package,
private ones included, is reached from the ``phasesync`` command's entry
point, ``cli.main``, through the package's own code, not only from tests.
What a user can set is pinned too, so a new knob means editing this file."""

import argparse
import ast
import inspect
from pathlib import Path

import phasesync
from phasesync import experiment
from phasesync.cli import build_parser


def _definitions() -> dict[str, set[str]]:
    # For each top-level function or class of the package, the names its
    # code reads, bare or as an attribute. Name clashes between modules
    # merge, which can only add edges.
    graph: dict[str, set[str]] = {}
    for path in Path(phasesync.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                reads = graph.setdefault(node.name, set())
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                        reads.add(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        reads.add(sub.attr)
    return graph


def _reachable(graph: dict[str, set[str]], root: str) -> set[str]:
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name not in seen and name in graph:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def test_every_public_function_runs_from_the_command_line_entry_point():
    reached = _reachable(_definitions(), "main")
    unreached = [name for name in phasesync.__all__
                 if inspect.isfunction(getattr(phasesync, name)) and name not in reached]
    assert unreached == []


def test_every_definition_runs_from_the_command_line_entry_point():
    graph = _definitions()
    assert sorted(set(graph) - _reachable(graph, "main")) == []


def test_the_settable_surface_is_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    solve_flags = [opt for action in sub.choices["solve"]._actions
                   if not isinstance(action, argparse._HelpAction)
                   for opt in action.option_strings]
    assert solve_flags == ["--n", "--sigma", "--seed", "--dump-instance", "--dump-x",
                           "--max-iters"]
    assert experiment._GRID_KEYS == {"case", "n_values", "sigma_list", "sigma_min",
                                     "sigma_max", "sigma_count", "reps", "seed_base",
                                     "workers", "out", "max_iters"}
    assert list(inspect.signature(phasesync.solve_second_order).parameters) == [
        "data", "x0", "signal", "max_iters"]
