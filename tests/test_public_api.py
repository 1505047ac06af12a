"""The public surface holds only code the package runs: every function in
``phasesync.__all__`` is reached from the ``phasesync`` command's entry
point, ``cli.main``, through the package's own code, not only from tests."""

import ast
import inspect
from pathlib import Path

import phasesync


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
