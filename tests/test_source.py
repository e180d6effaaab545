"""Rules the package source itself must keep."""

import ast
from pathlib import Path

import gateway_tomo

SOURCES = sorted(Path(gateway_tomo.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    """Input checks must still run under ``python -O``, which drops ``assert``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 5
    assert found == []


def test_no_record_is_built_around_its_checks():
    """``object.__new__`` or ``cls.__new__`` would make an instance that skips
    ``__init__`` and so every check a record makes of its inputs."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("object", "cls")
    ]
    assert found == []


def test_private_names_are_imported_only_from_json():
    """``_json`` holds the input rules; no other module lends out a private name."""
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.module != "_json"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_replay_and_cycle_solve_read_no_graph_fact():
    """Edges, signs and known neighbors come from the schedule, compiled once
    per (graph, plan); what runs per record reads none of them itself."""
    tree = ast.parse((SOURCES[0].parent / "reconstruction.py").read_text())
    bodies = {node.name: node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name in ("replay", "_solve_cycle_moments")}
    found = [
        f"{name}:{node.lineno}"
        for name, body in bodies.items()
        for node in ast.walk(body)
        if isinstance(node, ast.Attribute) and node.attr in ("g", "adjacency", "sign_of")
        or isinstance(node, ast.Name) and node.id == "edge_key"
        or isinstance(node, ast.Call) and getattr(node.func, "attr",
                                                  getattr(node.func, "id", None)) == "known"
    ]
    assert sorted(bodies) == ["_solve_cycle_moments", "replay"]
    assert found == []
