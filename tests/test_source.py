"""Rules the package source itself must keep."""

import ast
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import gateway_tomo
from gateway_tomo import (
    DecayModel,
    HamiltonianParams,
    InputError,
    NetworkGraph,
    assemble_single_excitation,
    compute_access_plan,
    edge_key,
    eigendecompose,
    gauge_fix,
    infection_closure,
    is_infecting,
    measure_decaying,
    measure_exact,
    measure_shots,
    return_amplitude,
)
from util import BAD_LABELS

SOURCES = sorted(Path(gateway_tomo.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


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


def test_finiteness_is_checked_in_one_place():
    """``_json.numbers`` refuses NaN and infinity in every array from outside;
    only the bulk path of ``HamiltonianParams`` tests finiteness besides."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if getattr(node, "attr", getattr(node, "id", None)) == "isfinite":
                inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                owner = max(inside, key=lambda f: f.lineno).name if inside else ""
                found.add("_json.py" if path.name == "_json.py" else f"{path.name}:{owner}")
    assert found == {"_json.py", "spectral.py:_kept_as_given"}


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


def test_reconstruct_has_one_engine_path():
    """Blocks are laid out only by the schedule, and `reconstruct` catches
    nothing: `replay` itself raises the earliest failing segment's error, so no
    second path reruns a failing block one segment at a time."""
    tree = ast.parse((SOURCES[0].parent / "reconstruction.py").read_text())

    def block_calls(node):
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
                and getattr(n.func, "id", None) == "_Block"]

    (schedule,) = [c for c in tree.body if getattr(c, "name", None) == "_Schedule"]
    (init,) = [f for f in schedule.body if getattr(f, "name", None) == "__init__"]
    (body,) = [f for f in tree.body if getattr(f, "name", None) == "reconstruct"]
    assert block_calls(tree) == block_calls(init) != []
    assert not any(isinstance(node, ast.Try) for node in ast.walk(body))


def _definitions(tree: ast.Module):
    """Top-level functions, classes and constants, and methods; no dunder names."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            methods = node.body if isinstance(node, ast.ClassDef) else []
            found += [(m.name, m) for m in [node, *methods]
                      if isinstance(m, (ast.ClassDef, ast.FunctionDef))]
    return [(name, node) for name, node in found if not name.startswith("__")]


def _references(tree: ast.Module):
    """(name, line) of every name read, attribute and identifier in a string,
    leaving out docstrings, ``__all__`` and imports."""
    skip = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            skip.add(body[0].value)  # a docstring, if it is a string
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            skip.update(ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node not in skip):  # getattr names, span names
            yield from ((w, node.lineno) for w in re.findall(r"[A-Za-z_]\w*", node.value))


def test_every_defined_name_is_used():
    """Each function, method, class and module constant of the package is named
    somewhere in src/, tests/, scripts/ or perfbench/ outside its own definition."""
    others = [p for d in ("tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES + others}
    used: dict[str, list] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            used.setdefault(name, []).append((path, line))
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in SOURCES
        for name, node in _definitions(trees[path])
        if all(where == path and node.lineno <= line <= node.end_lineno
               for where, line in used.get(name, ()))
    ]
    assert len(others) > 10
    assert found == []


def label_setup() -> SimpleNamespace:
    """A 3-site path, its eigensystem raw and gauge-fixed, and an exact record."""
    g = NetworkGraph.from_edges([(1, 2), (2, 3)])
    params = HamiltonianParams({1: 0.0, 2: 0.1, 3: -0.1}, {(1, 2): 1.0, (2, 3): 0.9})
    eig = eigendecompose(assemble_single_excitation(g, params))
    fixed = gauge_fix(eig, 1)
    return SimpleNamespace(g=g, eig=eig, fixed=fixed, meas=measure_exact(fixed, [1, 3]))


# Each parameter of a public function or method that takes site labels, as
# (qualified name, parameter), with a call that puts one label in its place.
LABEL_TAKERS = {
    ("edge_key", "u"): lambda s, n: edge_key(n, 2),
    ("edge_key", "v"): lambda s, n: edge_key(2, n),
    ("infection_closure", "seeds"): lambda s, n: infection_closure(s.g, [n]),
    ("is_infecting", "seeds"): lambda s, n: is_infecting(s.g, [n]),
    ("compute_access_plan", "reference"): lambda s, n: compute_access_plan(s.g, n),
    ("EigenSystem.site_amplitudes", "node"): lambda s, n: s.eig.site_amplitudes(n),
    ("gauge_fix", "reference"): lambda s, n: gauge_fix(s.eig, n),
    ("SpectralMeasurement.moduli_of", "node"): lambda s, n: s.meas.moduli_of(n),
    ("measure_exact", "nodes"): lambda s, n: measure_exact(s.fixed, [n]),
    ("measure_shots", "nodes"): lambda s, n: measure_shots(s.fixed, [n], 100, seed=1),
    ("measure_decaying", "nodes"): lambda s, n: measure_decaying(
        s.fixed, [n], [0.0, 1.0], DecayModel((0.01, 0.01, 0.01))),
    ("return_amplitude", "reference"): lambda s, n: return_amplitude(s.fixed, n, [0.0, 1.0]),
}


@pytest.mark.parametrize("site, message", BAD_LABELS)
@pytest.mark.parametrize("taker", LABEL_TAKERS, ids="/".join)
def test_every_label_taker_refuses_bad_labels(taker, site, message):
    """True, 1.0 or np.int64(1) would find site 1 in a dict or tuple lookup."""
    with pytest.raises(InputError, match=message):
        LABEL_TAKERS[taker](label_setup(), site)


def test_every_public_label_parameter_is_in_the_table():
    """A public function or method with a parameter named as site labels are
    (``node``, ``nodes``, ``reference``, ``seeds``, ``u``, ``v``) has a row in
    ``LABEL_TAKERS``, so the test above passes it every bad label."""
    names = {"node", "nodes", "reference", "seeds", "u", "v"}
    found = set()
    for path in SOURCES:
        if path.name.startswith("_"):  # __init__ re-exports, _json holds the rules
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            defs = [("", node)]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs = [(f"{node.name}.", m) for m in node.body]
            found |= {
                (prefix + f.name, a.arg)
                for prefix, f in defs
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                for a in f.args.posonlyargs + f.args.args + f.args.kwonlyargs
                if a.arg in names
            }
    assert sorted(found - set(LABEL_TAKERS)) == []
    assert sorted(set(LABEL_TAKERS) - found) == []
