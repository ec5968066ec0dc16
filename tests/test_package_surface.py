"""src/qball defines only what the package, its command or its tracer runs.

Reference code that only tests compare against lives in tests/oracles.py.
"""

import ast
from pathlib import Path

import qball

SRC = Path(qball.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# public names that no src caller reaches, each kept for a stated reason
ALLOWED = {
    "correction_term": "the d-invariant the dual-S1a-odd-order reason cites; acceptance criterion 8 reads it",
    "discriminant_form": "the validated public form of the discriminant group the profile path computes",
    "mode_tag_sets": "the validated public form of the strict and relaxed tag sets of the profile path",
    "THEOREM_GAP_STRINGS": "the two counterexample rows a sweep reports as mismatches",
}


def _traced():
    """(layer, name) of every function the benchmark tracer binds, read
    from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return {(layer, name) for layer, names in ast.literal_eval(node.value).items() for name in names}
    raise AssertionError("bench/tracer.py defines no TRACED table")


def _defined(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _loaded(stmt):
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreached_names(allowed=ALLOWED):
    """(module, name) of each public top-level definition in src/qball
    that no other top-level statement of the package reads."""
    statements = []  # (module, names it defines, names it reads)
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            statements.append((path.stem, _defined(stmt), _loaded(stmt)))
    exempt = set(qball.__all__) | set(allowed)
    traced = _traced() | {("cli", "main")}
    out = []
    for index, (module, defined, _) in enumerate(statements):
        for name in sorted(defined):
            if name.startswith("_") or name in exempt or (module, name) in traced:
                continue
            if not any(name in reads for other, (_, _, reads) in enumerate(statements) if other != index):
                out.append((module, name))
    return out


def test_every_public_definition_is_reached():
    assert unreached_names() == []


def test_allowlist_names_exist_and_are_unreached():
    # an allowlisted name that gains a src caller needs no entry any more
    defined = {name for path in SRC.glob("*.py") for stmt in ast.parse(path.read_text()).body for name in _defined(stmt)}
    assert set(ALLOWED) <= defined
    assert {name for _, name in unreached_names(allowed={})} == set(ALLOWED)
