"""Every name ``fellkit/__init__.py`` re-exports is reached from the CLI or
from an acceptance criterion, and every top-level definition in ``src/`` is
reached from those or from a function the benchmark traces.

The scan reads ``src/fellkit`` with ``ast`` and follows module-level
references: a top-level function, class or assignment reaches every top-level
name its body mentions, in its own module or through a relative import.  The
roots are ``fellkit.cli.main`` (the console script) and every ``fellkit``
name that ``tests/test_acceptance.py`` imports; the definitions scan adds the
``TRACED`` names of ``perfbench/tracing.py`` (a method roots its class).
"""

import ast
from pathlib import Path

from test_perfbench_tracing import load_tracing

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fellkit"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def relative_imports(tree):
    """Local name → (module, name) for each ``from .module import name``."""
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def top_level_definitions(tree):
    """Name → defining statement, for top-level functions, classes and
    assignments."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        defs[n.id] = node
    return defs


def package_sources():
    """Module name → source, for every module of the package but ``__init__``."""
    return {path.stem: path.read_text() for path in PACKAGE.glob("*.py")
            if path.stem != "__init__"}


def reference_graph(sources):
    """(module, name) → the (module, name) nodes it references."""
    graph = {}
    for module, source in sources.items():
        tree = ast.parse(source)
        imports = relative_imports(tree)
        defs = top_level_definitions(tree)
        for name, target in imports.items():
            graph[(module, name)] = {target}
        for name, node in defs.items():
            mentioned = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            graph[(module, name)] = (
                {(module, m) for m in mentioned if m in defs and m != name}
                | {imports[m] for m in mentioned if m in imports}
            )
    return graph


def acceptance_roots():
    tree = ast.parse(ACCEPTANCE.read_text())
    return {
        (node.module.split(".", 1)[1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("fellkit.")
        for alias in node.names
    }


def traced_roots():
    return {(module, qualname.split(".")[0])
            for module, qualname in load_tracing().TRACED}


def reached(sources, extra_roots=()):
    graph = reference_graph(sources)
    seen = set()
    todo = [("cli", "main"), *acceptance_roots(), *extra_roots]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(graph.get(node, ()))
    return seen


def unreached_exports(init_source):
    """Names bound in an ``__init__`` source, dunders aside, that neither
    root reaches."""
    tree = ast.parse(init_source)
    exports = relative_imports(tree)
    for name in top_level_definitions(tree):
        if not name.startswith("__"):
            exports[name] = ("__init__", name)
    reach = reached(package_sources())
    return {name for name, target in exports.items() if target not in reach}


def unreached_definitions(sources):
    """(module, name) of each top-level definition in ``sources`` that no
    root, the traced names included, reaches."""
    reach = reached(sources, traced_roots())
    return {(module, name) for module, source in sources.items()
            for name in top_level_definitions(ast.parse(source))
            if (module, name) not in reach}


def test_every_export_is_reached_from_cli_or_acceptance():
    assert unreached_exports((PACKAGE / "__init__.py").read_text()) == set()


def test_a_re_exported_dead_helper_is_caught():
    source = (PACKAGE / "__init__.py").read_text()
    source += "from .linalg import orthonormal_span_basis\nHELPER = 1\n"
    assert unreached_exports(source) == {"orthonormal_span_basis", "HELPER"}


def test_every_definition_is_reached_from_cli_acceptance_or_tracing():
    assert unreached_definitions(package_sources()) == set()


def test_a_dead_top_level_helper_is_caught():
    sources = package_sources()
    sources["linalg"] += "\n\ndef _dead(m):\n    return as_matrix(m)\n"
    assert unreached_definitions(sources) == {("linalg", "_dead")}
