"""Surface guards: every public top-level name of ``src/hybridlg`` has a
user, importing the package does not import scipy, one function holds
the trace floor, and the complex vectorized generator G serves the oracles
only.

A public function, class or constant is in use when another part of
``src/`` references it, when ``tests/test_acceptance.py`` names it, or when
the benchmark tracer (``perfbench/tracer.py:targets()``) wraps it.  Helpers
that only tests use belong in ``tests/``.  ``scipy.linalg`` is imported on
first use, by ``numerics.expm`` and ``numerics.schur`` only.  A trace is
compared with ``eps_trace`` in ``lgi._branch_sy`` only, the one extinction
rule, and in the row cut of ``cli._cmd_evolve``, which writes rows up to an
extinguished state.  The engines run on the real Pauli-basis generator B;
G and its state maps (``spectrum.build_liouvillian``, ``vectorize``,
``devectorize``) are read only by the oracles ``dynamics.evolve_exact``,
``dynamics.evolve_kraus`` and ``spectrum.spectrum_report``.
"""

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO / "src" / "hybridlg").glob("*.py"))


def _definitions(tree):
    """Public top-level functions, classes and assigned constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _references(tree):
    """Names and attributes the code reads; neither an import nor an
    assignment alone is a use."""
    loads = [node for node in ast.walk(tree)
             if isinstance(getattr(node, "ctx", None), ast.Load)]
    return ({node.id for node in loads if isinstance(node, ast.Name)}
            | {node.attr for node in loads if isinstance(node, ast.Attribute)})


def _acceptance_names():
    tree = ast.parse((REPO / "tests" / "test_acceptance.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return imported | _references(tree)


def _traced_names():
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    return {name for owner, attr, _, _ in tracer.targets()
            for name in (attr, getattr(owner, "__name__", ""))}


def unused_public_names():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    used = referenced | _acceptance_names() | _traced_names()
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in _definitions(tree) - used)


def test_every_public_name_has_a_user():
    assert unused_public_names() == []


def test_guard_sees_definitions_and_uses():
    tree = ast.parse("X = 1\nY: int = 2\n_Z = 3\ndef f(): return X\nclass C: pass\n")
    assert _definitions(tree) == {"X", "Y", "f", "C"}
    assert _references(tree) == {"X", "int"}  # stores are no use
    assert "analytic_branch" in _traced_names()
    assert "k3_closed_form" in _acceptance_names()


def module_level_imports(tree):
    """Top-level packages a module imports when it is itself imported: every
    absolute import outside a function body (class bodies run at import)."""
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_no_module_imports_scipy_at_module_level():
    importers = [path.stem for path in SOURCES
                 if "scipy" in module_level_imports(ast.parse(path.read_text()))]
    assert importers == []


def test_import_guard_skips_function_bodies_only():
    tree = ast.parse("import a.b\nfrom c.d import e\nfrom . import f\n"
                     "if True:\n    import g\nclass K:\n    import h\n"
                     "def k():\n    import scipy\n")
    assert module_level_imports(tree) == {"a", "c", "g", "h"}


def _name(node):
    """The identifier of a name or attribute node, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def _places(tree, hit):
    """Innermost enclosing function (None at module level) of every node
    for which ``hit(node)`` holds."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if hit(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def trace_floor_comparisons(tree):
    """Innermost enclosing function (None at module level) of every
    comparison that reads a name or attribute ``eps_trace``."""
    return _places(tree, lambda node: isinstance(node, ast.Compare) and any(
        _name(sub) == "eps_trace"
        for operand in (node.left, *node.comparators)
        for sub in ast.walk(operand)))


def test_one_function_compares_with_the_trace_floor():
    places = {(path.stem, where) for path in SOURCES
              for where in trace_floor_comparisons(ast.parse(path.read_text()))}
    assert places == {("lgi", "_branch_sy"), ("cli", "_cmd_evolve")}


def test_trace_floor_guard_sees_every_comparison():
    tree = ast.parse(
        "def rule(trace, eps_trace):\n    return trace < eps_trace\n"
        "def cut(args, r):\n    if r < args.eps_trace:\n        pass\n"
        "def nested(x, cfg):\n    return np.where(~(x.min(0) >= cfg.eps_trace), 0, x)\n"
        "def uses(eps_trace):\n    return sy / eps_trace\n"
        "FLOOR = 1 if 0 < eps_trace else 2\n")
    assert trace_floor_comparisons(tree) == {"rule", "cut", "nested", None}


#: the complex vectorized generator G and its state maps
G_NAMES = {"build_liouvillian", "vectorize", "devectorize"}


def g_readers(tree):
    """Innermost enclosing function (None at module level) of every read of
    a name or attribute in :data:`G_NAMES`; neither an import nor a store
    is a read."""
    return _places(tree, lambda node: isinstance(
        getattr(node, "ctx", None), ast.Load) and _name(node) in G_NAMES)


def test_g_only_in_the_oracles():
    places = {(path.stem, where) for path in SOURCES
              for where in g_readers(ast.parse(path.read_text()))}
    own_definitions = {("spectrum", name) for name in G_NAMES}
    assert places - own_definitions == {("dynamics", "evolve_exact"),
                                        ("dynamics", "evolve_kraus"),
                                        ("spectrum", "spectrum_report")}


def test_g_guard_sees_every_read():
    tree = ast.parse(
        "from .spectrum import build_liouvillian, vectorize\n"
        "def oracle(p, rho):\n    return devectorize(vectorize(rho))\n"
        "def engine(p):\n    return spectrum.build_liouvillian(p)\n"
        "def clean(p):\n    vectorize = None\n    return bloch_generator(p)\n"
        "class Prop:\n    def __init__(self, p):\n"
        "        self.generator = build_liouvillian(p)\n"
        "READOUT = vectorize(IDENTITY)\n")
    assert g_readers(tree) == {"oracle", "engine", "__init__", None}
