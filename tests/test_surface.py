"""Surface guards: every public top-level name of ``src/hybridlg`` has a
user, importing the package does not import scipy, one function holds
the trace floor, the complex vectorized generator G serves the oracles
only, the K3 engine is immutable, and the CLI has one way out.

A public function, class or constant is in use when another part of
``src/`` references it, when ``tests/test_acceptance.py`` names it, or when
the benchmark tracer (``perfbench/tracer.py:targets()``) wraps it.  Helpers
that only tests use belong in ``tests/``.  ``scipy.linalg`` is imported on
first use, by ``numerics.expm`` and ``numerics.schur`` only.  A trace is
compared with ``eps_trace`` in ``lgi._branch_sy`` only, the one extinction
rule; ``cli._cmd_evolve`` cuts its rows where that rule names a state
extinguished.  The engines run on the real Pauli-basis generator B;
G and its state maps (``spectrum.build_liouvillian``, ``vectorize``,
``devectorize``) are read only by the oracles ``dynamics.evolve_exact``,
``dynamics.evolve_kraus`` and ``spectrum.spectrum_report``.  The K3
engine ``lgi._Cells`` changes nothing of itself after ``__init__``.  In
``cli`` only ``_write`` touches ``sys.stdout`` (a ``print`` without
``file=`` included) or opens ``--out``; a sidecar opened under a flag of
its own is not caught.
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
    assert places == {("lgi", "_branch_sy")}


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


def _root(node):
    """The name an assignment target writes through: ``x`` of ``x``,
    ``x.a.b`` and ``x.a[k]``."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    return getattr(node, "id", None)


def self_writers(tree, cls):
    """Methods of class ``cls`` other than ``__init__`` that assign to
    ``self.*`` or to ``self.*[...]``, plainly, augmented or unpacked."""
    found = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for method in node.body:
            if (not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or method.name == "__init__"):
                continue
            for sub in ast.walk(method):
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                    targets = [sub.target]
                else:
                    continue
                if any(isinstance(part, (ast.Attribute, ast.Subscript))
                       and _root(part) == "self"
                       for target in targets for part in ast.walk(target)):
                    found.add(method.name)
    return found


def test_the_k3_engine_is_immutable_after_init():
    tree = ast.parse((REPO / "src" / "hybridlg" / "lgi.py").read_text())
    assert "_Cells" in {node.name for node in tree.body
                        if isinstance(node, ast.ClassDef)}
    assert self_writers(tree, "_Cells") == set()


def test_immutability_guard_sees_every_write_to_self():
    tree = ast.parse(
        "class _Cells:\n"
        "    def __init__(self):\n        self.weights = 0\n"
        "    def scan(self, n):\n"
        "        space = self._space = n\n        return space\n"
        "    def drop(self):\n        self._space = None\n"
        "    def bump(self):\n        self.count += 1\n"
        "    def plant(self, n):\n        self.weights[n, :, 1] = 0.0\n"
        "    def deep(self):\n        self.form.nodes[0] = 1.0\n"
        "    def both(self):\n        a, self.b = 1, 2\n"
        "    def local(self, out):\n        out[0] = self.weights\n"
        "        weights = self.weights\n"
        "class Other:\n    def set(self):\n        self.x = 1\n")
    assert self_writers(tree, "_Cells") == {
        "scan", "drop", "bump", "plant", "deep", "both"}


def output_touches(tree):
    """Innermost enclosing function (None at module level) of every use of
    ``sys.stdout``, every ``print`` without ``file=`` and every ``open`` or
    ``_open`` call that names ``--out`` or reads an attribute ``out``."""
    def hit(node):
        if isinstance(node, ast.Attribute) and node.attr == "stdout":
            return _name(node.value) == "sys"
        if not isinstance(node, ast.Call):
            return False
        called = _name(node.func)
        if called == "print":
            return "file" not in {kw.arg for kw in node.keywords}
        return called in ("open", "_open") and any(
            getattr(sub, "value", None) == "--out"
            or getattr(sub, "attr", None) == "out"
            for arg in (*node.args, *(kw.value for kw in node.keywords))
            for sub in ast.walk(arg))

    return _places(tree, hit)


def test_only_write_touches_the_output():
    tree = ast.parse((REPO / "src" / "hybridlg" / "cli.py").read_text())
    assert output_touches(tree) == {"_write"}


def test_output_guard_sees_every_way_out():
    tree = ast.parse(
        "def _write(args):\n"
        "    return sys.stdout if args.out == '-' else "
        "_open(args.out, 'w', '--out')\n"
        "def stream(self):\n    self._handle.write(sys.stdout)\n"
        "def named(path):\n    return _open(path, 'w', flag='--out')\n"
        "def raw(args):\n    return open(args.out, 'w')\n"
        "def shout(text):\n    print(text)\n"
        "def fine(args):\n    print(args, file=sys.stderr)\n"
        "    return _open(args.input, 'r', '--in')\n"
        "OUT = sys.stdout\n")
    assert output_touches(tree) == {"_write", "stream", "named", "raw",
                                    "shout", None}
