import ast
import pathlib
import sys

import horneq
import horneq.core
import horneq.engine
import horneq.oracle

PUBLIC = {
    "App", "DefinedAtom", "El", "EqualAtom", "EvalConfig", "EvalReport",
    "EvaluationBudgetError", "Formula", "Morphism", "ParseError", "RelDecl",
    "Sequent", "Signature", "SignatureError", "Structure", "Theory", "Var",
    "classify_sequent", "classifying_morphism", "classifying_structure",
    "coproduct", "diagonal_embed", "enumerate_morphisms", "epic_transform",
    "evaluate", "find_isomorphism", "flatten_theory",
    "functionality_theory", "is_injective_to",
    "is_orthogonal_to", "parse_theory", "pretty_print", "pushout",
    "quotient_by_relation", "quotient_model", "satisfies",
    "satisfies_theory", "sequent_from_morphism", "setoid_transform",
    "sparse_setoid_transform", "strengthen_theory",
}

ORACLES = ("enumerate_morphisms", "find_isomorphism", "satisfies_phl",
           "_eval_term", "_phl_atom_holds", "is_injective_to",
           "is_orthogonal_to", "_count_lifts")


def test_public_names():
    assert len(horneq.__all__) == len(PUBLIC) == 41
    assert set(horneq.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(horneq, name) is not None


def test_oracles_live_only_in_oracle():
    for name in ORACLES:
        assert hasattr(horneq.oracle, name)
        assert not hasattr(horneq.core, name)
        assert not hasattr(horneq.engine, name)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports at top level but never reads: not as a
    ``Name`` (which covers the base of an ``Attribute``) and not inside a
    quoted annotation.  ``__future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    notes = [a for n in ast.walk(tree)
             for a in (getattr(n, "annotation", None),
                       getattr(n, "returns", None)) if a is not None]
    trees = [tree] + [ast.parse(c.value, mode="eval")
                      for a in notes for c in ast.walk(a)
                      if isinstance(c, ast.Constant)
                      and isinstance(c.value, str)]
    used = {n.id for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    src = pathlib.Path(horneq.__file__).parent
    unused = {path.name: _unused_imports(path.read_text())
              for path in sorted(src.glob("*.py"))
              if path.name != "__init__.py"}
    assert {m: names for m, names in unused.items() if names} == {}
    # The check itself: a leftover import, and one read only in a quoted
    # annotation.
    assert _unused_imports(
        "from collections import Counter\n"
        "from .core import El, Structure\n"
        "def f(x: 'Structure') -> El: ...\n") == ["Counter"]


def _foreign_imports(source: str) -> list[str]:
    """The top-level modules that ``source`` imports, at any depth, from
    outside the standard library; a relative import is the package's own.
    ``__future__`` is a standard-library module."""
    tops = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            tops += [a.name.split(".")[0] for a in n.names]
        elif isinstance(n, ast.ImportFrom) and not n.level:
            tops.append(n.module.split(".")[0])
    return [top for top in tops if top not in sys.stdlib_module_names]


def test_library_imports_only_the_standard_library():
    """``pyproject.toml`` declares no runtime dependency, so no module of
    ``src/horneq`` may import one, not even inside a function."""
    src = pathlib.Path(horneq.__file__).parent
    foreign = {path.name: _foreign_imports(path.read_text())
               for path in sorted(src.glob("*.py"))}
    assert {m: names for m, names in foreign.items() if names} == {}
    # The check itself: a test dependency imported late, an absolute
    # import of the package, and imports that pass.
    assert _foreign_imports(
        "from __future__ import annotations\nimport os.path\n"
        "from . import core\nfrom .engine import evaluate\n"
        "from horneq import core\n"
        "def f():\n    import hypothesis.strategies\n") == [
        "horneq", "hypothesis"]


def _unread_names(modules: dict[str, str], sources: list[str]) -> list[str]:
    """The module-level private names and the non-dunder methods that the
    ``modules`` (name: source) define but nothing reads.  A private name
    is read where its own module loads it as a ``Name``, or where any of
    ``sources`` reads it as an attribute or imports it; a method, where
    any of ``sources`` reads it as an attribute."""
    nodes = [n for source in sources for n in ast.walk(ast.parse(source))]
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    attrs |= {a.name for n in nodes if isinstance(n, ast.ImportFrom)
              for a in n.names}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    unread = []
    for module, source in modules.items():
        tree = ast.parse(source)
        read = attrs | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            targets = [node.target] if isinstance(node, ast.AnnAssign) else []
            if isinstance(node, ast.Assign):
                targets = node.targets
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            unread += [f"{module}.{name}" for name in names
                       if private(name) and name not in read]
            if isinstance(node, ast.ClassDef):
                unread += [f"{module}.{node.name}.{f.name}"
                           for f in node.body
                           if isinstance(f, ast.FunctionDef)
                           and not f.name.startswith("__")
                           and f.name not in attrs]
    return unread


def test_no_unread_names():
    src = pathlib.Path(horneq.__file__).parent
    root = src.parents[1]
    paths = [*src.glob("*.py"), *(root / "tests").glob("*.py"),
             *(root / "scripts").glob("*.py")]
    modules = {path.stem: path.read_text() for path in src.glob("*.py")}
    sources = [path.read_text() for path in paths]
    assert _unread_names(modules, sources) == []
    # The check itself: a leftover pattern and a method nothing calls,
    # though another file defines and reads a name of the same spelling.
    module = ("import re\n_TOKEN_RE = re.compile('a')\n"
              "_TOKENS_RE: re.Pattern = re.compile('b')\n"
              "class _Reader:\n"
              "    def __init__(self): self.next()\n"
              "    def next(self): return _TOKENS_RE\n"
              "    def error(self): ...\n"
              "_Reader()\n")
    other = "_TOKEN_RE = 1\nprint(_TOKEN_RE, x.read)\n"
    assert _unread_names({"syntax": module}, [module, other]) == [
        "syntax._TOKEN_RE", "syntax._Reader.error"]


def _unneeded_public(modules: dict[str, str], others: list[str],
                     exported: set[str]) -> list[str]:
    """The public module-level functions and classes that the ``modules``
    (name: source) define, outside ``exported``, and the public methods
    and properties of their classes, that nothing reads outside their own
    definition, in any of ``modules`` or ``others``.  A function or class
    is read as a ``Name``, an attribute or an imported name; a method, as
    an attribute or as a string constant, which ``setattr`` patches by."""

    def reads(node: ast.AST) -> tuple[set[str], set[str]]:
        """What ``node`` reads as a function or class, and as a method."""
        names, methods = set(), set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.ImportFrom):
                names |= {a.name for a in n.names}
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
                methods.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                methods.add(n.value)
        return names, methods

    read, read_methods = set(), set()
    for source in others:
        names, methods = reads(ast.parse(source))
        read |= names
        read_methods |= methods
    defined, defined_methods = [], []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            own, parts = None, [(node, None)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined.append((module, own))
            if isinstance(node, ast.ClassDef):
                methods = [f for f in node.body
                           if isinstance(f, ast.FunctionDef)]
                defined_methods += [f"{module}.{own}.{f.name}"
                                    for f in methods
                                    if not f.name.startswith("_")]
                parts = [(part, getattr(part, "name", None)) for part in
                         (*node.bases, *node.keywords, *node.decorator_list,
                          *node.body)]
            for part, method in parts:
                names, methods = reads(part)
                read |= names - {own}
                read_methods |= methods - {method}
    return [f"{module}.{name}" for module, name in defined
            if name not in exported and name not in read] + [
        name for name in defined_methods
        if name.rsplit(".", 1)[1] not in read_methods]


def _imports_engine(source: str) -> bool:
    """Whether ``source`` imports the ``engine`` module or a name from it,
    at any depth."""
    paths = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            paths += [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom):
            paths += [f"{n.module or ''}.{a.name}" for a in n.names]
    return any("engine" in path.split(".") for path in paths)


def test_no_unneeded_public_names():
    """Every public function and class of ``src/horneq`` is exported or
    used by the package, its scripts or its benchmark, and so is every
    public method and property of its classes; the oracles exist for the
    tests.  ``classify`` stays below the evaluator."""
    src = pathlib.Path(horneq.__file__).parent
    root = src.parents[1]
    modules = {path.stem: path.read_text() for path in src.glob("*.py")
               if path.stem not in ("__init__", "oracle")}
    others = [path.read_text() for path in (
        src / "__init__.py", src / "oracle.py",
        *(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py"))]
    assert _unneeded_public(modules, others, set(horneq.__all__)) == []
    assert not _imports_engine((src / "classify.py").read_text())
    # The checks themselves: a helper and a method read only by their own
    # recursion, one read by another module, a property nothing reads,
    # methods read as an attribute and patched by name, and imports of the
    # evaluator.
    module = ("def walk(t): return walk(t.next)\n"
              "def used(): ...\nclass Old:\n"
              "    def size(self): return self.size()\n"
              "    def find(self): ...\n"
              "    def copy(self): ...\n"
              "    @property\n"
              "    def arity(self): ...\n")
    others = ["used()", "x.find()", "setattr(Old, 'copy', None)"]
    assert _unneeded_public({"classify": module}, others, {"Old"}) == [
        "classify.walk", "classify.Old.size", "classify.Old.arity"]
    assert _imports_engine("def f():\n    from . import engine\n")
    assert _imports_engine("from .engine import evaluate\n")
    assert not _imports_engine("from .core import Structure\n")


def test_only_the_front_ends_import_engine():
    """The evaluator sits above the other layers: of the modules of
    ``src/horneq``, only ``cli`` and the package ``__init__`` import it."""
    src = pathlib.Path(horneq.__file__).parent
    assert {path.stem for path in src.glob("*.py")
            if _imports_engine(path.read_text())} == {"__init__", "cli"}
