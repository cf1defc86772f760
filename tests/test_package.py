import ast
import pathlib

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
    (name: source) define, outside ``exported``, and that nothing reads
    outside their own definition: not as a ``Name``, an attribute or an
    imported name, in any of ``modules`` or ``others``."""

    def reads(node: ast.AST) -> set[str]:
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                out |= {a.name for a in n.names}
        return out

    read = set().union(*(reads(ast.parse(source)) for source in others))
    defined = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined.append((module, own))
            read |= reads(node) - {own}
    return [f"{module}.{name}" for module, name in defined
            if name not in exported and name not in read]


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
    used by the package, its scripts or its benchmark; the oracles exist
    for the tests.  ``classify`` stays below the evaluator."""
    src = pathlib.Path(horneq.__file__).parent
    root = src.parents[1]
    modules = {path.stem: path.read_text() for path in src.glob("*.py")
               if path.stem not in ("__init__", "oracle")}
    others = [path.read_text() for path in (
        src / "__init__.py", src / "oracle.py",
        *(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py"))]
    assert _unneeded_public(modules, others, set(horneq.__all__)) == []
    assert not _imports_engine((src / "classify.py").read_text())
    # The checks themselves: a helper read only by its own recursion, one
    # read by another module, and imports of the evaluator.
    module = ("def walk(t): return walk(t.next)\n"
              "def used(): ...\nclass Old: ...\n")
    assert _unneeded_public({"classify": module}, ["used()"], {"Old"}) == [
        "classify.walk"]
    assert _imports_engine("def f():\n    from . import engine\n")
    assert _imports_engine("from .engine import evaluate\n")
    assert not _imports_engine("from .core import Structure\n")


def test_only_the_front_ends_import_engine():
    """The evaluator sits above the other layers: of the modules of
    ``src/horneq``, only ``cli`` and the package ``__init__`` import it."""
    src = pathlib.Path(horneq.__file__).parent
    assert {path.stem for path in src.glob("*.py")
            if _imports_engine(path.read_text())} == {"__init__", "cli"}
