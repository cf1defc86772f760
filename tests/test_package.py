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

ORACLES = ("enumerate_morphisms", "find_isomorphism", "is_total_function",
           "satisfies_phl", "_eval_term", "_phl_atom_holds",
           "is_injective_to", "is_orthogonal_to", "_count_lifts")


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
