"""Desk-scale brute-force oracles.

Each search follows a definition literally: it enumerates every candidate
map or assignment and checks it, so it is exponential in the size of its
input.  Satisfaction by lifting properties, term-evaluation semantics for
PHL, morphism enumeration and isomorphism search live here, apart from the
evaluator, so the tests can compare the evaluator and the compilers with
them.  Nothing in ``horneq eval`` calls this module.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .core import El, Morphism, SignatureError, Structure
from .syntax import DefinedAtom, RelAtom, Sequent, Var, formula_vars


def _maps(b: Structure, x: Structure,
          fixed: dict[El, El]) -> Iterator[dict[El, El]]:
    """Every tuple-preserving map ``b -> x`` that extends ``fixed``.  The
    other elements of ``b`` range over ``x`` by sort, then by index."""
    free = [e for s in b.sig.sorts for e in b.elements(s) if e not in fixed]
    spaces = [x.elements(e.sort) for e in free]
    for images in itertools.product(*spaces):
        mapping = dict(fixed)
        mapping.update(zip(free, images))
        if all(x.has_tuple(rel, tuple(mapping[e] for e in t))
               for rel, tuples in b.rels.items() for t in tuples):
            yield mapping


# -- morphisms --------------------------------------------------------------


def enumerate_morphisms(a: Structure, x: Structure) -> Iterator[Morphism]:
    """All morphisms a -> x, enumerated deterministically."""
    if a.sig != x.sig:
        raise SignatureError("morphism enumeration over mismatched signatures")
    for mapping in _maps(a, x, {}):
        yield Morphism(a, x, mapping)


def find_isomorphism(x: Structure, y: Structure) -> Optional[Morphism]:
    """A bijective, relation-preserving-and-reflecting morphism, if one
    exists.  Exhaustive over per-sort bijections."""
    if x.sig != y.sig:
        return None
    for s in x.sig.sorts:
        if x.element_count(s) != y.element_count(s):
            return None
    for rel in x.rels:
        if len(x.rels[rel]) != len(y.rels[rel]):
            return None
    per_sort_x = [x.elements(s) for s in x.sig.sorts]
    per_sort_y = [y.elements(s) for s in x.sig.sorts]
    perm_spaces = [itertools.permutations(ys) for ys in per_sort_y]
    for perms in itertools.product(*perm_spaces):
        mapping = {}
        for xs, ys in zip(per_sort_x, perms):
            mapping.update(zip(xs, ys))
        ok = True
        for rel, tuples in x.rels.items():
            images = {tuple(mapping[e] for e in t) for t in tuples}
            if images != y.rels[rel]:
                ok = False
                break
        if ok:
            return Morphism(x, y, mapping)
    return None


def is_total_function(x: Structure, f: str) -> bool:
    """True iff the function symbol ``f`` is defined on every argument tuple."""
    decl = x.sig.relation(f)
    if decl.kind != "func":
        raise SignatureError(f"{f} is not a function symbol")
    graph = x.rels[f]
    arg_spaces = [x.elements(s) for s in decl.arg_sorts]
    for args in itertools.product(*arg_spaces):
        if not any(t[:-1] == args for t in graph):
            return False
    return True


# -- lifting properties -----------------------------------------------------


def is_injective_to(x: Structure, f: Morphism) -> bool:
    """Every map dom(f) -> x extends along f."""
    for a in enumerate_morphisms(f.dom, x):
        if _count_lifts(x, f, a, stop_at=1) == 0:
            return False
    return True


def is_orthogonal_to(x: Structure, f: Morphism) -> bool:
    """Every map dom(f) -> x extends along f in exactly one way."""
    for a in enumerate_morphisms(f.dom, x):
        if _count_lifts(x, f, a, stop_at=2) != 1:
            return False
    return True


def _count_lifts(x: Structure, f: Morphism, a: Morphism, stop_at: int) -> int:
    """Number of maps b : cod(f) -> x with b . f = a, up to ``stop_at``."""
    fixed: dict[El, El] = {}
    for s in f.dom.sig.sorts:
        for e in f.dom.elements(s):
            want = a.apply(e)
            if fixed.setdefault(f.apply(e), want) != want:
                return 0
    return sum(1 for _ in itertools.islice(_maps(f.cod, x, fixed), stop_at))


# -- PHL satisfaction (independent term-evaluation semantics) --------------


def _eval_term(x: Structure, term, assignment: dict[Var, El]) -> Optional[El]:
    if isinstance(term, Var):
        return assignment[term]
    args = []
    for a in term.args:
        e = _eval_term(x, a, assignment)
        if e is None:
            return None
        args.append(e)
    for t in x.rels[term.func.name]:
        if list(t[:-1]) == args:
            return t[-1]
    return None


def _phl_atom_holds(x: Structure, atom, assignment) -> bool:
    if isinstance(atom, RelAtom):
        args = [_eval_term(x, t, assignment) for t in atom.args]
        if any(a is None for a in args):
            return False
        return x.has_tuple(atom.rel.name, tuple(args))
    if isinstance(atom, DefinedAtom):
        return _eval_term(x, atom.term, assignment) is not None
    l = _eval_term(x, atom.lhs, assignment)
    r = _eval_term(x, atom.rhs, assignment)
    return l is not None and l == r


def satisfies_phl(x: Structure, s: Sequent) -> bool:
    """PHL satisfaction over an algebraic structure by direct term
    evaluation, over every variable assignment."""
    pvars = formula_vars(s.premise)
    all_vars = {v: None for v in pvars}
    for v in formula_vars(s.conclusion):
        all_vars.setdefault(v)
    cvars = [v for v in all_vars if v not in set(pvars)]
    spaces = [x.elements(v.sort) for v in pvars]
    for images in itertools.product(*spaces):
        assignment = dict(zip(pvars, images))
        if not all(_phl_atom_holds(x, a, assignment) for a in s.premise.atoms):
            continue
        ext_spaces = [x.elements(v.sort) for v in cvars]
        found = False
        for ext in itertools.product(*ext_spaces):
            full = dict(assignment)
            full.update(zip(cvars, ext))
            if all(_phl_atom_holds(x, a, full) for a in s.conclusion.atoms):
                found = True
                break
        if not found:
            return False
    return True
