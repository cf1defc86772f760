"""Theory-to-theory compilers.

The setoid transformation replaces built-in equality with explicit
equivalence relations ``Eq_<sort>`` so that the result never merges
elements during evaluation.  The sparse variant drops the congruence
rules and instead splits repeated premise variables.  The epic
transformation turns conclusion-only variables into partial function
symbols, producing an equivalent epic theory over an algebraic
signature.
"""

from __future__ import annotations

from collections import Counter

from .core import El, SignatureError, Structure
from .syntax import (App, DefinedAtom, EqualAtom, Formula, RelAtom, RelDecl,
                     Sequent, Signature, Theory, Var, formula_vars, is_rhl)


class PreconditionError(ValueError):
    pass


def _eq_name(sort: str) -> str:
    return f"Eq_{sort}"


def setoid_signature(sig: Signature) -> Signature:
    relations = list(sig.relations)
    for s in sig.sorts:
        name = _eq_name(s)
        if sig.has_relation(name):
            raise SignatureError(f"relation name {name!r} already in use")
        relations.append(RelDecl(name, (s, s), "pred"))
    return Signature(sig.sorts, tuple(relations))


def _equivalence_sequents(sig: Signature, out: Signature) -> list[Sequent]:
    sequents = []
    for s in sig.sorts:
        eq = out.relation(_eq_name(s))
        x, y, z = Var("x", s), Var("y", s), Var("z", s)
        sequents.append(Sequent(Formula((DefinedAtom(x),)),
                                Formula((RelAtom(eq, (x, x)),))))
        sequents.append(Sequent(Formula((RelAtom(eq, (x, y)),)),
                                Formula((RelAtom(eq, (y, x)),))))
        sequents.append(Sequent(
            Formula((RelAtom(eq, (x, y)), RelAtom(eq, (y, z)))),
            Formula((RelAtom(eq, (x, z)),))))
    return sequents


def _substitute_eq(f: Formula, out: Signature) -> Formula:
    atoms = []
    for atom in f.atoms:
        if isinstance(atom, EqualAtom):
            eq = out.relation(_eq_name(atom.lhs.sort))
            atoms.append(RelAtom(eq, (atom.lhs, atom.rhs)))
        else:
            atoms.append(atom)
    return Formula(tuple(atoms))


def setoid_transform(t: Theory) -> Theory:
    if not is_rhl(t):
        raise SignatureError("setoid_transform expects an RHL theory")
    out_sig = setoid_signature(t.signature)
    sequents = _equivalence_sequents(t.signature, out_sig)
    for r in t.signature.relations:
        vs = tuple(Var(f"v{i + 1}", s) for i, s in enumerate(r.arity))
        us = tuple(Var(f"u{i + 1}", s) for i, s in enumerate(r.arity))
        premise = [RelAtom(r, vs)]
        premise += [RelAtom(out_sig.relation(_eq_name(s)), (v, u))
                    for v, u, s in zip(vs, us, r.arity)]
        sequents.append(Sequent(Formula(tuple(premise)),
                                Formula((RelAtom(r, us),))))
    for s in t.sequents:
        sequents.append(Sequent(_substitute_eq(s.premise, out_sig),
                                _substitute_eq(s.conclusion, out_sig)))
    return Theory(out_sig, tuple(sequents))


def _split_occurrences(premise: Formula, out: Signature,
                       taken: set[str]) -> Formula:
    """Replace the i-th (i >= 2) occurrence of each variable in relation
    atoms by a fresh copy, linked back by an Eq atom."""
    seen: set[Var] = set()
    counters: dict[Var, int] = {}
    atoms = []
    links = []
    for atom in premise.atoms:
        if not isinstance(atom, RelAtom):
            atoms.append(atom)
            continue
        args = []
        for v in atom.args:
            if v not in seen:
                seen.add(v)
                args.append(v)
                continue
            i = counters.get(v, 1) + 1
            name = f"{v.name}{i}"
            while name in taken:
                i += 1
                name = f"{v.name}{i}"
            counters[v] = i
            taken.add(name)
            copy = Var(name, v.sort)
            args.append(copy)
            links.append(RelAtom(out.relation(_eq_name(v.sort)), (v, copy)))
        atoms.append(RelAtom(atom.rel, tuple(args)))
    return Formula(tuple(atoms + links))


def sparse_setoid_transform(t: Theory) -> Theory:
    if not is_rhl(t):
        raise SignatureError("sparse_setoid_transform expects an RHL theory")
    out_sig = setoid_signature(t.signature)
    sequents = _equivalence_sequents(t.signature, out_sig)
    for s in t.sequents:
        taken = {v.name for v in formula_vars(s.premise)}
        taken.update(v.name for v in formula_vars(s.conclusion))
        # split before substitution: equality atoms become Eq links as a
        # whole and are never occurrence-split themselves
        premise = _substitute_eq(
            _split_occurrences(s.premise, out_sig, taken), out_sig)
        sequents.append(Sequent(premise, _substitute_eq(s.conclusion, out_sig)))
    return Theory(out_sig, tuple(sequents))


# -- the quotient / diagonal functors --------------------------------------


def _base_signature(sig: Signature) -> Signature:
    eq_names = {_eq_name(s) for s in sig.sorts}
    return Signature(sig.sorts,
                     tuple(r for r in sig.relations
                           if r.name not in eq_names))


def quotient_model(y: Structure) -> Structure:
    """Merge each ``Eq_<sort>`` class to one element and drop the Eq
    relations; requires each Eq to be an equivalence relation.  The
    quotient's elements come in the order of each class's smallest
    element in ``y``."""
    sig = y.sig
    q = Structure(_base_signature(sig))
    image = {e: q.add_element(s) for s in sig.sorts for e in y.elements(s)}
    for s in sig.sorts:
        name = _eq_name(s)
        if not sig.has_relation(name):
            raise PreconditionError(f"missing relation {name!r}")
        elems, rel = y.elements(s), y.rels[name]
        if any((e, e) not in rel for e in elems):
            raise PreconditionError(f"{name} is not reflexive")
        if any((b, a) not in rel for a, b in rel):
            raise PreconditionError(f"{name} is not symmetric")
        for a, b in rel:
            q.merge(image[a], image[b])
        # A reflexive, symmetric relation lies within its connected
        # classes; it is transitive exactly when it holds every pair of
        # each class.
        sizes = Counter(q.find(image[e]) for e in elems)
        if len(rel) != sum(n * n for n in sizes.values()):
            raise PreconditionError(f"{name} is not transitive")
    # Stored after every merge, so no merge rewrites them.
    for name in q.rels:
        for t in y.rels[name]:
            q.add_tuple(name, tuple([image[e] for e in t]))
    return q


def diagonal_embed(x: Structure) -> Structure:
    """View a structure over the setoid signature with diagonal Eq."""
    out_sig = setoid_signature(x.sig)
    y = Structure(out_sig)
    mapping: dict[El, El] = {}
    for s in x.sig.sorts:
        for e in x.elements(s):
            mapping[e] = y.add_element(s)
    for name in sorted(x.rels):
        for t in x.sorted_tuples(name):
            y.add_tuple(name, tuple(mapping[e] for e in t))
    for s in x.sig.sorts:
        name = _eq_name(s)
        for e in x.elements(s):
            y.add_tuple(name, (mapping[e], mapping[e]))
    return y


# -- conclusion-variable elimination ---------------------------------------


def epic_transform(t: Theory) -> tuple[Signature, Theory]:
    """Replace each conclusion-only variable by a partial function of the
    premise variables; returns the extended signature and an epic theory
    over it."""
    if not is_rhl(t):
        raise SignatureError("epic_transform expects an RHL theory")
    relations = list(t.signature.relations)
    taken = {r.name for r in relations}
    sequents = []
    for idx, s in enumerate(t.sequents):
        pvars = formula_vars(s.premise)
        known = set(pvars)
        fresh = [v for v in formula_vars(s.conclusion) if v not in known]
        terms: dict[Var, App] = {}
        for v in fresh:
            name = f"f_{idx}_{v.name}"
            if name in taken:
                raise SignatureError(f"relation name {name!r} already in use")
            f = RelDecl(name, tuple(w.sort for w in pvars) + (v.sort,), "func")
            relations.append(f)
            taken.add(name)
            terms[v] = App(f, tuple(pvars))

        def subst(atom):
            if isinstance(atom, RelAtom):
                return RelAtom(atom.rel,
                               tuple(terms.get(a, a) for a in atom.args))
            if isinstance(atom, DefinedAtom):
                return DefinedAtom(terms.get(atom.term, atom.term))
            return EqualAtom(terms.get(atom.lhs, atom.lhs),
                             terms.get(atom.rhs, atom.rhs))

        conclusion = Formula(tuple(subst(a) for a in s.conclusion.atoms))
        sequents.append(Sequent(s.premise, conclusion))
        for v in fresh:
            sequents.append(Sequent(Formula((DefinedAtom(terms[v]),)),
                                    s.premise))
        if fresh:
            eqs = tuple(EqualAtom(v, terms[v]) for v in fresh)
            sequents.append(Sequent(s.premise & s.conclusion, Formula(eqs)))
    sig = Signature(t.signature.sorts, tuple(relations))
    return sig, Theory(sig, tuple(sequents))
