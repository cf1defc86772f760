"""Bridges between syntax and structures.

Flattening rewrites composite terms into graph atoms over a relationalized
signature; classifying structures/morphisms turn formulas and sequents into
finite structures and maps between them; ``classify_sequent`` computes the
syntactic fragment flags; ``strengthen_theory`` appends codiagonal sequents so
that injectivity against the result coincides with orthogonality against the
input.  Each is computed from the sequent's atoms on variable numbers,
without building [premise & conclusion] or its pushout along itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .core import El, Morphism, RelDecl, Signature, SignatureError, Structure
from .syntax import (Atom, DefinedAtom, EqualAtom, Formula, RelAtom,
                     Sequent, Term, Theory, Var, atom_terms, formula_vars,
                     is_rhl, sequent_vars)


def relationalize(sig: Signature) -> Signature:
    """Re-kind every function symbol as a plain relation on its graph."""
    return Signature(
        sig.sorts,
        tuple(RelDecl(r.name, r.arity, "pred") for r in sig.relations),
    )


# -- flattening ------------------------------------------------------------


def flatten_sequent(s: Sequent, rel_sig: Signature) -> Sequent:
    """``s`` over ``rel_sig``: each composite term becomes a fresh variable
    ``_u<k>`` fixed by a graph atom placed before the atom that reads it.
    ``k`` counts in walk order (arguments before the term, premise before
    conclusion), skipping the names of ``s``'s variables and of
    ``rel_sig``'s symbols, so the printed result reads back."""
    taken = {v.name for v in sequent_vars(s)}
    names = (n for n in map("_u{}".format, count())
             if n not in taken and not rel_sig.has_relation(n))

    def term(t: Term, out: list[Atom]) -> Var:
        if isinstance(t, Var):
            return t
        args = []
        for a in t.args:
            args.append(term(a, out))
        u = Var(next(names), t.sort)
        args.append(u)
        out.append(RelAtom(rel_sig.relation(t.func.name), tuple(args)))
        return u

    def side(f: Formula) -> Formula:
        out: list[Atom] = []
        for a in f.atoms:
            if isinstance(a, RelAtom):
                args = []
                for t in a.args:
                    args.append(term(t, out))
                out.append(RelAtom(rel_sig.relation(a.rel.name), tuple(args)))
            elif isinstance(a, DefinedAtom):
                out.append(DefinedAtom(term(a.term, out)))
            else:
                out.append(EqualAtom(term(a.lhs, out), term(a.rhs, out)))
        return Formula(tuple(out))

    return Sequent(side(s.premise), side(s.conclusion), location=s.location)


def flatten_theory(t: Theory, with_functionality: bool = False) -> Theory:
    rel_sig = relationalize(t.signature)
    sequents = tuple(flatten_sequent(s, rel_sig) for s in t.sequents)
    if with_functionality:
        sequents += functionality_theory(t.signature).sequents
    return Theory(rel_sig, sequents)


# -- classifying structures and morphisms ---------------------------------


def classifying_structure(f: Formula,
                          sig: Signature) -> tuple[Structure, dict[Var, El]]:
    """The smallest structure carrying a generic interpretation of ``f``:
    one element per distinct variable, one tuple per relation atom, equality
    atoms merged."""
    if not is_rhl(f):
        raise SignatureError("classifying structures are defined on RHL formulas")
    x = Structure(sig)
    interp: dict[Var, El] = {}
    for v in formula_vars(f):
        interp[v] = x.add_element(v.sort)
    for a in f.atoms:
        if isinstance(a, RelAtom):
            x.add_tuple(a.rel.name, tuple(interp[v] for v in a.args))
        elif isinstance(a, EqualAtom):
            x.merge(interp[a.lhs], interp[a.rhs])
    return x, {v: x.find(e) for v, e in interp.items()}


def classifying_morphism(s: Sequent, sig: Signature) -> Morphism:
    """The map [premise] -> [premise & conclusion]."""
    dom, dom_interp = classifying_structure(s.premise, sig)
    cod, cod_interp = classifying_structure(s.premise & s.conclusion, sig)
    mapping = {e: cod_interp[v] for v, e in dom_interp.items()}
    return Morphism(dom, cod, mapping)


def _premise_var_names(x: Structure) -> dict[El, Var]:
    return {e: Var(f"_e_{s}_{e.index}", s)
            for s in x.sig.sorts for e in x.elements(s)}


def sequent_from_morphism(f: Morphism) -> Sequent:
    """An RHL sequent whose classifying morphism is isomorphic to ``f``.

    The premise encodes the domain (carrier and relations); the conclusion
    adjoins elements outside the image, identifications made by ``f``, and
    new tuples.
    """
    x, y = f.dom, f.cod
    vx = _premise_var_names(x)
    premise_atoms: list[Atom] = [DefinedAtom(v) for v in vx.values()]
    for r in x.sig.relations:
        for t in x.sorted_tuples(r.name):
            premise_atoms.append(RelAtom(r, tuple(vx[e] for e in t)))
    in_premise = set(premise_atoms)

    image: dict[El, list[El]] = {}
    for e in vx:
        image.setdefault(f.apply(e), []).append(e)

    # w_y: the variable standing for y in the conclusion; the smallest
    # preimage index wins, fresh variables cover the rest of the codomain.
    wy: dict[El, Var] = {}
    new_atoms: list[Atom] = []
    for s in y.sig.sorts:
        for e in y.elements(s):
            pre = image.get(e)
            if pre:
                wy[e] = vx[min(pre)]
            else:
                wy[e] = Var(f"_n_{s}_{e.index}", s)
                new_atoms.append(DefinedAtom(wy[e]))

    rel_atoms: list[Atom] = []
    for r in y.sig.relations:
        for t in y.sorted_tuples(r.name):
            atom = RelAtom(r, tuple(wy[e] for e in t))
            if atom not in in_premise:
                rel_atoms.append(atom)

    eq_atoms: list[Atom] = []
    for e in sorted(image):
        pre = sorted(image[e])
        rep = pre[0]
        for other in pre[1:]:
            eq_atoms.append(EqualAtom(vx[rep], vx[other]))

    return Sequent(Formula(tuple(premise_atoms)),
                   Formula(tuple(new_atoms + rel_atoms + eq_atoms)))


# -- sequent classification ------------------------------------------------


@dataclass(frozen=True)
class SequentFlags:
    is_rhl: bool
    injective: bool
    surjective: bool
    epic_phl: bool
    datalog: bool
    datalog_sortquant: bool
    datalog_choice: bool

    def names(self) -> list[str]:
        return [name for name in ("datalog", "datalog_sortquant",
                                  "datalog_choice", "surjective", "injective",
                                  "epic_phl", "is_rhl")
                if getattr(self, name)]


def classify_sequent(s: Sequent) -> SequentFlags:
    rhl = is_rhl(s)
    premise_vars = set(formula_vars(s.premise))
    epic = all(v in premise_vars for v in formula_vars(s.conclusion))
    no_eq_conclusion = not any(isinstance(a, EqualAtom)
                               for a in s.conclusion.atoms)
    atoms = s.premise.atoms + s.conclusion.atoms
    only_rel = all(isinstance(a, RelAtom) for a in atoms)
    rel_or_sortquant = all(isinstance(a, (RelAtom, DefinedAtom)) for a in atoms)
    return SequentFlags(
        is_rhl=rhl,
        injective=rhl and no_eq_conclusion,
        surjective=rhl and epic,
        epic_phl=epic,
        datalog=rhl and only_rel and epic,
        datalog_sortquant=rhl and rel_or_sortquant and epic,
        datalog_choice=rhl and rel_or_sortquant,
    )


# -- generated theories ----------------------------------------------------


def functionality_sequent(f: RelDecl, rel_sig: Signature) -> Sequent:
    graph = rel_sig.relation(f.name)
    args = tuple(Var(f"v{i + 1}", s) for i, s in enumerate(f.arg_sorts))
    u0 = Var("u0", f.result_sort)
    u1 = Var("u1", f.result_sort)
    return Sequent(
        Formula((RelAtom(graph, args + (u0,)), RelAtom(graph, args + (u1,)))),
        Formula((EqualAtom(u0, u1),)),
    )


def functionality_theory(sig: Signature) -> Theory:
    """One functionality sequent per function symbol, over the
    relationalized signature."""
    rel_sig = relationalize(sig)
    return Theory(rel_sig, tuple(functionality_sequent(f, rel_sig)
                                 for f in sig.functions()))


# -- strengthening ---------------------------------------------------------


def _codiagonal_sequent(s: Sequent, sig: Signature) -> Sequent:
    """The sequent classified by the codiagonal B +_A B -> B of the
    classifying morphism A = [premise] -> B = [premise & conclusion].

    B +_A B is B with the elements outside the image of A doubled, with
    their tuples; the fold map is onto and identifies only each double
    with its original.  B is read off the atoms on variable numbers: the
    checks are those of ``classifying_structure``, in its order; each
    class is kept under its least number, as ``Structure.merge`` keeps
    the smallest index; and elements are numbered as by ``core.pushout``,
    so the result equals ``sequent_from_morphism`` of the fold map."""
    at = {sort: si for si, sort in enumerate(sig.sorts)}
    ids: dict[tuple[str, str], int] = {}  # (name, sort): number, in order
    try:
        if not is_rhl(s):
            raise SignatureError("classifying structures are defined on RHL formulas")
        rows = []
        for f in (s.premise, s.conclusion):
            in_premise = len(ids)  # last taken before the conclusion
            for a in f.atoms:
                row = []
                for v in atom_terms(a):
                    if v.sort not in at:
                        raise SignatureError(f"unknown sort {v.sort!r}")
                    row.append(ids.setdefault((v.name, v.sort), len(ids)))
                rows.append(row)
        parent = list(range(len(ids)))  # union-find; a root is its class's least
        rels: dict[str, list] = {}  # per relation with atoms: its rows
        for a, row in zip(s.premise.atoms + s.conclusion.atoms, rows):
            if isinstance(a, RelAtom):  # the checks of ``add_tuple``
                name, arity = a.rel.name, sig.relation(a.rel.name).arity
                if len(row) != len(arity):
                    raise SignatureError(f"{name}: expected {len(arity)} "
                                         f"components, got {len(row)}")
                for v, sort in zip(a.args, arity):
                    if v.sort != sort:
                        raise SignatureError(f"{name}: component of sort "
                                             f"{v.sort!r}, expected {sort!r}")
                rels.setdefault(name, []).append(row)
            elif isinstance(a, EqualAtom):
                if a.lhs.sort != a.rhs.sort:
                    raise SignatureError("merging across sorts "
                                         f"{a.lhs.sort!r}/{a.rhs.sort!r}")
                i, j = row
                while parent[i] != i:  # path halving
                    parent[i] = i = parent[parent[i]]
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                parent[max(i, j)] = min(i, j)
    except SignatureError as err:  # say where
        if s.location is None:
            raise
        raise SignatureError("{}:{}: {}".format(*s.location, err)) from None
    # Per variable number, its element of B as first and as second copy,
    # with c of the si-th sort coded si * big + c to sort as listed.
    big, k = 2 * len(ids), [0] * len(at)  # k: B's elements per sort
    first: list[int] = []
    for (_, sort), (i, j) in zip(ids, enumerate(parent)):
        if j == i:
            first.append(at[sort] * big + k[at[sort]])
            k[at[sort]] += 1
        else:
            first.append(first[j])
    image = set(first[:in_premise])
    second = [x if x in image else x + k[x // big] for x in first]
    names: dict[int, Var] = {}
    for x in sorted({*first, *second}):
        sort = sig.sorts[x // big]
        names[x] = Var(f"_e_{sort}_{x % big}", sort)
    premise: list[Atom] = [DefinedAtom(v) for v in names.values()]
    for r in [r for r in sig.relations if r.name in rels]:
        ts = {tuple([copy[i] for i in row])
              for row in rels[r.name] for copy in (first, second)}
        premise += [RelAtom(r, tuple([names[x] for x in t])) for t in sorted(ts)]
    doubled = sorted(set(first) - image, key=lambda x: (sig.sorts[x // big], x))
    return Sequent(Formula(tuple(premise)), Formula(tuple(
        EqualAtom(names[x], names[x + k[x // big]]) for x in doubled)))


def strengthen_theory(t: Theory) -> Theory:
    """Append, per sequent, the sequent classified by the codiagonal of its
    classifying morphism; models of the result are exactly the structures
    orthogonal to the input's classifying morphisms.  Each is computed
    from the sequent's atoms, building no ``Structure``; a sequent that
    ``classifying_structure`` rejects gets its error and location."""
    extra = tuple(_codiagonal_sequent(s, t.signature) for s in t.sequents)
    return Theory(t.signature, t.sequents + extra)
