"""Bridges between syntax and structures.

Flattening rewrites composite terms into graph atoms over a relationalized
signature; classifying structures/morphisms turn formulas and sequents into
finite structures and maps between them; ``classify_sequent`` computes the
syntactic fragment flags; ``strengthen_theory`` appends codiagonal sequents so
that injectivity against the result coincides with orthogonality against the
input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (El, Morphism, RelDecl, Signature, SignatureError,
                   Structure, pushout)
from .syntax import (App, Atom, DefinedAtom, EqualAtom, Formula, RelAtom,
                     Sequent, Term, Theory, Var, formula_vars, is_rhl,
                     sequent_vars)


def relationalize(sig: Signature) -> Signature:
    """Re-kind every function symbol as a plain relation on its graph."""
    return Signature(
        sig.sorts,
        tuple(RelDecl(r.name, r.arity, "pred") for r in sig.relations),
    )


# -- flattening ------------------------------------------------------------


class FreshVars:
    """Deterministic supply of fresh variables ``_u0, _u1, ...`` skipping any
    name already present in the input."""

    def __init__(self, used: set[str] = frozenset()):
        self.used = set(used)
        self.counter = 0

    @classmethod
    def for_sequent(cls, s: Sequent) -> "FreshVars":
        return cls({v.name for v in sequent_vars(s)})

    def next(self, sort: str) -> Var:
        while True:
            name = f"_u{self.counter}"
            self.counter += 1
            if name not in self.used:
                self.used.add(name)
                return Var(name, sort)


def _flatten_term(t: Term, fresh: FreshVars,
                  rel_sig: Signature) -> tuple[list[Atom], Var]:
    if isinstance(t, Var):
        return [], t
    atoms: list[Atom] = []
    arg_vars: list[Var] = []
    for a in t.args:
        sub, v = _flatten_term(a, fresh, rel_sig)
        atoms.extend(sub)
        arg_vars.append(v)
    u = fresh.next(t.sort)
    graph = rel_sig.relation(t.func.name)
    atoms.append(RelAtom(graph, tuple(arg_vars) + (u,)))
    return atoms, u


def _flatten_atom(a: Atom, fresh: FreshVars, rel_sig: Signature) -> list[Atom]:
    if isinstance(a, RelAtom):
        atoms: list[Atom] = []
        arg_vars = []
        for t in a.args:
            sub, v = _flatten_term(t, fresh, rel_sig)
            atoms.extend(sub)
            arg_vars.append(v)
        atoms.append(RelAtom(rel_sig.relation(a.rel.name), tuple(arg_vars)))
        return atoms
    if isinstance(a, DefinedAtom):
        atoms, v = _flatten_term(a.term, fresh, rel_sig)
        return atoms + [DefinedAtom(v)]
    atoms, v1 = _flatten_term(a.lhs, fresh, rel_sig)
    more, v2 = _flatten_term(a.rhs, fresh, rel_sig)
    return atoms + more + [EqualAtom(v1, v2)]


def flatten_formula(f: Formula, rel_sig: Signature,
                    fresh: FreshVars | None = None) -> Formula:
    if fresh is None:
        fresh = FreshVars({v.name for v in formula_vars(f)})
    out: list[Atom] = []
    for a in f.atoms:
        out.extend(_flatten_atom(a, fresh, rel_sig))
    return Formula(tuple(out))


def flatten_sequent(s: Sequent, rel_sig: Signature) -> Sequent:
    fresh = FreshVars.for_sequent(s)
    premise = flatten_formula(s.premise, rel_sig, fresh)
    conclusion = flatten_formula(s.conclusion, rel_sig, fresh)
    return Sequent(premise, conclusion, location=s.location)


def flatten_theory(t: Theory, with_functionality: bool = False) -> Theory:
    rel_sig = relationalize(t.signature)
    sequents = tuple(flatten_sequent(s, rel_sig) for s in t.sequents)
    if with_functionality:
        sequents += functionality_theory(t.signature).sequents
    return Theory(rel_sig, sequents)


def unflatten_formula(f: Formula, alg_sig: Signature) -> Formula:
    """Inverse of flattening at the atom level: each graph atom
    ``f(x1..xn, x)`` becomes ``f(x1..xn) = x``."""
    if not is_rhl(f):
        raise SignatureError("unflatten expects an RHL formula")
    out: list[Atom] = []
    for a in f.atoms:
        if isinstance(a, RelAtom) and alg_sig.relation(a.rel.name).kind == "func":
            decl = alg_sig.relation(a.rel.name)
            out.append(EqualAtom(App(decl, a.args[:-1]), a.args[-1]))
        else:
            out.append(a)
    return Formula(tuple(out))


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
            if atom not in premise_atoms:
                rel_atoms.append(atom)

    eq_atoms: list[Atom] = []
    for e in sorted(image):
        pre = sorted(image[e])
        rep = pre[0]
        for other in pre[1:]:
            eq_atoms.append(EqualAtom(vx[rep], vx[other]))

    return Sequent(Formula(tuple(premise_atoms)),
                   Formula(tuple(new_atoms + rel_atoms + eq_atoms)))


# -- PHL classifying structures (free algebraic reflection) ----------------


def _reflect(flat: Formula,
             sig: Signature) -> tuple[Structure, dict[Var, El]]:
    """The classifying structure of a flattened formula over the
    relationalized signature, made functional by evaluating
    ``functionality_theory(sig)``; the interpretation follows the unit."""
    from . import engine  # deliberate upward call; classify stays engine-free otherwise

    base, interp = classifying_structure(flat, relationalize(sig))
    result, unit, _ = engine.evaluate(functionality_theory(sig), base,
                                      engine.EvalConfig())
    return result, {v: unit.apply(e) for v, e in interp.items()}


def classifying_structure_phl(f: Formula,
                              sig: Signature) -> tuple[Structure, dict[Var, El]]:
    """Classifying algebraic structure of a PHL formula: the free algebraic
    reflection of the classifying structure of its flattening."""
    result, interp = _reflect(flatten_formula(f, relationalize(sig)), sig)
    wanted = set(formula_vars(f))
    return result, {v: e for v, e in interp.items() if v in wanted}


def classifying_morphism_phl(s: Sequent, sig: Signature) -> Morphism:
    flat = flatten_sequent(s, relationalize(sig))
    dom, dom_interp = _reflect(flat.premise, sig)
    cod, cod_interp = _reflect(flat.premise & flat.conclusion, sig)
    mapping = {e: cod_interp[v] for v, e in dom_interp.items()}
    return Morphism(dom, cod, mapping)


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


def totality_sequent(f: RelDecl) -> Sequent:
    if f.kind != "func":
        raise SignatureError(f"{f.name} is not a function symbol")
    args = tuple(Var(f"v{i + 1}", s) for i, s in enumerate(f.arg_sorts))
    return Sequent(
        Formula(tuple(DefinedAtom(v) for v in args)),
        Formula((DefinedAtom(App(f, args)),)),
    )


# -- strengthening ---------------------------------------------------------


def _codiagonal(f: Morphism) -> Morphism:
    """The fold map B +_A B -> B of the pushout of ``f`` along itself."""
    p, j1, j2 = pushout(f, f)
    mapping: dict[El, El] = {}
    for b, e in j1.mapping.items():
        mapping[p.find(e)] = b
    for b, e in j2.mapping.items():
        mapping[p.find(e)] = b
    return Morphism(p, f.cod, mapping)


def strengthen_theory(t: Theory) -> Theory:
    """Append, per sequent, the sequent classified by the codiagonal of its
    classifying morphism; models of the result are exactly the structures
    orthogonal to the input's classifying morphisms."""
    if not is_rhl(t):
        raise SignatureError("strengthen_theory expects an RHL theory")
    extra = []
    for s in t.sequents:
        f = classifying_morphism(s, t.signature)
        extra.append(sequent_from_morphism(_codiagonal(f)))
    return Theory(t.signature, t.sequents + tuple(extra))
