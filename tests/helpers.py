"""Shared random generators and brute-force oracles for the test suite.

Everything here is deliberately naive: oracles recompute results by
exhaustive enumeration so the package code under test never certifies
itself.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional

from horneq.core import El, Morphism, RelDecl, Signature, Structure
from horneq.engine import EvalReport, IterationStats
from horneq.oracle import enumerate_morphisms
from horneq.syntax import (DefinedAtom, EqualAtom, Formula, ParseError,
                           RelAtom, Sequent, Theory, Var, _Cursor, _Token,
                           formula_vars)


def random_signature(rng: random.Random, max_sorts: int = 2,
                     max_rels: int = 3) -> Signature:
    sorts = tuple(f"S{i}" for i in range(rng.randint(1, max_sorts)))
    rels = []
    for i in range(rng.randint(1, max_rels)):
        arity = tuple(rng.choice(sorts) for _ in range(rng.randint(1, 2)))
        rels.append(RelDecl(f"R{i}", arity, "pred"))
    return Signature(sorts, tuple(rels))


def random_structure(rng: random.Random, sig: Signature,
                     max_elements: int = 3,
                     min_elements: int = 0) -> Structure:
    x = Structure(sig)
    for s in sig.sorts:
        for _ in range(rng.randint(min_elements, max_elements)):
            x.add_element(s)
    for r in sig.relations:
        pools = [x.elements(s) for s in r.arity]
        if any(not p for p in pools):
            continue
        for _ in range(rng.randint(0, 3)):
            x.add_tuple(r.name, tuple(rng.choice(p) for p in pools))
    return x


def _var_pool(sig: Signature) -> dict[str, list[Var]]:
    names = iter("uvwxyz")
    pool: dict[str, list[Var]] = {s: [] for s in sig.sorts}
    for s in sig.sorts:
        for _ in range(3):
            pool[s].append(Var(next(names), s))
    return pool


def random_formula(rng: random.Random, sig: Signature,
                   pool: dict[str, list[Var]], max_atoms: int = 3,
                   allow_eq: bool = True,
                   restrict: Optional[set[Var]] = None) -> Formula:
    """Random conjunction; with ``restrict``, only those variables are
    used (for surjective conclusions)."""

    def pick(s: str) -> Optional[Var]:
        options = pool[s]
        if restrict is not None:
            options = [v for v in options if v in restrict]
        return rng.choice(options) if options else None

    atoms = []
    for _ in range(rng.randint(0 if restrict is not None else 1, max_atoms)):
        kind = rng.random()
        if kind < 0.15:
            v = pick(rng.choice(sig.sorts))
            if v is not None:
                atoms.append(DefinedAtom(v))
        elif allow_eq and kind < 0.3:
            s = rng.choice(sig.sorts)
            a, b = pick(s), pick(s)
            if a is not None and b is not None:
                atoms.append(EqualAtom(a, b))
        else:
            r = rng.choice(sig.relations)
            args = [pick(s) for s in r.arity]
            if all(a is not None for a in args):
                atoms.append(RelAtom(r, tuple(args)))
    return Formula(tuple(atoms))


def _anchored(premise: Formula, conclusion: Formula
              ) -> tuple[Formula, Formula]:
    """Drop equality and sort-quantification atoms over variables that
    never occur in a relation atom; the surface syntax cannot recover
    their sorts on re-parse."""
    anchored = {v for f in (premise, conclusion) for a in f.atoms
                if isinstance(a, RelAtom) for v in a.args}

    def keep(a) -> bool:
        if isinstance(a, RelAtom):
            return True
        if isinstance(a, DefinedAtom):
            return a.term in anchored
        return a.lhs in anchored and a.rhs in anchored

    return (Formula(tuple(a for a in premise.atoms if keep(a))),
            Formula(tuple(a for a in conclusion.atoms if keep(a))))


def random_sequent(rng: random.Random, sig: Signature,
                   surjective: bool = False, max_atoms: int = 3) -> Sequent:
    pool = _var_pool(sig)
    premise = random_formula(rng, sig, pool, max_atoms)
    if surjective and not any(isinstance(a, RelAtom) for a in premise.atoms):
        r = rng.choice(sig.relations)
        args = tuple(rng.choice(pool[s]) for s in r.arity)
        premise = premise & Formula((RelAtom(r, args),))
    # only variables anchored by a premise relation atom survive pruning,
    # so restrict to those to keep the sequent surjective
    restrict = ({v for a in premise.atoms if isinstance(a, RelAtom)
                 for v in a.args}
                if surjective else None)
    conclusion = random_formula(rng, sig, pool, max_atoms, restrict=restrict)
    premise, conclusion = _anchored(premise, conclusion)
    if not conclusion.atoms:
        pvars = formula_vars(premise)
        if pvars:
            v = rng.choice(pvars)
            conclusion = Formula((EqualAtom(v, v),))
        else:
            r = min(sig.relations, key=lambda d: (len(d.arity), d.name))
            args = tuple(pool[s][0] for s in r.arity)
            conclusion = Formula((RelAtom(r, args),))
    return Sequent(premise, conclusion)


def random_theory(rng: random.Random, sig: Signature, max_sequents: int = 3,
                  surjective: bool = False) -> Theory:
    n = rng.randint(1, max_sequents)
    return Theory(sig, tuple(random_sequent(rng, sig, surjective)
                             for _ in range(n)))


# -- brute-force oracles ---------------------------------------------------


def transitive_closure(n: int, edges: set[tuple[int, int]]
                       ) -> set[tuple[int, int]]:
    reach = set(edges)
    changed = True
    while changed:
        changed = False
        for a, c in list(reach):
            for c2, b in list(reach):
                if c == c2 and (a, b) not in reach:
                    reach.add((a, b))
                    changed = True
    return reach


def all_isomorphisms(a: Structure, b: Structure) -> Iterator[Morphism]:
    for s in a.sig.sorts:
        if len(a.elements(s)) != len(b.elements(s)):
            return
    for m in enumerate_morphisms(a, b):
        if not m.is_injective():
            continue
        inverse = {e2: e1 for e1, e2 in m.mapping.items()}
        try:
            Morphism(b, a, inverse).check_valid()
        except Exception:
            continue
        yield m


def morphisms_isomorphic(f: Morphism, g: Morphism) -> bool:
    """Commuting-square isomorphism of arrows: isos i on domains and j on
    codomains with j . f = g . i."""
    for i in all_isomorphisms(f.dom, g.dom):
        gi = g.compose(i)
        for j in all_isomorphisms(f.cod, g.cod):
            if j.compose(f).mapping == gi.mapping:
                return True
    return False


def structure_from_edges(sig: Signature, rel: str, n: int,
                         edges: set[tuple[int, int]]) -> Structure:
    x = Structure(sig)
    els = [x.add_element(sig.sorts[0]) for _ in range(n)]
    for a, b in sorted(edges):
        x.add_tuple(rel, (els[a], els[b]))
    return x


def relational_reduct(x: Structure, sig: Signature) -> Structure:
    """Copy of ``x`` restricted to the relations of ``sig`` (matched by
    name), re-kinded to predicates."""
    red = Structure(sig)
    mapping: dict[El, El] = {}
    for s in sig.sorts:
        for e in x.elements(s):
            mapping[e] = red.add_element(s)
    for r in sig.relations:
        for t in x.sorted_tuples(r.name):
            red.add_tuple(r.name, tuple(mapping[e] for e in t))
    return red


def enumerate_structures(sig: Signature, max_elements: int
                         ) -> Iterator[Structure]:
    """Every structure with at most ``max_elements`` per sort (labeled,
    not up to isomorphism).  Exponential; keep signatures tiny."""
    sizes = itertools.product(*(range(max_elements + 1)
                                for _ in sig.sorts))
    for size in sizes:
        base = Structure(sig)
        for s, k in zip(sig.sorts, size):
            for _ in range(k):
                base.add_element(s)
        spaces = []
        for r in sig.relations:
            pools = [base.elements(s) for s in r.arity]
            tuples = list(itertools.product(*pools))
            spaces.append([frozenset(c)
                           for k in range(len(tuples) + 1)
                           for c in itertools.combinations(tuples, k)])
        for choice in itertools.product(*spaces):
            x = base.copy()
            for r, ts in zip(sig.relations, choice):
                for t in sorted(ts):
                    x.add_tuple(r.name, t)
            yield x


# -- reference merge -------------------------------------------------------


def full_scan_merge(x: Structure, a: El, b: El
                    ) -> tuple[El, set[tuple[str, tuple[El, ...]]]]:
    """The reference for ``Structure.merge``: union the two classes, then
    rescan every tuple of every relation for the merged-away element.
    Returns the kept element and the (relation, tuple) pairs newly stored
    in rewritten form.  It edits ``x.rels`` directly, so use it only on a
    structure that ``Structure.merge`` never touches."""
    ra, rb = x.find(a), x.find(b)
    if ra == rb:
        return ra, set()
    keep = El(a.sort, x._uf[a.sort].union(ra.index, rb.index))
    lose = rb if keep == ra else ra
    rewritten = set()
    for rel, tuples in x.rels.items():
        touched = [t for t in tuples if lose in t]
        for t in touched:
            tuples.discard(t)
        for t in touched:
            ct = x.canonical(t)
            if ct not in tuples:
                tuples.add(ct)
                rewritten.add((rel, ct))
    return keep, rewritten


# -- reference matcher -----------------------------------------------------


def _match_atoms(atoms, x: Structure, assignment: dict[Var, El],
                 used_delta: bool, delta,
                 tuple_cache: dict) -> Iterator[tuple[dict[Var, El], bool]]:
    if not atoms:
        if delta is None or used_delta:
            yield assignment, used_delta
        return
    atom, rest = atoms[0], atoms[1:]
    if isinstance(atom, RelAtom):
        name = atom.rel.name
        if name not in tuple_cache:
            tuple_cache[name] = x.sorted_tuples(name)
        get = assignment.get
        for t in tuple_cache[name]:
            local: dict[Var, El] = {}
            ok = True
            for v, e in zip(atom.args, t):
                bound = get(v)
                if bound is None:
                    bound = local.get(v)
                if bound is None:
                    local[v] = e
                elif bound != e:
                    ok = False
                    break
            if not ok:
                continue
            new = dict(assignment)
            new.update(local)
            hit = used_delta or (delta is not None
                                 and t in delta.tuples.get(name, ()))
            yield from _match_atoms(rest, x, new, hit, delta, tuple_cache)
    elif isinstance(atom, DefinedAtom):
        v = atom.term
        bound = assignment.get(v)
        if bound is not None:
            hit = used_delta or (delta is not None and bound in delta.elements)
            yield from _match_atoms(rest, x, assignment, hit, delta, tuple_cache)
        else:
            for e in x.elements(v.sort):
                new = dict(assignment)
                new[v] = e
                hit = used_delta or (delta is not None and e in delta.elements)
                yield from _match_atoms(rest, x, new, hit, delta, tuple_cache)
    else:  # EqualAtom
        u, v = atom.lhs, atom.rhs
        bu, bv = assignment.get(u), assignment.get(v)
        if bu is not None and bv is not None:
            if bu == bv:
                yield from _match_atoms(rest, x, assignment, used_delta, delta,
                                        tuple_cache)
        elif bu is not None:
            new = dict(assignment)
            new[v] = bu
            yield from _match_atoms(rest, x, new, used_delta, delta, tuple_cache)
        elif bv is not None:
            new = dict(assignment)
            new[u] = bv
            yield from _match_atoms(rest, x, new, used_delta, delta, tuple_cache)
        else:
            for e in x.elements(u.sort):
                new = dict(assignment)
                new[u] = e
                new[v] = e
                hit = used_delta or (delta is not None and e in delta.elements)
                yield from _match_atoms(rest, x, new, hit, delta, tuple_cache)


def reference_matches(f: Formula, x: Structure, delta=None,
                      binding: Optional[dict[Var, El]] = None
                      ) -> Iterator[dict[Var, El]]:
    """The reference for ``engine.find_matches``: a recursive nested-loop
    join over sorted tuples that tests the delta at the leaf."""
    start = {v: x.find(e) for v, e in (binding or {}).items()}
    for assignment, _ in _match_atoms(f.atoms, x, start, False, delta, {}):
        yield assignment


def reference_witness(x: Structure, s: Sequent
                      ) -> Optional[dict[Var, El]]:
    """The reference for ``engine.counterexample``: the first premise
    match, in ``reference_matches`` order, with no conclusion match under
    its binding."""
    for m in reference_matches(s.premise, x):
        if next(reference_matches(s.conclusion, x, binding=m), None) is None:
            return m
    return None


def _reference_apply(x: Structure, s: Sequent, assignment: dict[Var, El],
                     stats: IterationStats) -> None:
    full = {v: x.find(e) for v, e in assignment.items()}
    for v in formula_vars(s.conclusion):
        if v not in full:
            full[v] = x.add_element(v.sort)
            stats.elements_created += 1
    for atom in s.conclusion.atoms:
        if isinstance(atom, RelAtom):
            if x.add_tuple(atom.rel.name,
                           tuple(x.find(full[v]) for v in atom.args)):
                stats.tuples_added += 1
        elif isinstance(atom, EqualAtom):
            a, b = x.find(full[atom.lhs]), x.find(full[atom.rhs])
            if a != b:
                x.merge(a, b)
                stats.merges += 1


def reference_evaluate(t: Theory, x: Structure,
                       max_iterations: Optional[int] = None
                       ) -> tuple[Structure, Morphism, EvalReport]:
    """The reference for ``engine.evaluate``: naive iteration on
    ``Var``-keyed dicts.  Each iteration matches every premise with
    ``reference_matches``, then fires, in that order, each match that
    ``reference_matches`` cannot extend over the conclusion.  A run that
    hits ``max_iterations`` returns its partial result with
    ``fixed_point`` false instead of raising."""
    result = x.copy()
    report = EvalReport()
    while True:
        stats = IterationStats()
        pending = [(s, m) for s in t.sequents
                   for m in reference_matches(s.premise, result)]
        for s, m in pending:
            if next(reference_matches(s.conclusion, result, binding=m),
                    None) is not None:
                continue
            stats.matches += 1
            _reference_apply(result, s, m, stats)
        report.iterations += 1
        report.per_iteration.append(stats)
        if not stats.changed:
            report.fixed_point = True
            break
        if max_iterations is not None and report.iterations >= max_iterations:
            break
    unit = Morphism(x, result, {e: result.find(e) for sort in x.sig.sorts
                                for e in x.elements(sort)})
    return result, unit, report


# -- reference facts reader ------------------------------------------------


def reference_parse_facts(text: str, sig: Signature
                          ) -> tuple[Structure, dict[str, El]]:
    """The reference for ``facts.parse_facts``: the token reader alone,
    without the fast path for ground facts or the ``merged:`` section."""
    cur = _Cursor(text)
    x = Structure(sig)
    names: dict[str, El] = {}

    def at_sym(text: str) -> bool:
        tok = cur.peek()
        return tok.kind == "sym" and tok.text == text

    def take_ident() -> _Token:
        tok = cur.next()
        if tok.kind != "ident":
            raise ParseError(f"expected a name, found {tok.text!r}",
                             tok.line, tok.col)
        return tok

    def take_sym(text: str) -> _Token:
        tok = cur.next()
        if tok.kind != "sym" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}",
                             tok.line, tok.col)
        return tok

    def element(tok: _Token) -> El:
        if tok.text not in names:
            raise ParseError(f"unknown element {tok.text!r}", tok.line, tok.col)
        return x.find(names[tok.text])

    while cur.peek().kind != "eof":
        tok = cur.peek()
        if tok.kind == "ident" and tok.text == "sort":
            cur.next()
            sort_tok = take_ident()
            if sort_tok.text not in sig.sorts:
                raise ParseError(f"unknown sort {sort_tok.text!r}",
                                 sort_tok.line, sort_tok.col)
            take_sym(":")
            while cur.peek().kind == "ident":
                name_tok = cur.next()
                if name_tok.text in names:
                    raise ParseError(
                        f"element name {name_tok.text!r} already declared",
                        name_tok.line, name_tok.col)
                names[name_tok.text] = x.add_element(sort_tok.text)
            take_sym(";")
        elif tok.kind == "ident":
            head = cur.next()
            if at_sym("="):
                cur.next()
                rhs = take_ident()
                take_sym(";")
                a, b = element(head), element(rhs)
                if a.sort != b.sort:
                    raise ParseError("cannot identify elements of different "
                                     f"sorts {a.sort!r} and {b.sort!r}",
                                     head.line, head.col)
                if a != b:
                    x.merge(a, b)
                continue
            if not sig.has_relation(head.text):
                raise ParseError(f"unknown relation {head.text!r}",
                                 head.line, head.col)
            decl = sig.relation(head.text)
            take_sym("(")
            args = []
            if not at_sym(")"):
                args.append(element(take_ident()))
                while at_sym(","):
                    cur.next()
                    args.append(element(take_ident()))
            take_sym(")")
            take_sym(";")
            if len(args) != len(decl.arity):
                raise ParseError(
                    f"relation {decl.name!r} expects {len(decl.arity)} "
                    f"arguments, got {len(args)}", head.line, head.col)
            for e, s in zip(args, decl.arity):
                if e.sort != s:
                    raise ParseError(
                        f"argument of sort {e.sort!r} where {s!r} expected",
                        head.line, head.col)
            x.add_tuple(decl.name, tuple(args))
        else:
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)

    names = {n: x.find(e) for n, e in names.items()}
    return x, names
