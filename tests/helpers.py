"""Shared random generators and brute-force oracles for the test suite.

Everything here is deliberately naive: oracles recompute results by
exhaustive enumeration so the package code under test never certifies
itself.
"""

from __future__ import annotations

import itertools
import random
import re
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from horneq.classify import classifying_morphism, sequent_from_morphism
from horneq.core import El, Morphism, RelDecl, Signature, Structure, pushout
from horneq.engine import EvalReport, IterationStats
from horneq.oracle import enumerate_morphisms
from horneq.syntax import (MAX_TERM_DEPTH, App, Atom, DefinedAtom, EqualAtom,
                           Formula, ParseError, RelAtom, Sequent, Term, Theory,
                           VacuousSequentWarning, Var, formula_vars)


def call_outcome(call) -> object:
    """What ``call()`` returns, or its error's type name and message."""
    try:
        return call()
    except Exception as err:  # compared by type and message
        return type(err).__name__, str(err)


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
    # u..z for the first two sorts, so their draws never change; then
    # t0, t1, ... for any further sort.
    names = itertools.chain("uvwxyz", (f"t{i}" for i in itertools.count()))
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


def compile_style_text(rng: random.Random, sorts: tuple[str, ...],
                       funcs: list[tuple[str, tuple[str, ...], str]],
                       preds: list[tuple[str, tuple[str, ...]]],
                       pool: dict[str, list[str]]) -> str:
    """The text of a theory of one to four rules with nested function
    terms, in the style of the benchmark's compile theories.  ``funcs``
    holds (name, argument sorts, result sort), ``preds`` (name, sorts);
    rules draw variables from ``pool``, and a conclusion falls back on one
    fresh variable of a sort whose pool names the premise does not use."""
    by_result = {s: [(n, a) for n, a, r in funcs if r == s] for s in sorts}
    lines = [f"sort {s};" for s in sorts]
    lines += [f"func {n} : {' * '.join(a) + ' ' if a else ''}-> {r};"
              for n, a, r in funcs]
    lines += [f"pred {n} : {' * '.join(a)};" for n, a in preds]
    for _ in range(rng.randint(1, 4)):
        used = set()

        def term(sort, depth, pool, app=False):
            if depth and (app or rng.random() < 0.4):
                name, args = rng.choice(by_result[sort])
                inner = ", ".join(term(a, depth - 1, pool) for a in args)
                return f"{name}({inner})"
            v = rng.choice(pool[sort])
            used.add(v)
            return v

        def atom(pool):
            r = rng.random()
            if r < 0.7:
                name, args = rng.choice(preds)
                return f"{name}({', '.join(term(a, 2, pool) for a in args)})"
            sort = rng.choice(sorts)
            lhs = term(sort, 2, pool, app=True)
            return f"{lhs} = {term(sort, 2, pool)}" if r < 0.9 else f"{lhs}!"

        premise = [atom(pool) for _ in range(rng.randint(1, 3))]
        concl_pool = {s: [v for v in vs if v in used] or [f"{s.lower()}9"]
                      for s, vs in pool.items()}
        conclusion = [atom(concl_pool) for _ in range(rng.randint(1, 2))]
        lines.append(f"rule {' & '.join(premise)} => "
                     f"{' & '.join(conclusion)};")
    return "\n".join(lines) + "\n"


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


# -- structures and morphisms, beyond what the library needs ---------------


def raw_count(x: Structure, sort: str) -> int:
    """Number of indices ``x`` allocated in ``sort``, merged-away ones
    included."""
    return len(x._parent[sort])


def element_total(x: Structure) -> int:
    """Number of canonical elements of ``x``, over all sorts."""
    return sum(x.element_count(s) for s in x.sig.sorts)


def is_canonical(x: Structure) -> bool:
    """Whether every stored tuple of ``x`` holds only canonical elements."""
    return all(x.find(e) == e for ts in x.rels.values() for t in ts
               for e in t)


def is_homomorphism(f: Morphism) -> bool:
    """Whether ``f`` is defined and sort-preserving on every element of its
    domain, and maps every tuple of its domain to one of its codomain."""
    for s in f.dom.sig.sorts:
        for e in f.dom.elements(s):
            if e not in f.mapping or f.mapping[e].sort != s:
                return False
    return all(f.cod.has_tuple(rel, f.apply_tuple(t))
               for rel, ts in f.dom.rels.items() for t in ts)


def identity(x: Structure) -> Morphism:
    return Morphism(x, x, {e: e for s in x.sig.sorts for e in x.elements(s)})


def compose(g: Morphism, f: Morphism) -> Morphism:
    """``g`` after ``f``."""
    return Morphism(f.dom, g.cod, {e: g.apply(f.apply(e))
                                   for s in f.dom.sig.sorts
                                   for e in f.dom.elements(s)})


def all_isomorphisms(a: Structure, b: Structure) -> Iterator[Morphism]:
    for s in a.sig.sorts:
        if len(a.elements(s)) != len(b.elements(s)):
            return
    for m in enumerate_morphisms(a, b):
        if not m.is_injective():
            continue
        inverse = {e2: e1 for e1, e2 in m.mapping.items()}
        if is_homomorphism(Morphism(b, a, inverse)):
            yield m


def morphisms_isomorphic(f: Morphism, g: Morphism) -> bool:
    """Commuting-square isomorphism of arrows: isos i on domains and j on
    codomains with j . f = g . i."""
    for i in all_isomorphisms(f.dom, g.dom):
        gi = compose(g, i)
        for j in all_isomorphisms(f.cod, g.cod):
            if compose(j, f).mapping == gi.mapping:
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


# -- reference strengthening -----------------------------------------------


def reference_strengthen_theory(t: Theory) -> Theory:
    """The reference for ``classify.strengthen_theory``: per sequent, the
    pushout of its classifying morphism f along itself, the fold map
    B +_A B -> B out of it, and the sequent ``sequent_from_morphism``
    reads off that map."""
    extra = []
    for s in t.sequents:
        f = classifying_morphism(s, t.signature)
        p, j1, j2 = pushout(f, f)
        fold = {p.find(e): b for j in (j1, j2) for b, e in j.mapping.items()}
        extra.append(sequent_from_morphism(Morphism(p, f.cod, fold)))
    return Theory(t.signature, t.sequents + tuple(extra))


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
    keep, lose = (ra, rb) if ra.index < rb.index else (rb, ra)
    x._parent[a.sort][lose.index] = keep.index
    rewritten = set()
    for rel, tuples in x.rels.items():
        touched = [t for t in tuples if lose in t]
        for t in touched:
            tuples.discard(t)
        for t in touched:
            ct = tuple(x.find(e) for e in t)
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
                                 and t in delta.get(name, ()))
            yield from _match_atoms(rest, x, new, hit, delta, tuple_cache)
    elif isinstance(atom, DefinedAtom):
        v = atom.term
        bound = assignment.get(v)
        if bound is not None:
            hit = used_delta or (delta is not None
                                 and (bound,) in delta.get((v.sort,), ()))
            yield from _match_atoms(rest, x, assignment, hit, delta, tuple_cache)
        else:
            for e in x.elements(v.sort):
                new = dict(assignment)
                new[v] = e
                hit = used_delta or (delta is not None
                                     and (e,) in delta.get((v.sort,), ()))
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
                hit = used_delta or (delta is not None
                                     and (e,) in delta.get((u.sort,), ()))
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


# -- reference token readers ---------------------------------------------
#
# The token readers that ``parse_theory`` and ``parse_facts`` replaced,
# kept as they were: the references below read with them alone, so the
# differential tests compare the package's readers with this behaviour.

# One match per token: skip blanks and comments, then read one token.  It
# always matches, since ``bad`` takes any other character and ``eof`` the
# end of the text.
_TOKEN_RE = re.compile(
    r"""(?:\s+|\#[^\n]*)*
      (?: (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<sym>=>|->|[;:*(),=!&])
        | (?P<eof>\Z)
        | (?P<bad>.) )
    """,
    re.VERBOSE,
)

_KEYWORDS = {"sort", "pred", "func", "rule", "true"}


class _Token(NamedTuple):
    kind: str  # "ident" | "sym" | "eof"
    text: str
    line: int
    col: int


class _Cursor:
    """The tokens of a text, read one ahead of the parser: ``peek`` shows
    the next token and ``next`` consumes it.  Lines and columns count from
    1, a tab counting as one column.

    ``start`` is the offset to read from, its line, and the offset of that
    line's first character; ``where`` gives the same triple for the next
    token, so a reader can hand the rest of the text to another cursor
    without counting lines from the top again."""

    def __init__(self, text: str, start: tuple[int, int, int] = (0, 1, 0)):
        self._text = text
        # _line_start: offset of the current line's first character
        self._pos, self._line, self._line_start = start
        self._tok = self._read()

    def where(self) -> tuple[int, int, int]:
        """Where the next token starts, as a ``start`` for a new cursor.
        Tokens hold no newline, so its line is still the current one."""
        return (self._line_start + self._tok.col - 1, self._line,
                self._line_start)

    def _read(self) -> _Token:
        text, pos = self._text, self._pos
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        start = m.start(kind)
        if start != pos:
            newlines = text.count("\n", pos, start)
            if newlines:
                self._line += newlines
                self._line_start = text.rindex("\n", pos, start) + 1
        self._pos = m.end()
        tok = _Token(kind, m.group(kind), self._line,
                     start - self._line_start + 1)
        if kind == "bad":
            raise ParseError(f"unexpected character {tok.text!r}",
                             tok.line, tok.col)
        return tok

    def peek(self) -> _Token:
        return self._tok

    def next(self) -> _Token:
        tok = self._tok
        if tok.kind != "eof":
            self._tok = self._read()
        return tok



# -- raw (unresolved) syntax trees ----------------------------------------


@dataclass(frozen=True)
class _RawTerm:
    name: str
    args: Optional[tuple["_RawTerm", ...]]  # None: plain identifier
    line: int
    col: int


@dataclass(frozen=True)
class _RawAtom:
    kind: str  # "rel" | "defined" | "equal"
    payload: tuple
    line: int
    col: int


class _Parser(_Cursor):
    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    def expect_ident(self) -> _Token:
        t = self.next()
        if t.kind != "ident" or t.text in _KEYWORDS:
            raise ParseError(f"expected identifier, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    # -- declarations ------------------------------------------------------

    def statement(self, sorts: list[str],
                  rels: list[RelDecl]) -> Optional[tuple]:
        """Read one statement.  A declaration goes into ``sorts`` or
        ``rels``; a rule is returned unresolved, with its location."""
        t = self.peek()
        if t.text == "sort":
            self.next()
            name = self.expect_ident().text
            if name in sorts:
                raise ParseError(f"duplicate sort {name!r}", t.line, t.col)
            sorts.append(name)
            self.expect(";")
        elif t.text in ("pred", "func"):
            self.next()
            name = self.expect_ident().text
            if any(r.name == name for r in rels):
                raise ParseError(f"duplicate relation {name!r}", t.line, t.col)
            self.expect(":")
            args = self.parse_sorts(sorts, t)
            if t.text == "func":
                self.expect("->")
                result = self.expect_ident().text
                if result not in sorts:
                    raise ParseError(f"unknown sort {result!r}", t.line, t.col)
                rels.append(RelDecl(name, tuple(args) + (result,), "func"))
            else:
                rels.append(RelDecl(name, tuple(args), "pred"))
            self.expect(";")
        elif t.text == "rule":
            self.next()
            premise = self.parse_raw_formula()
            self.expect("=>")
            conclusion = self.parse_raw_formula()
            self.expect(";")
            return premise, conclusion, (t.line, t.col)
        else:
            raise ParseError(
                f"expected declaration or rule, found {t.text or 'end of input'!r}",
                t.line, t.col)
        return None

    def parse_sorts(self, sorts: list[str], at: _Token) -> list[str]:
        out: list[str] = []
        if self.peek().text in (";", "->"):
            return out
        while True:
            tok = self.expect_ident()
            if tok.text not in sorts:
                raise ParseError(f"unknown sort {tok.text!r}", tok.line, tok.col)
            out.append(tok.text)
            if self.peek().text == "*":
                self.next()
            else:
                return out

    # -- rules -------------------------------------------------------------

    def parse_raw_formula(self) -> list[_RawAtom]:
        if self.peek().text == "true":
            self.next()
            return []
        atoms = [self.parse_raw_atom()]
        while self.peek().text == "&":
            self.next()
            atoms.append(self.parse_raw_atom())
        return atoms

    def parse_raw_atom(self) -> _RawAtom:
        t = self.peek()
        term = self.parse_raw_term()
        nxt = self.peek()
        if nxt.text == "!":
            self.next()
            return _RawAtom("defined", (term,), t.line, t.col)
        if nxt.text == "=":
            self.next()
            rhs = self.parse_raw_term()
            return _RawAtom("equal", (term, rhs), t.line, t.col)
        if term.args is None:
            raise ParseError("expected '!', '=' or '(' after identifier, "
                             f"found {nxt.text or 'end of input'!r}",
                             nxt.line, nxt.col)
        return _RawAtom("rel", (term,), t.line, t.col)

    def parse_raw_term(self, depth: int = 0) -> _RawTerm:
        tok = self.expect_ident()
        if self.peek().text == "(":
            if depth == MAX_TERM_DEPTH:
                raise ParseError(
                    f"term nested deeper than {MAX_TERM_DEPTH} applications",
                    tok.line, tok.col)
            self.next()
            args: list[_RawTerm] = []
            if self.peek().text != ")":
                args.append(self.parse_raw_term(depth + 1))
                while self.peek().text == ",":
                    self.next()
                    args.append(self.parse_raw_term(depth + 1))
            self.expect(")")
            return _RawTerm(tok.text, tuple(args), tok.line, tok.col)
        return _RawTerm(tok.text, None, tok.line, tok.col)


# -- sort inference and resolution ----------------------------------------


class _SortSolver:
    """Union-find over variable names with at most one sort per class."""

    def __init__(self):
        self.parent: dict[str, str] = {}
        self.sort: dict[str, Optional[str]] = {}

    def _root(self, v: str) -> str:
        self.parent.setdefault(v, v)
        self.sort.setdefault(v, None)
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def assign(self, v: str, sort: str, line: int, col: int) -> None:
        r = self._root(v)
        if self.sort[r] is None:
            self.sort[r] = sort
        elif self.sort[r] != sort:
            raise ParseError(
                f"variable {v!r} used at sorts {self.sort[r]!r} and {sort!r}",
                line, col)

    def link(self, u: str, v: str, line: int, col: int) -> None:
        ru, rv = self._root(u), self._root(v)
        if ru == rv:
            return
        su, sv = self.sort[ru], self.sort[rv]
        if su is not None and sv is not None and su != sv:
            raise ParseError(
                f"variables {u!r} and {v!r} equated at sorts {su!r} and {sv!r}",
                line, col)
        self.parent[rv] = ru
        self.sort[ru] = su if su is not None else sv

    def resolve(self, v: str, line: int, col: int) -> str:
        s = self.sort[self._root(v)]
        if s is None:
            raise ParseError(f"cannot infer a sort for variable {v!r}", line, col)
        return s


def _walk_term(sig: Signature, t: _RawTerm, expected: Optional[str],
               solver: _SortSolver) -> Optional[str]:
    """Record sort constraints; return the term's sort if known."""
    if t.args is None:
        if sig.has_relation(t.name):
            raise ParseError(
                f"{t.name!r} is a relation symbol, not a variable", t.line, t.col)
        if expected is not None:
            solver.assign(t.name, expected, t.line, t.col)
        else:
            solver._root(t.name)
        return expected
    decl = sig.relation(t.name) if sig.has_relation(t.name) else None
    if decl is None:
        raise ParseError(f"unknown symbol {t.name!r}", t.line, t.col)
    if decl.kind != "func":
        raise ParseError(
            f"predicate {t.name!r} used as a function term", t.line, t.col)
    if len(t.args) != len(decl.arg_sorts):
        raise ParseError(
            f"{t.name}: expected {len(decl.arg_sorts)} arguments, got {len(t.args)}",
            t.line, t.col)
    for a, s in zip(t.args, decl.arg_sorts):
        _walk_term(sig, a, s, solver)
    if expected is not None and decl.result_sort != expected:
        raise ParseError(
            f"{t.name} has sort {decl.result_sort!r}, expected {expected!r}",
            t.line, t.col)
    return decl.result_sort


def _walk_atom(sig: Signature, a: _RawAtom, solver: _SortSolver) -> None:
    if a.kind == "rel":
        (t,) = a.payload
        decl = sig.relation(t.name) if sig.has_relation(t.name) else None
        if decl is None:
            raise ParseError(f"unknown relation {t.name!r}", t.line, t.col)
        if decl.kind == "func":
            raise ParseError(
                f"function symbol {t.name!r} used as a relation atom",
                t.line, t.col)
        if len(t.args) != len(decl.arity):
            raise ParseError(
                f"{t.name}: expected {len(decl.arity)} arguments, got {len(t.args)}",
                t.line, t.col)
        for arg, s in zip(t.args, decl.arity):
            _walk_term(sig, arg, s, solver)
    elif a.kind == "defined":
        (t,) = a.payload
        _walk_term(sig, t, None, solver)
    else:
        lhs, rhs = a.payload
        ls = _walk_term(sig, lhs, None, solver)
        rs = _walk_term(sig, rhs, None, solver)
        if ls is not None and rs is None and rhs.args is None:
            solver.assign(rhs.name, ls, rhs.line, rhs.col)
        elif rs is not None and ls is None and lhs.args is None:
            solver.assign(lhs.name, rs, lhs.line, lhs.col)
        elif ls is None and rs is None and lhs.args is None and rhs.args is None:
            solver.link(lhs.name, rhs.name, a.line, a.col)
        elif ls is not None and rs is not None and ls != rs:
            raise ParseError(f"equality between sorts {ls!r} and {rs!r}",
                             a.line, a.col)


def _build_term(sig: Signature, t: _RawTerm, solver: _SortSolver) -> Term:
    if t.args is None:
        return Var(t.name, solver.resolve(t.name, t.line, t.col))
    decl = sig.relation(t.name)
    return App(decl, tuple(_build_term(sig, a, solver) for a in t.args))


def _build_atom(sig: Signature, a: _RawAtom, solver: _SortSolver) -> Atom:
    if a.kind == "rel":
        (t,) = a.payload
        decl = sig.relation(t.name)
        return RelAtom(decl, tuple(_build_term(sig, x, solver) for x in t.args))
    if a.kind == "defined":
        (t,) = a.payload
        return DefinedAtom(_build_term(sig, t, solver))
    lhs, rhs = a.payload
    blhs = _build_term(sig, lhs, solver)
    brhs = _build_term(sig, rhs, solver)
    if blhs.sort != brhs.sort:
        raise ParseError(f"equality between sorts {blhs.sort!r} and {brhs.sort!r}",
                         a.line, a.col)
    return EqualAtom(blhs, brhs)


def _resolve_rule(sig: Signature, premise: list[_RawAtom],
                  conclusion: list[_RawAtom],
                  loc: tuple[int, int]) -> Sequent:
    # Constraint collection is order-independent: the solver's union-find
    # lets sorts flow from later atoms to variables bound earlier.
    solver = _SortSolver()
    for a in premise + conclusion:
        _walk_atom(sig, a, solver)
    return Sequent(
        Formula(tuple(_build_atom(sig, a, solver) for a in premise)),
        Formula(tuple(_build_atom(sig, a, solver) for a in conclusion)),
        location=loc,
    )


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
            raise ParseError(
                f"expected identifier, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        return tok

    def take_sym(text: str) -> _Token:
        tok = cur.next()
        if tok.kind != "sym" or tok.text != text:
            raise ParseError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        return tok

    def element(tok: _Token) -> El:
        if tok.text not in names:
            raise ParseError(f"unknown element {tok.text!r}", tok.line, tok.col)
        return x.find(names[tok.text])

    while cur.peek().kind != "eof":
        tok = cur.peek()
        if tok.kind != "ident":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
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
        if head.text == "sort":
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

    names = {n: x.find(e) for n, e in names.items()}
    return x, names


def reference_parse_theory(text: str) -> Theory:
    """The reference for ``syntax.parse_theory``: the token reader alone,
    without the fast path for flat rules."""
    p = _Parser(text)
    sorts: list[str] = []
    rels: list[RelDecl] = []
    raw_rules = []
    while p.peek().kind != "eof":
        t = p.peek()
        if t.text == "sort":
            p.next()
            name = p.expect_ident().text
            if name in sorts:
                raise ParseError(f"duplicate sort {name!r}", t.line, t.col)
            sorts.append(name)
            p.expect(";")
        elif t.text in ("pred", "func"):
            p.next()
            name = p.expect_ident().text
            if any(r.name == name for r in rels):
                raise ParseError(f"duplicate relation {name!r}", t.line, t.col)
            p.expect(":")
            args = p.parse_sorts(sorts, t)
            if t.text == "func":
                p.expect("->")
                result = p.expect_ident().text
                if result not in sorts:
                    raise ParseError(f"unknown sort {result!r}", t.line, t.col)
                rels.append(RelDecl(name, tuple(args) + (result,), "func"))
            else:
                rels.append(RelDecl(name, tuple(args), "pred"))
            p.expect(";")
        elif t.text == "rule":
            p.next()
            premise = p.parse_raw_formula()
            p.expect("=>")
            conclusion = p.parse_raw_formula()
            p.expect(";")
            raw_rules.append((premise, conclusion, (t.line, t.col)))
        else:
            raise ParseError(
                f"expected declaration or rule, found {t.text or 'end of input'!r}",
                t.line, t.col)
    sig = Signature(tuple(sorts), tuple(rels))
    sequents = []
    for premise, conclusion, loc in raw_rules:
        seq = _resolve_rule(sig, premise, conclusion, loc)
        if not seq.conclusion.atoms:
            warnings.warn(f"{loc[0]}:{loc[1]}: sequent has an empty "
                          "conclusion and is vacuous", VacuousSequentWarning)
        sequents.append(seq)
    return Theory(sig, tuple(sequents))
