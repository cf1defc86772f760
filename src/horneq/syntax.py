"""AST, parser and pretty-printer for partial/relational Horn logic theories.

One unified AST covers both fragments; the relational fragment is exactly the
``is_rhl``-true subset (bare variables everywhere, no function symbols in
relation atoms).  Variable sorts are inferred per sequent from usage.

Grammar (``#`` starts a line comment)::

    theory    := (decl | rule)*
    decl      := "sort" IDENT ";"
               | "pred" IDENT ":" sorts ";"
               | "func" IDENT ":" sorts "->" IDENT ";"
    sorts     := IDENT ("*" IDENT)* | ""
    rule      := "rule" formula "=>" formula ";"
    formula   := "true" | atom ("&" atom)*
    atom      := IDENT "(" terms? ")" | term "!" | term "=" term
    term      := IDENT | IDENT "(" terms? ")"

``parse_theory`` reads the tokens of the text as one list, by one
``findall``, and ``_Parser`` reads every statement off that list by index.
It then resolves each rule against the declarations, so a rule may come
before the declarations it uses, and a syntax error comes before any
resolution error.  Raw terms carry token indices.  An offset, and its line
and column, is found only for an error, by reading the tokens again, and
for each rule's ``Sequent.location``, by a walk over the words ``rule``.
That cursor, ``_Cursor``, is the only one: the facts reader is one too,
pointed at one statement's tokens at a time.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional, Union

from .core import RelDecl, Signature


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class VacuousSequentWarning(UserWarning):
    """A sequent with an empty conclusion is satisfied by everything."""


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    sort: str


@dataclass(frozen=True, slots=True)
class App:
    func: RelDecl
    args: tuple["Term", ...]

    @property
    def sort(self) -> str:
        return self.func.result_sort


Term = Union[Var, App]


@dataclass(frozen=True, slots=True)
class RelAtom:
    rel: RelDecl
    args: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class DefinedAtom:
    term: Term


@dataclass(frozen=True, slots=True)
class EqualAtom:
    lhs: Term
    rhs: Term


Atom = Union[RelAtom, DefinedAtom, EqualAtom]


@dataclass(frozen=True, slots=True)
class Formula:
    atoms: tuple[Atom, ...] = ()

    def __and__(self, other: "Formula") -> "Formula":
        return Formula(self.atoms + other.atoms)


@dataclass(frozen=True, slots=True)
class Sequent:
    premise: Formula
    conclusion: Formula
    location: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class Theory:
    signature: Signature
    sequents: tuple[Sequent, ...]


# -- traversal helpers -----------------------------------------------------


def term_vars(t: Term) -> Iterator[Var]:
    if isinstance(t, Var):
        yield t
    else:
        for a in t.args:
            yield from term_vars(a)


def atom_terms(a: Atom) -> tuple[Term, ...]:
    if isinstance(a, RelAtom):
        return a.args
    if isinstance(a, DefinedAtom):
        return (a.term,)
    return (a.lhs, a.rhs)


def formula_vars(f: Formula) -> list[Var]:
    """Variables in first-occurrence order."""
    seen: dict[Var, None] = {}  # assigning an old key keeps its place
    for a in f.atoms:
        for t in atom_terms(a):
            if t.__class__ is Var:
                seen[t] = None
            else:
                seen.update(dict.fromkeys(term_vars(t)))
    return list(seen)


def sequent_vars(s: Sequent) -> list[Var]:
    return list(dict.fromkeys(formula_vars(s.premise)
                              + formula_vars(s.conclusion)))


# -- RHL check -------------------------------------------------------------


def is_rhl(x) -> bool:
    """True iff ``x`` lies in the relational fragment: atoms take bare
    variables only, and relation atoms never use a function symbol."""
    if isinstance(x, Theory):
        return all(is_rhl(s) for s in x.sequents)
    if isinstance(x, Sequent):
        return is_rhl(x.premise) and is_rhl(x.conclusion)
    for a in x.atoms if isinstance(x, Formula) else (x,):
        if not isinstance(a, (RelAtom, DefinedAtom, EqualAtom)):
            raise TypeError(f"is_rhl: unsupported {type(a).__name__}")
        if isinstance(a, RelAtom) and a.rel.kind != "pred":
            return False
        for t in atom_terms(a):
            if t.__class__ is not Var:
                return False
    return True


# -- reading -------------------------------------------------------------

# The lexical syntax, written once: blanks and comments, then one token.
# One alternative always matches after the gap, so the pattern never
# backtracks: ``\Z`` takes the end, as "", and ``.`` a character that
# starts no token.  A token is a name if its first character is in
# ``_INITIALS``, a symbol if it is in ``_SYMS``, and otherwise the end or a
# bad character.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKENS_RE = re.compile(rf"(?:\s+|\#[^\n]*)*({_NAME}|=>|->|[;:*(),=!&]|\Z|.)")
_SYMS = frozenset(("=>", "->", *";:*(),=!&"))

_KEYWORDS = {"sort", "pred", "func", "rule", "true"}
_INITIALS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz")
_NAME_CHARS = _INITIALS | frozenset("0123456789")

# Deepest nesting of function applications in one term.  Every pass over
# terms recurses once per level, so the limit keeps them well inside
# Python's recursion limit.
MAX_TERM_DEPTH = 200


def _line_col(text: str, at: int) -> tuple[int, int]:
    """The line and column of offset ``at``, both counted from 1; a tab
    counts as one column."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _rule_locations(text: str) -> Iterator[tuple[int, int]]:
    """The line and column of each ``rule`` keyword of a theory that reads
    without error, in order: each ``rule`` outside comments and names.
    Every find only moves forward, so the walk is linear."""
    line, counted, line_start = 1, 0, 0  # the line state at ``counted``
    at, comment = text.find("rule"), text.find("#")
    while at != -1:
        if -1 < comment < at:  # skip the comment, and the rules in it
            if (end := text.find("\n", comment)) == -1:
                return
            at, comment = text.find("rule", max(at, end)), text.find("#", end)
            continue
        if (text[at - 1:at] not in _NAME_CHARS
                and text[at + 4:at + 5] not in _NAME_CHARS):
            line += text.count("\n", counted, at)
            line_start = text.rfind("\n", counted, at) + 1 or line_start
            counted = at
            yield line, at - line_start + 1
        at = text.find("rule", at + 4)


class _Cursor:
    """A token cursor: ``toks`` are the tokens of ``text`` from offset
    ``start`` on, or a prefix of them, and ``i`` is the next one's
    index."""

    def __init__(self, text: str, toks: Optional[list[str]] = None):
        self.text = text
        self.toks = toks
        self.start = self.i = 0

    def error(self, message: str, at: int) -> ParseError:
        """A ``ParseError`` at token ``at``, located by reading the tokens
        again; but while ``toks`` is set, a character that starts no token
        is the error once a reader one token ahead would meet it.  Tokens
        are checked as they are consumed, so it can only be the last one
        consumed or the next one."""
        first = max(self.i - 1, 0)
        for j, tok in enumerate((self.toks or ())[first:self.i + 1], first):
            if tok and tok[:1] not in _INITIALS and tok not in _SYMS:
                message, at = f"unexpected character {tok!r}", j
                break
        m = next(islice(_TOKENS_RE.finditer(self.text, self.start), at, None))
        return ParseError(message, *_line_col(self.text, m.start(1)))


class _Parser(_Cursor):
    """Reads the statements of a theory from ``toks``, all its tokens;
    then resolves its rules.  Declarations go into ``sorts`` and ``rels``.
    A rule goes into ``rules`` as raw trees: a raw term is its name, its
    token index and its arguments (None for a bare name), and a raw atom
    is its kind ("rel", "defined" or "equal") and its one or two raw
    terms."""

    def __init__(self, text: str):
        super().__init__(text, _TOKENS_RE.findall(text))
        self.sorts: list[str] = []
        self.rels: dict[str, RelDecl] = {}
        self.rules: list[tuple] = []
        # Each (name, sort) is one Var, whichever rules it occurs in.
        self.vars: dict[tuple[str, str], Var] = {}
        # The rule being resolved: each variable's first token and Var,
        # and a union-find over variable names, with the sort of each
        # root whose sort is known.
        self.first: dict[str, int] = {}
        self.var: dict[str, Var] = {}
        self.parent: dict[str, str] = {}
        self.sort: dict[str, str] = {}

    def expect(self, text: str) -> None:
        at = self.i
        self.i = at + 1
        if (tok := self.toks[at]) != text:
            raise self.error(
                f"expected {text!r}, found {tok or 'end of input'!r}", at)

    def ident(self) -> tuple[str, int]:
        at = self.i
        name = self.toks[at]
        self.i = at + 1
        if name in _KEYWORDS or name[:1] not in _INITIALS:
            raise self.error(
                f"expected identifier, found {name or 'end of input'!r}", at)
        return name, at

    def statement(self) -> None:
        """Read one declaration or rule."""
        sorts, rels = self.sorts, self.rels
        at = self.i
        word = self.toks[at]
        if word not in ("sort", "pred", "func", "rule"):
            raise self.error("expected declaration or rule, found "
                             f"{word or 'end of input'!r}", at)
        self.i = at + 1
        if word == "sort":
            name = self.ident()[0]
            if name in sorts:
                raise self.error(f"duplicate sort {name!r}", at)
            sorts.append(name)
        elif word in ("pred", "func"):
            name = self.ident()[0]
            if name in rels:
                raise self.error(f"duplicate relation {name!r}", at)
            self.expect(":")
            arity = self.sort_list()
            if word == "func":
                self.expect("->")
                result = self.ident()[0]
                if result not in sorts:
                    raise self.error(f"unknown sort {result!r}", at)
                arity.append(result)
            rels[name] = RelDecl(name, tuple(arity), word)
        else:
            premise = self.formula()
            self.expect("=>")
            self.rules.append((premise, self.formula()))
        self.expect(";")

    def sort_list(self) -> list[str]:
        sorts = self.sorts
        out: list[str] = []
        if self.toks[self.i] in (";", "->"):
            return out
        while True:
            name, at = self.ident()
            if name not in sorts:
                raise self.error(f"unknown sort {name!r}", at)
            out.append(name)
            if self.toks[self.i] != "*":
                return out
            self.i += 1

    def formula(self) -> list[tuple]:
        if self.toks[self.i] == "true":
            self.i += 1
            return []
        atoms = [self.atom()]
        while self.toks[self.i] == "&":
            self.i += 1
            atoms.append(self.atom())
        return atoms

    def atom(self) -> tuple:
        term = self.term()
        tok = self.toks[self.i]
        if tok == "!":
            self.i += 1
            return "defined", term, None
        if tok == "=":
            self.i += 1
            return "equal", term, self.term()
        if term[2] is None:
            raise self.error("expected '!', '=' or '(' after identifier",
                             self.i)
        return "rel", term, None

    def term(self, depth: int = 0) -> tuple:
        # ``ident``, inlined: most names in a rule are read here.
        toks, at = self.toks, self.i
        name = toks[at]
        self.i = i = at + 1
        if name in _KEYWORDS or name[:1] not in _INITIALS:
            raise self.error(
                f"expected identifier, found {name or 'end of input'!r}", at)
        if toks[i] != "(":
            return name, at, None
        if depth == MAX_TERM_DEPTH:
            raise self.error(
                f"term nested deeper than {MAX_TERM_DEPTH} applications", at)
        self.i = i + 1
        args = []
        if toks[i + 1] != ")":
            args.append(self.term(depth + 1))
            while toks[self.i] == ",":
                self.i += 1
                args.append(self.term(depth + 1))
        self.expect(")")
        return name, at, tuple(args)

    # -- resolution --------------------------------------------------------
    #
    # A rule is resolved in two passes.  The first checks every atom and
    # term against the declarations, and collects the sorts of the
    # variables in the union-find, so a sort can flow from a later atom to
    # a variable met earlier.  Each variable's ``Var`` is then made, and
    # the second pass builds the atoms.

    def sequent(self, premise: list[tuple], conclusion: list[tuple],
                location: tuple[int, int]) -> Sequent:
        self.first, self.var, self.parent, self.sort = {}, {}, {}, {}
        for atoms in (premise, conclusion):
            for atom in atoms:
                self.check(*atom)
        # In the order the second pass meets them, so the first variable
        # without a sort is reported where the second pass would meet it.
        for name, at in self.first.items():
            s = self.sort.get(self.root(name))
            if s is None:
                raise self.error(
                    f"cannot infer a sort for variable {name!r}", at)
            v = self.vars.get((name, s))
            if v is None:
                v = self.vars[name, s] = Var(name, s)
            self.var[name] = v
        return Sequent(self.build_formula(premise),
                       self.build_formula(conclusion), location=location)

    def check(self, kind: str, lhs: tuple, rhs: Optional[tuple]) -> None:
        """Check a raw atom and collect the sorts of its variables."""
        walk = self.walk
        if kind == "rel":
            name, at, args = lhs
            decl = self.rels.get(name)
            if decl is None:
                raise self.error(f"unknown relation {name!r}", at)
            if decl.kind == "func":
                raise self.error(
                    f"function symbol {name!r} used as a relation atom", at)
            if len(args) != len(decl.arity):
                raise self.error(f"{name}: expected {len(decl.arity)} "
                                 f"arguments, got {len(args)}", at)
            for a, s in zip(args, decl.arity):
                walk(a, s)
        elif kind == "defined":
            walk(lhs, None)
        else:
            # A side of unknown sort is a variable: an application has its
            # result sort.
            ls, rs = walk(lhs, None), walk(rhs, None)
            if ls is None and rs is None:
                u, v = self.root(lhs[0]), self.root(rhs[0])
                su, sv = self.sort.get(u), self.sort.get(v)
                if su is not None and sv is not None and su != sv:
                    raise self.error(
                        f"variables {lhs[0]!r} and {rhs[0]!r} equated at "
                        f"sorts {su!r} and {sv!r}", lhs[1])
                if u != v:
                    self.parent[v] = u
                    if su is None and sv is not None:
                        self.sort[u] = sv
            elif ls is None:
                walk(lhs, rs)
            elif rs is None:
                walk(rhs, ls)
            elif ls != rs:
                raise self.error(
                    f"equality between sorts {ls!r} and {rs!r}", lhs[1])

    def root(self, v: str) -> str:
        parent = self.parent
        while (p := parent.get(v)) is not None:
            # halve the path: v's parent becomes its grandparent
            parent[v] = v = parent.get(p, p)
        return v

    def walk(self, t: tuple, expected: Optional[str]) -> Optional[str]:
        """Check a term, of sort ``expected`` if not None; its sort if
        known."""
        name, at, args = t
        if args is None:
            if name in self.rels:
                raise self.error(
                    f"{name!r} is a relation symbol, not a variable", at)
            self.first.setdefault(name, at)
            if expected is not None:
                have = self.sort.setdefault(self.root(name), expected)
                if have != expected:
                    raise self.error(f"variable {name!r} used at sorts "
                                     f"{have!r} and {expected!r}", at)
            return expected
        decl = self.rels.get(name)
        if decl is None:
            raise self.error(f"unknown symbol {name!r}", at)
        if decl.kind != "func":
            raise self.error(f"predicate {name!r} used as a function term",
                             at)
        *arg_sorts, result = decl.arity
        if len(args) != len(arg_sorts):
            raise self.error(f"{name}: expected {len(arg_sorts)} arguments, "
                             f"got {len(args)}", at)
        for a, s in zip(args, arg_sorts):
            self.walk(a, s)
        if expected is not None and result != expected:
            raise self.error(f"{name} has sort {result!r}, expected "
                             f"{expected!r}", at)
        return result

    def build(self, t: tuple) -> Term:
        name, _, args = t
        if args is None:
            return self.var[name]
        return App(self.rels[name], tuple([self.build(a) for a in args]))

    def build_formula(self, atoms: list[tuple]) -> Formula:
        rels, var, build = self.rels, self.var, self.build
        out: list[Atom] = []
        for kind, lhs, rhs in atoms:
            if kind == "rel":
                out.append(RelAtom(rels[lhs[0]], tuple([
                    var[a[0]] if a[2] is None else build(a)
                    for a in lhs[2]])))
            elif kind == "defined":
                out.append(DefinedAtom(build(lhs)))
            else:
                out.append(EqualAtom(build(lhs), build(rhs)))
        return Formula(tuple(out))


def parse_theory(text: str) -> Theory:
    """Read a theory; the module docstring says how."""
    p = _Parser(text)
    while p.toks[p.i]:
        p.statement()
    p.toks = None  # resolution reads no token
    sig = Signature(tuple(p.sorts), tuple(p.rels.values()))
    sequents = []
    for (premise, conclusion), location in zip(
            p.rules, _rule_locations(text), strict=True):
        seq = p.sequent(premise, conclusion, location)
        if not seq.conclusion.atoms:
            warnings.warn("{}:{}: sequent has an empty conclusion and is "
                          "vacuous".format(*seq.location),
                          VacuousSequentWarning, stacklevel=2)
        sequents.append(seq)
    return Theory(sig, tuple(sequents))


# -- pretty-printing -------------------------------------------------------


def _pp_term(t: Term) -> str:
    if t.__class__ is Var:
        return t.name
    return f"{t.func.name}({', '.join([_pp_term(a) for a in t.args])})"


def _pp_atom(a: Atom) -> str:
    if isinstance(a, RelAtom):
        return f"{a.rel.name}({', '.join([_pp_term(t) for t in a.args])})"
    if isinstance(a, DefinedAtom):
        return f"{_pp_term(a.term)}!"
    return f"{_pp_term(a.lhs)} = {_pp_term(a.rhs)}"


def _pp_formula(f: Formula) -> str:
    if not f.atoms:
        return "true"
    return " & ".join([_pp_atom(a) for a in f.atoms])


def _pp_sequent(s: Sequent) -> str:
    return f"rule {_pp_formula(s.premise)} => {_pp_formula(s.conclusion)};"


def _pp_decl(r: RelDecl) -> str:
    if r.kind == "pred":
        return f"pred {r.name} : {' * '.join(r.arity)};\n"
    args = " * ".join(r.arg_sorts)
    return f"func {r.name} : {args}{' ' if args else ''}-> {r.result_sort};\n"


def theory_lines(t: Theory) -> Iterator[str]:
    """``pretty_print(t)``, one line at a time, each with its newline."""
    if not (t.signature.sorts or t.signature.relations or t.sequents):
        yield "\n"  # the empty theory is one empty line
    for s in t.signature.sorts:
        yield f"sort {s};\n"
    yield from map(_pp_decl, t.signature.relations)
    for s in t.sequents:
        yield f"{_pp_sequent(s)}\n"


def pretty_print(x) -> str:
    """A theory or a sequent in concrete syntax; theories round-trip."""
    if isinstance(x, Theory):
        return "".join(theory_lines(x))
    if isinstance(x, Sequent):
        return _pp_sequent(x)
    raise TypeError(f"pretty_print: unsupported {type(x).__name__}")
