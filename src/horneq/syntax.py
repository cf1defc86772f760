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

``parse_theory`` reads a statement at a time.  A rule over flat atoms
(``R(x, y)``, ``u = v``, ``v!``, no comment inside) is read with one match
of ``_RULE_RE`` and resolved straight from the declarations.  The token
reader, ``_Parser``, reads everything else, and reads again each fast rule
that fails to resolve, so every error comes from it or ``_resolve_rule``.
Rules are resolved after the last statement, so a syntax error comes
before any resolution error.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Union

from .core import RelDecl, Signature, SignatureError


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class VacuousSequentWarning(UserWarning):
    """A sequent with an empty conclusion is satisfied by everything."""


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str
    sort: str


@dataclass(frozen=True)
class App:
    func: RelDecl
    args: tuple["Term", ...]

    @property
    def sort(self) -> str:
        return self.func.result_sort


Term = Union[Var, App]


@dataclass(frozen=True)
class RelAtom:
    rel: RelDecl
    args: tuple[Term, ...]


@dataclass(frozen=True)
class DefinedAtom:
    term: Term


@dataclass(frozen=True)
class EqualAtom:
    lhs: Term
    rhs: Term


Atom = Union[RelAtom, DefinedAtom, EqualAtom]


@dataclass(frozen=True)
class Formula:
    atoms: tuple[Atom, ...] = ()

    def __and__(self, other: "Formula") -> "Formula":
        return Formula(self.atoms + other.atoms)


@dataclass(frozen=True)
class Sequent:
    premise: Formula
    conclusion: Formula
    location: Optional[tuple[int, int]] = field(default=None, compare=False)


@dataclass(frozen=True)
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


def atom_vars(a: Atom) -> Iterator[Var]:
    for t in atom_terms(a):
        yield from term_vars(t)


def formula_vars(f: Formula) -> list[Var]:
    """Variables in first-occurrence order."""
    seen: dict[Var, None] = {}
    for a in f.atoms:
        for v in atom_vars(a):
            seen.setdefault(v)
    return list(seen)


def sequent_vars(s: Sequent) -> list[Var]:
    seen: dict[Var, None] = {}
    for v in formula_vars(s.premise) + formula_vars(s.conclusion):
        seen.setdefault(v)
    return list(seen)


# -- RHL check -------------------------------------------------------------


def is_rhl(x) -> bool:
    """True iff ``x`` lies in the relational fragment: atoms take bare
    variables only, and relation atoms never use a function symbol."""
    if isinstance(x, Var):
        return True
    if isinstance(x, App):
        return False
    if isinstance(x, RelAtom):
        return x.rel.kind == "pred" and all(isinstance(t, Var) for t in x.args)
    if isinstance(x, DefinedAtom):
        return isinstance(x.term, Var)
    if isinstance(x, EqualAtom):
        return isinstance(x.lhs, Var) and isinstance(x.rhs, Var)
    if isinstance(x, Formula):
        return all(is_rhl(a) for a in x.atoms)
    if isinstance(x, Sequent):
        return is_rhl(x.premise) and is_rhl(x.conclusion)
    if isinstance(x, Theory):
        return all(is_rhl(s) for s in x.sequents)
    raise TypeError(f"is_rhl: unsupported {type(x).__name__}")


# -- lexer -----------------------------------------------------------------

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

# Deepest nesting of function applications in one term.  Every pass over
# terms recurses once per level, so the limit keeps them well inside
# Python's recursion limit.
MAX_TERM_DEPTH = 200


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


# -- statements ------------------------------------------------------------

# What a fast path allows between two tokens: what the token reader skips,
# except that a comment must end in a newline.  So a gap splits one way
# only, a failed match backtracks in linear time, and a comment that ends
# the text is left to the token reader.
_GAP = r"(?:\s|\#[^\n]*\n)*"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)

# A rule over flat atoms, read with one match, with no comment inside the
# rule.  Group 1 is ``rule``, groups 2 and 3 the sides.  A keyword among
# the names, which ``_KEYWORD_RE`` finds, sends the rule to the token
# reader; the pattern does not exclude them, as that makes it compile
# three times slower.
_FLAT_ATOM = (rf"{_NAME}\s*(?:\(\s*(?:{_NAME}(?:\s*,\s*{_NAME})*\s*)?\)"
              rf"|=\s*{_NAME}|!)")
_FLAT_SIDE = rf"true|{_FLAT_ATOM}(?:\s*&\s*{_FLAT_ATOM})*"
_RULE_RE = re.compile(
    rf"{_GAP}(rule)\s+({_FLAT_SIDE})\s*=>\s*({_FLAT_SIDE})\s*;")
_KEYWORD_RE = re.compile(
    rf"(?<![A-Za-z0-9_])(?:{'|'.join(sorted(_KEYWORDS))})(?![A-Za-z0-9_])")
# The atoms of a side that ``_RULE_RE`` matched: the name, then ``(`` and
# the arguments, the right-hand side of ``=``, or neither for ``!``.
_ATOM_RE = re.compile(rf"({_NAME})\s*(?:(\()([^)]*)\)|=\s*({_NAME})|!)")


def _read_statements(text: str, pattern: re.Pattern, fast, reader,
                     statement) -> None:
    """Read ``text`` a statement at a time.  A statement is one match of
    ``pattern`` that ``fast(m, start)`` takes; else ``statement(reader)``
    reads it from a token reader ``reader(text, start)``, which is kept
    for the next statement while the pattern fails.  ``start(offset)``, for
    an offset in the match, gives the start of a ``_Cursor`` there."""
    pos = counted = line_start = 0  # the line state is that at ``counted``
    line = 1
    cur = None  # a reader whose next token starts at ``pos``

    def start(offset: int) -> tuple[int, int, int]:
        nonlocal counted, line, line_start
        newlines = text.count("\n", counted, offset)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", counted, offset) + 1
        counted = offset
        return offset, line, line_start

    while True:
        m = pattern.match(text, pos)
        if m and fast(m, start):
            pos, cur = m.end(), None
            continue
        cur = cur or reader(text, start(pos))
        if cur.peek().kind == "eof":
            return
        statement(cur)
        pos, line, line_start = cur.where()
        counted = pos


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
            raise ParseError("expected '!', '=' or '(' after identifier",
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


def _flat_sequent(sig: Signature, m: re.Match,
                  loc: tuple[int, int]) -> Optional[Sequent]:
    """The sequent of a rule that ``_RULE_RE`` matched, resolved straight
    from the declarations.  None exactly where ``_resolve_rule`` raises:
    its checks pass or fail whatever their order."""
    solver = _SortSolver()
    sides = [_ATOM_RE.findall(side) for side in m.group(2, 3)]
    try:
        for name, paren, args, rhs in sides[0] + sides[1]:
            if paren:
                decl, names = sig.relation(name), _NAME_RE.findall(args)
                if decl.kind != "pred" or len(names) != len(decl.arity):
                    return None
                for v, s in zip(names, decl.arity):
                    solver.assign(v, s, 0, 0)
            elif rhs:
                solver.link(name, rhs, 0, 0)
            else:
                solver._root(name)
        if any(sig.has_relation(v) for v in solver.parent):
            return None
        var = {v: Var(v, solver.resolve(v, 0, 0)) for v in solver.parent}
    except (ParseError, SignatureError):
        return None

    def atom(name: str, paren: str, args: str, rhs: str) -> Atom:
        if paren:
            return RelAtom(sig.relation(name),
                           tuple(var[v] for v in _NAME_RE.findall(args)))
        return EqualAtom(var[name], var[rhs]) if rhs else DefinedAtom(var[name])

    premise, conclusion = (Formula(tuple(atom(*a) for a in side))
                           for side in sides)
    return Sequent(premise, conclusion, location=loc)


def parse_theory(text: str) -> Theory:
    """Read a theory; the module docstring gives its two paths."""
    sorts: list[str] = []
    rels: list[RelDecl] = []
    rules: list = []  # raw rules, a fast match and its start, or None

    def fast(m: re.Match, start) -> bool:
        if any(side != "true" and _KEYWORD_RE.search(side)
               for side in m.group(2, 3)):
            return False
        rules.append((m, start(m.start(1))))
        return True

    _read_statements(text, _RULE_RE, fast, _Parser,
                     lambda reader: rules.append(reader.statement(sorts, rels)))
    sig = Signature(tuple(sorts), tuple(rels))
    sequents = []
    for rule in filter(None, rules):
        if isinstance(rule[0], re.Match):
            m, (pos, line, line_start) = rule
            # a rejected fast rule is read again, for _resolve_rule to raise
            seq = (_flat_sequent(sig, m, (line, pos - line_start + 1))
                   or _resolve_rule(
                       sig, *_Parser(text, rule[1]).statement(sorts, rels)))
        else:
            seq = _resolve_rule(sig, *rule)
        if not seq.conclusion.atoms:
            line, col = seq.location
            warnings.warn(
                f"{line}:{col}: sequent has an empty conclusion and is vacuous",
                VacuousSequentWarning, stacklevel=2)
        sequents.append(seq)
    return Theory(sig, tuple(sequents))


# -- pretty-printing -------------------------------------------------------


def _pp_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return f"{t.func.name}({', '.join(_pp_term(a) for a in t.args)})"


def _pp_atom(a: Atom) -> str:
    if isinstance(a, RelAtom):
        return f"{a.rel.name}({', '.join(_pp_term(t) for t in a.args)})"
    if isinstance(a, DefinedAtom):
        return f"{_pp_term(a.term)}!"
    return f"{_pp_term(a.lhs)} = {_pp_term(a.rhs)}"


def _pp_formula(f: Formula) -> str:
    if not f.atoms:
        return "true"
    return " & ".join(_pp_atom(a) for a in f.atoms)


def _pp_sequent(s: Sequent) -> str:
    return f"rule {_pp_formula(s.premise)} => {_pp_formula(s.conclusion)};"


def _pp_decl(r: RelDecl) -> str:
    if r.kind == "func":
        args = " * ".join(r.arg_sorts)
        return f"func {r.name} : {args + ' ' if args else ''}-> {r.result_sort};"
    return f"pred {r.name} : {' * '.join(r.arity)};"


def pretty_print(x) -> str:
    """Render back to concrete syntax; theories round-trip through the parser."""
    if isinstance(x, Theory):
        lines = [f"sort {s};" for s in x.signature.sorts]
        lines += [_pp_decl(r) for r in x.signature.relations]
        lines += [_pp_sequent(s) for s in x.sequents]
        return "\n".join(lines) + "\n"
    if isinstance(x, Sequent):
        return _pp_sequent(x)
    if isinstance(x, Formula):
        return _pp_formula(x)
    if isinstance(x, (RelAtom, DefinedAtom, EqualAtom)):
        return _pp_atom(x)
    if isinstance(x, (Var, App)):
        return _pp_term(x)
    raise TypeError(f"pretty_print: unsupported {type(x).__name__}")
