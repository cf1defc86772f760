"""Ground-fact files and deterministic model output.

A facts file lists named elements per sort followed by ground facts, and
may end in a ``merged:`` section of ``old -> new`` lines, each binding
the new name ``old`` to the element of ``new``:

    sort V: a b c;
    E(a, b);
    a = b;        # identify two names up front
    merged:
      d -> a

Serialization is the inverse direction: canonical elements per sort,
one fact per line, and a ``merged:`` section mapping names that lost
their union-find class to the surviving name.  Fresh elements created
during evaluation are named ``_<sort>_<index>``, with ``_`` appended
while that name is taken by an input name.  So text output is a valid
facts file, and reading it back keeps every survivor; output with a
``report:`` section, and JSON output, are not.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from .core import El, Morphism, Signature, SignatureError, Structure
from .syntax import _Cursor


# What the fast path allows between two tokens: what the token reader
# skips, except that a comment must end in a newline.  So a gap splits one
# way only, a failed match backtracks in linear time, and a comment that
# ends the text is left to the token reader.
_GAP = r"(?:\s|\#[^\n]*\n)*"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# The fast path reads a whole ground fact ``R(a1, ..., an);`` with one
# match.  Group 1 is ``R``, group 2 the arguments.
_FACT_RE = re.compile(
    rf"{_GAP}({_NAME}){_GAP}\({_GAP}"
    rf"(?:({_NAME}(?:{_GAP},{_GAP}{_NAME})*){_GAP})?\){_GAP};")
# The names of an argument list.  A comment reads as an empty name, which
# no lookup finds, so such a fact goes to the token reader.
_ARG_RE = re.compile(rf"\#[^\n]*|({_NAME})")


def parse_facts(text: str, sig: Signature) -> tuple[Structure, dict[str, El]]:
    """Build a structure from a facts file; equality facts are merged on
    load, so returned name bindings are canonical.  Declared names come
    first, in declaration order, then the ``merged:`` aliases.

    Each ground fact that matches ``_FACT_RE`` and that ``_ground_fact``
    can add is added straight away.  Anything else, and every error, goes
    to the token reader, ``_Reader``, on the cursor that ``parse_theory``
    reads with.  It reads that one statement and raises the same error, at
    the same place, as if it had read the whole text; a run of such
    statements shares one reader."""
    x = Structure(sig)
    names: dict[str, El] = {}
    pos, reader = 0, None  # a reader's next token starts at ``pos``
    while True:
        m = _FACT_RE.match(text, pos)
        if m and _ground_fact(m, x, names):
            pos, reader = m.end(), None
            continue
        reader = reader or _Reader(text, pos)
        if reader.tok[0] == "eof":
            break
        reader.statement(x, names)
        pos = reader.tok[2]
    names = {n: x.find(e) for n, e in names.items()}
    return x, names


def _ground_fact(m: re.Match, x: Structure, names: dict[str, El]
                 ) -> Optional[tuple[str, tuple[El, ...]]]:
    """Add the fact of a fast-path match to ``x``; the relation and tuple
    added, or None, with ``x`` unchanged, when the relation is named
    ``sort`` (that statement is a sort line), an argument name is unknown,
    or ``add_tuple`` rejects the tuple."""
    rel, body = m.groups()
    if rel == "sort":
        return None
    args = _ARG_RE.findall(body) if body else ()
    t = tuple([names.get(a) for a in args])
    if None in t:
        return None
    try:
        x.add_tuple(rel, t)
    except SignatureError:
        return None
    return rel, t


class _Reader(_Cursor):
    """The token reader: one statement at a time, every error located."""

    def at_sym(self, text: str) -> bool:
        kind, tok, _ = self.tok
        return kind == "sym" and tok == text

    def take_ident(self) -> tuple[str, int]:
        kind, tok, at = self.next()
        if kind != "ident":
            raise self.error(f"expected a name, found {tok!r}", at)
        return tok, at

    def take_sym(self, text: str) -> None:
        kind, tok, at = self.next()
        if kind != "sym" or tok != text:
            raise self.error(f"expected {text!r}, found {tok!r}", at)

    def statement(self, x: Structure, names: dict[str, El]) -> None:
        """Read one statement into ``x`` and ``names``; a ``merged:``
        section runs to the end of the text."""
        sig = x.sig

        def element(name: str, at: int) -> El:
            if name not in names:
                raise self.error(f"unknown element {name!r}", at)
            return x.find(names[name])

        def declare(name: str, at: int, e: El) -> None:
            if name in names:
                raise self.error(f"element name {name!r} already declared",
                                 at)
            names[name] = e

        kind, head, at = self.tok
        if kind != "ident":
            raise self.error(f"unexpected {head!r}", at)
        self.next()
        if head == "sort":
            sort, sort_at = self.take_ident()
            if sort not in sig.sorts:
                raise self.error(f"unknown sort {sort!r}", sort_at)
            self.take_sym(":")
            while self.tok[0] == "ident":
                _, name, name_at = self.next()
                declare(name, name_at, x.add_element(sort))
            self.take_sym(";")
        elif self.at_sym("="):
            self.next()
            rhs = self.take_ident()
            self.take_sym(";")
            a, b = element(head, at), element(*rhs)
            if a.sort != b.sort:
                raise self.error("cannot identify elements of different "
                                 f"sorts {a.sort!r} and {b.sort!r}", at)
            if a != b:
                x.merge(a, b)
        elif head == "merged" and self.at_sym(":"):
            # ``old -> new`` lines up to the end: old names new's element.
            self.next()
            while self.tok[0] != "eof":
                old = self.take_ident()
                self.take_sym("->")
                declare(*old, element(*self.take_ident()))
        else:
            if not sig.has_relation(head):
                raise self.error(f"unknown relation {head!r}", at)
            decl = sig.relation(head)
            self.take_sym("(")
            args = []
            if not self.at_sym(")"):
                args.append(element(*self.take_ident()))
                while self.at_sym(","):
                    self.next()
                    args.append(element(*self.take_ident()))
            self.take_sym(")")
            self.take_sym(";")
            if len(args) != len(decl.arity):
                raise self.error(
                    f"relation {decl.name!r} expects {len(decl.arity)} "
                    f"arguments, got {len(args)}", at)
            for e, s in zip(args, decl.arity):
                if e.sort != s:
                    raise self.error(
                        f"argument of sort {e.sort!r} where {s!r} expected",
                        at)
            x.add_tuple(decl.name, tuple(args))


def model_names(result: Structure, input_names: dict[str, El],
                unit: Optional[Morphism] = None
                ) -> tuple[dict[El, str], list[tuple[str, str]]]:
    """Name every canonical element of ``result``.  Input names follow the
    unit morphism; a class that absorbed several names keeps the one whose
    element has the smallest index, the first in ``input_names`` order
    among names of one element, and the rest go to the merged list.  As
    ``parse_facts`` lists declared names before ``merged:`` aliases, a
    model read back from ``eval`` output keeps its survivors.  Unnamed
    elements get generated ``_<sort>_<index>`` names, extended by ``_``
    until they differ from every input name, merged-away ones too."""
    by_class: dict[El, list[tuple[int, str]]] = {}
    for name, e in input_names.items():
        img = unit.apply(e) if unit is not None else result.find(e)
        by_class.setdefault(img, []).append((e.index, name))
    names: dict[El, str] = {}
    merged: list[tuple[str, str]] = []
    for img, entries in by_class.items():
        entries.sort(key=lambda entry: entry[0])
        survivor = entries[0][1]
        names[img] = survivor
        merged.extend((other, survivor) for _, other in entries[1:])
    merged.sort()
    taken = set(input_names)
    for s in result.sig.sorts:
        for e in result.elements(s):
            if e not in names:
                name = f"_{s}_{e.index}"
                while name in taken:
                    name += "_"
                names[e] = name
    return names, merged


def serialize_model(x: Structure, names: dict[El, str],
                    merged: list[tuple[str, str]], fmt: str = "text",
                    report: Optional[dict] = None) -> str:
    if fmt == "json":
        doc = {
            "sorts": {s: [names[e] for e in x.elements(s)]
                      for s in sorted(x.sig.sorts)},
            "relations": {r: [[names[e] for e in t]
                              for t in x.sorted_tuples(r)]
                          for r in sorted(x.rels)},
            "merged": [list(pair) for pair in merged],
        }
        if report is not None:
            doc["report"] = report
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    for s in sorted(x.sig.sorts):
        lines.append(f"sort {s}: " + " ".join(names[e] for e in x.elements(s))
                     + ";")
    for r in sorted(x.rels):
        for t in x.sorted_tuples(r):
            lines.append(f"{r}(" + ", ".join(names[e] for e in t) + ");")
    if merged:
        lines.append("merged:")
        lines.extend(f"  {old} -> {new}" for old, new in merged)
    if report is not None:
        lines.append("report:")
        lines.append(f"  iterations: {report['iterations']}")
        lines.append(f"  fixed_point: {report['fixed_point']}")
        for i, stats in enumerate(report["per_iteration"], start=1):
            lines.append(
                f"  iteration {i}: matches={stats['matches']} "
                f"tuples_added={stats['tuples_added']} "
                f"merges={stats['merges']} "
                f"elements_created={stats['elements_created']}")
    return "\n".join(lines) + "\n"


def report_dict(report) -> dict:
    return {
        "iterations": report.iterations,
        "fixed_point": report.fixed_point,
        "per_iteration": [
            {"matches": s.matches, "tuples_added": s.tuples_added,
             "merges": s.merges, "elements_created": s.elements_created}
            for s in report.per_iteration
        ],
    }
