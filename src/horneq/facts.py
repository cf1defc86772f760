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

Reading has two layers.  The loader reads a run of plain facts, those
without comments, a chunk at a time with one match and one ``findall``: it
resolves each relation's columns through per-sort name tables, which also
check the sorts, and adds each relation's tuples with one
``Structure.store_all``.  The token reader reads every other statement, a
fact with a comment among them, and the facts of a chunk that the loader
rejects, and raises every error.  It is the theory parser's token cursor,
``syntax._Cursor``, pointed at one statement's tokens at a time.
"""

from __future__ import annotations

import dataclasses
import json
import re
from collections import defaultdict
from itertools import groupby, repeat
from operator import itemgetter
from typing import Callable, Iterator, Optional

from .core import El, Morphism, Signature, Structure
from .syntax import _INITIALS, _NAME, _TOKENS_RE, _Cursor


# A plain fact ``R(a1, ..., an);`` without comments; ``{0}`` opens a group.
_PLAIN = rf"\s*{{0}}{_NAME})\s*\({{0}}[^()#;]*)\)\s*;"
_CHUNK = 64  # the most facts ``_load`` holds at once
# 1 to ``_CHUNK`` such facts, and the ``(R, argument list)`` of each.
_RUN_RE = re.compile(f"(?:{_PLAIN.format('(?:')}){{1,{_CHUNK}}}")
_PLAIN_RE = re.compile(_PLAIN.format("("))
# Up to the first ``;`` outside comments.  Each part can end in one place
# only, so a failed match does not backtrack into the text.
_STATEMENT_RE = re.compile(r"[^;#]*(?:#[^\n]*\n[^;#]*)*;")


def parse_facts(text: str, sig: Signature) -> tuple[Structure, dict[str, El]]:
    """Build a structure from a facts file; equality facts are merged on
    load, so returned name bindings are canonical.  Declared names come
    first, in declaration order, then the ``merged:`` aliases.

    A run of plain facts, those without comments, is loaded by ``_load``,
    up to ``_CHUNK`` facts at a time, and after the first merge each
    loaded column goes through ``find``.  Any other statement, a fact with
    a comment among them, and the facts of a chunk that ``_load`` rejects
    up to the faulty one, go to the token reader, ``_Reader``, one
    statement at a time, with ``_load`` tried again after each.  It raises
    the same error, at the same place, as if it had read the whole text,
    and one reader, pointed at each statement in turn, reads them all."""
    x = Structure(sig)
    names: dict[str, El] = {}
    tables: dict[str, dict[str, El]] = {s: {} for s in sig.sorts}
    reader, pos, find = _Reader(text), 0, None
    while True:
        if (end := _load(text, pos, x, tables, find)) != pos:
            pos = end
            continue
        reader.point(pos)
        if not reader.toks[0]:
            break
        if reader.statement(x, names, tables):
            find = x.find
        pos = reader.after
    names = {n: x.find(e) for n, e in names.items()}
    return x, names


def _load(text: str, pos: int, x: Structure, tables: dict,
          find: Optional[Callable]) -> int:
    """Add the plain facts from ``pos`` on, at most ``_CHUNK``, found by
    one match and read by one ``findall``: a comment ends the run.  The
    offset after the last one, or ``pos`` if there is none or ``_tuples``
    rejects one of them, which is then an input error."""
    if not (run := _RUN_RE.match(text, pos)):
        return pos
    groups: defaultdict[str, list[str]] = defaultdict(list)
    for rel, pairs in groupby(_PLAIN_RE.findall(text, pos, run.end()),
                              itemgetter(0)):
        groups[rel] += map(itemgetter(1), pairs)
    loads = {rel: _tuples(x.sig, rel, bodies, tables, find)
             for rel, bodies in groups.items()}
    if None in loads.values():
        return pos
    for rel, tuples in loads.items():
        x.store_all(rel, tuples)
    return run.end()


def _tuples(sig: Signature, rel: str, bodies: list[str], tables: dict,
            find: Optional[Callable]) -> Optional[list[tuple[El, ...]]]:
    """The tuples of ``rel`` that the argument lists ``bodies`` name, read
    through the table of each column's sort and then ``find``, if given;
    None if ``rel`` is ``sort`` or unknown, or a list has the wrong length
    or a name not in its table."""
    if rel == "sort" or not sig.has_relation(rel):
        return None
    arity = sig.relation(rel).arity
    n = len(arity)
    if not n:
        return None if any(b.strip() for b in bodies) else [()] * len(bodies)
    if set(map(str.count, bodies, repeat(","))) != {n - 1}:
        return None
    args = ",".join(bodies).split(",")
    try:
        cols = [list(map(tables[s].__getitem__, map(str.strip, args[i::n])))
                for i, s in enumerate(arity)]
    except KeyError:
        return None
    if find:
        cols = [list(map(find, col)) for col in cols]
    return list(zip(*cols))


class _Reader(_Cursor):
    """The token reader: one statement at a time, every error located.
    ``point`` points it at the statement from an offset on."""

    def point(self, pos: int) -> None:
        """Take as ``toks`` the tokens from ``pos`` up to the first ``;``
        outside comments, and the one after it, whose offset goes to
        ``after``: a character that starts no token there is the error.
        With no such ``;``, take every token up to the end."""
        text, self.start, self.i = self.text, pos, 0
        if not (m := _STATEMENT_RE.match(text, pos)):
            self.toks, self.after = _TOKENS_RE.findall(text, pos), len(text)
        else:  # that ``findall`` ends in "", the end it was given
            self.toks = _TOKENS_RE.findall(text, pos, m.end())
            m = _TOKENS_RE.match(text, m.end())
            self.toks[-1], self.after = m[1], m.start(1)

    def take_ident(self) -> int:
        at = self.i
        self.i = at + 1
        if (tok := self.toks[at])[:1] not in _INITIALS:
            raise self.error(f"expected a name, found {tok!r}", at)
        return at

    def take_sym(self, text: str) -> None:
        at = self.i
        self.i = at + 1
        if (tok := self.toks[at]) != text:
            raise self.error(f"expected {text!r}, found {tok!r}", at)

    def statement(self, x: Structure, names: dict[str, El],
                  tables: dict[str, dict[str, El]]) -> bool:
        """Read the statement that ``toks`` start with into ``x``,
        ``names`` and the per-sort name ``tables``; whether it merged two
        elements.  A ``merged:`` section runs to the end of the text."""
        sig, toks = x.sig, self.toks

        def element(at: int) -> El:
            if (name := toks[at]) not in names:
                raise self.error(f"unknown element {name!r}", at)
            return x.find(names[name])

        def declare(at: int, e: El) -> None:
            if (name := toks[at]) in names:
                raise self.error(f"element name {name!r} already declared",
                                 at)
            names[name] = tables[e.sort][name] = e

        head = toks[0]
        if head[:1] not in _INITIALS:
            raise self.error(f"unexpected {head!r}", 0)
        self.i = 1
        if head == "sort":
            sort = toks[at := self.take_ident()]
            if sort not in sig.sorts:
                raise self.error(f"unknown sort {sort!r}", at)
            self.take_sym(":")
            while toks[at := self.i][:1] in _INITIALS:
                self.i = at + 1
                declare(at, x.add_element(sort))
            self.take_sym(";")
        elif toks[1] == "=":
            self.i = 2
            rhs = self.take_ident()
            self.take_sym(";")
            a, b = element(0), element(rhs)
            if a.sort != b.sort:
                raise self.error("cannot identify elements of different "
                                 f"sorts {a.sort!r} and {b.sort!r}", 0)
            if a != b:
                x.merge(a, b)
                return True
        elif head == "merged" and toks[1] == ":":
            # ``old -> new`` lines up to the end: old names new's element.
            self.i = 2
            while toks[self.i]:
                old = self.take_ident()
                self.take_sym("->")
                declare(old, element(self.take_ident()))
        else:
            if not sig.has_relation(head):
                raise self.error(f"unknown relation {head!r}", 0)
            decl = sig.relation(head)
            self.take_sym("(")
            args = []
            if toks[self.i] != ")":
                args.append(element(self.take_ident()))
                while toks[self.i] == ",":
                    self.i += 1
                    args.append(element(self.take_ident()))
            self.take_sym(")")
            self.take_sym(";")
            if len(args) != len(decl.arity):
                raise self.error(
                    f"relation {decl.name!r} expects {len(decl.arity)} "
                    f"arguments, got {len(args)}", 0)
            for e, s in zip(args, decl.arity):
                if e.sort != s:
                    raise self.error(
                        f"argument of sort {e.sort!r} where {s!r} expected",
                        0)
            x.store(decl.name, tuple(args))
        return False


def model_names(result: Structure, input_names: dict[str, El],
                unit: Morphism) -> tuple[dict[El, str], list[tuple[str, str]]]:
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
        by_class.setdefault(unit.apply(e), []).append((e.index, name))
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
    return "".join(model_blocks(x, names, merged, report))


def model_blocks(x: Structure, names: dict[El, str],
                 merged: list[tuple[str, str]],
                 report: Optional[dict] = None) -> Iterator[str]:
    """The text format of ``serialize_model``, a block at a time: the sort
    lines, each relation's facts, ``merged:`` and ``report:``."""
    if not (x.sig.sorts or merged or report or x.total_tuple_count()):
        yield "\n"  # a model of no line at all is one empty line
    name = names.__getitem__
    yield "".join([f"sort {s}: {' '.join(map(name, x.elements(s)))};\n"
                   for s in sorted(x.sig.sorts)])
    for r in sorted(x.rels):
        yield "".join([f"{r}({', '.join(map(name, t))});\n"
                       for t in x.sorted_tuples(r)])
    if merged:
        yield "merged:\n" + "".join([f"  {a} -> {b}\n" for a, b in merged])
    if report is not None:
        lines = ["report:", f"  iterations: {report['iterations']}",
                 f"  fixed_point: {report['fixed_point']}"]
        # Each ``IterationStats`` field, in its order, as ``name=value``.
        lines += [f"  iteration {i}: "
                  + " ".join([f"{k}={v}" for k, v in stats.items()])
                  for i, stats in enumerate(report["per_iteration"], start=1)]
        yield "\n".join(lines) + "\n"


def report_dict(report) -> dict:
    return dataclasses.asdict(report)
