"""Ground-fact files and deterministic model output.

A facts file lists named elements per sort followed by ground facts:

    sort V: a b c;
    E(a, b);
    a = b;        # identify two names up front

Serialization is the inverse direction: canonical elements per sort,
one fact per line, and a ``merged:`` section mapping names that lost
their union-find class to the surviving name.  Fresh elements created
during evaluation are named ``_<sort>_<index>``, with ``_`` appended
while that name is taken by an input name.
"""

from __future__ import annotations

import json
from typing import Optional

from .core import El, Morphism, Signature, Structure
from .syntax import ParseError, _Cursor, _Token


def parse_facts(text: str, sig: Signature) -> tuple[Structure, dict[str, El]]:
    """Build a structure from a facts file; equality facts are merged on
    load, so returned name bindings are canonical."""
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


def model_names(result: Structure, input_names: dict[str, El],
                unit: Optional[Morphism] = None
                ) -> tuple[dict[El, str], list[tuple[str, str]]]:
    """Name every canonical element of ``result``.  Input names follow the
    unit morphism; a class that absorbed several names keeps the one whose
    element has the smallest index, and the rest go to the merged list.
    Unnamed elements get generated ``_<sort>_<index>`` names, extended by
    ``_`` until they differ from every input name, merged-away ones too."""
    by_class: dict[El, list[tuple[int, str]]] = {}
    for name, e in sorted(input_names.items()):
        img = unit.apply(e) if unit is not None else result.find(e)
        by_class.setdefault(img, []).append((e.index, name))
    names: dict[El, str] = {}
    merged: list[tuple[str, str]] = []
    for img, entries in by_class.items():
        entries.sort()
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
