"""Finite relational structures with union-find equality, morphisms, colimits.

Structures are mutable and single-writer; every public operation leaves all
stored tuples canonical (each component equal to its union-find
representative).  Element indices are dense per sort and never reused:
merged-away indices stay allocated but non-canonical.

A structure's first merge builds its use-lists: for each canonical
element, the (relation, tuple) entries that hold it.  From then on every
stored tuple is on the use-list of each of its elements; an entry whose
tuple is no longer stored is stale and skipped.  A merge therefore visits
only the merged-away element's entries, and rewrites each live one.
``copy`` does not carry them, so a structure that is never merged never
builds them.  While ``log`` is a list, each (relation, tuple) newly stored
is appended to it; a later merge may rewrite a logged tuple away.  Both
are kept by ``_store``, the one routine that adds to ``rels``, which
``add_tuple`` and ``merge`` call.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional


class SignatureError(ValueError):
    """Raised on sort/arity mismatches and unknown symbols."""


@dataclass(frozen=True)
class RelDecl:
    """A relation symbol.  For functions, ``arity`` is the full relational
    arity: argument sorts followed by the result sort."""

    name: str
    arity: tuple[str, ...]
    kind: str = "pred"  # "pred" | "func"

    def __post_init__(self):
        if self.kind not in ("pred", "func"):
            raise SignatureError(f"bad relation kind {self.kind!r}")
        if self.kind == "func" and len(self.arity) < 1:
            raise SignatureError(f"function {self.name} needs a result sort")

    @property
    def arg_sorts(self) -> tuple[str, ...]:
        if self.kind != "func":
            raise SignatureError(f"{self.name} is not a function symbol")
        return self.arity[:-1]

    @property
    def result_sort(self) -> str:
        if self.kind != "func":
            raise SignatureError(f"{self.name} is not a function symbol")
        return self.arity[-1]


@dataclass(frozen=True)
class Signature:
    sorts: tuple[str, ...]
    relations: tuple[RelDecl, ...]
    _by_name: dict[str, RelDecl] = field(init=False, repr=False,
                                         compare=False, hash=False)

    def __post_init__(self):
        if len(set(self.sorts)) != len(self.sorts):
            raise SignatureError("duplicate sort names")
        by_name = {r.name: r for r in self.relations}
        if len(by_name) != len(self.relations):
            raise SignatureError("duplicate relation names")
        for r in self.relations:
            for s in r.arity:
                if s not in self.sorts:
                    raise SignatureError(
                        f"relation {r.name}: unknown sort {s!r}"
                    )
        object.__setattr__(self, "_by_name", by_name)

    def relation(self, name: str) -> RelDecl:
        decl = self._by_name.get(name)
        if decl is None:
            raise SignatureError(f"unknown relation {name!r}")
        return decl

    def has_relation(self, name: str) -> bool:
        return name in self._by_name

    def functions(self) -> tuple[RelDecl, ...]:
        return tuple(r for r in self.relations if r.kind == "func")

    def predicates(self) -> tuple[RelDecl, ...]:
        return tuple(r for r in self.relations if r.kind == "pred")


class El(NamedTuple):
    """An element of a structure: sort name plus dense per-sort index."""

    sort: str
    index: int


class UnionFind:
    """Union-find over dense indices; the smaller index is always the root."""

    def __init__(self):
        self.parent: list[int] = []

    def add(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        keep, lose = (ra, rb) if ra < rb else (rb, ra)
        self.parent[lose] = keep
        return keep

    def copy(self) -> "UnionFind":
        uf = UnionFind()
        uf.parent = list(self.parent)
        return uf

    def __len__(self) -> int:
        return len(self.parent)


class Structure:
    """A finite relational structure over a signature.

    Relations are stored as sets of canonical tuples of :class:`El`.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self._uf: dict[str, UnionFind] = {s: UnionFind() for s in sig.sorts}
        self.rels: dict[str, set[tuple[El, ...]]] = {
            r.name: set() for r in sig.relations
        }
        # Built by the first merge; see the module docstring.
        self._uses: Optional[
            defaultdict[El, list[tuple[str, tuple[El, ...]]]]] = None
        # When a list, each (relation, tuple) newly stored is appended.
        self.log: Optional[list[tuple[str, tuple[El, ...]]]] = None

    # -- elements ----------------------------------------------------------

    def add_element(self, sort: str) -> El:
        if sort not in self._uf:
            raise SignatureError(f"unknown sort {sort!r}")
        return El(sort, self._uf[sort].add())

    def find(self, e: El) -> El:
        """The canonical representative of ``e``; ``e`` itself if it is
        canonical."""
        uf = self._uf.get(e.sort)
        if uf is None:
            raise SignatureError(f"unknown sort {e.sort!r}")
        if uf.parent[e.index] == e.index:
            return e
        return El(e.sort, uf.find(e.index))

    def raw_count(self, sort: str) -> int:
        """Number of allocated indices, including merged-away ones."""
        return len(self._uf[sort])

    def elements(self, sort: str) -> list[El]:
        """Canonical elements of a sort, in index order."""
        uf = self._uf[sort]
        return [El(sort, i) for i in range(len(uf)) if uf.find(i) == i]

    def element_count(self, sort: str) -> int:
        return len(self.elements(sort))

    def total_element_count(self) -> int:
        return sum(self.element_count(s) for s in self.sig.sorts)

    # -- tuples ------------------------------------------------------------

    def _check_tuple(self, rel: str, t: tuple[El, ...]) -> RelDecl:
        decl = self.sig.relation(rel)
        if len(t) != len(decl.arity):
            raise SignatureError(
                f"{rel}: expected {len(decl.arity)} components, got {len(t)}"
            )
        for e, s in zip(t, decl.arity):
            if e.sort != s:
                raise SignatureError(
                    f"{rel}: component of sort {e.sort!r}, expected {s!r}"
                )
            if e.index >= len(self._uf[s].parent):
                raise SignatureError(f"{rel}: element {e} not in structure")
        return decl

    def canonical(self, t: tuple[El, ...]) -> tuple[El, ...]:
        return tuple([self.find(e) for e in t])

    def _store(self, rel: str, ct: tuple[El, ...]) -> bool:
        """Store the canonical tuple ``ct``; ``False`` if it was stored."""
        ts = self.rels[rel]
        if ct in ts:
            return False
        ts.add(ct)
        entry, uses, log = (rel, ct), self._uses, self.log
        if uses is not None:
            for e in ct:
                uses[e].append(entry)
        if log is not None:
            log.append(entry)
        return True

    def add_tuple(self, rel: str, t: tuple[El, ...]) -> bool:
        self._check_tuple(rel, t)
        return self._store(rel, self.canonical(t))

    def has_tuple(self, rel: str, t: tuple[El, ...]) -> bool:
        self._check_tuple(rel, t)
        return self.canonical(t) in self.rels[rel]

    def sorted_tuples(self, rel: str) -> list[tuple[El, ...]]:
        return sorted(self.rels[rel])

    def total_tuple_count(self) -> int:
        return sum(len(ts) for ts in self.rels.values())

    # -- merging -----------------------------------------------------------

    def merge(self, a: El, b: El) -> El:
        """Identify ``a`` and ``b``; returns the kept representative, the
        one with the smaller index.  Only the tuples on the merged-away
        element's use-list are rewritten."""
        if a.sort != b.sort:
            raise SignatureError(f"merging across sorts {a.sort!r}/{b.sort!r}")
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        uses = self._uses
        if uses is None:
            uses = self._uses = defaultdict(list)
            for rel, tuples in self.rels.items():
                for t in tuples:
                    entry = (rel, t)
                    for e in t:
                        uses[e].append(entry)
        keep = El(a.sort, self._uf[a.sort].union(ra.index, rb.index))
        lose = rb if keep == ra else ra
        for rel, t in uses.pop(lose, ()):
            tuples = self.rels[rel]
            if t not in tuples:
                continue  # stale: an earlier merge rewrote it
            tuples.remove(t)
            # Every other component of t is still canonical.
            self._store(rel, tuple([keep if e == lose else e for e in t]))
        return keep

    # -- misc --------------------------------------------------------------

    def copy(self) -> "Structure":
        new = Structure(self.sig)
        new._uf = {s: uf.copy() for s, uf in self._uf.items()}
        new.rels = {r: set(ts) for r, ts in self.rels.items()}
        return new

    def is_canonical(self) -> bool:
        return all(
            t == self.canonical(t)
            for ts in self.rels.values()
            for t in ts
        )

    def __repr__(self):
        counts = {s: self.element_count(s) for s in self.sig.sorts}
        sizes = {r: len(ts) for r, ts in self.rels.items() if ts}
        return f"Structure(elements={counts}, tuples={sizes})"


class Morphism:
    """A sort-indexed map between structures, keyed on canonical elements."""

    def __init__(self, dom: Structure, cod: Structure,
                 mapping: dict[El, El]):
        self.dom = dom
        self.cod = cod
        self.mapping = {dom.find(k): cod.find(v) for k, v in mapping.items()}

    def apply(self, e: El) -> El:
        return self.cod.find(self.mapping[self.dom.find(e)])

    def apply_tuple(self, t: tuple[El, ...]) -> tuple[El, ...]:
        return tuple(self.apply(e) for e in t)

    def check_valid(self) -> None:
        for s in self.dom.sig.sorts:
            for e in self.dom.elements(s):
                if e not in self.mapping:
                    raise SignatureError(f"morphism undefined on {e}")
                if self.mapping[e].sort != s:
                    raise SignatureError(f"morphism not sort-preserving at {e}")
        for rel, tuples in self.dom.rels.items():
            for t in tuples:
                if not self.cod.has_tuple(rel, self.apply_tuple(t)):
                    raise SignatureError(
                        f"morphism does not preserve {rel}{t}"
                    )

    def is_injective(self) -> bool:
        for s in self.dom.sig.sorts:
            images = [self.apply(e) for e in self.dom.elements(s)]
            if len(set(images)) != len(images):
                return False
        return True

    def is_surjective(self) -> bool:
        for s in self.dom.sig.sorts:
            images = {self.apply(e) for e in self.dom.elements(s)}
            if images != set(self.cod.elements(s)):
                return False
        return True

    def compose(self, other: "Morphism") -> "Morphism":
        """Return self after other (``self . other``)."""
        mapping = {e: self.apply(other.apply(e))
                   for s in other.dom.sig.sorts
                   for e in other.dom.elements(s)}
        return Morphism(other.dom, self.cod, mapping)

    @staticmethod
    def identity(x: Structure) -> "Morphism":
        return Morphism(x, x, {e: e for s in x.sig.sorts
                               for e in x.elements(s)})

    def __repr__(self):
        return f"Morphism({dict(sorted(self.mapping.items()))})"


# -- colimits --------------------------------------------------------------


def coproduct(structs: list[Structure],
              sig: Optional[Signature] = None) -> tuple[Structure, list[Morphism]]:
    """Disjoint union of structures over a shared signature."""
    if sig is None:
        if not structs:
            raise SignatureError("coproduct of [] needs an explicit signature")
        sig = structs[0].sig
    for x in structs:
        if x.sig != sig:
            raise SignatureError("coproduct over mismatched signatures")
    out = Structure(sig)
    injections = []
    for x in structs:
        mapping = {}
        # Allocate one fresh element per canonical element of x.
        for s in sig.sorts:
            for e in x.elements(s):
                mapping[e] = out.add_element(s)
        inj = Morphism(x, out, mapping)
        for rel, tuples in x.rels.items():
            for t in tuples:
                out.add_tuple(rel, inj.apply_tuple(t))
        injections.append(inj)
    return out, injections


def pushout(f: Morphism, g: Morphism) -> tuple[Structure, Morphism, Morphism]:
    """Pushout of B <-f- A -g-> X; returns (Y, B->Y, X->Y)."""
    a, b, x = f.dom, f.cod, g.cod
    if g.dom is not a and g.dom.sig != a.sig:
        raise SignatureError("pushout legs must share a domain signature")
    y, (in_b, in_x) = coproduct([b, x])
    for s in a.sig.sorts:
        for e in a.elements(s):
            y.merge(in_b.apply(f.apply(e)), in_x.apply(g.apply(e)))
    pb = Morphism(b, y, {e: y.find(v) for e, v in in_b.mapping.items()})
    px = Morphism(x, y, {e: y.find(v) for e, v in in_x.mapping.items()})
    return y, pb, px


def quotient_by_relation(x: Structure,
                         eqs: Iterable[tuple[El, El]]) -> tuple[Structure, Morphism]:
    """Quotient by a list of element identifications; returns the projection."""
    q = x.copy()
    for a, b in eqs:
        q.merge(a, b)
    proj = Morphism(x, q, {e: q.find(e) for s in x.sig.sorts
                           for e in x.elements(s)})
    return q, proj
