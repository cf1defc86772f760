"""Finite relational structures with union-find equality, morphisms, colimits.

Structures are mutable and single-writer; every public operation leaves all
stored tuples canonical (each component equal to its union-find
representative).

Equality is a union-find over element indices, kept per sort as a parent
list: ``_parent[sort][i]`` is the parent of index ``i``, and a root is its
own parent.  Of two merged classes the root with the smaller index is
kept, and ``find`` compresses the path it walks.  Indices are allocated
densely and never reused: merged-away indices stay allocated but
non-canonical, so the canonical indices of a merged structure have gaps.

A structure's first merge builds its use-lists: for each canonical
element, the (relation, tuple) entries that hold it.  From then on every
stored tuple is on the use-list of each of its elements; an entry whose
tuple is no longer stored is stale and skipped.  A merge therefore visits
only the merged-away element's entries, and rewrites each live one.
``copy`` does not carry them, so a structure that is never merged never
builds them.  While ``log`` is a dict from relation names and carrier
keys ``(sort,)`` to sets, each set holds exactly what its key gained since
and still holds: the stored tuples, or the elements ``add_element`` made,
as 1-tuples, that no merge took away; no other key is logged.  Both are
kept by ``store``, the one routine that adds to ``rels``, which
``add_tuple`` and ``merge`` call with a canonical, sort-checked tuple, and
by ``store_all``, which stores many such tuples of one relation at once.
``add_tuple`` and ``has_tuple`` get theirs from ``_check_tuple``, which
checks a tuple and returns its canonical form in the same pass.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Collection, Iterable, NamedTuple, Optional


class SignatureError(ValueError):
    """Raised on sort/arity mismatches and unknown symbols."""


@dataclass(frozen=True, slots=True)
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


class El(NamedTuple):
    """An element of a structure: sort name plus dense per-sort index."""

    sort: str
    index: int


class Structure:
    """A finite relational structure over a signature.

    Relations are stored as sets of canonical tuples of :class:`El`.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        # Per sort, each index's union-find parent; see the module docstring.
        self._parent: dict[str, list[int]] = {s: [] for s in sig.sorts}
        self.rels: dict[str, set[tuple[El, ...]]] = {
            r.name: set() for r in sig.relations
        }
        # Built by the first merge; see the module docstring.
        self._uses: Optional[
            defaultdict[El, list[tuple[str, tuple[El, ...]]]]] = None
        # When a dict, what each key gained; see the module docstring.
        self.log: Optional[dict[object, set[tuple[El, ...]]]] = None

    # -- elements ----------------------------------------------------------

    def add_element(self, sort: str) -> El:
        parent = self._parent.get(sort)
        if parent is None:
            raise SignatureError(f"unknown sort {sort!r}")
        e = El(sort, len(parent))
        parent.append(e.index)
        if self.log is not None and (sort,) in self.log:
            self.log[(sort,)].add((e,))
        return e

    def find(self, e: El) -> El:
        """The canonical representative of ``e``; ``e`` itself if it is
        canonical."""
        parent = self._parent.get(e.sort)
        if parent is None:
            raise SignatureError(f"unknown sort {e.sort!r}")
        i = e.index
        try:
            if parent[i] == i:
                return e
        except IndexError:  # past either end of the parent list
            raise SignatureError(f"element {e} not in structure") from None
        if i < 0:  # after the fast return: no parent is negative
            raise SignatureError(f"element {e} not in structure")
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return El(e.sort, root)

    def elements(self, sort: str) -> list[El]:
        """Canonical elements of a sort, in index order."""
        return [El(sort, i) for i, p in enumerate(self._parent[sort])
                if p == i]

    def element_count(self, sort: str) -> int:
        return len(self.elements(sort))

    # -- tuples ------------------------------------------------------------

    def _check_tuple(self, rel: str, t: tuple[El, ...]) -> tuple[El, ...]:
        """``t`` checked against ``rel`` and made canonical in one pass."""
        arity = self.sig.relation(rel).arity
        if len(t) != len(arity):
            raise SignatureError(
                f"{rel}: expected {len(arity)} components, got {len(t)}"
            )
        out = []
        for e, s in zip(t, arity):
            if e.sort != s:
                raise SignatureError(
                    f"{rel}: component of sort {e.sort!r}, expected {s!r}"
                )
            parent = self._parent[s]
            if not 0 <= e.index < len(parent):
                raise SignatureError(f"{rel}: element {e} not in structure")
            out.append(e if parent[e.index] == e.index else self.find(e))
        return tuple(out)

    def store(self, rel: str, ct: tuple[El, ...]) -> bool:
        """Store the canonical, checked ``ct``; ``False`` if already stored."""
        ts = self.rels[rel]
        if ct in ts:
            return False
        ts.add(ct)
        entry, uses, log = (rel, ct), self._uses, self.log
        if uses is not None:
            for e in ct:
                uses[e].append(entry)
        if log is not None and rel in log:
            log[rel].add(ct)
        return True

    def store_all(self, rel: str, cts: Iterable[tuple[El, ...]]) -> None:
        """``store`` each of ``cts``: one set update without uses or log."""
        if self._uses is None and self.log is None:
            self.rels[rel].update(cts)
        else:
            for ct in cts:
                self.store(rel, ct)

    def add_tuple(self, rel: str, t: tuple[El, ...]) -> bool:
        return self.store(rel, self._check_tuple(rel, t))

    def has_tuple(self, rel: str, t: tuple[El, ...]) -> bool:
        return self._check_tuple(rel, t) in self.rels[rel]

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
        keep, lose = (ra, rb) if ra.index < rb.index else (rb, ra)
        self._parent[a.sort][lose.index] = keep.index
        log = self.log or {}
        if (a.sort,) in log:
            log[(a.sort,)].discard((lose,))
        for rel, t in uses.pop(lose, ()):
            tuples = self.rels[rel]
            if t not in tuples:
                continue  # stale: an earlier merge rewrote it
            tuples.remove(t)
            if rel in log:
                log[rel].discard(t)
            # Every other component of t is still canonical.
            self.store(rel, tuple([keep if e == lose else e for e in t]))
        return keep

    # -- misc --------------------------------------------------------------

    def copy(self, empty: Collection[str] = ()) -> "Structure":
        """A copy, with the relations named in ``empty`` left empty."""
        new = Structure(self.sig)
        new._parent = {s: list(p) for s, p in self._parent.items()}
        new.rels = {r: set() if r in empty else set(ts)
                    for r, ts in self.rels.items()}
        return new

    def __repr__(self):
        counts = {s: self.element_count(s) for s in self.sig.sorts}
        sizes = {r: len(ts) for r, ts in self.rels.items() if ts}
        return f"Structure(elements={counts}, tuples={sizes})"


class Morphism:
    """A sort-preserving map between structures, keyed on canonical
    elements; ``tests/helpers.is_homomorphism`` checks that it is one."""

    def __init__(self, dom: Structure, cod: Structure,
                 mapping: dict[El, El]):
        for k, v in mapping.items():
            if k.sort != v.sort:
                raise SignatureError(f"morphism maps {k} to {v} across sorts")
        self.dom = dom
        self.cod = cod
        self.mapping = {dom.find(k): cod.find(v) for k, v in mapping.items()}

    def apply(self, e: El) -> El:
        return self.cod.find(self.mapping[self.dom.find(e)])

    def apply_tuple(self, t: tuple[El, ...]) -> tuple[El, ...]:
        return tuple(self.apply(e) for e in t)

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
    if g.dom is not a:
        raise SignatureError("pushout legs must share a domain")
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
