"""Fixed-point evaluation of relational Horn theories.

Each iteration matches every sequent's premise against the current result,
then applies the pending conclusions as a batch: relation atoms insert tuples,
equality atoms merge union-find classes, conclusion-only variables create
fresh elements.  Matches whose conclusion already holds are skipped, which
keeps fresh-element creation bounded for non-surjective sequents.  Evaluation
stops at the first iteration that changes nothing.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional

from .core import El, Morphism, SignatureError, Structure
from .syntax import (DefinedAtom, EqualAtom, Formula, RelAtom, Sequent,
                     Theory, Var, atom_vars, formula_vars, is_rhl)


class EvaluationBudgetError(RuntimeError):
    """Iteration budget exhausted before a fixed point; carries the partial
    result."""

    def __init__(self, partial: Structure, unit: "Morphism",
                 report: "EvalReport"):
        super().__init__(
            f"no fixed point within {report.iterations} iterations")
        self.partial = partial
        self.unit = unit
        self.report = report


@dataclass(frozen=True)
class EvalConfig:
    max_iterations: Optional[int] = None
    strategy: str = "naive"  # "naive" | "seminaive"
    strictness: str = "warn"  # "warn" | "error"
    epic_origin: bool = False  # set by callers that flattened an epic PHL theory

    def __post_init__(self):
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.strategy not in ("naive", "seminaive"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strictness not in ("warn", "error"):
            raise ValueError(f"unknown strictness {self.strictness!r}")


@dataclass
class IterationStats:
    matches: int = 0
    tuples_added: int = 0
    merges: int = 0
    elements_created: int = 0

    @property
    def changed(self) -> bool:
        return bool(self.tuples_added or self.merges or self.elements_created)


@dataclass
class EvalReport:
    iterations: int = 0
    per_iteration: list[IterationStats] = field(default_factory=list)
    fixed_point: bool = False


@dataclass(frozen=True)
class Delta:
    """Tuples and elements new since the previous iteration."""

    tuples: frozenset[tuple[str, tuple[El, ...]]]
    elements: frozenset[El]


# -- premise matching ------------------------------------------------------
#
# A formula, together with its set of pre-bound variables, compiles once
# into a plan over integer slots: the pre-bound variables first, then the
# others in first-occurrence order.  Each atom becomes one step:
#
#   scan   a relation atom with no argument bound: iterate its tuples;
#   probe  some arguments bound: look up a hash index on those columns;
#   test   all arguments bound: a set-membership test;
#   elems  ``v!`` or ``u = v`` over unbound variables: iterate elements;
#   same, copy  ``u = v`` with both sides or one side bound;
#   mark   the delta test on the element a bound ``v!`` or ``u = v`` reads.
#
# Without a delta the steps run in source order over sorted tuples, sorted
# index buckets and elements in index order, so matches come out in
# nested-loop order.  With a delta, matching is semi-naive: for each atom i
# that can touch the delta, one variant matches the delta at atom i (run
# first), the relation without the delta at every atom before i and the
# full relation after it.  A match lies in exactly one variant, the one of
# its first delta atom.  Sorting the union on the slot values restores
# nested-loop order: they are the match's per-atom witnesses, in order.

_FULL, _OLD, _DELTA = 0, 1, 2


class _Step(NamedTuple):
    kind: str
    name: str = ""  # relation (scan, probe, test) or sort (elems)
    mode: int = _FULL
    slots: tuple[int, ...] = ()  # the slots read, or bound by elems
    key: Optional[Callable] = None  # probe, test: reads the key off the slots
    cols: tuple[int, ...] = ()  # probe: the bound columns
    binds: tuple[tuple[int, int], ...] = ()  # (column, slot) of new variables
    repeats: tuple[tuple[int, int], ...] = ()  # (column, earlier column)


class _Plan(NamedTuple):
    vars: tuple[Var, ...]  # by slot
    pre: tuple[Var, ...]  # the pre-bound slots' variables
    steps: tuple[_Step, ...]
    variants: tuple[tuple[_Step, ...], ...]


def _row(slots: tuple[int, ...]) -> Callable:
    """Read the given slots as a tuple."""
    if len(slots) == 1:
        (s,) = slots
        return lambda vals: (vals[s],)
    return itemgetter(*slots) if slots else lambda vals: ()


def _steps(atoms, order, modes: dict[int, int], slot: dict[Var, int],
           bound: set[Var]) -> tuple[_Step, ...]:
    out: list[_Step] = []
    for i in order:
        a, mode = atoms[i], modes.get(i, _FULL)
        if isinstance(a, RelAtom):
            cols, keys, binds, repeats = [], [], [], []
            first: dict[Var, int] = {}
            for c, v in enumerate(a.args):
                if v in bound:
                    cols.append(c)
                    keys.append(slot[v])
                elif v in first:
                    repeats.append((c, first[v]))
                else:
                    first[v] = c
                    binds.append((c, slot[v]))
            name, keys = a.rel.name, tuple(keys)
            if not binds:
                out.append(_Step("test", name, mode, keys, _row(keys)))
            elif not cols:
                out.append(_Step("scan", name, mode, binds=tuple(binds),
                                 repeats=tuple(repeats)))
            else:
                out.append(_Step("probe", name, mode, keys, itemgetter(*keys),
                                 tuple(cols), tuple(binds), tuple(repeats)))
            bound.update(first)
        elif isinstance(a, DefinedAtom):
            v = a.term
            if v not in bound:
                out.append(_Step("elems", v.sort, mode, (slot[v],)))
                bound.add(v)
            elif mode != _FULL:
                out.append(_Step("mark", mode=mode, slots=(slot[v],)))
        else:  # EqualAtom
            u, v = a.lhs, a.rhs
            if u not in bound and v not in bound:
                slots = (slot[u],) if u == v else (slot[u], slot[v])
                out.append(_Step("elems", u.sort, mode, slots))
                bound.update((u, v))
                continue
            if u not in bound or v not in bound:
                src, dst = (u, v) if u in bound else (v, u)
                out.append(_Step("copy", slots=(slot[dst], slot[src])))
                bound.add(dst)
            elif u != v:
                out.append(_Step("same", slots=(slot[u], slot[v])))
            if mode != _FULL:
                out.append(_Step("mark", mode=mode, slots=(slot[u],)))
    return tuple(out)


@functools.lru_cache(maxsize=1024)
def _plan(f: Formula, bound: frozenset[Var]) -> _Plan:
    if not is_rhl(f):
        raise SignatureError("find_matches expects an RHL formula")
    fvars = formula_vars(f)
    pre = tuple(v for v in fvars if v in bound)
    order = pre + tuple(v for v in fvars if v not in bound)
    slot = {v: i for i, v in enumerate(order)}
    atoms = f.atoms
    # Every atom can touch the delta except ``u = v`` with a side bound in
    # source order, which only filters or copies.
    hits = []
    seen = set(pre)
    for i, a in enumerate(atoms):
        if not (isinstance(a, EqualAtom) and (a.lhs in seen or a.rhs in seen)):
            hits.append(i)
        seen.update(atom_vars(a))
    variants = []
    for i in hits:
        modes = {j: _OLD for j in hits if j < i}
        modes[i] = _DELTA
        rest = [j for j in range(len(atoms)) if j != i]
        variants.append(_steps(atoms, [i] + rest, modes, slot, set(pre)))
    return _Plan(order, pre, _steps(atoms, range(len(atoms)), {}, slot,
                                    set(pre)), tuple(variants))


class _Sources:
    """What one ``find_matches`` call reads of a structure: each relation in
    full, without the delta (old) or only the delta, as a set, a sorted
    list or a hash index with sorted buckets, each built on first use."""

    def __init__(self, x: Structure, delta: Optional[Delta]):
        self.x = x
        self.delta = delta
        self.memo: dict = {}

    def members(self, rel: str, mode: int) -> set[tuple[El, ...]]:
        full = self.x.rels[rel]
        if mode == _FULL:
            return full
        key = ("set", rel, mode)
        ts = self.memo.get(key)
        if ts is None:
            if mode == _DELTA:
                ts = {t for r, t in self.delta.tuples if r == rel and t in full}
            else:
                ts = full - self.members(rel, _DELTA)
            self.memo[key] = ts
        return ts

    def tuples(self, rel: str, mode: int, repeats) -> list[tuple[El, ...]]:
        key = ("list", rel, mode, repeats)
        ts = self.memo.get(key)
        if ts is None:
            ts = self.memo[key] = [t for t in sorted(self.members(rel, mode))
                                   if _agrees(t, repeats)]
        return ts

    def index(self, rel: str, mode: int, cols, repeats) -> dict:
        key = ("index", rel, mode, cols, repeats)
        idx = self.memo.get(key)
        if idx is None:
            idx = self.memo[key] = {}
            get = itemgetter(*cols)
            for t in self.tuples(rel, mode, repeats):
                k = get(t)
                bucket = idx.get(k)
                if bucket is None:
                    idx[k] = [t]
                else:
                    bucket.append(t)
        return idx

    def elements(self, sort: str, mode: int) -> list[El]:
        key = ("elements", sort, mode)
        els = self.memo.get(key)
        if els is None:
            els = self.x.elements(sort)
            if mode != _FULL:
                d, want = self.delta.elements, mode == _DELTA
                els = [e for e in els if (e in d) == want]
            self.memo[key] = els
        return els


def _agrees(t: tuple[El, ...], repeats) -> bool:
    for c, c0 in repeats:
        if t[c] != t[c0]:
            return False
    return True


def _link(steps: tuple[_Step, ...], src: _Sources, out: list) -> Callable:
    """Chain the steps into one function of the slot list; it appends every
    complete match to ``out`` as a tuple of slot values."""
    def emit(vals):
        out.append(tuple(vals))

    run = emit
    for st in reversed(steps):
        run = _LINK[st.kind](st, src, run)
    return run


def _link_scan(st: _Step, src: _Sources, nxt):
    tuples, binds = src.tuples(st.name, st.mode, st.repeats), st.binds

    def scan(vals):
        for t in tuples:
            for c, s in binds:
                vals[s] = t[c]
            nxt(vals)
    return scan


def _link_probe(st: _Step, src: _Sources, nxt):
    get = src.index(st.name, st.mode, st.cols, st.repeats).get
    key, binds = st.key, st.binds

    def probe(vals):
        for t in get(key(vals), ()):
            for c, s in binds:
                vals[s] = t[c]
            nxt(vals)
    return probe


def _link_test(st: _Step, src: _Sources, nxt):
    members, key = src.members(st.name, st.mode), st.key

    def test(vals):
        if key(vals) in members:
            nxt(vals)
    return test


def _link_elems(st: _Step, src: _Sources, nxt):
    els = src.elements(st.name, st.mode)
    if len(st.slots) == 1:
        (s,) = st.slots

        def elems(vals):
            for e in els:
                vals[s] = e
                nxt(vals)
    else:
        a, b = st.slots

        def elems(vals):
            for e in els:
                vals[a] = vals[b] = e
                nxt(vals)
    return elems


def _link_same(st: _Step, src: _Sources, nxt):
    a, b = st.slots

    def same(vals):
        if vals[a] == vals[b]:
            nxt(vals)
    return same


def _link_copy(st: _Step, src: _Sources, nxt):
    dst, s = st.slots

    def copy(vals):
        vals[dst] = vals[s]
        nxt(vals)
    return copy


def _link_mark(st: _Step, src: _Sources, nxt):
    (s,) = st.slots
    d, want = src.delta.elements, st.mode == _DELTA

    def mark(vals):
        if (vals[s] in d) == want:
            nxt(vals)
    return mark


_LINK = {"scan": _link_scan, "probe": _link_probe, "test": _link_test,
         "elems": _link_elems, "same": _link_same, "copy": _link_copy,
         "mark": _link_mark}


def find_matches(f: Formula, x: Structure, delta: Optional[Delta] = None,
                 binding: Optional[dict[Var, El]] = None) -> Iterator[dict[Var, El]]:
    """All interpretations of an RHL formula in ``x``, in deterministic
    (nested-loop) order.  With ``delta``, only interpretations touching at
    least one delta-marked tuple or element are yielded.  ``binding``
    pre-binds variables (used for conclusion extension tests)."""
    start = {v: x.find(e) for v, e in binding.items()} if binding else {}
    plan = _plan(f, frozenset(start))
    vals = [start[v] for v in plan.pre]
    vals += [None] * (len(plan.vars) - len(vals))
    src = _Sources(x, delta)
    rows: list[tuple[El, ...]] = []
    if delta is None:
        _link(plan.steps, src, rows)(vals)
    else:
        for steps in plan.variants:
            _link(steps, src, rows)(vals)
        rows.sort()
    for row in rows:
        m = dict(start)
        m.update(zip(plan.vars, row))
        yield m


def _extends(x: Structure, s: Sequent, assignment: dict[Var, El]) -> bool:
    """Can the premise interpretation be extended over the conclusion?"""
    return next(find_matches(s.conclusion, x, binding=assignment), None) is not None


def satisfies(x: Structure, s: Sequent) -> bool:
    """Def.-level satisfaction: every premise interpretation extends."""
    return all(_extends(x, s, m) for m in find_matches(s.premise, x))


def satisfies_theory(x: Structure, t: Theory) -> bool:
    return all(satisfies(x, s) for s in t.sequents)


# -- PHL satisfaction (independent term-evaluation semantics) --------------


def _eval_term(x: Structure, term, assignment: dict[Var, El]) -> Optional[El]:
    if isinstance(term, Var):
        return assignment[term]
    args = []
    for a in term.args:
        e = _eval_term(x, a, assignment)
        if e is None:
            return None
        args.append(e)
    for t in x.rels[term.func.name]:
        if list(t[:-1]) == args:
            return t[-1]
    return None


def _phl_atom_holds(x: Structure, atom, assignment) -> bool:
    if isinstance(atom, RelAtom):
        args = [_eval_term(x, t, assignment) for t in atom.args]
        if any(a is None for a in args):
            return False
        return x.has_tuple(atom.rel.name, tuple(args))
    if isinstance(atom, DefinedAtom):
        return _eval_term(x, atom.term, assignment) is not None
    l = _eval_term(x, atom.lhs, assignment)
    r = _eval_term(x, atom.rhs, assignment)
    return l is not None and l == r


def satisfies_phl(x: Structure, s: Sequent) -> bool:
    """PHL satisfaction over an algebraic structure by direct term
    evaluation; brute-force over variable assignments."""
    pvars = formula_vars(s.premise)
    all_vars = {v: None for v in pvars}
    for v in formula_vars(s.conclusion):
        all_vars.setdefault(v)
    cvars = [v for v in all_vars if v not in set(pvars)]
    spaces = [x.elements(v.sort) for v in pvars]
    for images in itertools.product(*spaces):
        assignment = dict(zip(pvars, images))
        if not all(_phl_atom_holds(x, a, assignment) for a in s.premise.atoms):
            continue
        ext_spaces = [x.elements(v.sort) for v in cvars]
        found = False
        for ext in itertools.product(*ext_spaces):
            full = dict(assignment)
            full.update(zip(cvars, ext))
            if all(_phl_atom_holds(x, a, full) for a in s.conclusion.atoms):
                found = True
                break
        if not found:
            return False
    return True


# -- conclusion application ------------------------------------------------


@dataclass
class ChangeSet:
    tuples_added: list[tuple[str, tuple[El, ...]]] = field(default_factory=list)
    merges: list[tuple[El, El]] = field(default_factory=list)
    elements_created: list[El] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.tuples_added or self.merges or self.elements_created)


def apply_match(x: Structure, s: Sequent, assignment: dict[Var, El]) -> ChangeSet:
    """Adjoin the conclusion along a premise match: the pushout of the
    sequent's classifying morphism along the match, realized in place."""
    changes = ChangeSet()
    full = {v: x.find(e) for v, e in assignment.items()}
    for v in formula_vars(s.conclusion):
        if v not in full:
            e = x.add_element(v.sort)
            full[v] = e
            changes.elements_created.append(e)
    for atom in s.conclusion.atoms:
        if isinstance(atom, RelAtom):
            t = tuple([x.find(full[v]) for v in atom.args])
            if x.add_tuple(atom.rel.name, t):
                changes.tuples_added.append((atom.rel.name, t))
        elif isinstance(atom, EqualAtom):
            a, b = x.find(full[atom.lhs]), x.find(full[atom.rhs])
            if a != b:
                x.merge(a, b)
                changes.merges.append((a, b))
        # DefinedAtom: the element exists by construction.
    return changes


# -- the evaluation loop ---------------------------------------------------


DEFAULT_MAX_ITERATIONS = 10000


def evaluate(t: Theory, x: Structure,
             cfg: EvalConfig = EvalConfig()) -> tuple[Structure, Morphism, EvalReport]:
    """Iterate the theory to a fixed point; returns the result, the unit
    morphism from the input, and a report.

    The result is the free model for strong theories and one particular
    weakly free model otherwise.
    """
    if not is_rhl(t):
        raise SignatureError("evaluate expects an RHL theory; flatten first")
    if x.sig != t.signature:
        raise SignatureError("structure signature does not match the theory")

    from .classify import classify_sequent  # syntactic check only

    all_surjective = all(classify_sequent(s).surjective for s in t.sequents)
    if not all_surjective and not cfg.epic_origin:
        message = ("theory has non-surjective sequents of unknown origin; "
                   "the result is only weakly free")
        if cfg.strictness == "error":
            raise SignatureError(message)
        warnings.warn(message, stacklevel=2)

    max_iterations = cfg.max_iterations
    if max_iterations is None and not all_surjective:
        max_iterations = DEFAULT_MAX_ITERATIONS

    result = x.copy()
    report = EvalReport()
    seminaive = cfg.strategy == "seminaive"
    delta: Optional[Delta] = None
    if seminaive:
        # The delta holds only tuples of relations some premise reads.
        read = {a.rel.name for s in t.sequents for a in s.premise.atoms
                if isinstance(a, RelAtom)}
        result.rewritten = []

    while True:
        stats = IterationStats()
        # Every premise is matched before any conclusion is applied, so the
        # matches read ``result`` itself.
        pending: list[tuple[Sequent, dict[Var, El]]] = []
        for s in t.sequents:
            for m in find_matches(s.premise, result, delta=delta):
                pending.append((s, m))
        new_tuples: list[tuple[str, tuple[El, ...]]] = []
        new_elements: list[El] = []
        merged = False
        for s, m in pending:
            # Tuples only go away in a merge, so until one happens in this
            # batch every match still holds and is canonical.
            if merged:
                m = {v: result.find(e) for v, e in m.items()}
                if not all(_premise_atom_holds(result, a, m)
                           for a in s.premise.atoms):
                    continue  # invalidated by a merge earlier in this batch
            if _extends(result, s, m):
                continue
            stats.matches += 1
            changes = apply_match(result, s, m)
            stats.tuples_added += len(changes.tuples_added)
            stats.merges += len(changes.merges)
            stats.elements_created += len(changes.elements_created)
            merged = merged or bool(changes.merges)
            new_tuples += changes.tuples_added
            new_elements += changes.elements_created
        report.iterations += 1
        report.per_iteration.append(stats)
        if not stats.changed:
            report.fixed_point = True
            break
        if seminaive:
            # A new tuple is either still stored as added or was rewritten
            # by a merge, which logged the stored form; stale forms drop out.
            new_tuples += result.rewritten
            result.rewritten.clear()
            rels = result.rels
            delta = Delta(
                frozenset([(rel, tp) for rel, tp in new_tuples
                           if rel in read and tp in rels[rel]]),
                frozenset([result.find(e) for e in new_elements]),
            )
        if max_iterations is not None and report.iterations >= max_iterations:
            break

    result.rewritten = None
    unit = _unit_morphism(x, result)
    if not report.fixed_point:
        raise EvaluationBudgetError(result, unit, report)
    return result, unit, report


def _premise_atom_holds(x: Structure, atom, assignment) -> bool:
    """Does a premise atom hold under a canonical assignment?"""
    if isinstance(atom, RelAtom):
        return tuple([assignment[v] for v in atom.args]) in x.rels[atom.rel.name]
    if isinstance(atom, DefinedAtom):
        return True
    return assignment[atom.lhs] == assignment[atom.rhs]


def _unit_morphism(x: Structure, result: Structure) -> Morphism:
    # Element indices of the input are preserved by copy-then-extend.
    mapping = {e: result.find(e) for s in x.sig.sorts for e in x.elements(s)}
    return Morphism(x, result, mapping)


# -- lifting-property checkers --------------------------------------------


def is_injective_to(x: Structure, f: Morphism) -> bool:
    """Every map dom(f) -> x extends along f.  Brute-force enumeration."""
    from .core import enumerate_morphisms

    for a in enumerate_morphisms(f.dom, x):
        if _count_lifts(x, f, a, stop_at=1) == 0:
            return False
    return True


def is_orthogonal_to(x: Structure, f: Morphism) -> bool:
    """Every map dom(f) -> x extends along f in exactly one way."""
    from .core import enumerate_morphisms

    for a in enumerate_morphisms(f.dom, x):
        if _count_lifts(x, f, a, stop_at=2) != 1:
            return False
    return True


def _count_lifts(x: Structure, f: Morphism, a: Morphism, stop_at: int) -> int:
    """Number of maps b : cod(f) -> x with b . f = a, up to ``stop_at``."""
    b, sig = f.cod, f.cod.sig
    fixed: dict[El, El] = {}
    for s in sig.sorts:
        for e in f.dom.elements(s):
            img = f.apply(e)
            want = a.apply(e)
            if img in fixed and fixed[img] != want:
                return 0
            fixed[img] = want
    free = [e for s in sig.sorts for e in b.elements(s) if e not in fixed]
    spaces = [x.elements(e.sort) for e in free]
    count = 0
    for images in itertools.product(*spaces):
        mapping = dict(fixed)
        mapping.update(zip(free, images))
        ok = True
        for rel, tuples in b.rels.items():
            for t in tuples:
                if not x.has_tuple(rel, tuple(mapping[e] for e in t)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
            if count >= stop_at:
                return count
    return count
