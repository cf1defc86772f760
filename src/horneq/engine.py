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
import warnings
from collections import defaultdict
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
    strategy: str = "seminaive"  # "seminaive" | "naive" (the reference)
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
    """Tuples and elements new since the previous iteration: the tuples by
    relation, every one of them stored, and the canonical elements."""

    tuples: dict[str, set[tuple[El, ...]]]
    elements: frozenset[El]


# -- matching ---------------------------------------------------------------
#
# A formula, together with an ordered tuple of pre-bound variables,
# compiles into a plan over integer slots: the pre-bound variables first,
# then the formula's others in first-occurrence order.  Each atom becomes
# a step (``u = v`` with no side bound two: elems into u, copy into v):
#
#   scan   a relation atom with no argument bound: iterate its tuples;
#   probe  some arguments bound: look up a hash index on those columns;
#   test   all arguments bound: a set-membership test;
#   elems  ``v!`` or ``u = v`` over unbound variables: iterate elements;
#   same, copy  ``u = v`` with both sides or one side bound;
#   mark   the delta test on the element a bound ``v!`` or ``u = v`` reads.
#
# Without a delta the steps run in source order.  With a delta, matching is
# semi-naive: for each atom i that can touch the delta, one variant matches
# the delta at atom i (run first), the relation without the delta at every
# atom before i and the full relation after it.  A match lies in exactly
# one variant, the one of its first delta atom.  Either way the steps read
# sets, index buckets and elements in no particular order, and the rows
# are sorted once at the end.  A row's slot values are the match's
# per-atom witnesses, in order, so sorting them gives nested-loop order.
#
# A sequent compiles once into a rule: its premise plan, and a conclusion
# plan whose first slots are the premise's variables, so a premise row is
# already the start of a conclusion row.

_FULL, _OLD, _DELTA = 0, 1, 2
_NONE = frozenset()


class _Step(NamedTuple):
    kind: str
    name: str = ""  # relation (scan, probe, test) or sort (elems)
    mode: int = _FULL
    slots: tuple[int, ...] = ()  # the slots read, or the slot elems binds
    key: Optional[Callable] = None  # probe, test: reads the key off the slots
    cols: tuple[int, ...] = ()  # probe: the bound columns
    binds: tuple[tuple[int, int], ...] = ()  # (column, slot) of new variables
    repeats: tuple[tuple[int, int], ...] = ()  # (column, earlier column)


class _Plan(NamedTuple):
    vars: tuple[Var, ...]  # by slot
    steps: tuple[_Step, ...]
    variants: tuple[tuple[_Step, ...], ...]


class _Rule(NamedTuple):
    premise: _Plan
    conclusion: _Plan  # its first slots are the premise's
    fresh: tuple[str, ...]  # the sorts of the conclusion-only slots
    # per conclusion atom: (relation, slots), or (None, (u, v)) for u = v
    heads: tuple[tuple[Optional[str], tuple[int, ...]], ...]


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
        else:  # ``u = v``, or ``v!`` read as ``v = v``
            u, v = ((a.term, a.term) if isinstance(a, DefinedAtom)
                    else (a.lhs, a.rhs))
            if u not in bound and v not in bound:
                out.append(_Step("elems", u.sort, mode, (slot[u],)))
                bound.add(u)
                mode = _FULL  # the elements step already read the delta
            if u not in bound or v not in bound:
                src, dst = (u, v) if u in bound else (v, u)
                out.append(_Step("copy", slots=(slot[dst], slot[src])))
                bound.add(dst)
            elif u != v:
                out.append(_Step("same", slots=(slot[u], slot[v])))
            if mode != _FULL:
                out.append(_Step("mark", mode=mode, slots=(slot[u],)))
    return tuple(out)


def _plan(f: Formula, pre: tuple[Var, ...] = ()) -> _Plan:
    if not is_rhl(f):
        raise SignatureError("matching expects an RHL formula")
    order = pre + tuple(v for v in formula_vars(f) if v not in pre)
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
    return _Plan(order, _steps(atoms, range(len(atoms)), {}, slot, set(pre)),
                 tuple(variants))


@functools.lru_cache(maxsize=1024)
def _rule(s: Sequent) -> _Rule:
    premise = _plan(s.premise)
    conclusion = _plan(s.conclusion, premise.vars)
    slot = {v: i for i, v in enumerate(conclusion.vars)}
    heads = tuple(
        (a.rel.name, tuple([slot[v] for v in a.args]))
        if isinstance(a, RelAtom) else (None, (slot[a.lhs], slot[a.rhs]))
        for a in s.conclusion.atoms if not isinstance(a, DefinedAtom))
    fresh = tuple(v.sort for v in conclusion.vars[len(premise.vars):])
    return _Rule(premise, conclusion, fresh, heads)


class _Sources:
    """What one ``_rows`` call reads of a structure: each relation in full,
    without the delta (old) or only the delta, as a set or as a hash index
    on some columns, and the elements of each sort.  The delta's sets are
    read as they are; the rest is built on first use.  Nothing is sorted
    here; ``_rows`` sorts the rows it returns."""

    def __init__(self, x: Structure, delta: Optional[Delta]):
        self.x = x
        self.delta = delta
        self.memo: dict = {}

    def members(self, rel: str, mode: int) -> set[tuple[El, ...]]:
        full = self.x.rels[rel]
        if mode == _FULL:
            return full
        delta = self.delta.tuples.get(rel, _NONE)
        if mode == _DELTA:
            return delta
        ts = self.memo.get(("old", rel))
        if ts is None:
            ts = self.memo["old", rel] = full - delta
        return ts

    def index(self, rel: str, mode: int, cols, repeats) -> dict:
        key = ("index", rel, mode, cols, repeats)
        idx = self.memo.get(key)
        if idx is None:
            idx = self.memo[key] = defaultdict(list)
            get = itemgetter(*cols)
            for t in _agreeing(self.members(rel, mode), repeats):
                idx[get(t)].append(t)
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


def _agreeing(ts, repeats):
    """The tuples of ``ts`` whose repeated columns agree."""
    if not repeats:
        return ts
    return [t for t in ts if all(t[c] == t[c0] for c, c0 in repeats)]


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
    tuples = _agreeing(src.members(st.name, st.mode), st.repeats)
    binds = st.binds

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
    els, (s,) = src.elements(st.name, st.mode), st.slots

    def elems(vals):
        for e in els:
            vals[s] = e
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


def _rows(plan: _Plan, x: Structure, delta: Optional[Delta] = None,
          start: tuple[El, ...] = ()) -> list[tuple[El, ...]]:
    """The plan's matches in ``x`` as slot rows, in nested-loop order; the
    first slots hold ``start``.  With ``delta``, only the matches touching
    at least one delta-marked tuple or element."""
    vals = list(start)
    vals += [None] * (len(plan.vars) - len(vals))
    src = _Sources(x, delta)
    rows: list[tuple[El, ...]] = []
    for steps in (plan.steps,) if delta is None else plan.variants:
        _link(steps, src, rows)(vals)
    rows.sort()
    return rows


def find_matches(f: Formula, x: Structure, delta: Optional[Delta] = None,
                 binding: Optional[dict[Var, El]] = None) -> Iterator[dict[Var, El]]:
    """All interpretations of an RHL formula in ``x``, in deterministic
    (nested-loop) order.  With ``delta``, only interpretations touching at
    least one of its tuples or elements are yielded; its tuples must be
    stored in ``x``, as ``evaluate``'s are.  ``binding`` pre-binds
    variables, ``f``'s or not; they lead every yielded dict."""
    start = {v: x.find(e) for v, e in binding.items()} if binding else {}
    plan = _plan(f, tuple(start))
    for row in _rows(plan, x, delta, tuple(start.values())):
        yield dict(zip(plan.vars, row))


def counterexample(x: Structure, s: Sequent) -> Optional[dict[Var, El]]:
    """The first premise interpretation, in ``find_matches`` order, that
    does not extend over the conclusion; ``None`` if there is none."""
    rule = _rule(s)
    for row in _rows(rule.premise, x):
        if not _rows(rule.conclusion, x, start=row):
            return dict(zip(rule.premise.vars, row))
    return None


def satisfies(x: Structure, s: Sequent) -> bool:
    """Def.-level satisfaction: every premise interpretation extends."""
    return counterexample(x, s) is None


def satisfies_theory(x: Structure, t: Theory) -> bool:
    return all(satisfies(x, s) for s in t.sequents)


# -- conclusion application ------------------------------------------------


def apply_match(x: Structure, rule: _Rule, row: tuple[El, ...],
                stats: IterationStats) -> None:
    """Adjoin the conclusion along a premise match, given as a row of
    canonical elements in the rule's premise slots: the pushout of the
    sequent's classifying morphism along the match, realized in place.
    The conclusion-only slots get fresh elements, in slot order.  The
    tuples, merges and elements it makes are counted into ``stats``; what
    it stores is also on ``x.log`` when that is a list."""
    full = list(row) + [x.add_element(sort) for sort in rule.fresh]
    stats.elements_created += len(rule.fresh)
    find = x.find
    for name, slots in rule.heads:
        if name is None:
            a, b = find(full[slots[0]]), find(full[slots[1]])
            if a != b:
                x.merge(a, b)
                stats.merges += 1
        else:
            stats.tuples_added += x.add_tuple(
                name, tuple([find(full[i]) for i in slots]))


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
        result.log = []

    rules = [_rule(s) for s in t.sequents]
    sorts = t.signature.sorts
    while True:
        stats = IterationStats()
        counts = [result.raw_count(s) for s in sorts]
        # Every premise is matched before any conclusion is applied, so the
        # matches read ``result`` itself.
        pending = [(rule, row) for rule in rules
                   for row in _rows(rule.premise, result, delta)]
        for rule, row in pending:
            # A merge earlier in the batch keeps the canonical image of
            # every stored tuple stored, so each pending row still matches
            # up to ``find``.  Before the first merge the rows are canonical.
            if stats.merges:
                row = tuple([result.find(e) for e in row])
            if _rows(rule.conclusion, result, start=row):
                continue
            stats.matches += 1
            apply_match(result, rule, row, stats)
        report.iterations += 1
        report.per_iteration.append(stats)
        if not stats.changed:
            report.fixed_point = True
            break
        if seminaive:
            # The log holds every tuple stored in this batch; those a later
            # merge rewrote away are no longer stored and drop out.
            rels, tuples = result.rels, defaultdict(set)
            for rel, tp in result.log:
                if rel in read and tp in rels[rel]:
                    tuples[rel].add(tp)
            result.log.clear()
            find = result.find
            delta = Delta(tuples, frozenset([
                find(El(s, i)) for s, n in zip(sorts, counts)
                for i in range(n, result.raw_count(s))]))
        if max_iterations is not None and report.iterations >= max_iterations:
            break

    result.log = None
    unit = _unit_morphism(x, result)
    if not report.fixed_point:
        raise EvaluationBudgetError(result, unit, report)
    return result, unit, report


def _unit_morphism(x: Structure, result: Structure) -> Morphism:
    # Element indices of the input are preserved by copy-then-extend.
    mapping = {e: result.find(e) for s in x.sig.sorts for e in x.elements(s)}
    return Morphism(x, result, mapping)
