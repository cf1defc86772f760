"""Fixed-point evaluation of relational Horn theories.

Each iteration matches every sequent's premise against the current result,
then applies the pending conclusions as a batch: relation atoms insert tuples,
equality atoms merge union-find classes, conclusion-only variables create
fresh elements.  Matches whose conclusion already holds are dropped before
the batch is sorted, and skipped when an earlier application made it hold,
which keeps fresh-element creation bounded for non-surjective sequents.
Evaluation stops at the first iteration that changes nothing.  Semi-naive
evaluation then matches only along the last batch's delta, which is
``Structure.log`` as it stands: for each relation or carrier a premise reads
as delta, what the batch added to it that is still there.
A relation no sequent mentions is empty in every classifying structure, so
in the result it is the image of the input's under the unit: it stays out of
the loop and is carried along the unit once at the end, column by column.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional

from .core import El, Morphism, SignatureError, Structure
from .syntax import (DefinedAtom, EqualAtom, Formula, RelAtom, Sequent,
                     Theory, Var, atom_terms, formula_vars, is_rhl)


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

    def __post_init__(self):
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.strategy not in ("naive", "seminaive"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


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


# -- matching ---------------------------------------------------------------
#
# A formula, together with an ordered tuple of pre-bound variables,
# compiles into a plan over integer slots: the pre-bound variables first,
# then the formula's others in first-occurrence order.  A match of ``v!``
# is a map out of a one-element structure, so ``v!`` reads the carrier of
# v's sort: a relation of 1-tuples keyed ``(sort,)``, which no relation
# name equals.  ``u = v`` reads it too when neither side is bound.  Each
# atom becomes one or more steps, of four kinds:
#
#   probe  a relation or carrier with an argument left to bind: its tuples
#          that agree on the bound columns, every tuple when none is bound;
#   test   all arguments bound: a set-membership test;
#   same, copy  ``u = v`` with both sides or one side bound.
#
# Without a delta the steps run in source order, except that each ``u = v``
# moves up to right after the first atom that binds one of its sides, so
# a later atom reads the copied side as bound.  With a delta, matching is
# semi-naive: for each atom i that can touch the delta, one variant matches
# the delta at atom i (run first), the relation without the delta at every
# atom before i and the full relation after it.  A match lies in exactly
# one variant, the one of its first delta atom; there a bound ``v!`` or
# ``u = v`` tests its element against the carrier in the atom's mode.  The
# delta maps a relation name or carrier key to a nonempty set of tuples, so
# a variant whose key at atom i is not in it has no match, and it is not
# linked.  Linking a step reads its source once, as the relation's set or
# the carrier, the delta's set under its key, or full minus delta (old); a
# probe with a bound column then builds its hash index on those columns,
# and one with none takes what it read as its one bucket.  The steps read
# sets and buckets in no particular order, and so are the rows; each caller
# sorts what it needs.  A row's slot values are the match's per-atom
# witnesses, in order, so sorting them gives nested-loop order.
#
# A sequent compiles once into a rule: its premise plan, and a conclusion
# plan whose first slots are the premise's variables, so a premise row is
# already the start of a conclusion row.  A premise match extends over the
# conclusion when that plan has a row from it, and its check stops at the
# first.  Without conclusion-only variables the plan is only tests and
# sames, which write no slot, so it runs on the canonical row as it is.  A
# rule's check is linked against a structure as it stands, so its indexes
# are built once for all the rows it tests until the structure changes.

_FULL, _OLD, _DELTA = 0, 1, 2
_NONE = frozenset()
# A plan's steps run as nested calls, one frame a step, so a plan has at
# most this many: well under Python's default recursion limit of 1000.
MAX_PLAN_STEPS = 500


class _Step(NamedTuple):
    kind: str
    name: object = ""  # relation name, or ``(sort,)`` for a carrier
    mode: int = _FULL
    slots: tuple[int, ...] = ()  # the slots read
    key: Optional[Callable] = None  # probe, test: reads the key off the slots
    cols: tuple[int, ...] = ()  # probe: the bound columns, () for none
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
    check: Callable  # check(x)(row): the canonical premise row extends in x


def _row(slots: tuple[int, ...]) -> Callable:
    """Read the given slots as a tuple."""
    if len(slots) == 1:
        (s,) = slots
        return lambda vals: (vals[s],)
    return itemgetter(*slots) if slots else lambda vals: ()


def _steps(atoms, order, modes: dict[int, int], slot: dict[Var, int],
           bound: set[Var], where: str) -> tuple[_Step, ...]:
    out: list[_Step] = []
    # Each ``u = v`` goes right after the first atom that binds a side.
    eqs = [i for i in order if isinstance(atoms[i], EqualAtom)]
    todo = list(order)
    while todo:
        i = next((j for j in eqs if j in todo and (
            atoms[j].lhs in bound or atoms[j].rhs in bound)), todo[0])
        todo.remove(i)
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
            else:
                key = itemgetter(*keys) if keys else _row(keys)
                out.append(_Step("probe", name, mode, keys, key, tuple(cols),
                                 tuple(binds), tuple(repeats)))
            bound.update(first)
        else:  # ``u = v``, or ``v!`` read as ``v = v``
            u, v = ((a.term, a.term) if isinstance(a, DefinedAtom)
                    else (a.lhs, a.rhs))
            carrier = (u.sort,)
            if u not in bound and v not in bound:
                out.append(_Step("probe", carrier, mode, key=_row(()),
                                 binds=((0, slot[u]),)))
                bound.add(u)
                mode = _FULL  # the probe already read the delta
            if u not in bound or v not in bound:
                src, dst = (u, v) if u in bound else (v, u)
                out.append(_Step("copy", slots=(slot[dst], slot[src])))
                bound.add(dst)
            elif u != v:
                out.append(_Step("same", slots=(slot[u], slot[v])))
            if mode != _FULL:
                keys = (slot[u],)
                out.append(_Step("test", carrier, mode, keys, _row(keys)))
    if len(out) > MAX_PLAN_STEPS:
        raise SignatureError(f"{where}a formula of {len(out)} matching steps; "
                             f"a plan has at most {MAX_PLAN_STEPS}")
    return tuple(out)


def _plan(f: Formula, pre: tuple[Var, ...] = (), where: str = "") -> _Plan:
    """The plan of ``f``; ``where`` leads the error of one too long."""
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
        seen.update(atom_terms(a))  # an RHL atom's terms are variables
    steps = _steps(atoms, range(len(atoms)), {}, slot, set(pre), where)
    variants = []
    for i in hits:
        modes = {j: _OLD for j in hits if j < i}
        modes[i] = _DELTA
        rest = [j for j in range(len(atoms)) if j != i]
        variants.append(_steps(atoms, [i] + rest, modes, slot, set(pre), where))
    return _Plan(order, steps, tuple(variants))


@functools.lru_cache(maxsize=1024)
def _rule(s: Sequent) -> _Rule:
    where = "{}:{}: ".format(*s.location) if s.location else ""
    premise = _plan(s.premise, (), where)
    conclusion = _plan(s.conclusion, premise.vars, where)
    slot = {v: i for i, v in enumerate(conclusion.vars)}
    heads = tuple(
        (a.rel.name, tuple([slot[v] for v in a.args]))
        if isinstance(a, RelAtom) else (None, (slot[a.lhs], slot[a.rhs]))
        for a in s.conclusion.atoms if not isinstance(a, DefinedAtom))
    fresh = tuple(v.sort for v in conclusion.vars[len(premise.vars):])
    return _Rule(premise, conclusion, fresh, heads, _check(conclusion, fresh))


def _found(vals) -> bool:
    """The end of a check's plan: its first row is enough."""
    return True


def _check(conclusion: _Plan, fresh) -> Callable:
    """``check(x)``: the extension test of a canonical premise row against
    ``x`` as it stands, the conclusion plan linked to stop at its first
    row.  Without conclusion-only slots the linked plan takes the row
    itself; with them, the row padded with those slots."""
    steps, pad = conclusion.steps, [None] * len(fresh)
    if not fresh:
        return lambda x: _link(steps, x, None, _found)

    def check(x):
        run = _link(steps, x, None, _found)
        return lambda row: run([*row, *pad])
    return check


def _read(x: Structure, delta: Optional[dict], name, mode: int) -> set:
    """What a step reads of ``x``: the relation or carrier ``name`` in
    full, the delta's set under ``name``, or full minus that set (old).  A
    carrier ``(sort,)`` holds its sort's canonical elements as 1-tuples."""
    part = _NONE if mode == _FULL else delta.get(name, _NONE)
    if mode == _DELTA:
        return part
    full = (x.rels[name] if isinstance(name, str)
            else {(e,) for e in x.elements(name[0])})
    return full - part if part else full


def _agreeing(ts, repeats):
    """The tuples of ``ts`` whose repeated columns agree."""
    if not repeats:
        return ts
    return [t for t in ts if all(t[c] == t[c0] for c, c0 in repeats)]


def _link(steps: tuple[_Step, ...], x: Structure, delta: Optional[dict],
          emit: Callable) -> Callable:
    """Chain the steps into one function of the slot list, ending in
    ``emit``.  A step returns what its next step returns, and a probe
    returns ``True`` at the first next step that does: an ``emit``
    that returns ``True`` stops the run at its first complete match."""
    run = emit
    for st in reversed(steps):
        run = _LINK[st.kind](st, x, delta, run)
    return run


def _index(ts, cols: tuple[int, ...]) -> dict:
    """The tuples of ``ts`` by their values at ``cols``."""
    index, col = defaultdict(list), itemgetter(*cols)
    for t in ts:
        index[col(t)].append(t)
    return index


def _link_probe(st: _Step, x, delta, nxt):
    ts = _agreeing(_read(x, delta, st.name, st.mode), st.repeats)
    index = _index(ts, st.cols) if st.cols else {(): ts}
    get, key, binds = index.get, st.key, st.binds

    def probe(vals):
        for t in get(key(vals), ()):
            for c, s in binds:
                vals[s] = t[c]
            if nxt(vals):
                return True
    return probe


def _link_test(st: _Step, x, delta, nxt):
    members, key = _read(x, delta, st.name, st.mode), st.key

    def test(vals):
        if key(vals) in members:
            return nxt(vals)
    return test


def _link_same(st: _Step, x, delta, nxt):
    a, b = st.slots

    def same(vals):
        if vals[a] == vals[b]:
            return nxt(vals)
    return same


def _link_copy(st: _Step, x, delta, nxt):
    dst, s = st.slots

    def copy(vals):
        vals[dst] = vals[s]
        return nxt(vals)
    return copy


_LINK = {"probe": _link_probe, "test": _link_test, "same": _link_same,
         "copy": _link_copy}


def _rows(plan: _Plan, x: Structure, delta: Optional[dict] = None,
          start: tuple[El, ...] = ()) -> list[tuple[El, ...]]:
    """The plan's matches in ``x`` as slot rows, in no particular order; the
    first slots hold ``start``.  With ``delta``, only the matches touching
    at least one of its tuples; a variant whose ``_DELTA`` step reads a
    key the delta lacks is not linked."""
    vals = list(start)
    vals += [None] * (len(plan.vars) - len(vals))
    rows: list[tuple[El, ...]] = []

    def emit(vals):
        rows.append(tuple(vals))
    for steps in (plan.steps,) if delta is None else plan.variants:
        if delta is None or all(st.name in delta
                                for st in steps if st.mode == _DELTA):
            _link(steps, x, delta, emit)(vals)
    return rows


def _fit(x: Structure, f: Formula, vs: tuple[Var, ...]) -> None:
    """Refuse a relation of ``f`` that ``x``'s signature lacks or declares
    with other sorts, and a variable of ``vs`` whose sort it lacks."""
    for a in f.atoms:
        if isinstance(a, RelAtom):
            have = x.sig.relation(a.rel.name).arity
            if have != a.rel.arity:
                raise SignatureError(
                    f"relation {a.rel.name!r} has sorts {a.rel.arity} in "
                    f"the sequent but {have} in the structure")
    for v in vs:
        if v.sort not in x.sig.sorts:
            raise SignatureError(f"unknown sort {v.sort!r}")


def find_matches(f: Formula, x: Structure, delta: Optional[dict] = None,
                 binding: Optional[dict[Var, El]] = None) -> Iterator[dict[Var, El]]:
    """All interpretations of an RHL formula in ``x``, sorted into
    (nested-loop) order.  With ``delta``, a dict from relation names and
    carrier keys ``(sort,)`` to nonempty sets of tuples in ``x``, as
    ``evaluate`` makes it, only interpretations touching one of those
    tuples are yielded.  ``binding`` pre-binds variables, ``f``'s or not;
    they lead every yielded dict.  ``f``, or a binding, that does not fit
    ``x``'s signature is refused, as by ``counterexample``."""
    start = {v: x.find(e) for v, e in binding.items()} if binding else {}
    for v, e in start.items():
        if e.sort != v.sort:
            raise SignatureError(f"variable {v.name!r} of sort {v.sort!r} "
                                 f"bound to {e}")
    plan = _plan(f, tuple(start))
    _fit(x, f, plan.vars)
    for row in sorted(_rows(plan, x, delta, tuple(start.values()))):
        yield dict(zip(plan.vars, row))


def _failing(rule: _Rule, x: Structure, delta: Optional[dict]) -> list:
    """The rule's premise rows in ``x`` (along ``delta``) that do not
    extend, in no particular order; its check is linked once."""
    extends = rule.check(x)
    return [row for row in _rows(rule.premise, x, delta) if not extends(row)]


def counterexample(x: Structure, s: Sequent) -> Optional[dict[Var, El]]:
    """The first premise interpretation, in ``find_matches`` order, that
    does not extend over the conclusion; ``None`` if there is none.  A
    relation or sort of ``s`` that ``x``'s signature lacks, or declares
    with other sorts, is refused."""
    rule = _rule(s)
    _fit(x, s.premise & s.conclusion, rule.conclusion.vars)
    row = min(_failing(rule, x, None), default=None)
    return None if row is None else dict(zip(rule.premise.vars, row))


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
    The conclusion-only slots get fresh elements, in slot order.  The row
    is kept canonical across each merge, so its tuples go to ``x.store``
    unchecked.  The tuples, merges and elements it makes are counted into
    ``stats``, and ``x.log`` keeps what it adds under the keys it logs."""
    full = list(row) + [x.add_element(sort) for sort in rule.fresh]
    stats.elements_created += len(rule.fresh)
    for name, slots in rule.heads:
        if name is None:
            a, b = full[slots[0]], full[slots[1]]
            if a != b:
                x.merge(a, b)
                stats.merges += 1
                full = [x.find(e) for e in full]
        else:
            stats.tuples_added += x.store(name, tuple([full[i] for i in slots]))


# -- the evaluation loop ---------------------------------------------------


DEFAULT_MAX_ITERATIONS = 10000


def evaluate(t: Theory, x: Structure,
             cfg: EvalConfig = EvalConfig()) -> tuple[Structure, Morphism, EvalReport]:
    """Iterate the theory to a fixed point; returns the result, the unit
    morphism from the input, and a report.

    The result is one particular weakly free model, and the free model for
    strong theories.  A theory with conclusion-only variables has a free
    model when it is a flattened epic PHL theory; only the caller knows
    where a theory came from, so ``evaluate`` never warns.  A relation no
    sequent mentions is carried along the unit: in the result, and in a
    partial one, it is the image of ``x``'s under the unit.
    """
    if not is_rhl(t):
        raise SignatureError("evaluate expects an RHL theory; flatten first")
    if x.sig != t.signature:
        raise SignatureError("structure signature does not match the theory")

    rules = [_rule(s) for s in t.sequents]
    # An RHL sequent is surjective when its conclusion has no fresh variable.
    all_surjective = not any(rule.fresh for rule in rules)
    max_iterations = cfg.max_iterations
    if max_iterations is None and not all_surjective:
        max_iterations = DEFAULT_MAX_ITERATIONS

    # Relations no sequent mentions sit out the loop (see the module
    # docstring): no merge rewrites their tuples, and none are logged.
    mentioned = {a.rel.name for s in t.sequents
                 for a in s.premise.atoms + s.conclusion.atoms
                 if isinstance(a, RelAtom)}
    aside = [r.name for r in t.signature.relations if r.name not in mentioned]
    result = x.copy(empty=aside)
    report = EvalReport()
    seminaive = cfg.strategy == "seminaive"
    delta: Optional[dict] = None
    if seminaive:
        # Only what some premise variant reads as delta is logged.
        result.log = {st.name: set() for rule in rules
                      for steps in rule.premise.variants
                      for st in steps if st.mode == _DELTA}

    while True:
        stats = IterationStats()
        # Every premise is matched and checked before any conclusion is
        # applied, so both read ``result`` itself.  A row that holds now
        # still holds at its turn: it is dropped before the sort.
        pending = []
        for rule in rules:
            pending.append((rule, sorted(_failing(rule, result, delta))))
        for rule, rows in pending:
            # A check of tests and sames reads the live relation sets, but
            # one that probes reads ``result`` as linked: an application
            # drops it.
            extends = None
            for row in rows:
                # The rows are canonical until the batch's first merge, and
                # match up to ``find`` after it: a merge keeps every stored
                # tuple's canonical image stored.
                if stats.merges:
                    row = tuple([result.find(e) for e in row])
                extends = extends or rule.check(result)
                if extends(row):
                    continue
                stats.matches += 1
                if rule.fresh:
                    extends = None
                apply_match(result, rule, row, stats)
        report.iterations += 1
        report.per_iteration.append(stats)
        if not stats.changed:
            report.fixed_point = True
            break
        if seminaive:
            delta = {k: new for k, new in result.log.items() if new}
            result.log = {k: set() for k in result.log}
        if max_iterations is not None and report.iterations >= max_iterations:
            break

    result.log = None
    unit = _unit_morphism(x, result)
    if aside:
        # The carried tuples are on no use-list: a later merge rebuilds them.
        result._uses = None
        # Column by column, each mapped lazily: columns built whole would
        # raise the peak allocation.  A nullary relation has no column to
        # zip, so it is copied.
        image = unit.mapping.__getitem__
        for r in aside:
            ts, n = x.rels[r], len(x.sig.relation(r).arity)
            result.store_all(r, zip(*[map(image, map(itemgetter(i), ts))
                                      for i in range(n)]) if n else ts)
    if not report.fixed_point:
        raise EvaluationBudgetError(result, unit, report)
    return result, unit, report


def _unit_morphism(x: Structure, result: Structure) -> Morphism:
    # Element indices of the input are preserved by copy-then-extend.
    mapping = {e: result.find(e) for s in x.sig.sorts for e in x.elements(s)}
    return Morphism(x, result, mapping)
