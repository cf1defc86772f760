import os
import pathlib
import random
import re
import subprocess
import sys
import warnings
from collections import Counter, defaultdict

import pytest

import horneq
from horneq import engine
from horneq.classify import classifying_morphism, flatten_theory
from horneq.core import El, RelDecl, Signature, SignatureError, Structure
from horneq.engine import (_DELTA, _FULL, _OLD, MAX_PLAN_STEPS, EvalConfig,
                           EvaluationBudgetError, IterationStats, _rows,
                           _rule, counterexample, evaluate, find_matches,
                           satisfies, satisfies_theory)
from horneq.facts import model_names, report_dict, serialize_model
from horneq.oracle import is_injective_to, is_orthogonal_to, satisfies_phl
from horneq.syntax import (DefinedAtom, EqualAtom, Formula, RelAtom, Sequent,
                           Theory, Var, parse_theory, sequent_vars)

from helpers import (call_outcome, is_canonical, random_sequent,
                     random_signature, random_structure, random_theory,
                     raw_count, reference_evaluate, reference_matches,
                     reference_witness, structure_from_edges,
                     transitive_closure)


TRANSITIVITY = parse_theory("""
sort V;
pred E : V * V;
rule E(u, v) & E(v, w) => E(u, w);
""")

ANTISYMMETRY = parse_theory("""
sort V;
pred Le : V * V;
rule Le(u, v) & Le(v, u) => u = v;
rule Le(u, v) & Le(v, w) => Le(u, w);
""")

SIG = TRANSITIVITY.signature

# Read on a structure whose ``R`` is ternary and which lacks ``P``.
MISFIT = parse_theory("sort V;\npred R : V * V;\npred P : V;\npred Q : V;\n"
                      "rule R(x, y) => Q(x);\nrule R(x, y) => Q(y);\n"
                      "rule P(x) => Q(x);\n")

# Outside RHL: a function symbol.
PHL = parse_theory("sort M;\nfunc f : M -> M;\nrule f(x)! => f(x) = x;\n")


class TestMatching:
    def test_join_order_and_determinism(self):
        x = structure_from_edges(SIG, "E", 3, {(0, 1), (1, 2)})
        s = TRANSITIVITY.sequents[0]
        ms = list(find_matches(s.premise, x))
        assert ms == list(find_matches(s.premise, x))
        assert len(ms) == 1
        (m,) = ms
        assert [e.index for e in m.values()] == [0, 1, 2]

    def test_sort_quantifier_binds_all_elements(self):
        t = parse_theory("sort V;\npred P : V;\nrule v! => P(v);\n")
        x = Structure(t.signature)
        for _ in range(3):
            x.add_element("V")
        ms = list(find_matches(t.sequents[0].premise, x))
        assert len(ms) == 3

    def test_premise_equality_restricts(self):
        u, v = Var("u", "V"), Var("v", "V")
        e = SIG.relation("E")
        f = Formula((RelAtom(e, (u, v)), EqualAtom(u, v)))
        x = structure_from_edges(SIG, "E", 2, {(0, 1), (1, 1)})
        ms = list(find_matches(f, x))
        assert len(ms) == 1
        assert ms[0][u] == ms[0][v]

    def test_binding_prebinds(self):
        s = TRANSITIVITY.sequents[0]
        x = structure_from_edges(SIG, "E", 3, {(0, 1), (1, 2)})
        u = Var("u", "V")
        els = x.elements("V")
        assert list(find_matches(s.premise, x, binding={u: els[1]})) == []

    def test_binding_of_another_sort_rejected(self):
        """A bound element of another sort than its variable is refused,
        not answered with no match."""
        sig = Signature(("V", "W"), SIG.relations)
        x = Structure(sig)
        a, w = x.add_element("V"), x.add_element("W")
        x.add_tuple("E", (a, a))
        f = TRANSITIVITY.sequents[0].premise
        u = Var("u", "V")
        assert len(list(find_matches(f, x, binding={u: a}))) == 1
        assert call_outcome(lambda: list(find_matches(
            f, x, binding={u: w}))) == (
            "SignatureError",
            "variable 'u' of sort 'V' bound to El(sort='W', index=0)")

    def test_rejects_phl(self):
        t = parse_theory("sort M;\nfunc f : M -> M;\n"
                         "rule f(x)! => f(x) = x;\n")
        x = Structure(t.signature)
        with pytest.raises(SignatureError):
            list(find_matches(t.sequents[0].premise, x))

    def test_plan_length_bound(self):
        """A chain of ``MAX_PLAN_STEPS`` atoms runs, one frame a step, on a
        self-loop; one atom more is rejected before it runs."""
        x = structure_from_edges(SIG, "E", 1, {(0, 0)})
        vs = [Var(f"x{i}", "V") for i in range(MAX_PLAN_STEPS + 2)]
        atoms = [RelAtom(SIG.relation("E"), (a, b))
                 for a, b in zip(vs, vs[1:])]
        matches = list(find_matches(Formula(tuple(atoms[:-1])), x))
        assert len(matches) == 1
        with pytest.raises(SignatureError,
                           match=f"^a formula of {MAX_PLAN_STEPS + 1} "):
            list(find_matches(Formula(tuple(atoms)), x))

    def test_plan_shapes(self):
        """``(kind, mode, cols)`` of every step, in the full plan and in
        each semi-naive variant.  A relation or carrier atom that binds a
        slot is a probe, on no column when none of its arguments is bound.
        ``f(x) = f(y)`` flattens to ``f(x, _u0) & f(y, _u1) & _u0 = _u1``:
        the equality runs right after the first ``f``, in the full plan and
        in both variants, so the second ``f`` probes on its result."""
        P, T, C = "probe", "test", "copy"
        table = [
            ("E(x, y)", [(P, _FULL, ())], [[(P, _DELTA, ())]]),
            ("R(x, x)", [(P, _FULL, ())], [[(P, _DELTA, ())]]),
            ("x!", [(P, _FULL, ())], [[(P, _DELTA, ())]]),
            ("x = y", [(P, _FULL, ()), (C, _FULL, ())],
             [[(P, _DELTA, ()), (C, _FULL, ())]]),
            ("E(x, y) & E(y, x)", [(P, _FULL, ()), (T, _FULL, ())],
             [[(P, _DELTA, ()), (T, _FULL, ())],
              [(P, _DELTA, ()), (T, _OLD, ())]]),
            ("f(x) = f(y)", [(P, _FULL, ()), (C, _FULL, ()), (P, _FULL, (1,))],
             [[(P, _DELTA, ()), (C, _FULL, ()), (P, _FULL, (1,))],
              [(P, _DELTA, ()), (C, _FULL, ()), (P, _OLD, (1,))]]),
        ]

        def shape(steps):
            return [(st.kind, st.mode, st.cols) for st in steps]
        for premise, full, variants in table:
            t = flatten_theory(parse_theory(
                "sort V;\npred E : V * V;\npred R : V * V;\npred Q : V;\n"
                f"func f : V -> V;\nrule {premise} => Q(x);\n"))
            plan = _rule(t.sequents[0]).premise
            assert (shape(plan.steps), [shape(v) for v in plan.variants]) \
                == (full, variants), premise


class TestSatisfaction:
    def test_closed_graph_satisfies(self):
        closed = structure_from_edges(SIG, "E", 3,
                                      {(0, 1), (1, 2), (0, 2)})
        assert satisfies_theory(closed, TRANSITIVITY)

    def test_open_chain_fails(self):
        chain = structure_from_edges(SIG, "E", 3, {(0, 1), (1, 2)})
        assert not satisfies(chain, TRANSITIVITY.sequents[0])

    def test_empty_structure_satisfies(self):
        assert satisfies_theory(Structure(SIG), TRANSITIVITY)

    def test_equality_conclusion(self):
        s = ANTISYMMETRY.sequents[0]
        sig = ANTISYMMETRY.signature
        x = structure_from_edges(sig, "Le", 2, {(0, 1), (1, 0)})
        assert not satisfies(x, s)
        x.merge(*x.elements("V"))
        assert satisfies(x, s)

    @pytest.mark.parametrize("s, want", [
        (MISFIT.sequents[0], "relation 'R' has sorts ('V', 'V') in the "
         "sequent but ('V', 'V', 'V') in the structure"),
        (MISFIT.sequents[1], "relation 'R' has sorts ('V', 'V') in the "
         "sequent but ('V', 'V', 'V') in the structure"),
        (MISFIT.sequents[2], "unknown relation 'P'"),
        (Sequent(Formula((DefinedAtom(Var("w", "W")),)), Formula()),
         "unknown sort 'W'"),
    ], ids=["arity", "other-column", "relation", "sort"])
    def test_signature_rejections(self, s, want):
        """A sequent whose relations or sorts the structure lacks, or
        declares with other sorts, is refused by ``counterexample``,
        ``satisfies`` and ``satisfies_theory``, and its premise by
        ``find_matches``, before any matching: a binary ``R`` matched on a
        ternary one would read two columns."""
        sig = Signature(("V",), (RelDecl("R", ("V", "V", "V")),
                                 RelDecl("Q", ("V",))))
        x = Structure(sig)
        a, b, c = (x.add_element("V") for _ in range(3))
        x.add_tuple("R", (a, b, c))
        x.add_tuple("Q", (a,))
        for call in (lambda: counterexample(x, s), lambda: satisfies(x, s),
                     lambda: satisfies_theory(x, Theory(sig, (s,))),
                     lambda: list(find_matches(s.premise, x))):
            assert call_outcome(call) == ("SignatureError", want)


class TestEvaluate:
    def test_transitive_closure_matches_oracle(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(1, 6)
            edges = {(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 2 * n))}
            x = structure_from_edges(SIG, "E", n, edges)
            res, unit, rep = evaluate(TRANSITIVITY, x)
            got = {(a.index, b.index) for a, b in res.rels["E"]}
            assert got == transitive_closure(n, edges)
            assert rep.fixed_point
            assert unit.is_injective() and unit.is_surjective()

    def test_merging_unit_not_injective(self):
        sig = ANTISYMMETRY.signature
        x = structure_from_edges(sig, "Le", 2, {(0, 1), (1, 0)})
        res, unit, rep = evaluate(ANTISYMMETRY, x)
        assert res.element_count("V") == 1
        assert not unit.is_injective()
        a, b = x.elements("V")
        assert unit.apply(a) == unit.apply(b)

    def test_result_satisfies_theory(self):
        rng = random.Random(17)
        for _ in range(30):
            sig = random_signature(rng)
            t = random_theory(rng, sig, surjective=True)
            x = random_structure(rng, sig)
            res, _, rep = evaluate(t, x)
            assert rep.fixed_point
            assert satisfies_theory(res, t)

    def test_input_is_not_mutated(self):
        x = structure_from_edges(SIG, "E", 3, {(0, 1), (1, 2)})
        before = x.sorted_tuples("E")
        evaluate(TRANSITIVITY, x)
        assert x.sorted_tuples("E") == before

    def test_idempotent_on_fixed_point(self):
        x = structure_from_edges(SIG, "E", 4,
                                 {(0, 1), (1, 2), (2, 3), (3, 0)})
        res, _, _ = evaluate(TRANSITIVITY, x)
        res2, unit2, rep2 = evaluate(TRANSITIVITY, res)
        assert rep2.iterations == 1
        assert not rep2.per_iteration[0].changed
        assert res2.sorted_tuples("E") == res.sorted_tuples("E")

    def test_seminaive_equals_naive(self):
        rng = random.Random(31)
        for _ in range(20):
            sig = random_signature(rng)
            t = random_theory(rng, sig, surjective=True)
            x = random_structure(rng, sig, max_elements=4)
            naive, _, _ = evaluate(t, x, EvalConfig(strategy="naive"))
            semi, _, _ = evaluate(t, x, EvalConfig(strategy="seminaive"))
            for r in sig.relations:
                assert naive.sorted_tuples(r.name) == \
                    semi.sorted_tuples(r.name)
            for s in sig.sorts:
                assert naive.elements(s) == semi.elements(s)

    def test_variant_with_empty_delta_is_not_linked(self, monkeypatch):
        """Reachability on a path: after the first iteration only ``P`` has
        a delta, so the variant reading the delta at ``E(y, z)`` and old
        ``P`` never runs, while the one probing full ``E`` on a bound column
        runs once an iteration."""
        t = parse_theory("sort V;\npred E : V * V;\npred P : V * V;\n"
                         "rule E(x, y) => P(x, y);\n"
                         "rule P(x, y) & E(y, z) => P(x, z);\n")
        n = 30
        x = structure_from_edges(t.signature, "E", n,
                                 {(i, i + 1) for i in range(n - 1)})
        probes = []
        link = engine._LINK["probe"]

        def recorded(st, *args):
            if st.cols:
                probes.append((st.name, st.mode))
            return link(st, *args)
        monkeypatch.setitem(engine._LINK, "probe", recorded)
        res, _, rep = evaluate(t, x)
        assert len(res.rels["P"]) == n * (n - 1) // 2
        assert rep.iterations == n
        assert ("P", _OLD) not in probes
        assert probes.count(("E", _FULL)) == n

    def test_each_probe_builds_one_index(self, monkeypatch):
        """A 3-atom ``R`` chain: each probe step on a bound column is linked
        once and builds its own index once; the first atom's probe, on no
        column, builds none.  Without a delta both probes read full ``R`` on
        column 0; with one, the second variant adds a probe of old ``R`` on
        column 1."""
        t = parse_theory("sort V;\npred R : V * V;\n"
                         "rule R(x, y) & R(y, z) & R(z, w) => R(x, w);\n")
        s = t.sequents[0]
        x = structure_from_edges(t.signature, "R", 8,
                                 {(i, (3 * i + 1) % 8) for i in range(8)})
        probes, built = [], []
        link, index = engine._LINK["probe"], engine._index

        def recorded(st, *args):
            if st.cols:
                probes.append((st.name, st.mode, st.cols))
            return link(st, *args)

        def counted(ts, cols):
            built.append(cols)
            return index(ts, cols)
        monkeypatch.setitem(engine._LINK, "probe", recorded)
        monkeypatch.setattr(engine, "_index", counted)
        assert list(find_matches(s.premise, x)) == \
            list(reference_matches(s.premise, x))
        assert probes == [("R", _FULL, (0,))] * 2 and len(built) == 2
        probes.clear()
        built.clear()
        delta = {"R": set(sorted(x.rels["R"])[:3])}
        got = list(find_matches(s.premise, x, delta))
        assert got and got == list(reference_matches(s.premise, x, delta))
        assert len(probes) == 4
        assert sorted(set(probes)) == [("R", _FULL, (0,)), ("R", _OLD, (1,))]
        assert len(built) == 4

    def test_budget_exhaustion_carries_partial(self):
        t = parse_theory("sort V;\npred E : V * V;\nrule v! => E(v, w);\n")
        x = Structure(t.signature)
        x.add_element("V")
        with pytest.raises(EvaluationBudgetError) as err:
            evaluate(t, x, EvalConfig(max_iterations=3))
        assert err.value.report.iterations == 3
        assert err.value.partial.element_count("V") > 1

    def test_log_is_off_after_evaluate(self):
        """Semi-naive evaluation logs what it stores; neither its result
        nor a partial result leaves with the log on."""
        x = structure_from_edges(SIG, "E", 3, {(0, 1), (1, 2)})
        res, _, _ = evaluate(TRANSITIVITY, x)
        assert res.log is None and x.log is None
        t = parse_theory("sort V;\npred E : V * V;\nrule v! => E(v, w);\n")
        x = Structure(t.signature)
        x.add_element("V")
        with pytest.raises(EvaluationBudgetError) as err:
            evaluate(t, x, EvalConfig(max_iterations=2))
        assert err.value.partial.log is None

    def test_only_premise_relations_are_logged(self, monkeypatch):
        """Reachability into ``P``, which no premise reads: at every
        matching call of semi-naive evaluation the log keys ``E`` alone,
        so no tuple of ``P`` is ever logged.  A premise that reads ``v!``
        adds the carrier key ``("V",)``."""
        keys = []
        rows = engine._rows

        def recorded(plan, y, *args):
            keys.append(set(y.log))
            return rows(plan, y, *args)
        monkeypatch.setattr(engine, "_rows", recorded)
        for premise, want in (("E(x, y)", {"E"}),
                              ("x! & E(x, y)", {"E", ("V",)})):
            t = parse_theory("sort V;\npred E : V * V;\npred P : V * V;\n"
                             f"rule {premise} => P(x, y);\n"
                             "rule E(x, y) & E(y, z) => E(x, z);\n")
            x = structure_from_edges(t.signature, "E", 6,
                                     {(i, i + 1) for i in range(5)})
            keys.clear()
            res, _, rep = evaluate(t, x)
            assert len(res.rels["P"]) == 15 and rep.iterations > 2
            assert keys and all(k == want for k in keys)

    def test_nonsurjective_never_warns(self):
        """Whether a result is free depends on where the theory came
        from, which ``evaluate`` cannot see: it returns the model and
        warns nothing."""
        t = parse_theory("sort V;\npred E : V * V;\nrule v! => E(v, w);\n")
        x = Structure(t.signature)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, _, rep = evaluate(t, x)
        assert rep.fixed_point and res.element_count("V") == 0

    def test_skip_if_satisfied_avoids_fresh_elements(self):
        t = parse_theory("sort V;\npred E : V * V;\nrule v! => E(v, w);\n")
        x = structure_from_edges(t.signature, "E", 2, {(0, 1), (1, 0)})
        res, _, rep = evaluate(t, x)
        assert res.element_count("V") == 2
        assert rep.fixed_point

    def test_signature_mismatch_rejected(self):
        x = Structure(ANTISYMMETRY.signature)
        with pytest.raises(SignatureError):
            evaluate(TRANSITIVITY, x)

    @pytest.mark.parametrize("call, want", [
        (lambda: EvalConfig(max_iterations=0),
         ("ValueError", "max_iterations must be >= 1")),
        (lambda: EvalConfig(strategy="fast"),
         ("ValueError", "unknown strategy 'fast'")),
        (lambda: evaluate(TRANSITIVITY, Structure(ANTISYMMETRY.signature)),
         ("SignatureError", "structure signature does not match the theory")),
        (lambda: evaluate(PHL, Structure(PHL.signature)),
         ("SignatureError", "evaluate expects an RHL theory; flatten first")),
    ])
    def test_rejections(self, call, want):
        """The checks of ``EvalConfig`` and ``evaluate`` on their input,
        each with its message."""
        assert call_outcome(call) == want


class TestDifferential:
    """Seeded fences around the matcher: the compiled plans against the
    recursive reference matcher, and semi-naive against naive evaluation."""

    def test_matches_equal_reference_in_order(self):
        rng = random.Random(41)
        for _ in range(300):
            sig = random_signature(rng)
            t = random_theory(rng, sig, surjective=rng.random() < 0.5)
            x = random_structure(rng, sig, max_elements=4)
            if rng.random() < 0.3:  # leave merged-away indices behind
                for sort in sig.sorts:
                    els = x.elements(sort)
                    if len(els) > 1:
                        x.merge(els[0], els[-1])
            tuples = [(r, tp) for r, ts in x.rels.items() for tp in ts]
            elements = [e for sort in sig.sorts for e in x.elements(sort)]
            for s in t.sequents:
                for f in (s.premise, s.conclusion, s.premise & s.conclusion):
                    picked = defaultdict(set)
                    for r, tp in tuples:
                        if rng.random() < 0.4:
                            picked[r].add(tp)
                    for e in elements:
                        if rng.random() < 0.3:
                            picked[(e.sort,)].add((e,))
                    delta = dict(picked)
                    # raw indices, some non-canonical, and variables of
                    # the sequent that ``f`` may not mention
                    binding = {v: El(v.sort, rng.randrange(n))
                               for v in sequent_vars(s)
                               if (n := raw_count(x, v.sort))
                               and rng.random() < 0.5}
                    for d, b in ((None, None), (delta, None),
                                 (None, binding), (delta, binding)):
                        got = [list(m.items())
                               for m in find_matches(f, x, d, b)]
                        want = [list(m.items())
                                for m in reference_matches(f, x, d, b)]
                        assert got == want

    def test_naive_and_seminaive_serialize_identically(self):
        rng = random.Random(43)
        for i in range(600):
            surjective = i % 2 == 0
            sig = random_signature(rng)
            t = random_theory(rng, sig, max_sequents=5, surjective=surjective)
            x = random_structure(rng, sig, max_elements=4, min_elements=1)
            for r in sig.relations:  # denser inputs take more iterations
                for _ in range(6):
                    x.add_tuple(r.name, tuple([rng.choice(x.elements(sort))
                                               for sort in r.arity]))
            names = {f"e{e.sort}_{e.index}": e
                     for sort in sig.sorts for e in x.elements(sort)}
            texts = []
            for strategy in ("naive", "seminaive"):
                cfg = EvalConfig(strategy=strategy,
                                 max_iterations=None if surjective else 3)
                try:
                    res, unit, rep = evaluate(t, x, cfg)
                except EvaluationBudgetError as err:
                    res, unit, rep = err.partial, err.unit, err.report
                out_names, merged = model_names(res, names, unit)
                texts.append(serialize_model(res, out_names, merged,
                                             report=report_dict(rep)))
            assert texts[0] == texts[1]

    def test_eval_output_independent_of_hash_seed(self, tmp_path):
        """The output depends only on the input: ``eval`` under three
        ``PYTHONHASHSEED`` values and both strategies writes the same
        bytes, on a run that makes fresh elements and merges."""
        _assert_eval_independent_of_hash_seed(
            tmp_path, "sort V;\npred E : V * V;\npred R : V * V;\n"
            "rule E(x, y) => R(y, z);\n"
            "rule R(x, z) & R(x, w) => z = w;\n"
            "rule R(x, z) & E(x, y) => E(z, y);\n"
            "rule E(x, y) & E(y, x) => x = y;\n")

    def test_carrier_delta_independent_of_hash_seed(self, tmp_path):
        """As above, on premises that read the carrier with ``v!``, and
        fresh elements that merge into old ones, so the carrier delta,
        read from a set, lacks them in the next iteration."""
        _assert_eval_independent_of_hash_seed(
            tmp_path, "sort V;\npred E : V * V;\npred R : V * V;\n"
            "pred S : V * V;\n"
            "rule v! & E(v, y) => R(v, z);\n"
            "rule R(x, z) & E(x, y) => z = y;\n"
            "rule R(x, z) & R(x, w) => z = w;\n"
            "rule v! & w! & R(v, w) => S(w, v);\n")


def _assert_eval_independent_of_hash_seed(tmp_path, theory):
    """``eval`` of ``theory`` on 20 seeded edges writes the same bytes
    under three ``PYTHONHASHSEED`` values and both strategies, reaches a
    fixed point, and merges and makes fresh elements on the way."""
    rng = random.Random(3)
    names = " ".join(f"v{i}" for i in range(12))
    facts = f"sort V: {names};\n" + "".join(
        f"E(v{rng.randrange(12)}, v{rng.randrange(12)});\n"
        for _ in range(20))
    (tmp_path / "t.hq").write_text(theory)
    (tmp_path / "f.hq").write_text(facts)
    argv = ["eval", str(tmp_path / "t.hq"), str(tmp_path / "f.hq"),
            "--report", "--max-iterations", "4", "--emit-partial"]
    src = str(pathlib.Path(horneq.__file__).parents[1])
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        for strategy in ("naive", "seminaive"):
            done = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from horneq.cli import main; "
                 "sys.exit(main())", *argv, "--strategy", strategy],
                capture_output=True, text=True, env=env)
            outputs.add((done.returncode, done.stdout, done.stderr))
    assert len(outputs) == 1
    (code, out, _), = outputs
    assert code == 0 and "fixed_point: True" in out
    stats = re.findall(r"merges=(\d+) elements_created=(\d+)", out)
    assert sum(int(m) for m, _ in stats) > 0
    assert sum(int(e) for _, e in stats) > 0


def _merge_some(rng, x):
    """Merge the first and last element of some sorts, leaving
    merged-away indices behind."""
    for sort in x.sig.sorts:
        els = x.elements(sort)
        if len(els) > 1 and rng.random() < 0.5:
            x.merge(els[0], els[-1])


class TestCompiledRules:
    """Seeded fences around rule compilation: evaluation and witnesses
    against the dict-based reference evaluator in ``helpers``, which shares
    no code with the engine's matcher."""

    def test_evaluate_serializes_like_reference(self):
        rng = random.Random(47)
        totals = IterationStats()
        for i in range(300):
            surjective = i % 2 == 0
            sig = random_signature(rng)
            t = random_theory(rng, sig, max_sequents=4, surjective=surjective)
            x = random_structure(rng, sig, max_elements=4, min_elements=1)
            for r in sig.relations:  # denser inputs take more iterations
                for _ in range(4):
                    x.add_tuple(r.name, tuple([rng.choice(x.elements(sort))
                                               for sort in r.arity]))
            if rng.random() < 0.3:
                _merge_some(rng, x)
            names = {f"e{e.sort}_{e.index}": e
                     for sort in sig.sorts for e in x.elements(sort)}
            limit = None if surjective else 3
            runs = [reference_evaluate(t, x, limit)]
            for strategy in ("naive", "seminaive"):
                cfg = EvalConfig(strategy=strategy, max_iterations=limit)
                try:
                    runs.append(evaluate(t, x, cfg))
                except EvaluationBudgetError as err:
                    runs.append((err.partial, err.unit, err.report))
            texts = []
            for res, unit, rep in runs:
                out_names, merged = model_names(res, names, unit)
                texts.append(serialize_model(res, out_names, merged,
                                             report=report_dict(rep)))
            assert texts[1] == texts[0]
            assert texts[2] == texts[0]
            for stats in runs[0][2].per_iteration:
                totals.merges += stats.merges
                totals.elements_created += stats.elements_created
        # the seeds exercise merges and fresh elements, not only tuples
        assert totals.merges > 40 and totals.elements_created > 40

    def test_counterexample_equals_reference_witness(self):
        rng = random.Random(53)
        for i in range(300):
            sig = random_signature(rng)
            # odd seeds may have existential conclusion variables
            s = random_sequent(rng, sig, surjective=i % 2 == 0)
            for max_elements in (2, 4):
                x = random_structure(rng, sig, max_elements=max_elements)
                if rng.random() < 0.5:
                    _merge_some(rng, x)
                got = counterexample(x, s)
                want = reference_witness(x, s)
                assert (got is None) == (want is None)
                if got is not None:
                    assert list(got.items()) == list(want.items())
                assert satisfies(x, s) == (want is None)


def _relations_in(t, sides):
    return {a.rel.name for s in t.sequents for side in sides
            for a in getattr(s, side).atoms if isinstance(a, RelAtom)}


class TestUnmentionedRelations:
    """A relation no sequent mentions is left out of evaluation and carried
    along the unit once at the end.  Adding ``R(x̄) => R(x̄)`` per such R
    changes no model, yet forces R through the merge path: both theories
    must serialize identically.  The sequent is added for a relation only
    conclusions mention too, which must stay in the loop all along."""

    def test_carried_like_mentioned(self):
        rng = random.Random(61)
        touched = collapsed = partials = 0
        for i in range(400):
            surjective = i % 2 == 0
            reduct = random_signature(rng)
            extra = tuple(
                RelDecl(f"L{j}", tuple(rng.choice(reduct.sorts)
                                       for _ in range(rng.randint(1, 3))))
                for j in range(rng.randint(1, 2)))
            sig = Signature(reduct.sorts, reduct.relations + extra)
            t = Theory(sig, random_theory(rng, reduct, max_sequents=5,
                                          surjective=surjective).sequents)
            mentioned = _relations_in(t, ("premise", "conclusion"))
            unmentioned = [r for r in sig.relations
                           if r.name not in mentioned]
            unread = [r for r in sig.relations
                      if r.name not in _relations_in(t, ("premise",))]
            identities = []
            for r in unread:
                atom = Formula((RelAtom(r, tuple(
                    Var(f"a{c}", sort) for c, sort in enumerate(r.arity))),))
                identities.append(Sequent(atom, atom))
            padded = Theory(sig, t.sequents + tuple(identities))
            x = random_structure(rng, sig, max_elements=4, min_elements=1)
            for r in sig.relations:  # denser inputs take more iterations
                for _ in range(4):
                    x.add_tuple(r.name, tuple([rng.choice(x.elements(sort))
                                               for sort in r.arity]))
            if rng.random() < 0.3:
                _merge_some(rng, x)
            names = {f"e{e.sort}_{e.index}": e
                     for sort in sig.sorts for e in x.elements(sort)}
            for strategy in ("naive", "seminaive"):
                cfg = EvalConfig(strategy=strategy,
                                 max_iterations=None if surjective else 2)
                texts = []
                for theory in (t, padded):
                    try:
                        res, unit, rep = evaluate(theory, x, cfg)
                    except EvaluationBudgetError as err:
                        res, unit, rep = err.partial, err.unit, err.report
                    out_names, merged = model_names(res, names, unit)
                    texts.append(serialize_model(res, out_names, merged,
                                                 report=report_dict(rep)))
                assert texts[0] == texts[1]
            partials += not rep.fixed_point
            for r in unmentioned:
                touched += sum(unit.apply_tuple(tp) != tp
                               for tp in x.rels[r.name])
                collapsed += len(x.rels[r.name]) - len(res.rels[r.name])
        # merges rewrote and identified unmentioned tuples, budgets included
        assert touched > 80 and collapsed > 60 and partials > 10

    def test_unmentioned_tuples_are_never_stored(self, monkeypatch):
        t = parse_theory("sort V;\npred E : V * V;\npred L : V * V;\n"
                         "rule E(u, v) => u = v;\n")
        x = structure_from_edges(t.signature, "E", 6, {(0, 1), (2, 3), (3, 4)})
        for i in range(6):
            for j in range(6):
                x.add_tuple("L", (El("V", i), El("V", j)))
        stored = []
        store = Structure.store

        def recorded(self, rel, ct):
            stored.append(rel)
            return store(self, rel, ct)
        monkeypatch.setattr(Structure, "store", recorded)
        res, unit, rep = evaluate(t, x)
        assert sum(st.merges for st in rep.per_iteration) == 3
        assert "E" in stored and "L" not in stored
        # three classes, {0, 1}, {2, 3, 4} and {5}: 3 × 3 pairs
        assert res.rels["L"] == {unit.apply_tuple(tp) for tp in x.rels["L"]}
        assert len(res.rels["L"]) == 9
        # a later merge rewrites the carried tuples too
        res.merge(El("V", 0), El("V", 5))
        assert is_canonical(res) and len(res.rels["L"]) == 4

    def test_nullary_unary_and_ternary_carried(self):
        """Beside a merging ``E``: a nullary ``Z``, held in one run and not
        in the other, a unary ``P`` and a ternary ``T`` whose tuples
        repeat elements, each carried along the unit."""
        merging = parse_theory("sort V;\npred E : V * V;\n"
                               "rule E(u, v) => u = v;\n")
        sig = Signature(("V",), merging.signature.relations + (
            RelDecl("Z", ()), RelDecl("P", ("V",)),
            RelDecl("T", ("V", "V", "V"))))
        t = Theory(sig, merging.sequents)
        for holds_z in (True, False):
            x = structure_from_edges(t.signature, "E", 5, {(0, 1), (1, 2)})
            v = x.elements("V")
            if holds_z:
                x.add_tuple("Z", ())
            for e in (v[0], v[2], v[3]):
                x.add_tuple("P", (e,))
            for tp in [(0, 0, 0), (0, 1, 2), (2, 1, 0), (3, 3, 4), (4, 2, 4)]:
                x.add_tuple("T", tuple(v[i] for i in tp))
            res, unit, rep = evaluate(t, x)
            assert res.element_count("V") == 3
            for r in ("Z", "P", "T"):
                assert res.rels[r] == {unit.apply_tuple(tp)
                                       for tp in x.rels[r]}
            assert res.rels["Z"] == ({()} if holds_z else set())
            assert len(res.rels["P"]) == 2 and len(res.rels["T"]) == 3


class TestDirectCheck:
    """Every extension check runs the rule's conclusion plan from the
    canonical premise row, and stops at the plan's first row."""

    def test_holds_equals_conclusion_plan(self):
        rng = random.Random(59)
        seen = defaultdict(int)
        for i in range(300):
            sig = random_signature(rng)
            t = random_theory(rng, sig, surjective=i % 2 == 0)
            x = random_structure(rng, sig, max_elements=4)
            if rng.random() < 0.5:
                _merge_some(rng, x)
            for s in t.sequents:
                rule = _rule(s)
                extends = rule.check(x)
                for row in _rows(rule.premise, x):
                    # ``None`` is "does not extend" too.
                    got = bool(extends(row))
                    assert got == bool(_rows(rule.conclusion, x, start=row))
                    seen[bool(rule.fresh), got] += 1
        # both verdicts, with and without conclusion-only variables
        assert min(seen.values()) > 40 and len(seen) == 4

    def test_plan_without_fresh_slots_writes_no_slot(self):
        """A conclusion plan with no conclusion-only slots has only
        ``test`` and ``same`` steps, which read slots and write none, so
        the check can run it on the premise row tuple unchanged."""
        rng = random.Random(61)
        kinds = Counter()
        for i in range(400):
            sig = random_signature(rng)
            for s in random_theory(rng, sig, surjective=i % 2 == 0).sequents:
                rule = _rule(s)
                if not rule.fresh:
                    assert len(rule.conclusion.vars) == len(rule.premise.vars)
                    kinds.update(st.kind for st in rule.conclusion.steps)
        assert set(kinds) == {"test", "same"} and min(kinds.values()) > 15

    def test_check_stops_at_first_witness(self, monkeypatch):
        """The check of ``E(x, y) => R(x, z)`` on a row whose ``x`` has
        ``k`` witnesses ``R(x, z)`` reaches the end of the plan once: the
        probe of ``R`` on ``x`` passes on one witness."""
        ends = []
        link_probe = engine._LINK["probe"]

        def counted_probe(st, x, delta, nxt):
            if not st.cols:  # the premise's probe of ``E``
                return link_probe(st, x, delta, nxt)

            def end(vals):
                ends.append(tuple(vals))
                return nxt(vals)
            return link_probe(st, x, delta, end)
        monkeypatch.setitem(engine._LINK, "probe", counted_probe)
        for k in (5, 9):
            x = structure_from_edges(EXISTENTIAL.signature, "R", k + 2,
                                     {(0, z) for z in range(2, k + 2)})
            a, b = x.elements("V")[:2]
            x.add_tuple("E", (a, b))
            ends.clear()
            assert satisfies(x, EXISTENTIAL.sequents[0])
            assert len(ends) == 1 and ends[0][:2] == (a, b)

    def test_fresh_variables_run_the_conclusion_plan(self, links):
        t = parse_theory("sort V;\npred E : V * V;\nrule v! => E(v, w);\n")
        x = structure_from_edges(t.signature, "E", 2, {(0, 1)})
        for calls in (1, 2):
            got = counterexample(x, t.sequents[0])
            assert [(v.name, e.index) for v, e in got.items()] == [("v", 1)]
            assert links[_rule(t.sequents[0]).conclusion.steps] == calls

    def test_direct_check_is_not_relinked(self, monkeypatch):
        """In one ``evaluate``, a rule without conclusion-only variables
        links its check a bounded number of times an iteration, however
        often it applies: a direct test reads the live relation sets.  A
        rule with them links its check again for each row after an
        application."""
        made = Counter()
        rule = engine._rule

        def counted_rule(s):
            r = rule(s)

            def check(x):
                made[s] += 1
                return r.check(x)
            return r._replace(check=check)
        monkeypatch.setattr(engine, "_rule", counted_rule)
        reach = parse_theory("sort V;\npred E : V * V;\npred P : V * V;\n"
                             "rule E(u, v) => P(u, v);\n"
                             "rule P(u, v) & E(v, w) => P(u, w);\n")
        x = structure_from_edges(reach.signature, "E", 12,
                                 {(i, i + 1) for i in range(11)})
        res, _, rep = evaluate(reach, x)
        assert len(res.rels["P"]) == 66
        assert sum(st.matches for st in rep.per_iteration) == 66
        assert rep.iterations == 12
        # ``_failing`` links each check once an iteration, and the loop
        # over the failing rows at most once more.
        for s in reach.sequents:
            assert made[s] <= 2 * rep.iterations
        made.clear()
        res, _, rep = evaluate(EXISTENTIAL, _path(12))
        assert rep.iterations == 2 and rep.per_iteration[0].matches == 11
        assert made[EXISTENTIAL.sequents[0]] == rep.iterations + 11


@pytest.fixture
def links(monkeypatch):
    """How often ``engine._link`` links each plan, by its steps: a rule's
    conclusion plan is linked ``links[rule.conclusion.steps]`` times."""
    counts = Counter()
    link = engine._link

    def counted(steps, *args):
        counts[steps] += 1
        return link(steps, *args)
    monkeypatch.setattr(engine, "_link", counted)
    return counts


@pytest.fixture
def shuffled_rows(monkeypatch):
    """``engine._rows`` with its rows shuffled by a seeded generator: it
    promises no order, so every caller must sort what it needs."""
    rng = random.Random(73)
    rows = engine._rows

    def shuffled(plan, x, delta=None, start=()):
        out = rows(plan, x, delta, start)
        rng.shuffle(out)
        return out
    monkeypatch.setattr(engine, "_rows", shuffled)


EXISTENTIAL = parse_theory("sort V;\npred E : V * V;\npred R : V * V;\n"
                           "rule E(x, y) => R(x, z);\n")


def _path(n: int) -> Structure:
    return structure_from_edges(EXISTENTIAL.signature, "E", n,
                                {(i, i + 1) for i in range(n - 1)})


class TestUnorderedRows:
    """No caller relies on the order of ``_rows``: ``counterexample`` takes
    the least failing row, with and without conclusion-only variables."""

    def test_callers_equal_reference(self, shuffled_rows):
        """The seeded fences, run on shuffled rows: both strategies
        serialize like ``reference_evaluate``, report included, over 300
        theories with and without fresh variables, merged inputs and
        ``max_iterations=3``; ``counterexample`` equals
        ``reference_witness``; and ``find_matches`` equals
        ``reference_matches`` in order, with and without a delta and a
        binding."""
        TestCompiledRules().test_evaluate_serializes_like_reference()
        TestCompiledRules().test_counterexample_equals_reference_witness()
        TestDifferential().test_matches_equal_reference_in_order()

    def test_fresh_variables_link_once_per_call(self, links):
        """On an unclosed path every premise row of ``E(x, y) => R(x, z)``
        fails; the least one is the witness, and the conclusion plan is
        linked once a call."""
        x = _path(50)
        for calls in (1, 2):
            got = counterexample(x, EXISTENTIAL.sequents[0])
            assert [(v.name, e.index) for v, e in got.items()] == [
                ("x", 0), ("y", 1)]
            assert links[_rule(EXISTENTIAL.sequents[0]).conclusion.steps] \
                == calls

    def test_least_failing_row_without_fresh_variables(self, shuffled_rows):
        """Transitivity on a path fails at every two consecutive edges;
        the least failing row is the first in nested-loop order."""
        x = structure_from_edges(SIG, "E", 6, {(i, i + 1) for i in range(5)})
        for _ in range(5):
            got = counterexample(x, TRANSITIVITY.sequents[0])
            assert [(v.name, e.index) for v, e in got.items()] == [
                ("u", 0), ("v", 1), ("w", 2)]


class TestExistentialCheck:
    """A rule with conclusion-only variables links its conclusion plan,
    and so builds its index, once per state of the structure."""

    def test_counterexample_indexes_once(self, monkeypatch):
        """On the closed model of an n-node path, every premise row holds,
        and the one probe of ``R(x, z)`` is indexed once, not once a row."""
        res, _, _ = evaluate(EXISTENTIAL, _path(50))
        assert len(res.rels["R"]) == 49
        calls = []
        index = engine._index

        def counted(*args):
            calls.append(args)
            return index(*args)
        monkeypatch.setattr(engine, "_index", counted)
        assert counterexample(res, EXISTENTIAL.sequents[0]) is None
        assert len(calls) == 1

    def test_one_witness_for_two_rows(self):
        """``E(a, b)`` and ``E(a, c)`` share ``x = a``: once the first row
        is applied, the second holds, so a check linked before that
        application must not be reused."""
        x = structure_from_edges(EXISTENTIAL.signature, "E", 3,
                                 {(0, 1), (0, 2)})
        res, _, rep = evaluate(EXISTENTIAL, x)
        assert len(res.rels["R"]) == 1 and res.element_count("V") == 4
        assert [st.elements_created for st in rep.per_iteration] == [1, 0]


class TestPhlSatisfaction:
    def test_agrees_with_flattened(self):
        t = parse_theory("""
        sort M;
        func f : M -> M;
        rule f(f(x))! => f(f(x)) = x;
        """)
        flat = flatten_theory(t)
        rng = random.Random(13)
        for _ in range(40):
            x = Structure(flat.signature)
            els = [x.add_element("M") for _ in range(rng.randint(1, 3))]
            # keep the graph functional so term evaluation is well defined
            for e in els:
                if rng.random() < 0.7:
                    x.add_tuple("f", (e, rng.choice(els)))
            assert satisfies_phl(x, t.sequents[0]) == \
                satisfies(x, flat.sequents[0])


class TestLifting:
    def test_orthogonal_implies_injective(self):
        rng = random.Random(19)
        for _ in range(40):
            sig = random_signature(rng)
            s = random_sequent(rng, sig)
            f = classifying_morphism(s, sig)
            x = random_structure(rng, sig)
            if is_orthogonal_to(x, f):
                assert is_injective_to(x, f)

    def test_orthogonality_counts_lifts(self):
        # v! => E(v, w): a structure where some vertex has two successors
        # is injective but not orthogonal.
        t = parse_theory("sort V;\npred E : V * V;\nrule v! => E(v, w);\n")
        f = classifying_morphism(t.sequents[0], t.signature)
        fork = structure_from_edges(SIG, "E", 3, {(0, 1), (0, 2), (1, 1),
                                                  (2, 2)})
        assert is_injective_to(fork, f)
        assert not is_orthogonal_to(fork, f)
        loop = structure_from_edges(SIG, "E", 1, {(0, 0)})
        assert is_orthogonal_to(loop, f)
