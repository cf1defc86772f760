import random
import warnings
from collections import defaultdict

import pytest

from horneq.classify import classifying_morphism, flatten_theory
from horneq.core import El, SignatureError, Structure
from horneq.engine import (Delta, EvalConfig, EvaluationBudgetError,
                           IterationStats, counterexample, evaluate,
                           find_matches, satisfies, satisfies_theory)
from horneq.facts import model_names, report_dict, serialize_model
from horneq.oracle import is_injective_to, is_orthogonal_to, satisfies_phl
from horneq.syntax import (EqualAtom, Formula, RelAtom, Var,
                           parse_theory, sequent_vars)

from helpers import (random_sequent, random_signature, random_structure,
                     random_theory, reference_evaluate, reference_matches,
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

    def test_rejects_phl(self):
        t = parse_theory("sort M;\nfunc f : M -> M;\n"
                         "rule f(x)! => f(x) = x;\n")
        x = Structure(t.signature)
        with pytest.raises(SignatureError):
            list(find_matches(t.sequents[0].premise, x))


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

    def test_budget_exhaustion_carries_partial(self):
        t = parse_theory("sort V;\npred E : V * V;\nrule v! => E(v, w);\n")
        x = Structure(t.signature)
        x.add_element("V")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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
            evaluate(t, x, EvalConfig(max_iterations=2, epic_origin=True))
        assert err.value.partial.log is None

    def test_nonsurjective_warns_and_strict_raises(self):
        t = parse_theory("sort V;\npred E : V * V;\nrule v! => E(v, w);\n")
        x = Structure(t.signature)
        with pytest.warns(UserWarning):
            evaluate(t, x)
        with pytest.raises(SignatureError):
            evaluate(t, x, EvalConfig(strictness="error"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate(t, x, EvalConfig(epic_origin=True))

    def test_skip_if_satisfied_avoids_fresh_elements(self):
        t = parse_theory("sort V;\npred E : V * V;\nrule v! => E(v, w);\n")
        x = structure_from_edges(t.signature, "E", 2, {(0, 1), (1, 0)})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res, _, rep = evaluate(t, x)
        assert res.element_count("V") == 2
        assert rep.fixed_point

    def test_signature_mismatch_rejected(self):
        x = Structure(ANTISYMMETRY.signature)
        with pytest.raises(SignatureError):
            evaluate(TRANSITIVITY, x)


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
                    delta = Delta(
                        dict(picked),
                        frozenset(e for e in elements if rng.random() < 0.3))
                    # raw indices, some non-canonical, and variables of
                    # the sequent that ``f`` may not mention
                    binding = {v: El(v.sort, rng.randrange(n))
                               for v in sequent_vars(s)
                               if (n := x.raw_count(v.sort))
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
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        res, unit, rep = evaluate(t, x, cfg)
                    except EvaluationBudgetError as err:
                        res, unit, rep = err.partial, err.unit, err.report
                out_names, merged = model_names(res, names, unit)
                texts.append(serialize_model(res, out_names, merged,
                                             report=report_dict(rep)))
            assert texts[0] == texts[1]


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
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
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
