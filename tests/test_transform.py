import random

import pytest

from horneq.classify import classify_sequent
from horneq.core import SignatureError, Structure
from horneq.engine import EvalConfig, evaluate
from horneq.oracle import find_isomorphism
from horneq.syntax import parse_theory, pretty_print
from horneq.transform import (PreconditionError, diagonal_embed,
                              epic_transform, quotient_model,
                              setoid_transform, sparse_setoid_transform)

from helpers import (random_signature, random_structure, random_theory,
                     structure_from_edges)


TRANSITIVITY = parse_theory("""
sort V;
pred E : V * V;
rule E(u, v) & E(v, w) => E(u, w);
""")

ANTISYMMETRY = parse_theory("""
sort V;
pred Le : V * V;
rule Le(u, v) & Le(v, u) => u = v;
""")


class TestSetoid:
    def test_sequent_count_transitivity(self):
        out = setoid_transform(TRANSITIVITY)
        # 3 equivalence + 1 congruence + 1 rewritten
        assert len(out.sequents) == 5

    def test_equivalence_sequents_prefix(self):
        base = setoid_transform(parse_theory("sort V;\npred P : V;\n"
                                             "rule P(x) => P(x);"))
        texts = [pretty_print(s) for s in base.sequents[:3]]
        assert texts == [
            "rule x! => Eq_V(x, x);",
            "rule Eq_V(x, y) => Eq_V(y, x);",
            "rule Eq_V(x, y) & Eq_V(y, z) => Eq_V(x, z);",
        ]

    def test_congruence_sequent(self):
        out = setoid_transform(TRANSITIVITY)
        assert pretty_print(out.sequents[3]) == \
            "rule E(v1, v2) & Eq_V(v1, u1) & Eq_V(v2, u2) => E(u1, u2);"

    def test_equality_substituted(self):
        out = setoid_transform(ANTISYMMETRY)
        assert pretty_print(out.sequents[-1]) == \
            "rule Le(u, v) & Le(v, u) => Eq_V(u, v);"

    def test_name_collision_rejected(self):
        t = parse_theory("sort V;\npred Eq_V : V * V;\n"
                         "rule Eq_V(x, y) => Eq_V(y, x);")
        with pytest.raises(SignatureError):
            setoid_transform(t)

    def test_output_never_merges(self):
        out = setoid_transform(ANTISYMMETRY)
        x = diagonal_embed(structure_from_edges(
            ANTISYMMETRY.signature, "Le", 2, {(0, 1), (1, 0)}))
        res, unit, _ = evaluate(out, x)
        assert res.element_count("V") == 2
        assert unit.is_injective()

    def test_output_classifies_datalog_choice(self):
        rng = random.Random(41)
        for _ in range(10):
            sig = random_signature(rng)
            t = random_theory(rng, sig)
            for s in setoid_transform(t).sequents:
                assert classify_sequent(s).datalog_choice


class TestSparseSetoid:
    def test_transitivity_occurrence_split(self):
        out = sparse_setoid_transform(TRANSITIVITY)
        assert pretty_print(out.sequents[-1]) == \
            "rule E(u, v) & E(v2, w) & Eq_V(v, v2) => E(u, w);"

    def test_no_congruence_sequents(self):
        out = sparse_setoid_transform(TRANSITIVITY)
        assert len(out.sequents) == 4  # 3 equivalence + 1 rewritten

    def test_distinct_variables_unchanged(self):
        t = parse_theory("sort V;\npred E : V * V;\npred P : V;\n"
                         "rule E(u, v) => P(u);")
        out = sparse_setoid_transform(t)
        assert pretty_print(out.sequents[-1]) == "rule E(u, v) => P(u);"

    def test_premise_equality_becomes_eq(self):
        t = parse_theory("sort V;\npred P : V;\npred Q : V;\n"
                         "rule P(u) & P(v) & u = v => Q(u);")
        out = sparse_setoid_transform(t)
        assert pretty_print(out.sequents[-1]) == \
            "rule P(u) & P(v) & Eq_V(u, v) => Q(u);"

    def test_split_names_avoid_collisions(self):
        t = parse_theory("sort V;\npred E : V * V;\n"
                         "rule E(v, v) & E(v, v2) => E(v2, v);")
        out = sparse_setoid_transform(t)
        text = pretty_print(out.sequents[-1])
        # the split copy of v may not reuse the existing name v2
        assert "E(v, v3)" in text and "Eq_V(v, v3)" in text


class TestQuotientDiagonal:
    def test_diagonal_then_quotient_is_identity(self):
        rng = random.Random(47)
        for _ in range(10):
            sig = random_signature(rng)
            x = random_structure(rng, sig)
            assert find_isomorphism(quotient_model(diagonal_embed(x)),
                                    x) is not None

    def test_quotient_collapses_classes(self):
        x = structure_from_edges(TRANSITIVITY.signature, "E", 2, {(0, 0)})
        y = diagonal_embed(x)
        a, b = y.elements("V")
        y.add_tuple("Eq_V", (a, b))
        y.add_tuple("Eq_V", (b, a))
        q = quotient_model(y)
        assert q.element_count("V") == 1
        assert q.sorted_tuples("E") == [(q.elements("V")[0],) * 2]

    def test_empty_structure(self):
        y = diagonal_embed(Structure(TRANSITIVITY.signature))
        assert quotient_model(y).total_element_count() == 0

    def test_non_equivalence_rejected(self):
        x = structure_from_edges(TRANSITIVITY.signature, "E", 2, set())
        y = diagonal_embed(x)
        a, b = y.elements("V")
        y.add_tuple("Eq_V", (a, b))  # not symmetric
        with pytest.raises(PreconditionError):
            quotient_model(y)
        z = diagonal_embed(x)
        z.rels["Eq_V"].clear()  # not reflexive
        with pytest.raises(PreconditionError):
            quotient_model(z)


class TestSetoidPipeline:
    def pipeline(self, t, x, transform_fn, strategy="naive"):
        out = transform_fn(t)
        res, _, _ = evaluate(out, diagonal_embed(x),
                             EvalConfig(strategy=strategy))
        return quotient_model(res)

    def test_matches_direct_evaluation(self):
        rng = random.Random(53)
        for _ in range(8):
            sig = random_signature(rng)
            t = random_theory(rng, sig, surjective=True)
            x = random_structure(rng, sig, max_elements=3)
            direct, _, _ = evaluate(t, x)
            for strategy in ("naive", "seminaive"):
                dense = self.pipeline(t, x, setoid_transform, strategy)
                sparse = self.pipeline(t, x, sparse_setoid_transform,
                                       strategy)
                assert find_isomorphism(dense, direct) is not None
                assert find_isomorphism(sparse, direct) is not None


class TestEpicTransform:
    def test_example_single_choice_sequent(self):
        t = parse_theory("sort V;\npred E : V * V;\nrule v! => E(v, w);\n")
        sig, out = epic_transform(t)
        f = sig.relation("f_0_w")
        assert f.kind == "func" and f.arity == ("V", "V")
        texts = [pretty_print(s) for s in out.sequents]
        assert texts == [
            "rule v! => E(v, f_0_w(v));",
            "rule f_0_w(v)! => v!;",
            "rule v! & E(v, w) => w = f_0_w(v);",
        ]

    def test_surjective_theory_passes_through(self):
        sig, out = epic_transform(TRANSITIVITY)
        assert sig == TRANSITIVITY.signature
        assert out.sequents == TRANSITIVITY.sequents

    def test_every_output_sequent_is_epic(self):
        rng = random.Random(59)
        for _ in range(10):
            t = random_theory(rng, random_signature(rng))
            _, out = epic_transform(t)
            for s in out.sequents:
                assert classify_sequent(s).epic_phl

    def test_argument_order_is_first_occurrence(self):
        t = parse_theory("sort V;\npred E : V * V;\n"
                         "rule E(b, a) & E(a, c) => E(c, d);\n")
        sig, out = epic_transform(t)
        assert pretty_print(out.sequents[0]) == \
            "rule E(b, a) & E(a, c) => E(c, f_0_d(b, a, c));"

    def test_rejects_phl_input(self):
        t = parse_theory("sort M;\nfunc f : M -> M;\n"
                         "rule f(x)! => f(x) = x;\n")
        with pytest.raises(SignatureError):
            epic_transform(t)
