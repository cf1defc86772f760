import random

import pytest

from horneq.classify import classify_sequent
from horneq.core import SignatureError, Structure, quotient_by_relation
from horneq.engine import EvalConfig, evaluate
from horneq.oracle import find_isomorphism
from horneq.syntax import parse_theory, pretty_print
from horneq.transform import (PreconditionError, diagonal_embed,
                              epic_transform, quotient_model,
                              setoid_transform, sparse_setoid_transform)

from helpers import (call_outcome, element_total, random_signature,
                     random_structure, random_theory, structure_from_edges)


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

    def test_quotient_agrees_with_quotient_by_relation(self):
        """Seeded structures over two sorts, each Eq closed from a few
        random pairs; ``diagonal_embed`` keeps element order, so each pair
        of ``x`` has the same positions in ``y``."""
        rng = random.Random(71)
        collapsed = 0
        for _ in range(120):
            sig = random_signature(rng)
            while len(sig.sorts) < 2:
                sig = random_signature(rng)
            x = random_structure(rng, sig, max_elements=4, min_elements=1)
            y = diagonal_embed(x)
            pairs = []
            for s in sig.sorts:
                xs, ys = x.elements(s), y.elements(s)
                block = list(range(len(xs)))  # the class of each position
                for _ in range(rng.randint(1, 2)):
                    i, j = rng.randrange(len(xs)), rng.randrange(len(xs))
                    pairs.append((xs[i], xs[j]))
                    old = block[i]
                    block = [block[j] if b == old else b for b in block]
                for i, b in enumerate(block):
                    for j, c in enumerate(block):
                        if b == c:
                            y.add_tuple(f"Eq_{s}", (ys[i], ys[j]))
            q, _ = quotient_by_relation(x, pairs)
            assert find_isomorphism(quotient_model(y), q) is not None
            collapsed += element_total(q) < element_total(x)
        assert collapsed > 60

    def test_empty_structure(self):
        y = diagonal_embed(Structure(TRANSITIVITY.signature))
        assert element_total(quotient_model(y)) == 0

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


def _equivalence_error(name, elems, rel):
    """The first of the three defining properties that ``rel`` lacks, by
    the definitions, as ``quotient_model`` words it; None if it has all."""
    if any((e, e) not in rel for e in elems):
        return f"{name} is not reflexive"
    if any((b, a) not in rel for a, b in rel):
        return f"{name} is not symmetric"
    if any(b == c and (a, d) not in rel for a, b in rel for c, d in rel):
        return f"{name} is not transitive"
    return None


def _verdict(y):
    try:
        return None, quotient_model(y).element_count("V")
    except PreconditionError as err:
        return str(err), None


class TestQuotientEquivalenceCheck:
    def test_verdict_and_message_match_definition(self):
        """Seeded relations on up to 5 elements: an equivalence relation
        with up to two pairs toggled, one way or both."""
        rng = random.Random(67)
        verdicts = set()
        for _ in range(500):
            n = rng.randint(0, 5)
            y = diagonal_embed(structure_from_edges(
                TRANSITIVITY.signature, "E", n, set()))
            els = y.elements("V")
            block = [rng.randrange(3) for _ in els]
            rel = y.rels["Eq_V"]
            rel.update((a, b) for a, i in zip(els, block)
                       for b, j in zip(els, block) if i == j)
            for _ in range(rng.randint(0, 2) if els else 0):
                a, b = rng.choice(els), rng.choice(els)
                for pair in ((a, b), (b, a))[:rng.randint(1, 2)]:
                    rel.symmetric_difference_update({pair})
            want = _equivalence_error("Eq_V", els, set(rel))
            classes = len({frozenset(b for b in els if (a, b) in rel)
                           for a in els})
            assert _verdict(y) == (want, None if want else classes)
            verdicts.add(want)
        assert verdicts == {None, "Eq_V is not reflexive",
                            "Eq_V is not symmetric",
                            "Eq_V is not transitive"}

    def test_one_class_of_150(self):
        y = diagonal_embed(structure_from_edges(
            TRANSITIVITY.signature, "E", 150, {(0, 1)}))
        els = y.elements("V")
        rel = y.rels["Eq_V"]
        rel.update((a, b) for a in els for b in els)
        assert _verdict(y) == (None, 1)
        a, b = els[3], els[7]
        rel.difference_update({(a, b), (b, a)})
        assert _verdict(y) == ("Eq_V is not transitive", None)


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


@pytest.mark.parametrize("call, want", [
    # A structure over the plain signature has no ``Eq_V`` to quotient by.
    (lambda: quotient_model(structure_from_edges(
        TRANSITIVITY.signature, "E", 2, {(0, 1)})),
     ("PreconditionError", "missing relation 'Eq_V'")),
    # Rule 0's conclusion-only ``y`` would become ``f_0_y``, a name in use.
    (lambda: epic_transform(parse_theory(
        "sort V;\npred E : V * V;\npred f_0_y : V * V;\n"
        "rule E(x, x) => E(x, y);\n")),
     ("SignatureError", "relation name 'f_0_y' already in use")),
])
def test_transform_rejections(call, want):
    """The checks of ``transform`` that no other test reaches, each with
    its message."""
    assert call_outcome(call) == want
