import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horneq.syntax import (MAX_TERM_DEPTH, App, DefinedAtom, ParseError,
                           VacuousSequentWarning,
                           Var, formula_vars, is_rhl, parse_theory,
                           pretty_print, sequent_vars)

from helpers import random_signature, random_theory


TRANSITIVITY = """
sort V;
pred E : V * V;
rule E(u, v) & E(v, w) => E(u, w);
"""

MONOID = """
sort M;
func op : M * M -> M;
func e : -> M;
rule op(op(x, y), z)! => op(op(x, y), z) = op(x, op(y, z));
"""


class TestParsing:
    def test_transitivity(self):
        t = parse_theory(TRANSITIVITY)
        assert t.signature.sorts == ("V",)
        assert len(t.sequents) == 1
        s = t.sequents[0]
        assert len(s.premise.atoms) == 2
        assert len(s.conclusion.atoms) == 1
        u, v, w = sequent_vars(s)
        assert (u.name, v.name, w.name) == ("u", "v", "w")
        assert all(x.sort == "V" for x in (u, v, w))

    def test_sort_inference_across_atoms(self):
        t = parse_theory("""
        sort A;
        sort B;
        pred R : A * B;
        pred P : B;
        rule R(x, y) => P(y);
        """)
        x, y = sequent_vars(t.sequents[0])
        assert x.sort == "A" and y.sort == "B"

    def test_functions_and_nullary(self):
        t = parse_theory(MONOID)
        op = t.signature.relation("op")
        e = t.signature.relation("e")
        assert op.kind == "func" and op.arg_sorts == ("M", "M")
        assert e.kind == "func" and e.arg_sorts == ()
        assert e.result_sort == "M"
        s = t.sequents[0]
        assert isinstance(s.premise.atoms[0], DefinedAtom)
        assert isinstance(s.premise.atoms[0].term, App)

    def test_sort_quantification_atom(self):
        t = parse_theory("sort V;\npred P : V;\nrule v! => P(v);\n")
        atom = t.sequents[0].premise.atoms[0]
        assert isinstance(atom, DefinedAtom)
        assert atom.term == Var("v", "V")

    def test_comments_and_true(self):
        t = parse_theory("""
        # a comment
        sort V;  # trailing
        pred P : V;
        rule true => P(v);
        """)
        assert t.sequents[0].premise.atoms == ()

    def test_vacuous_conclusion_warns(self):
        with pytest.warns(VacuousSequentWarning):
            parse_theory("sort V;\npred P : V;\nrule P(v) => true;\n")

    @pytest.mark.parametrize("bad", [
        "sort V;\nrule P(v) => true;",               # unknown relation
        "sort V;\npred P : V;\nrule P(v, w) => P(v);",  # arity
        "sort V;\npred P : V;\nrule Q(v) => P(v);",  # unknown symbol
        "pred P : V;",                                # unknown sort
        "sort V;\npred P : V;\nrule P(v) =>",         # truncated
        "sort A;\nsort B;\npred P : A;\npred Q : B;\nrule P(v) & Q(v) => true;",  # sort clash
        "sort V;\nfunc f : V -> V;\nrule f(v) => true;",  # func used as pred
        "sort V;\npred P : V;\nrule P(f(v)) => true;",    # unknown func
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parse_theory(bad)

    def test_uninferable_sort_rejected(self):
        with pytest.raises(ParseError):
            parse_theory("sort A;\nsort B;\npred P : A;\n"
                         "rule P(x) => y = y;\n")

    def test_equality_must_sort_check(self):
        with pytest.raises(ParseError):
            parse_theory("sort A;\nsort B;\npred P : A;\npred Q : B;\n"
                         "rule P(x) & Q(y) => x = y;\n")

    def test_term_depth_limit(self):
        def theory(depth):
            term = "f(" * depth + "x" + ")" * depth
            return f"sort M;\nfunc f : M -> M;\nrule {term}! => x = x;\n"

        assert pretty_print(parse_theory(theory(MAX_TERM_DEPTH))) == \
            theory(MAX_TERM_DEPTH)
        with pytest.raises(ParseError) as err:
            parse_theory(theory(MAX_TERM_DEPTH + 1))
        # located at the application one past the limit
        assert (err.value.line, err.value.col) == (3, 6 + 2 * MAX_TERM_DEPTH)


class TestErrorLocations:
    """The exact ``line:col: message`` of each error; columns count a tab
    as one character."""

    @pytest.mark.parametrize("text, message", [
        ("# header comment\n\nsort V;\n\tpred E : V * W;  # trailing\n",
         "4:15: unknown sort 'W'"),
        ("sort V;\n# a comment with $ and @\n  pred E : V $ V;\n",
         "3:14: unexpected character '$'"),
        ("sort V;\npred E : V * V;\nrule E(x, y) => E(y, x)  # no semicolon\n",
         "4:1: expected ';', found 'end of input'"),
        ("sort V;\npred E : V * V;\n\n\trule F(x) => E(x, x);\n",
         "4:7: unknown relation 'F'"),
        ("sort V;\npred E : V * V;\nrule E(x, y) =>\n\t\tE(y, q(x));\n",
         "4:8: unknown symbol 'q'"),
        ("sort V;\npred E : V * V;\nrule E(x, y) => E(y x);\n",
         "3:21: expected ')', found 'x'"),
    ])
    def test_message_and_position(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_theory(text)
        assert str(err.value) == message


class TestPrinting:
    def test_round_trip_transitivity(self):
        t = parse_theory(TRANSITIVITY)
        assert parse_theory(pretty_print(t)) == t

    def test_round_trip_monoid(self):
        t = parse_theory(MONOID)
        assert parse_theory(pretty_print(t)) == t

    def test_print_is_deterministic(self):
        t = parse_theory(MONOID)
        assert pretty_print(t) == pretty_print(parse_theory(pretty_print(t)))

    def test_round_trip_random_theories(self):
        rng = random.Random(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VacuousSequentWarning)
            for _ in range(40):
                sig = random_signature(rng)
                t = random_theory(rng, sig)
                assert parse_theory(pretty_print(t)) == t

    @given(st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, seed):
        rng = random.Random(seed)
        sig = random_signature(rng)
        t = random_theory(rng, sig)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VacuousSequentWarning)
            assert parse_theory(pretty_print(t)) == t


class TestHelpers:
    def test_formula_vars_first_occurrence_order(self):
        t = parse_theory(TRANSITIVITY)
        names = [v.name for v in formula_vars(t.sequents[0].premise)]
        assert names == ["u", "v", "w"]

    def test_is_rhl(self):
        assert is_rhl(parse_theory(TRANSITIVITY))
        assert not is_rhl(parse_theory(MONOID))
