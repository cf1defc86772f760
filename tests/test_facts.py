import pytest

from horneq.engine import evaluate
from horneq.facts import (model_names, parse_facts, report_dict,
                          serialize_model)
from horneq.syntax import ParseError, parse_theory


THEORY = parse_theory("""
sort V;
pred E : V * V;
rule E(u, v) & E(v, w) => E(u, w);
""")
SIG = THEORY.signature


class TestParseFacts:
    def test_basic(self):
        x, names = parse_facts("sort V: a b c;\nE(a, b);\n", SIG)
        assert x.element_count("V") == 3
        assert x.has_tuple("E", (names["a"], names["b"]))

    def test_equality_premerged(self):
        x, names = parse_facts("sort V: a b;\na = b;\nE(a, b);\n", SIG)
        assert x.element_count("V") == 1
        assert names["a"] == names["b"]
        assert x.has_tuple("E", (names["a"], names["a"]))

    def test_comments(self):
        x, _ = parse_facts("# nothing\nsort V: a; # inline\n", SIG)
        assert x.element_count("V") == 1

    @pytest.mark.parametrize("bad", [
        "sort W: a;",             # unknown sort
        "sort V: a a;",           # duplicate element
        "E(a, b);",               # undeclared elements
        "sort V: a;\nF(a);",      # unknown relation
        "sort V: a;\nE(a);",      # arity mismatch
        "sort V: a",              # missing semicolon
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_facts(bad, SIG)

    def test_sort_mismatch_in_equality(self):
        t = parse_theory("sort A;\nsort B;\npred R : A * B;\n"
                         "rule R(x, y) => R(x, y);")
        with pytest.raises(ParseError):
            parse_facts("sort A: a;\nsort B: b;\na = b;", t.signature)


class TestErrorLocations:
    """The exact ``line:col: message`` of each error.  Unlike the theory
    parser, the facts parser names the end of input as ``''``."""

    @pytest.mark.parametrize("text, message", [
        ("# facts\n\nsort V: a b;\n\tE(a, c);\n", "4:7: unknown element 'c'"),
        ("sort V: a;\n# $ in a comment\nE(a, @);\n",
         "3:6: unexpected character '@'"),
        ("sort V: a b;\nE(a, b)\n# end\n", "4:1: expected ';', found ''"),
        ("sort V: a b;\nE(a, b)", "2:8: expected ';', found ''"),
        ("sort V: a;\n\n  \tF(a);\n", "3:4: unknown relation 'F'"),
        ("sort V: a b;\n\ta = \n  c;\n", "3:3: unknown element 'c'"),
    ])
    def test_message_and_position(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_facts(text, SIG)
        assert str(err.value) == message


class TestSerialization:
    def eval_chain(self):
        x, names = parse_facts("sort V: a b c;\nE(a, b);\nE(b, c);\n", SIG)
        res, unit, rep = evaluate(THEORY, x)
        return res, names, unit, rep

    def test_text_output(self):
        res, input_names, unit, _ = self.eval_chain()
        names, merged = model_names(res, input_names, unit)
        text = serialize_model(res, names, merged)
        assert text == ("sort V: a b c;\n"
                        "E(a, b);\nE(a, c);\nE(b, c);\n")

    def test_merged_section(self):
        t = parse_theory("sort V;\npred Le : V * V;\n"
                         "rule Le(u, v) & Le(v, u) => u = v;")
        x, input_names = parse_facts(
            "sort V: a b;\nLe(a, b);\nLe(b, a);\n", t.signature)
        res, unit, _ = evaluate(t, x)
        names, merged = model_names(res, input_names, unit)
        text = serialize_model(res, names, merged)
        assert "merged:\n  b -> a" in text
        assert "sort V: a;" in text

    def test_json_output_is_sorted(self):
        res, input_names, unit, rep = self.eval_chain()
        names, merged = model_names(res, input_names, unit)
        doc = serialize_model(res, names, merged, fmt="json",
                              report=report_dict(rep))
        import json
        parsed = json.loads(doc)
        assert parsed["sorts"] == {"V": ["a", "b", "c"]}
        assert parsed["relations"]["E"] == [["a", "b"], ["a", "c"],
                                            ["b", "c"]]
        assert parsed["report"]["fixed_point"] is True

    def test_fresh_elements_get_generated_names(self):
        import warnings
        t = parse_theory("sort V;\npred P : V;\nrule P(u) => P(v);")
        x, input_names = parse_facts("sort V: a;\nP(a);", t.signature)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res, unit, _ = evaluate(t, x)
        names, merged = model_names(res, input_names, unit)
        assert set(names.values()) == {"a"}  # conclusion already satisfied

    def test_deterministic_bytes(self):
        outs = set()
        for _ in range(3):
            res, input_names, unit, rep = self.eval_chain()
            names, merged = model_names(res, input_names, unit)
            outs.add(serialize_model(res, names, merged, fmt="json",
                                     report=report_dict(rep)))
        assert len(outs) == 1
