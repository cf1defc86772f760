import json

import pytest

from horneq.cli import main


TRANSITIVITY = """sort V;
pred E : V * V;
rule E(u, v) & E(v, w) => E(u, w);
"""

ANTISYMMETRY = """sort V;
pred Le : V * V;
rule Le(u, v) & Le(v, u) => u = v;
"""

CHAIN = "sort V: a b c;\nE(a, b);\nE(b, c);\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_transitivity_flags(self, files, capsys):
        theory = files("t.hq", TRANSITIVITY)
        code, out, _ = run(capsys, "check", theory)
        assert code == 0
        assert "sequent 0: datalog" in out
        assert "all surjective: True" in out
        assert "pure datalog: True" in out

    def test_parse_error_exit_2(self, files, capsys):
        theory = files("bad.hq", "sort V;\nrule P(v) => true;\n")
        code, _, err = run(capsys, "check", theory)
        assert code == 2
        assert "error" in err

    def test_vacuous_rule_warns_on_one_line(self, files, capsys):
        theory = files("t.hq", "sort V;\npred E : V * V;\n"
                               "rule E(x, y) => true;\n")
        code, out, err = run(capsys, "check", theory)
        assert code == 0 and "sequent 0:" in out
        assert err == ("warning: 3:1: sequent has an empty conclusion "
                       "and is vacuous\n")

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.hq")
        assert code == 2

    def test_deep_term_exit_2(self, files, capsys):
        term = "f(" * 3000 + "x" + ")" * 3000
        theory = files("deep.hq", "sort M;\nfunc f : M -> M;\n"
                                  f"rule {term}! => x = x;\n")
        code, out, err = run(capsys, "check", theory)
        assert code == 2 and out == ""
        assert err.startswith("error: 3:") and err.count("\n") == 1
        assert "nested deeper than" in err


class TestEval:
    def test_closure(self, files, capsys):
        theory = files("t.hq", TRANSITIVITY)
        facts = files("f.hq", CHAIN)
        code, out, _ = run(capsys, "eval", theory, facts)
        assert code == 0
        assert out == ("sort V: a b c;\n"
                       "E(a, b);\nE(a, c);\nE(b, c);\n")

    def test_merged_output(self, files, capsys):
        theory = files("t.hq", ANTISYMMETRY)
        facts = files("f.hq", "sort V: a b;\nLe(a, b);\nLe(b, a);\n")
        code, out, _ = run(capsys, "eval", theory, facts)
        assert code == 0
        assert "merged:\n  b -> a" in out

    def test_survivor_does_not_depend_on_how_names_merged(self, files,
                                                          capsys):
        # b is declared first, so it survives whether the facts or the
        # theory identify it with a.
        theory = files("t.hq", ANTISYMMETRY)
        _, by_rule, _ = run(capsys, "eval", theory,
                            files("f.hq", "sort V: b a;\nLe(a, b);\n"
                                          "Le(b, a);\n"))
        _, by_fact, _ = run(capsys, "eval", theory,
                            files("g.hq", "sort V: b a;\nb = a;\n"
                                          "Le(a, a);\n"))
        assert by_rule == by_fact == ("sort V: b;\nLe(b, b);\n"
                                      "merged:\n  a -> b\n")

    def test_seminaive_identical_bytes(self, files, capsys):
        theory = files("t.hq", TRANSITIVITY)
        facts = files("f.hq", CHAIN)
        _, naive, _ = run(capsys, "eval", theory, facts)
        _, semi, _ = run(capsys, "eval", theory, facts,
                         "--strategy", "seminaive")
        assert naive == semi

    def test_json_report(self, files, capsys):
        theory = files("t.hq", TRANSITIVITY)
        facts = files("f.hq", CHAIN)
        code, out, _ = run(capsys, "eval", theory, facts,
                           "--format", "json", "--report")
        doc = json.loads(out)
        assert doc["report"]["fixed_point"] is True
        assert doc["relations"]["E"] == [["a", "b"], ["a", "c"], ["b", "c"]]

    def test_budget_exit_3_with_partial(self, files, capsys):
        theory = files("t.hq", "sort V;\npred E : V * V;\n"
                               "rule v! => E(v, w);\n")
        facts = files("f.hq", "sort V: a;\n")
        code, out, err = run(capsys, "eval", theory, facts,
                             "--max-iterations", "2")
        assert code == 3 and out == ""
        assert err == ("warning: theory has non-surjective sequents of "
                       "unknown origin; the result is only weakly free\n"
                       "error: no fixed point within 2 iterations\n")
        code, out, _ = run(capsys, "eval", theory, facts,
                           "--max-iterations", "2", "--emit-partial")
        assert code == 3
        assert "sort V: a" in out

    def test_fresh_names_avoid_input_names(self, files, capsys):
        from horneq.facts import parse_facts
        from horneq.syntax import parse_theory
        text = "sort V;\npred E : V * V;\nrule E(x, y) => E(y, z);\n"
        theory = files("t.hq", text)
        facts = files("f.hq", "sort V: a _V_2;\nE(_V_2, a);\n")
        code, out, _ = run(capsys, "eval", theory, facts,
                           "--max-iterations", "1", "--emit-partial")
        assert code == 3
        assert out == "sort V: a _V_2 _V_2_;\nE(a, _V_2_);\nE(_V_2, a);\n"
        x, names = parse_facts(out, parse_theory(text).signature)
        assert x.element_count("V") == len(names) == 3

    def test_strict_rejects_weakly_free(self, files, capsys):
        theory = files("t.hq", "sort V;\npred E : V * V;\n"
                               "rule E(u, u) => E(u, w);\n")
        facts = files("f.hq", "sort V: a;\n")
        code, _, err = run(capsys, "eval", theory, facts, "--strict")
        assert code == 2
        assert "weakly free" in err

    def test_declared_function_gets_functionality(self, files, capsys):
        # f is never applied in a rule, but its graph must stay functional
        theory = files("t.hq", "sort V;\nfunc f : V -> V;\npred E : V * V;\n"
                               "rule E(x, y) => x = y;\n")
        facts = files("f.hq", "sort V: a b c d;\nf(a, c);\nf(b, d);\n"
                              "E(a, b);\n")
        code, out, _ = run(capsys, "eval", theory, facts)
        assert code == 0
        assert out == ("sort V: a c;\nE(a, a);\nf(a, c);\n"
                       "merged:\n  b -> a\n  d -> c\n")

    def test_phl_theory_auto_flattened(self, files, capsys):
        theory = files("t.hq", "sort M;\nfunc f : M -> M;\n"
                               "rule f(x)! & f(f(x))! => f(f(x)) = x;\n")
        facts = files("f.hq", "sort M: a b c;\nf(a, b);\nf(b, c);\n")
        code, out, _ = run(capsys, "eval", theory, facts)
        assert code == 0
        assert "merged:\n  c -> a" in out


class TestTransformAndFlatten:
    def test_flatten_round_trips(self, files, capsys):
        theory = files("t.hq", "sort M;\nfunc f : M -> M;\n"
                               "rule f(x)! => f(x) = x;\n")
        code, out, _ = run(capsys, "flatten", theory)
        assert code == 0
        from horneq.syntax import parse_theory
        assert parse_theory(out) is not None

    def test_setoid_sequent_count(self, files, capsys):
        theory = files("t.hq", TRANSITIVITY)
        code, out, _ = run(capsys, "transform", "setoid", theory)
        assert code == 0
        assert out.count("rule ") == 5

    def test_epic_on_phl_exit_2(self, files, capsys):
        theory = files("t.hq", "sort M;\nfunc f : M -> M;\n"
                               "rule f(x)! => f(x) = x;\n")
        code, _, err = run(capsys, "transform", "epic", theory)
        assert code == 2

    def test_strengthen_output_reparses(self, files, capsys):
        import warnings
        theory = files("t.hq", TRANSITIVITY)
        code, out, _ = run(capsys, "transform", "strengthen", theory)
        assert code == 0
        from horneq.syntax import parse_theory
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = parse_theory(out)
        assert len(t.sequents) == 2


class TestSatisfies:
    def test_closed_graph_passes(self, files, capsys):
        theory = files("t.hq", TRANSITIVITY)
        facts = files("f.hq", "sort V: a b c;\nE(a, b);\nE(b, c);\n"
                              "E(a, c);\n")
        code, out, _ = run(capsys, "satisfies", theory, facts)
        assert code == 0
        assert "all satisfied" in out

    def test_open_chain_counterexample(self, files, capsys):
        theory = files("t.hq", TRANSITIVITY)
        facts = files("f.hq", CHAIN)
        code, out, _ = run(capsys, "satisfies", theory, facts)
        assert code == 1
        assert "FAILED at {u: a, v: b, w: c}" in out

    def test_witness_sorted_by_variable_name(self, files, capsys):
        # As "k: v" strings, "x1: b" would sort before "x: a".
        theory = files("t.hq", "sort V;\npred E : V * V;\n"
                               "rule E(x, x1) => E(x1, x);\n")
        facts = files("f.hq", "sort V: a b;\nE(a, b);\n")
        code, out, _ = run(capsys, "satisfies", theory, facts)
        assert code == 1
        assert "sequent 0: FAILED at {x: a, x1: b}" in out

    def test_empty_theory_passes(self, files, capsys):
        theory = files("t.hq", "sort V;\npred E : V * V;\n")
        facts = files("f.hq", CHAIN)
        code, out, _ = run(capsys, "satisfies", theory, facts)
        assert code == 0

    def test_eval_output_satisfies(self, files, capsys, tmp_path):
        theory = files("t.hq", TRANSITIVITY)
        facts = files("f.hq", CHAIN)
        _, out, _ = run(capsys, "eval", theory, facts)
        closed = files("g.hq", out)
        code, _, _ = run(capsys, "satisfies", theory, closed)
        assert code == 0


class TestEvalOutputAsFacts:
    """Text ``eval`` output, ``merged:`` section included, reads back as a
    facts file; ``--report`` and ``--format json`` output do not."""

    # The survivor b sorts after its alias a.
    MERGING = "sort V: b a c;\nLe(a, b);\nLe(b, a);\nLe(c, c);\n"

    def test_eval_output_with_merges_satisfies(self, files, capsys):
        theory = files("t.hq", ANTISYMMETRY)
        _, out, _ = run(capsys, "eval", theory, files("f.hq", self.MERGING))
        assert "merged:\n  a -> b\n" in out
        code, _, _ = run(capsys, "satisfies", theory, files("g.hq", out))
        assert code == 0

    def test_eval_of_eval_output_is_identical(self, files, capsys):
        theory = files("t.hq", ANTISYMMETRY)
        _, out, _ = run(capsys, "eval", theory, files("f.hq", self.MERGING))
        code, again, _ = run(capsys, "eval", theory, files("g.hq", out))
        assert code == 0 and again == out

    def test_witness_names_survivor(self, files, capsys):
        theory = files("t.hq", "sort V;\npred Le : V * V;\npred P : V;\n"
                               "rule Le(u, v) => P(u);\n")
        facts = files("f.hq", "sort V: b;\nLe(b, b);\nmerged:\n  a -> b\n")
        code, out, _ = run(capsys, "satisfies", theory, facts)
        assert code == 1
        assert "sequent 0: FAILED at {u: b, v: b}" in out

    @pytest.mark.parametrize("flags, message", [
        (["--report"], "unknown relation 'report'"),
        (["--format", "json"], "1:1: unexpected character '{'"),
    ])
    def test_report_and_json_unreadable(self, files, capsys, flags, message):
        theory = files("t.hq", TRANSITIVITY)
        _, out, _ = run(capsys, "eval", theory, files("f.hq", CHAIN), *flags)
        code, _, err = run(capsys, "satisfies", theory, files("g.hq", out))
        assert code == 2 and message in err

    def test_report_after_merged_unreadable(self, files, capsys):
        theory = files("t.hq", ANTISYMMETRY)
        _, out, _ = run(capsys, "eval", theory, files("f.hq", self.MERGING),
                        "--report")
        code, _, err = run(capsys, "satisfies", theory, files("g.hq", out))
        assert code == 2 and "expected '->', found ':'" in err
