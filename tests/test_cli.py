import argparse
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings
from collections import Counter

import pytest

import horneq
from horneq import classify, cli, engine, facts, transform
from horneq.cli import build_parser, main
from horneq.engine import MAX_PLAN_STEPS
from horneq.facts import parse_facts
from horneq.core import Signature
from horneq.syntax import (Theory, VacuousSequentWarning, formula_vars,
                           parse_theory, pretty_print)

from helpers import (call_outcome, compile_style_text, random_signature,
                     random_theory)


TRANSITIVITY = """sort V;
pred E : V * V;
rule E(u, v) & E(v, w) => E(u, w);
"""

ANTISYMMETRY = """sort V;
pred Le : V * V;
rule Le(u, v) & Le(v, u) => u = v;
"""

EXISTENTIAL = """sort V;
pred E : V * V;
pred R : V * V;
rule E(x, y) => R(x, z);
"""

CHAIN = "sort V: a b c;\nE(a, b);\nE(b, c);\n"

WEAK = ("a rule has a conclusion variable that its premise lacks; the "
        "result is only weakly free")

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str) -> str:
    """The first ``text`` block under a second-level README heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```text\n", text.index(f"\n## {heading}\n")) + 8
    return text[start:text.index("```", start)]


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

    @pytest.mark.parametrize("theory, facts, flags, want", [
        ("", "", [], "\n"),
        ("", "", ["--report"],
         "report:\n  iterations: 1\n  fixed_point: True\n"
         "  iteration 1: matches=0 tuples_added=0 merges=0 "
         "elements_created=0\n"),
        (ANTISYMMETRY, "sort V: a b c;\nLe(a, b);\nLe(b, a);\nLe(b, c);\n",
         ["--report"],
         "sort V: a c;\nLe(a, a);\nLe(a, c);\nmerged:\n  b -> a\n"
         "report:\n  iterations: 2\n  fixed_point: True\n"
         "  iteration 1: matches=1 tuples_added=0 merges=1 "
         "elements_created=0\n"
         "  iteration 2: matches=0 tuples_added=0 merges=0 "
         "elements_created=0\n"),
        (TRANSITIVITY + "pred P : V;\n", CHAIN, [],
         "sort V: a b c;\nE(a, b);\nE(a, c);\nE(b, c);\n"),
        ("sort V;\nsort W;\npred P : V;\n", "sort V:;\nsort W: w;\n", [],
         "sort V: ;\nsort W: w;\n"),
    ], ids=["empty", "empty-report", "merged-report", "relation-without-rows",
            "sort-without-elements"])
    def test_text_output_bytes(self, files, capsys, theory, facts, flags,
                               want):
        """The text format byte for byte: a model with no line is one empty
        line, and relations and sorts without members print as shown."""
        argv = ["eval", files("t.hq", theory), files("f.hq", facts), *flags]
        assert run(capsys, *argv)[:2] == (0, want)

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
        assert err == ("warning: a rule has a conclusion variable that its "
                       "premise lacks; the result is only weakly free\n"
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


class TestWeakFreeness:
    """``eval`` warns that its result is only weakly free, and exits 2
    under ``--strict``, exactly when some sequent of the source theory has
    a conclusion variable that its premise lacks.  A flattened PHL theory
    whose sequents are all epic has a free model, though its flattening
    has conclusion-only variables."""

    def _texts(self, rng: random.Random):
        for i in range(120):
            if i % 3 == 2:
                yield compile_style_text(
                    rng, ("Z", "A", "M"),
                    [("f", ("A",), "Z"), ("g", ("Z", "A"), "A"),
                     ("c", (), "A"), ("m", ("A", "Z"), "M")],
                    [("P", ("A",)), ("Q", ("A", "Z")), ("R", ("Z", "M"))],
                    {"Z": ["z", "y"], "A": ["a", "x"], "M": ["m0"]})
            else:
                yield pretty_print(random_theory(rng, random_signature(rng),
                                                 surjective=i % 3 == 0))

    def test_warning_iff_a_source_sequent_is_not_epic(self, files, capsys):
        seen = Counter()
        for text in self._texts(random.Random(29)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", VacuousSequentWarning)
                t = parse_theory(text)
            weak = any(set(formula_vars(s.conclusion))
                       - set(formula_vars(s.premise)) for s in t.sequents)
            seen[weak, bool(t.signature.functions())] += 1
            theory = files("t.hq", text)
            facts = files("f.hq", "".join(f"sort {s}: e{i} f{i};\n" for i, s
                                          in enumerate(t.signature.sorts)))
            argv = ["eval", "--max-iterations", "2", "--emit-partial",
                    theory, facts]
            code, out, err = run(capsys, *argv)
            assert code in (0, 3) and out, (text, err)
            assert err.count(f"warning: {WEAK}\n") == weak, (text, err)
            strict = run(capsys, *argv, "--strict")
            if weak:
                assert strict == (2, "", f"error: {WEAK}\n"), text
            else:
                assert strict == (code, out, err), text
        # Both verdicts, on random and on flattened PHL theories.
        assert sorted(seen) == [(False, False), (False, True), (True, False),
                                (True, True)], seen


class TestTransformAndFlatten:
    def test_flatten_round_trips(self, files, capsys):
        """The printed flattening reads back as ``flatten_theory`` of the
        input, also when a symbol is named like a fresh variable."""
        for text in ("sort M;\nfunc f : M -> M;\nrule f(x)! => f(x) = x;\n",
                     "sort V;\nfunc f : V -> V;\npred _u0 : V;\n"
                     "rule _u0(x) => _u0(f(x));\n"):
            code, out, _ = run(capsys, "flatten", files("t.hq", text))
            assert code == 0
            assert parse_theory(out) == classify.flatten_theory(
                parse_theory(text)), out

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

    def test_strengthen_on_phl_exit_2(self, files, capsys):
        theory = files("t.hq", "sort M;\nfunc f : M -> M;\n"
                               "rule f(x)! => f(x) = x;\n")
        code, out, err = run(capsys, "transform", "strengthen", theory)
        assert code == 2 and out == ""
        assert err == ("error: 3:1: classifying structures are defined on "
                       "RHL formulas\n")


class TestPrintedOutput:
    """The compilers and text ``eval`` write the bytes of ``pretty_print``
    and ``serialize_model`` of the library's result, or exit 2 with no
    output."""

    COMPILERS = {
        ("flatten",): classify.flatten_theory,
        ("transform", "setoid"): transform.setoid_transform,
        ("transform", "sparse-setoid"): transform.sparse_setoid_transform,
        ("transform", "epic"): lambda t: transform.epic_transform(t)[1],
        ("transform", "strengthen"): classify.strengthen_theory,
    }

    def _theories(self, rng: random.Random):
        """Seeded RHL theories, PHL theories with nested function terms
        and their flattenings, and the empty theory."""
        yield Theory(Signature((), ()), ())
        for i in range(24):
            if i % 3 == 2:
                text = compile_style_text(
                    rng, ("Z", "A"), [("f", ("A",), "Z"), ("c", (), "A")],
                    [("P", ("A",)), ("Q", ("A", "Z")), ("_u0", ("A",))],
                    {"Z": ["z", "y"], "A": ["a", "x"]})
                t = parse_theory(text)
                yield t
                yield classify.flatten_theory(t)
            else:
                yield random_theory(rng, random_signature(rng),
                                    surjective=i % 3 == 0)

    def test_compilers_write_pretty_print(self, files, capsys):
        seen = Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VacuousSequentWarning)
            for t in self._theories(random.Random(32)):
                theory = files("t.hq", pretty_print(t))
                for argv, compiler in self.COMPILERS.items():
                    want = call_outcome(lambda: pretty_print(compiler(t)))
                    code, out, err = run(capsys, *argv, theory)
                    if isinstance(want, str):
                        assert (code, out) == (0, want), (argv, t)
                        assert parse_theory(out) == compiler(t), (argv, t)
                    else:
                        assert (code, out) == (2, ""), (argv, t)
                        assert err.endswith(f"error: {want[1]}\n")
                    seen[isinstance(want, str)] += 1
        assert seen[True] > 50 and seen[False] > 20, seen

    def test_text_eval_writes_serialize_model(self, files, capsys):
        """With and without ``--report``, on facts with equations, so that
        some models have a ``merged:`` section."""
        rng, seen = random.Random(32), Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for t in self._theories(rng):
                if t.signature.functions():
                    continue
                sig = t.signature
                lines = [f"sort {s}: {s}a {s}b {s}c;" for s in sig.sorts]
                lines += [f"{s}{rng.choice('abc')} = {s}{rng.choice('abc')};"
                          for s in sig.sorts if rng.random() < 0.5]
                for r in sig.relations:
                    for _ in range(rng.randint(0, 4)):
                        args = [s + rng.choice("abc") for s in r.arity]
                        lines.append(f"{r.name}({', '.join(args)});")
                text = "".join(line + "\n" for line in lines)
                x, input_names = parse_facts(text, sig)
                try:
                    result, unit, report = engine.evaluate(
                        t, x, engine.EvalConfig(max_iterations=3))
                except engine.EvaluationBudgetError as err:
                    result, unit, report = err.partial, err.unit, err.report
                names, merged = facts.model_names(result, input_names, unit)
                seen["merged"] += bool(merged)
                argv = ["eval", "--max-iterations", "3", "--emit-partial",
                        files("t.hq", pretty_print(t)), files("f.hq", text)]
                want = facts.serialize_model(result, names, merged)
                assert run(capsys, *argv)[1] == want, (t, text)
                want = facts.serialize_model(result, names, merged, "text",
                                             facts.report_dict(report))
                assert run(capsys, *argv, "--report")[1] == want, (t, text)
        assert seen["merged"] > 3, seen


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
        """Read back, an evaluated model satisfies its theory, also one
        whose fresh elements carry generated ``_V_k`` names."""
        for text, facts, fresh in (
                (TRANSITIVITY, CHAIN, None),
                (EXISTENTIAL, "sort V: a b c;\nE(a, b);\nE(a, c);\n", "_V_3")):
            theory = files("t.hq", text)
            _, out, _ = run(capsys, "eval", theory, files("f.hq", facts))
            assert fresh is None or f"R(a, {fresh});" in out
            closed = files("g.hq", out)
            code, _, _ = run(capsys, "satisfies", theory, closed)
            assert code == 0


# Rules whose plans are longer than ``MAX_PLAN_STEPS``, with facts that
# match every step, so that running such a plan would recurse once a step.
CHAIN_RULE = ("sort V;\npred E : V * V;\nrule "
              + " & ".join(f"E(x{i}, x{i + 1})" for i in range(1000))
              + " => E(x0, x1000);\n")
NESTED = "f(" * 199 + "x{}" + ")" * 199
NESTED_RULE = ("sort V;\nfunc f : V -> V;\npred P : V;\nrule "
               + " & ".join(f"P({NESTED.format(i)})" for i in range(6))
               + " => P(x0);\n")


class TestLongRules:
    @pytest.mark.parametrize("theory, facts, where", [
        (CHAIN_RULE, "sort V: a;\nE(a, a);\n", "3:1"),
        (NESTED_RULE, "sort V: a;\nP(a);\nf(a, a);\n", "4:1"),
    ], ids=["chain", "nested"])
    @pytest.mark.parametrize("command", ["eval", "satisfies"])
    def test_too_many_steps_exit_2(self, files, capsys, theory, facts, where,
                                   command):
        code, out, err = run(capsys, command, files("t.hq", theory),
                             files("f.hq", facts))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {where}: a formula of ")
        assert err.endswith(f"; a plan has at most {MAX_PLAN_STEPS}\n")
        assert err.count("\n") == 1

    def test_satisfies_prints_no_verdict_before_plan_error(self, files,
                                                           capsys):
        theory = CHAIN_RULE.replace("rule ", "rule E(u, v) => E(v, u);\nrule ")
        code, out, err = run(capsys, "satisfies", files("t.hq", theory),
                             files("f.hq", "sort V: a;\nE(a, a);\n"))
        assert code == 2 and out == ""
        assert err.startswith("error: 4:1: a formula of ")
        assert err.count("\n") == 1

    def test_long_non_epic_rule_warns_before_plan_error(self, files,
                                                        capsys):
        """The verdict on weak freeness is read off the source theory
        before any rule is compiled: a rule too long to plan that is not
        epic gets the warning before the plan error, and under
        ``--strict`` the strict error in its place."""
        theory = files("t.hq", CHAIN_RULE.replace("E(x0, x1000)", "E(x0, z)"))
        facts = files("f.hq", "sort V: a;\nE(a, a);\n")
        code, out, err = run(capsys, "eval", theory, facts)
        assert code == 2 and out == ""
        warning, error = err.splitlines()
        assert warning == f"warning: {WEAK}"
        assert error.startswith("error: 3:1: a formula of ")
        assert run(capsys, "eval", theory, facts, "--strict") == \
            (2, "", f"error: {WEAK}\n")

    # The nested rule is not RHL, so ``transform`` rejects it anyway.
    @pytest.mark.parametrize("theory, argv", [
        (CHAIN_RULE, ["check"]), (CHAIN_RULE, ["flatten"]),
        (CHAIN_RULE, ["transform", "setoid"]),
        (CHAIN_RULE, ["transform", "epic"]),
        (NESTED_RULE, ["check"]), (NESTED_RULE, ["flatten"])])
    def test_compilers_accept(self, files, capsys, theory, argv):
        code, out, err = run(capsys, *argv, files("t.hq", theory))
        assert code == 0 and out and err == ""


class TestParserReuse:
    def test_report_then_plain_equal_separate_runs(self, files, capsys):
        """``main`` reuses one parser: a ``--report`` run leaves nothing
        behind for the next run in the same process."""
        argvs = [["eval", files("t.hq", TRANSITIVITY), files("f.hq", CHAIN),
                  "--report"]]
        argvs.append(argvs[0][:-1])
        in_process = [run(capsys, *argv) for argv in argvs]
        src = str(pathlib.Path(horneq.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        separate = []
        for argv in argvs:
            done = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from horneq.cli import main; sys.exit(main())",
                 *argv], capture_output=True, text=True, env=env)
            separate.append((done.returncode, done.stdout, done.stderr))
        assert in_process == separate
        assert "report:" in separate[0][1] and "report:" not in separate[1][1]


class TestInternalError:
    def test_unexpected_exception_exit_4(self, files, capsys, monkeypatch):
        """A fault in horneq itself, not in its input, is one line and exit
        4, apart from 1 (unsatisfied) and 2 (input error)."""
        def broken(*args, **kwargs):
            raise ZeroDivisionError("division by zero")
        monkeypatch.setattr(engine, "evaluate", broken)
        code, out, err = run(capsys, "eval", files("t.hq", TRANSITIVITY),
                             files("f.hq", CHAIN))
        assert code == 4 and out == ""
        assert err == "error: internal: ZeroDivisionError: division by zero\n"


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


class TestReadmeExamples:
    def test_eval_and_satisfies(self, files, capsys):
        """The README's theory and facts examples run as it says, and the
        ``eval`` output reads back as a facts file."""
        text = readme_block("Theory syntax")
        theory = files("t.hl", text)
        facts = files("f.hl", readme_block("Fact files"))
        code, out, err = run(capsys, "eval", theory, facts)
        assert code == 0 and err == ""
        _, names = parse_facts(out, parse_theory(text).signature)
        assert set(names) == {"a", "b", "c", "d"}
        assert names["a"] == names["c"] == names["d"] != names["b"]
        code, out, err = run(capsys, "satisfies", theory, facts)
        assert code == 0 and out.endswith("all satisfied\n") and err == ""


def test_readme_matches_parser():
    """The README's CLI section lists the subcommands, the ``transform``
    kinds, the flags of ``eval`` with their choices, and the exit codes
    that ``build_parser`` and ``cli`` define; its Library section gives
    the default iteration budget."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## CLI\n"):text.index("\n## Library")]
    start = section.index("```sh\n")
    block = section[start:section.index("```\n", start + 6)]
    paragraph = section[section.index("Flags of `eval`:"):]
    paragraph = paragraph[:paragraph.index("\n\n")]
    codes = section[section.index("Exit codes:"):]
    codes = codes[:codes.index("\n\n")]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))

    def options(name):
        return {a.option_strings[-1] if a.option_strings else a.dest: a
                for a in sub.choices[name]._actions if a.dest != "help"}

    assert re.findall(r"^horneq (\S+)", block, re.M) == list(sub.choices)
    comments = block[block.index("horneq transform"):]
    comments = comments[:comments.index("\nhorneq")]
    kinds = " ".join(re.findall(r"# (.*)", comments)).split("|")
    assert [k.strip() for k in kinds] == options("transform")["kind"].choices
    flags = options("eval")
    assert re.findall(r"`(--[a-z-]+)", paragraph) == \
        [f for f in flags if f.startswith("--")]
    for flag, choices in re.findall(r"`(--[a-z-]+) ([a-z|]+)`", paragraph):
        assert set(choices.split("|")) == set(flags[flag].choices), flag
    assert {int(c) for c in re.findall(r"`(\d+)`", codes)} == \
        {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    budget = " ".join(text[text.index("`--max-iterations` and"):].split())
    assert budget.startswith(
        "`--max-iterations` and `EvalConfig.max_iterations` set the budget. "
        "By default there is none when no rule of the prepared theory has a "
        "conclusion-only variable, and otherwise it is "
        f"`engine.DEFAULT_MAX_ITERATIONS`, "
        f"{engine.DEFAULT_MAX_ITERATIONS:,} iterations.")
    assert flags["--max-iterations"].default is None
    assert engine.EvalConfig().max_iterations is None


class TestMutatedInputs:
    """Seeded one- to three-character mutations of the README theory, a
    PHL theory and facts files for each, through every command."""

    PHL = ("sort M;\nfunc op : M * M -> M;\nfunc e : -> M;\npred P : M;\n"
           "rule op(x, e())! => op(x, e()) = x;\n"
           "rule P(x) & op(x, x)! => P(op(x, x));\n"
           "rule P(x) => P(op(x, x));\n")
    PHL_FACTS = "sort M: a b;\nop(a, b, a);\ne(b);\nP(a);\nmerged:\n  c -> b\n"
    CHARS = "aPR01_,;:=()#@!&>-* \n\tLeopxuv"

    def mutated(self, rng: random.Random, text: str) -> str:
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            op, char = rng.random(), rng.choice(self.CHARS)
            if op < 1 / 3 and i < len(text):
                text = text[:i] + text[i + 1:]
            elif op < 2 / 3 and i < len(text):
                text = text[:i] + char + text[i + 1:]
            else:
                text = text[:i] + char + text[i:]
        return text

    def test_exit_codes_and_error_lines(self, files, capsys):
        """Each run exits 0, 1, 2 or 3 with at most one ``error:`` line,
        never with an internal error; the seed reaches all four codes."""
        readme = readme_block("Theory syntax")
        inputs = [(readme, readme_block("Fact files")),
                  (readme, "sort V: a b c;\nLe(a, b);\nLe(b, c);\n"),
                  (self.PHL, self.PHL_FACTS)]
        rng = random.Random(14)
        codes = Counter()
        for _ in range(400):
            theory, facts = rng.choice(inputs)
            edit = rng.random()
            if edit < 0.55:
                theory = self.mutated(rng, theory)
            if edit >= 0.45:
                facts = self.mutated(rng, facts)
            t, f = files("t.hl", theory), files("f.hl", facts)
            for argv in (["eval", "--max-iterations", "5", t, f],
                         ["satisfies", t, f], ["check", t], ["flatten", t],
                         *(["transform", kind, t] for kind in
                           ("setoid", "sparse-setoid", "epic",
                            "strengthen"))):
                code, _, err = run(capsys, *argv)
                codes[code] += 1
                errors = [ln for ln in err.splitlines()
                          if ln.startswith("error:")]
                assert code in (0, 1, 2, 3) and len(errors) <= 1, \
                    (argv[0], theory, facts, err)
                assert "error: internal:" not in err
        assert all(codes[code] for code in (0, 1, 2, 3)), codes
