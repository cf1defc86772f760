import copy
import dataclasses
import pickle
import random
import re
import time
import warnings
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horneq import syntax
from horneq.classify import flatten_theory
from horneq.core import RelDecl, Signature
from horneq.facts import parse_facts
from horneq.syntax import (MAX_TERM_DEPTH, App, DefinedAtom, EqualAtom,
                           Formula, ParseError, RelAtom, Sequent, Theory,
                           VacuousSequentWarning, Var, atom_terms,
                           formula_vars, is_rhl, parse_theory, pretty_print,
                           sequent_vars, term_vars)

from helpers import (call_outcome, compile_style_text, random_signature,
                     random_theory, reference_parse_facts,
                     reference_parse_theory)


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

    def test_equality_between_applications_must_sort_check(self):
        with pytest.raises(ParseError) as err:
            parse_theory("sort A;\nsort B;\nfunc f : A -> B;\n"
                         "func g : B -> A;\n"
                         "rule f(x)! & g(y)! => f(x) = g(y);\n")
        assert str(err.value) == "5:23: equality between sorts 'B' and 'A'"

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
        # the bad character beats the duplicate sort before it
        ("sort V;\nsort V $\n", "2:8: unexpected character '$'"),
        ("$sort V;", "1:1: unexpected character '$'"),
        pytest.param("# a long theory\nsort V;\npred P : V;\n"
                     + "rule P(x) => P(x);\n" * 1999 + "rule P(x) => P(x);@\n",
                     "2003:19: unexpected character '@'", id="2000-rules"),
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

    def test_empty_theory_is_one_empty_line(self):
        assert pretty_print(parse_theory("")) == "\n"
        assert pretty_print(parse_theory("pred P : ;")) == "pred P : ;\n"

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

    def test_derived_syntax_matches_its_definition(self):
        """``formula_vars`` is the first occurrences of ``term_vars`` over
        the atoms' terms, and ``is_rhl`` holds of a formula, sequent or theory
        iff every atom is a predicate atom or an equality or definedness
        atom on bare variables; on random RHL and compile-style PHL
        theories, and on each of their atoms."""
        def rhl(a):
            terms = a.args if isinstance(a, RelAtom) else (
                (a.term,) if isinstance(a, DefinedAtom) else (a.lhs, a.rhs))
            return ((not isinstance(a, RelAtom) or a.rel.kind == "pred")
                    and all(isinstance(t, Var) for t in terms))

        rng = random.Random(32)
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VacuousSequentWarning)
            for i in range(60):
                t = parse_theory(_compile_style(rng)) if i % 2 else \
                    random_theory(rng, random_signature(rng))
                assert is_rhl(t) == all(
                    rhl(a) for s in t.sequents
                    for a in s.premise.atoms + s.conclusion.atoms)
                seen.add(is_rhl(t))
                for s in t.sequents:
                    assert is_rhl(s) == (is_rhl(s.premise)
                                         and is_rhl(s.conclusion))
                    for f in (s.premise, s.conclusion):
                        want = dict.fromkeys(v for a in f.atoms
                                             for t in atom_terms(a)
                                             for v in term_vars(t))
                        assert formula_vars(f) == list(want)
                        assert is_rhl(f) == all(rhl(a) for a in f.atoms)
                        for a in f.atoms:
                            assert is_rhl(a) == rhl(a)
        assert seen == {False, True}


class TestNodes:
    """The AST nodes and relation symbols are frozen dataclasses with
    slots: no ``__dict__``, no weak references, fields that cannot be
    assigned, and equality and hashing by class and fields."""

    F = RelDecl("f", ("A", "A"), "func")
    P = RelDecl("P", ("A",), "pred")
    X, Y = Var("x", "A"), Var("y", "A")

    def nodes(self):
        fx = App(self.F, (self.X,))
        atoms = (RelAtom(self.P, (fx,)), DefinedAtom(fx),
                 EqualAtom(self.X, self.Y))
        sequent = Sequent(Formula(atoms[:1]), Formula(atoms[1:]), (3, 1))
        sig = Signature(("A",), (self.F, self.P))
        return [self.X, fx, *atoms, sequent.premise, sequent,
                Theory(sig, (sequent,)), self.F]

    def test_slotted_and_frozen(self):
        nodes = self.nodes()
        assert len({type(n) for n in nodes}) == 9
        for node in nodes:
            assert not hasattr(node, "__dict__"), node
            with pytest.raises(TypeError):
                weakref.ref(node)
            field = dataclasses.fields(node)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field, None)

    def test_equal_fields_equal_nodes(self):
        for node in self.nodes():
            fields = [getattr(node, f.name) for f in dataclasses.fields(node)]
            twin = type(node)(*fields)
            assert twin == node and hash(twin) == hash(node)
            assert copy.deepcopy(node) == node
            assert pickle.loads(pickle.dumps(node)) == node

    def test_class_is_part_of_equality(self):
        fx, rx = App(self.F, (self.X,)), RelAtom(self.F, (self.X,))
        assert fx != rx and rx != fx
        assert DefinedAtom((self.X,)) != Formula((self.X,))
        assert Var("x", "A") != ("x", "A") and ("x", "A") != Var("x", "A")
        assert Var("x", "A") != Var("x", "B")

    def test_sequent_equality_ignores_location(self):
        s = Sequent(Formula(), Formula((DefinedAtom(self.X),)), (1, 1))
        t = Sequent(s.premise, s.conclusion, (7, 2))
        assert s == t and hash(s) == hash(t) and s.location != t.location
        assert pickle.loads(pickle.dumps(s)).location == (1, 1)

    def test_app_sort(self):
        assert App(self.F, (self.X,)).sort == "A"


# -- parse_theory against the reference token reader ------------------------

# What goes between two tokens; the comments hold names and symbols.
PLAIN_GAPS = [" ", " ", "", "\t", "\n", "\r\n", " \n\t "]
GAPS = PLAIN_GAPS + ["# x\n", " # P(x) => Q(y);\n", "#\r\n", "\t#, ) ;\n  "]
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|=>|->|[;:*(),=!&]")


def _compile_style(rng: random.Random) -> str:
    """A theory with nested function terms, a nullary function and a
    nullary predicate, in the style of the benchmark's compile theories."""
    return compile_style_text(
        rng, ("A", "B"),
        [("f", ("A",), "B"), ("g", ("B", "A"), "A"), ("c", (), "A")],
        [("P", ("A",)), ("Q", ("A", "B")), ("Z", ())],
        {"A": ["a", "x"], "B": ["b", "y"]})


def _theory_text(rng: random.Random) -> tuple[str, list[int]]:
    """A valid theory, re-spaced with a random gap before every token, and
    the offsets of its names.  It is a random relational theory, a
    flattened compile-style theory or a compile-style one, sometimes with
    a vacuous rule added.  The relational one declares a function that
    its rules do not use."""
    kind = rng.random()
    if kind < 0.45:
        t = random_theory(rng, random_signature(rng), max_sequents=5)
        s = t.signature.sorts[0]
        t = Theory(Signature(t.signature.sorts, t.signature.relations
                             + (RelDecl("f", (s, s), "func"),)),
                   t.sequents)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VacuousSequentWarning)
            t = parse_theory(_compile_style(rng))
        if kind < 0.85:
            t = flatten_theory(t, with_functionality=rng.random() < 0.2)
    if rng.random() < 0.2:
        t = Theory(t.signature, t.sequents + (
            Sequent(rng.choice(t.sequents).premise, Formula()),))
    gaps = GAPS if rng.random() < 0.2 else PLAIN_GAPS
    out: list[str] = []
    spots = []
    size = 0
    for tok in _TOKEN.findall(pretty_print(t)):
        gap = rng.choice(gaps)
        if (not gap.strip() and out and out[-1][-1:].isalnum()
                and tok[0].isalnum()):
            gap += " "  # keep two names apart
        size += len(gap)
        if tok[0].isalpha() or tok[0] == "_":
            spots.append(size)
        out += [gap, tok]
        size += len(tok)
    out.append(rng.choice(gaps + ["# last comment, no newline"]))
    return "".join(out), spots


def _mutated(rng: random.Random, text: str, spots: list[int]) -> str:
    """``text`` with one character deleted, inserted or replaced, or one
    name replaced by a keyword or a relation name.  Half the edits hit a
    name: they can make a variable a relation name or a keyword, make a
    predicate a function, or comment out the rest of a line."""
    op = rng.random()
    if op < 0.5:
        i = rng.choice(spots)
        if op < 0.15:
            return text[:i] + "#" + text[i:]
        if op < 0.35:
            return text[:i] + rng.choice("PQRSfgcxuwt_") + text[i + 1:]
        name = rng.choice(["true", "rule", "pred", "P", "Z", "f", "R0"])
        return text[:i] + name + text[_TOKEN.match(text, i).end():]
    i = rng.randrange(len(text) + 1)
    char = rng.choice("aPR01_,;:=()#@!&>- \n\t")
    if op < 4 / 6 and i < len(text):
        return text[:i] + text[i + 1:]
    if op < 5 / 6 and i < len(text):
        return text[:i] + char + text[i + 1:]
    return text[:i] + char + text[i:]


def _outcome(parse, text: str):
    """The theory and its locations, or the error's type and message, and
    the warnings in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            t = parse(text)
        except Exception as err:  # compared by type and message
            result = (type(err).__name__, str(err))
        else:
            result = (t, [s.location for s in t.sequents])
    return result, [(w.category.__name__, str(w.message)) for w in caught]


class TestDifferential:
    def test_equals_token_reader(self):
        """Seeded valid theories and one-character mutations of them:
        ``parse_theory`` against the reference token reader."""
        rng = random.Random(10)
        errors = 0
        for _ in range(800):
            text, spots = _theory_text(rng)
            for case in (text, _mutated(rng, text, spots),
                         _mutated(rng, text, spots)):
                want = _outcome(reference_parse_theory, case)
                assert _outcome(parse_theory, case) == want, case
                errors += want[0][0] == "ParseError"
        assert errors > 200

    @pytest.mark.parametrize("text", [
        # a keyword as a variable, after a rule that fails resolution: the
        # syntax error wins
        "sort V;\npred P : V;\nrule Q(x) => P(x);\nrule P(true) => P(x);\n",
        # a flat rule across lines with a comment inside
        "sort V;\npred P : V;\npred E : V * V;\n"
        "rule E(x, y) &  # the edge\n\tP(x)\n  => P(y);\n",
        # rules before their relations' declarations
        "sort V;\nrule P(x) & x = y => Q(y);\npred P : V;\npred Q : V;\n",
        "sort V;\nrule P(x) => P(Q);\npred P : V;\npred Q : V;\n",
        # \r\n line endings, then an error located after them
        "sort V;\r\npred P : V;\r\nrule P(x) => x = y;\r\n"
        "\trule P(x) => true;\r\n",
        "sort V;\r\npred P : V;\r\nrule P(x) =>\r\n  Q(x);\r\n",
        # two rules on one line
        "sort V; pred P : V; rule P(x) => P(x); rule P(y) => P(y);\n",
        # the word rule in a comment and inside names
        "sort V;\npred P : V;\n# rule P(x) => P(x); rules\n"
        "  rule P(rules) => P(_rule);\n"
        "\trule P(rule_1) => P(rule_1);  # rule\n",
    ])
    def test_edge_cases(self, text):
        assert _outcome(parse_theory, text) == \
            _outcome(reference_parse_theory, text)

    @pytest.mark.parametrize("text, want", [
        # ``x = f(y)``: ``x`` takes the result sort of ``f``
        ("sort A;\nsort B;\nfunc f : B -> A;\npred P : A;\npred Q : B;\n"
         "rule Q(y) & x = f(y) => P(x);\n", ({"y": "B", "x": "A"}, [(6, 1)])),
        ("sort A;\nsort B;\nfunc f : A -> B;\npred P : A;\n"
         "rule P(f(x)) => P(x);\n", "5:8: f has sort 'B', expected 'A'"),
        # the word rule in a last comment that has no newline
        ("sort V;\npred P : V;\nrule P(x) => P(x);\n# rule",
         ({"x": "V"}, [(3, 1)])),
    ])
    def test_rare_branches(self, text, want):
        """Sort inference through a function term, its sort error, and
        the locations of a text that ends in a comment: each agrees with
        the reference."""
        result, caught = _outcome(parse_theory, text)
        assert (result, caught) == _outcome(reference_parse_theory, text)
        if isinstance(result[0], Theory):
            theory, locations = result
            result = ({v.name: v.sort for s in theory.sequents
                       for v in sequent_vars(s)}, locations)
        else:
            result = result[1]
        assert result == want

    def test_keyword_error_comes_first(self):
        with pytest.raises(ParseError) as err:
            parse_theory("sort V;\npred P : V;\nrule Q(x) => P(x);\n"
                         "rule P(true) => P(x);\n")
        assert str(err.value) == "4:8: expected identifier, found 'true'"

    @pytest.mark.parametrize("forward", [True, False])
    def test_long_equality_chain(self, forward):
        """10,000 chained equalities: the sorts flow through a union-find,
        in either direction of the chain."""
        n = 10_000
        links = [f"x{i} = x{i + 1}" if forward else f"x{i + 1} = x{i}"
                 for i in range(n)]
        text = (f"sort V;\npred P : V;\n"
                f"rule P(x0) & {' & '.join(links)} => P(x{n});\n")
        began = time.perf_counter()
        t = parse_theory(text)
        assert time.perf_counter() - began < 1.0
        assert {v.sort for v in sequent_vars(t.sequents[0])} == {"V"}
        assert len(t.sequents[0].premise.atoms) == n + 1

    def test_one_findall_reads_a_theory(self, monkeypatch):
        """One ``findall`` reads every token of a theory, flat rules and
        declarations alike."""
        pattern = syntax._TOKENS_RE
        calls = []

        class Counted:  # a valid theory is never read again
            def findall(self, text):
                calls.append(text)
                return pattern.findall(text)

        monkeypatch.setattr(syntax, "_TOKENS_RE", Counted())
        text = TRANSITIVITY + "rule E(u, v) => E(v, u);\n"
        parse_theory(text)
        assert calls == [text]


class TestOneCharacterRule:
    def test_theory_and_facts_readers_agree(self):
        """Each ASCII character, ``é``, and the blanks ``\\u00a0`` and
        ``\\u2028`` of ``\\s``, at one spot of a theory text and of a facts
        text: each reader gives its reference's outcome, error message and
        place."""
        sig = parse_theory(TRANSITIVITY).signature

        def facts_outcome(parse, text):
            try:
                x, names = parse(text, sig)
            except ParseError as err:
                return "ParseError", str(err)
            return x.rels, names

        seen = {"ok": 0, "unexpected character": 0}
        for char in [chr(i) for i in range(128)] + ["é", "\u00a0", "\x1c",
                                                    "\u2028"]:
            theory = TRANSITIVITY + f"rule E(x,{char} y) => E(y, x);\n"
            want = _outcome(reference_parse_theory, theory)
            assert _outcome(parse_theory, theory) == want, repr(char)
            facts = f"sort V: a b;\nE(a,{char} b);\n"
            assert facts_outcome(parse_facts, facts) == \
                facts_outcome(reference_parse_facts, facts), repr(char)
            if want[0][0] != "ParseError":
                seen["ok"] += 1
            elif "unexpected character" in want[0][1]:
                seen["unexpected character"] += 1
        assert seen["ok"] >= 8 and seen["unexpected character"] >= 30, seen


@pytest.mark.parametrize("call, want", [
    # A variable where an atom belongs, reached through its formula.
    (lambda: is_rhl(Formula((Var("x", "V"),))),
     ("TypeError", "is_rhl: unsupported Var")),
    (lambda: pretty_print(Formula()),
     ("TypeError", "pretty_print: unsupported Formula")),
])
def test_unsupported_types(call, want):
    """``is_rhl`` takes atoms, formulas, sequents and theories, and
    ``pretty_print`` theories and sequents; anything else is refused."""
    assert call_outcome(call) == want
