import random
import time

import pytest

from helpers import raw_count, reference_parse_facts, reference_parse_theory
from horneq import facts
from horneq.core import RelDecl, Signature, Structure
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
    """The exact ``line:col: message`` of each error.  As the theory
    parser does, the facts parser names the end of input ``'end of
    input'``."""

    @pytest.mark.parametrize("text, message", [
        ("# facts\n\nsort V: a b;\n\tE(a, c);\n", "4:7: unknown element 'c'"),
        ("sort V: a;\n# $ in a comment\nE(a, @);\n",
         "3:6: unexpected character '@'"),
        ("sort V: a b;\nE(a, b)\n# end\n", "4:1: expected ';', found 'end of input'"),
        ("sort V: a b;\nE(a, b)", "2:8: expected ';', found 'end of input'"),
        ("sort V: a;\n\n  \tF(a);\n", "3:4: unknown relation 'F'"),
        ("sort V: a b;\n\ta = \n  c;\n", "3:3: unknown element 'c'"),
        # after facts the fast path read, with no line count from the top
        ("sort V: a b;\nE(a, b);\nE(b, a); E(a, a);\n\nE(b,\tc);\n",
         "5:6: unknown element 'c'"),
        # a fact split across lines, then a bad one on its last line
        ("sort V: a b;\nE(a,\n  b\n);  E(b, b, a);\n",
         "4:5: relation 'E' expects 2 arguments, got 3"),
        ("sort V: a b;\nE(a, # the source\n\n   q # and no target\n);\n",
         "4:4: unknown element 'q'"),
        # a bad character right after a statement that fails a check made
        # after its ``;``: the bad character is the error
        ("sort V: a b;\nE(a, b, a); @\n", "2:13: unexpected character '@'"),
        ("sort V: a;\na = b;$", "2:7: unexpected character '$'"),
    ])
    def test_message_and_position(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_facts(text, SIG)
        assert str(err.value) == message


class TestMergedSection:
    """``eval`` output ends in ``old -> new`` lines under ``merged:``, each
    an alias for the element of a declared name."""

    def test_alias_binds_survivor(self):
        x, names = parse_facts(
            "sort V: a c;\nE(a, c);\nmerged:\n  b -> a\n  d -> c\n", SIG)
        assert x.element_count("V") == raw_count(x, "V") == 2
        assert names["b"] == names["a"] and names["d"] == names["c"]
        assert list(names) == ["a", "c", "b", "d"]

    def test_relation_named_merged(self):
        sig = Signature(("V",), (RelDecl("merged", ("V",)),))
        x, names = parse_facts(
            "sort V: a;\nmerged(a);\nmerged:\n  b -> a\n", sig)
        assert x.rels["merged"] == {(names["a"],)}
        assert names["b"] == names["a"]

    @pytest.mark.parametrize("text, message", [
        ("sort V: a;\nmerged:\n  b -> c\n", "3:8: unknown element 'c'"),
        ("sort V: a b;\nmerged:\n  b -> a\n",
         "3:3: element name 'b' already declared"),
        ("sort V: a;\nmerged:\n  b -> a\nE(a, a);\n",
         "4:2: expected '->', found '('"),
        ("sort V: a;\nmerged:\n  b a\n", "3:5: expected '->', found 'a'"),
        ("sort V: a;\nmerged:\n  b -> a\nreport:\n  iterations: 1\n",
         "4:7: expected '->', found ':'"),
        ("sort V: a;\nreport:\n  iterations: 1\n",
         "2:1: unknown relation 'report'"),
    ])
    def test_rejects(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_facts(text, SIG)
        assert str(err.value) == message


DIFF_SIG = Signature(("A", "B"), (
    RelDecl("E", ("A", "A")), RelDecl("F", ("A", "B")), RelDecl("P", ("A",)),
    RelDecl("T", ("A", "A", "A")), RelDecl("Z", ())))

# What goes between two tokens; the comments name elements and symbols.
GAPS = ["", " ", "\t", "\n", " \n\t ", "# a0\n", " # E(a0, a1);\n", "#\n",
        "\t#, b0 ) ;\n  "]


def _facts_text(rng: random.Random) -> tuple[str, list[int]]:
    """A valid facts text over ``DIFF_SIG``, and the offsets of the names
    in its facts and equations.  It holds sort lines, facts (some
    repeated, some split one argument a line, some with a comment naming
    an element inside the argument list) and equations, with a random
    gap before every token."""
    declared = {"A": [f"a{i}" for i in range(rng.randint(1, 4))],
                "B": [f"b{i}" for i in range(rng.choice((0, 2, 3)))]}
    statements = [["sort", s, ":", *ns, ";"] for s, ns in declared.items()]
    rng.shuffle(statements)
    facts_so_far: list[list[str]] = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.1 and facts_so_far:
            statements.append(rng.choice(facts_so_far))
        elif kind < 0.25:
            sort = rng.choice([s for s, ns in declared.items() if ns])
            statements.append([rng.choice(declared[sort]), "=",
                               rng.choice(declared[sort]), ";"])
        else:
            rel = rng.choice([r for r in DIFF_SIG.relations
                              if all(declared[s] for s in r.arity)])
            args = [rng.choice(declared[s]) for s in rel.arity]
            if rng.random() < 0.4:  # one argument a line
                body = [f"\n  {a}," for a in args]
                if body:
                    body[-1] = body[-1][:-1]
                fact = [rel.name, "(", *body, "\n)", ";"]
            else:
                body = []
                for a in args:
                    body.append(a)
                    if rng.random() < 0.3:
                        body.append(f"#{rng.choice(declared['A'])}\n")
                    body.append(",")
                fact = [rel.name, "(", *body[:-1], ")", ";"]
            facts_so_far.append(fact)
            statements.append(fact)
    out: list[str] = []
    spots = []
    size = 0
    for tokens in statements:
        for tok in tokens:
            gap = rng.choice(GAPS)
            if (not gap.strip(" \t\n") and out and out[-1][-1:].isalnum()
                    and tok[0].isalnum()):
                gap += " "  # keep two names apart
            size += len(gap)
            name = tok.lstrip()
            if tokens[0] != "sort" and name[:1].isalpha():
                spots.append(size + len(tok) - len(name))
            out += [gap, tok]
            size += len(tok)
    out.append(rng.choice(GAPS + ["# last comment, no newline"]))
    return "".join(out), spots


def _mutated(rng: random.Random, text: str, spots: list[int]) -> str:
    """``text`` with one character deleted, inserted or replaced.  Half
    the edits hit the first letter of a name: a new letter can change a
    fact's relation or an argument's sort, and a ``#`` before a name can
    leave a fact one argument short but still well formed."""
    op = rng.random()
    if op < 0.5 and spots:
        i = rng.choice(spots)
        if op < 0.25:
            return text[:i] + "#" + text[i:]
        return text[:i] + rng.choice("abEFPTZ".replace(text[i], "")) \
            + text[i + 1:]
    i = rng.randrange(len(text) + 1)
    char = rng.choice("ab01_,;:=()#@- \n\tE")
    if op < 4 / 6 and i < len(text):
        return text[:i] + text[i + 1:]
    if op < 5 / 6 and i < len(text):
        return text[:i] + char + text[i + 1:]
    return text[:i] + char + text[i:]


def _outcome(parse, text: str, sig: Signature = DIFF_SIG):
    try:
        x, names = parse(text, sig)
    except Exception as err:  # compared by type and message
        return type(err).__name__, str(err)
    return (x.rels, {s: raw_count(x, s) for s in sig.sorts}, names)


class TestDifferential:
    def test_equals_token_reader(self, monkeypatch):
        """Seeded valid texts and one-character mutations of them: the
        loader plus token reader against the token reader alone.  Each
        tuple that the loader stores counts as a fast fact."""
        counts = {"fast": 0, "deferred": 0}
        store_all, statement = Structure.store_all, facts._Reader.statement

        def counted_store_all(x, rel, cts):
            counts["fast"] += len(cts)
            return store_all(x, rel, cts)

        def counted_statement(*args):
            counts["deferred"] += 1
            return statement(*args)

        monkeypatch.setattr(Structure, "store_all", counted_store_all)
        monkeypatch.setattr(facts._Reader, "statement", counted_statement)
        rng = random.Random(5)
        errors = 0
        for _ in range(600):
            text, spots = _facts_text(rng)
            for case in (text, _mutated(rng, text, spots),
                         _mutated(rng, text, spots)):
                want = _outcome(reference_parse_facts, case)
                assert _outcome(parse_facts, case) == want, case
                errors += want[0] == "ParseError"
        assert counts["fast"] > 400 and counts["deferred"] > 2000
        assert errors > 200

    def test_deferred_statements_share_one_reader(self, monkeypatch):
        """A run of statements that the fast path defers is read by one
        token reader, not one reader a statement."""
        made = []
        init = facts._Reader.__init__

        def counted_init(self, *args):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(facts._Reader, "__init__", counted_init)
        n = 1000
        text = (f"sort V: {' '.join(f'a{i}' for i in range(n + 1))};\n"
                + "".join(f"a{i} = a{i + 1};\n" for i in range(n)))
        x, names = parse_facts(text, SIG)
        assert len(made) == 1
        assert x.element_count("V") == 1 and len(set(names.values())) == 1

    def test_relation_named_sort(self):
        """Not a fact: a statement that starts with ``sort`` is a sort
        line."""
        sig = Signature(("A",), (RelDecl("sort", ("A",)),))
        text = "sort A: a;\nsort(a);\n"
        want = "2:5: expected identifier, found '('"
        for parse in (reference_parse_facts, parse_facts):
            with pytest.raises(ParseError) as err:
                parse(text, sig)
            assert str(err.value) == want

    def test_element_named_sort(self):
        """An element may be named ``sort``, and stand on either side of
        ``=``: a statement is an equation before it is a sort line."""
        text = "sort V: sort b c;\nE(sort, b);\nsort = b;\nc = sort;\n"
        for parse in (reference_parse_facts, parse_facts):
            x, names = parse(text, SIG)
            assert len(set(names.values())) == 1, parse
            assert x.rels["E"] == {(names["b"], names["b"])}


class TestEndOfInput:
    """Each proper prefix of a valid theory and of a valid facts text: each
    reader gives its reference's outcome, and an error located at the end
    of the text that names the token it found names ``'end of input'``,
    in both readers."""

    THEORY = ("# a theory\nsort V;\npred E : V * V;\nfunc f : V -> V;\n"
              "rule E(x, y) & f(x)! => E(y, x) & f(y) = x;  # c\n"
              "pred P : ;\nrule P() => E(z, z);\n")
    FACTS = ("sort V: sort b c;\nE(sort, b);  # c\nE(b,\n  c);\n"
             "sort = b;\nE(c, c);\n")

    @staticmethod
    def _check(parse, reference, text: str) -> int:
        """Check that every prefix of ``text`` reads as ``reference``
        reads it; the number whose error names what it found at the
        end."""
        at_end = 0
        for n in range(len(text)):
            prefix = text[:n]
            want = reference(prefix)
            assert parse(prefix) == want, prefix
            if want[0] != "ParseError":
                continue
            end = "{}:{}: ".format(prefix.count("\n") + 1,
                                   n - prefix.rfind("\n"))
            if want[1].startswith(end) and "found" in want[1]:
                at_end += 1
                assert "found 'end of input'" in want[1], prefix
        return at_end

    def test_theory(self):
        def outcome(parse, text):
            try:
                return "Theory", parse(text)
            except ParseError as err:
                return "ParseError", str(err)
        assert self._check(lambda text: outcome(parse_theory, text),
                           lambda text: outcome(reference_parse_theory, text),
                           self.THEORY) > 30

    def test_facts(self):
        assert self._check(lambda text: _outcome(parse_facts, text, SIG),
                           lambda text: _outcome(reference_parse_facts,
                                                 text, SIG),
                           self.FACTS) > 30


# ``DIFF_SIG`` and a relation named ``sort``, which no fact can name: a
# statement that starts with ``sort`` is a sort line.
RUN_SIG = Signature(DIFF_SIG.sorts,
                    DIFF_SIG.relations + (RelDecl("sort", ("A",)),))

# Facts that the loader rejects; the token reader raises on each.
BAD_FACTS = ["sort(a0);", "E(a0,);", "E(a0, b0);", "E(a0);", "Q(a0);",
             "E(a0, zz);", "Z(a0);", "E(a0 a1, a2);", "P(a0, @);",
             "P();", "T(a0, a1 , , a2);"]


def _runs_text(rng: random.Random) -> str:
    """Runs of plain facts over ``RUN_SIG``, some longer than the loader's
    chunk, with an equation or a sort line between two runs, nullary
    ``Z( );`` among the facts, and, in most texts, one fact of
    ``BAD_FACTS`` at a random position.  The text ends in a fact, with or
    without a newline."""
    declared = {"A": [f"a{i}" for i in range(5)], "B": ["b0", "b1"]}
    lines = [f"sort {s}: {' '.join(ns)};" for s, ns in declared.items()]
    for run in range(rng.randint(1, 4)):
        if run:
            if rng.random() < 0.7:
                lines.append("{} = {};".format(*rng.sample(declared["A"], 2)))
            else:
                declared["A"].append(f"a{len(declared['A'])}")
                lines.append(f"sort A: {declared['A'][-1]};")
        for _ in range(rng.randint(1, 2 * facts._CHUNK + 10)):
            rel = rng.choice(DIFF_SIG.relations)
            args = ", ".join(rng.choice(declared[s]) for s in rel.arity)
            lines.append(f"{rel.name}({args or rng.choice(['', ' '])});")
    if rng.random() < 0.7:
        lines.insert(rng.randrange(2, len(lines) + 1), rng.choice(BAD_FACTS))
    lines.append("P(a0);")
    return "\n".join(lines) + rng.choice(["", "\n"])


class TestLoader:
    def test_runs_equal_token_reader(self):
        """Seeded runs of facts: the loader plus token reader against the
        token reader alone, with each error's text and place."""
        rng = random.Random(15)
        outcomes = {"ok": 0, "ParseError": 0}
        for _ in range(80):
            text = _runs_text(rng)
            want = _outcome(reference_parse_facts, text, RUN_SIG)
            assert _outcome(parse_facts, text, RUN_SIG) == want, text
            outcomes[want[0] if want[0] == "ParseError" else "ok"] += 1
        assert min(outcomes.values()) > 15

    def test_reader_reads_the_rejected_chunk(self, monkeypatch):
        """A run of 100 facts whose 71st names an unknown element: the
        loader adds the full chunks before it, and the token reader reads
        the sort line, then at most ``_CHUNK`` facts of the rejected chunk
        up to that one, and raises at its own offset."""
        lines = ["sort V: a b;"] + ["E(a, b);"] * 100
        lines[71] = "E(a, c);"
        text = "\n".join(lines) + "\n"
        read, statement = [], facts._Reader.statement

        def recorded(reader, x, *args):
            read.append(reader.start)
            if len(read) == 2:
                assert len(x.rels["E"]) == 1  # the 70 facts are one tuple
            return statement(reader, x, *args)
        monkeypatch.setattr(facts._Reader, "statement", recorded)
        with pytest.raises(ParseError) as err:
            parse_facts(text, SIG)
        assert str(err.value) == "72:6: unknown element 'c'"
        assert read[0] == 0 and read[-1] == text.index("E(a, c)")
        assert len(read) <= facts._CHUNK + 2

    def test_plain_facts_skip_the_tuple_check(self, monkeypatch):
        """Loading 2000 plain facts calls neither ``add_tuple`` nor
        ``_check_tuple``: the loader's name tables check every sort."""
        rng = random.Random(2)
        text = ("sort V: " + " ".join(f"v{i}" for i in range(100)) + ";\n"
                + "".join(f"E(v{rng.randrange(100)}, v{rng.randrange(100)});\n"
                          for _ in range(2000)))
        want = reference_parse_facts(text, SIG)

        def refused(*args):
            raise AssertionError("a plain fact was checked one by one")
        monkeypatch.setattr(Structure, "add_tuple", refused)
        monkeypatch.setattr(Structure, "_check_tuple", refused)
        x, names = parse_facts(text, SIG)
        assert (x.rels, names) == (want[0].rels, want[1])

    def test_read_facts_skip_the_tuple_check(self, monkeypatch):
        """A fact the loader rejects goes to the token reader, which checks
        its arity and sorts itself and stores it without ``_check_tuple``,
        also after a merge."""
        text = "sort V: a b c;\nE(a, # c\n b);\nb = c;\nE(c, # c\n a);\n"
        want = reference_parse_facts(text, SIG)

        def refused(*args):
            raise AssertionError("a read fact was checked twice")
        monkeypatch.setattr(Structure, "_check_tuple", refused)
        x, names = parse_facts(text, SIG)
        assert (x.rels, names) == (want[0].rels, want[1])
        assert len(x.rels["E"]) == 2

    def test_failed_match_is_linear(self):
        """Comments after ``(`` in a fact that never closes: a match that
        backtracked quadratically through them would take seconds."""
        text = "sort V: a;\nE(" + "# c\n" * 20000 + " a, a x"
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_facts(text, SIG)
        assert time.perf_counter() - start < 1
        assert str(err.value) == "20002:7: expected ')', found 'x'"


def _commented_runs_text(rng: random.Random) -> str:
    """Runs of plain facts over ``RUN_SIG``, each longer than the loader's
    chunk, with comment lines between facts and comments inside some
    facts: after ``(``, before ``)`` or between two arguments, which the
    token reader reads.  Most texts hold one fact of ``BAD_FACTS`` at a
    random position."""
    declared = {"A": [f"a{i}" for i in range(5)], "B": ["b0", "b1"]}
    lines = [f"sort {s}: {' '.join(ns)};" for s, ns in declared.items()]
    for run in range(rng.randint(1, 3)):
        if run:
            lines.append("{} = {};".format(*rng.sample(declared["A"], 2)))
        for _ in range(rng.randint(facts._CHUNK + 1, 2 * facts._CHUNK + 10)):
            if rng.random() < 0.02:
                lines.append(rng.choice(["# a comment line", "#", "  # E(",
                                         "# P(a0);"]))
            rel = rng.choice(DIFF_SIG.relations)
            args = [rng.choice(declared[s]) for s in rel.arity]
            body = ", ".join(args)
            comment = rng.choice(["# c\n", " # P(a0);\n", "#\n  "])
            where = rng.random()
            if where < 0.01:  # after ``(``
                body = comment + body
            elif where < 0.02:  # before ``)``
                body += comment
            elif where < 0.03:  # between two arguments, if there are two
                body = body.replace(", ", f" {comment}, ", 1)
            lines.append(f"{rel.name}({body});")
    if rng.random() < 0.7:
        lines.insert(rng.randrange(2, len(lines) + 1), rng.choice(BAD_FACTS))
    lines.append("P(a0);")
    return "\n".join(lines) + rng.choice(["", "\n"])


class TestCommentedRuns:
    def test_equal_token_reader(self, monkeypatch):
        """Seeded runs of facts with comments: the loader plus token reader
        against the token reader alone, with each error's text and place.
        In the texts without an error, where every fact read is loaded,
        the loader loads facts."""
        read = {"run": 0}

        class Recorded:
            def __init__(self, pattern, path):
                self.pattern, self.path = pattern, path

            def findall(self, *args):
                found = self.pattern.findall(*args)
                read[self.path] += len(found)
                return found
        monkeypatch.setattr(facts, "_PLAIN_RE",
                            Recorded(facts._PLAIN_RE, "run"))
        rng = random.Random(17)
        outcomes = {"ok": 0, "ParseError": 0}
        loaded = {"run": 0}
        for _ in range(100):
            text = _commented_runs_text(rng)
            want = _outcome(reference_parse_facts, text, RUN_SIG)
            before = dict(read)
            assert _outcome(parse_facts, text, RUN_SIG) == want, text
            if want[0] == "ParseError":
                outcomes["ParseError"] += 1
            else:
                outcomes["ok"] += 1
                for path in loaded:
                    loaded[path] += read[path] - before[path]
        assert min(outcomes.values()) > 15
        assert loaded["run"] > 2000, loaded


def _sort_lines_text(rng: random.Random) -> str:
    """Sort lines over ``DIFF_SIG`` of 0-150 names each, split across
    lines, then facts that name some of them.  A line may hold a comment
    between two names, names spelled ``sort`` or ``merged``, a name twice,
    a name of an earlier line, an unknown sort, no ``;``, or a bad
    character right after its ``;``."""
    lines, earlier, fresh = [], [], iter(range(10 ** 6))
    for _ in range(rng.randint(1, 4)):
        sort = rng.choice(["A", "B"])
        run = [f"{sort.lower()}{next(fresh)}"
               for _ in range(rng.randint(0, 150))]
        defect = rng.random()
        if defect < 0.1:
            at = rng.randint(0, len(run))
            run.insert(at, rng.choice(["sort", "merged"]))
        elif defect < 0.18 and run:
            run.insert(rng.randint(0, len(run)), rng.choice(run))
        elif defect < 0.26 and earlier:
            run.insert(rng.randint(0, len(run)), rng.choice(earlier))
        elif defect < 0.3:
            sort = "C"
        earlier += run
        gaps = [rng.choice([" ", " ", "\n", "\t", " \n  "]) for _ in run]
        if defect > 0.9 and run:
            gaps[rng.randrange(len(gaps))] = " # a0;\n"
        end = rng.choice(["", " ", "\n"]) + ";"
        if 0.3 <= defect < 0.35:
            end = ""
        elif 0.35 <= defect < 0.4:
            end += rng.choice("@!$")
        lines.append(f"sort {sort}:" + "".join(
            gap + name for gap, name in zip(gaps, run)) + end)
    for _ in range(rng.randint(0, 3)):
        rel = rng.choice(DIFF_SIG.relations)
        pools = [[n for n in earlier if n[0] == s.lower()] or [s.lower()]
                 for s in rel.arity]
        lines.append(f"{rel.name}({', '.join(map(rng.choice, pools))});")
    return "\n".join(lines) + rng.choice(["", "\n"])


class TestSortLines:
    def test_equals_token_reader(self):
        """Seeded sort lines give the reference's outcome, error text and
        place, with indices in text order."""
        rng = random.Random(23)
        errors = 0
        for _ in range(300):
            text = _sort_lines_text(rng)
            want = _outcome(reference_parse_facts, text)
            got = _outcome(parse_facts, text)
            assert got == want, text
            if want[0] == "ParseError":
                errors += 1
                continue
            names = list(got[2].values())
            assert list(got[2]) == list(want[2])
            for s in DIFF_SIG.sorts:
                assert [e.index for e in names if e.sort == s] \
                    == list(range(want[1][s]))
        assert errors > 50

    def test_failed_match_is_linear(self):
        """A sort line of 20000 names that never reaches its ``;``: a match
        of the run that backtracked quadratically would take seconds."""
        text = "sort V:" + "".join(f" v{i}\n" for i in range(20000)) + "E(;"
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_facts(text, SIG)
        assert time.perf_counter() - start < 1
        assert str(err.value) == "20001:2: expected ';', found '('"


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
        t = parse_theory("sort V;\npred P : V;\nrule P(u) => P(v);")
        x, input_names = parse_facts("sort V: a;\nP(a);", t.signature)
        res, unit, _ = evaluate(t, x)
        names, merged = model_names(res, input_names, unit)
        assert set(names.values()) == {"a"}  # conclusion already satisfied

    @pytest.mark.parametrize("fmt", ["xml", "JSON", ""])
    def test_unknown_format(self, fmt):
        res, input_names, unit, _ = self.eval_chain()
        names, merged = model_names(res, input_names, unit)
        with pytest.raises(ValueError, match=f"^unknown format {fmt!r}$"):
            serialize_model(res, names, merged, fmt=fmt)

    def test_report_lines(self):
        """One ``name=value`` pair for each ``IterationStats`` field, in
        field order."""
        res, input_names, unit, rep = self.eval_chain()
        names, merged = model_names(res, input_names, unit)
        text = serialize_model(res, names, merged, report=report_dict(rep))
        assert text.endswith(
            "report:\n  iterations: 2\n  fixed_point: True\n"
            "  iteration 1: matches=1 tuples_added=1 merges=0 "
            "elements_created=0\n"
            "  iteration 2: matches=0 tuples_added=0 merges=0 "
            "elements_created=0\n")

    def test_deterministic_bytes(self):
        outs = set()
        for _ in range(3):
            res, input_names, unit, rep = self.eval_chain()
            names, merged = model_names(res, input_names, unit)
            outs.add(serialize_model(res, names, merged, fmt="json",
                                     report=report_dict(rep)))
        assert len(outs) == 1
