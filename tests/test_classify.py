import random
import time
import warnings

import pytest

from horneq.classify import (FreshVars, classify_sequent, classifying_morphism,
                             classifying_structure, flatten_formula,
                             flatten_sequent, flatten_theory,
                             functionality_sequent, functionality_theory,
                             relationalize, sequent_from_morphism,
                             strengthen_theory)
from horneq.core import Morphism, RelDecl, Signature, SignatureError, Structure
from horneq.engine import EvalConfig, evaluate, satisfies_theory
from horneq.oracle import is_injective_to, is_orthogonal_to, satisfies_phl
from horneq.syntax import (App, DefinedAtom, EqualAtom, Formula, RelAtom,
                           Sequent, Theory, Var, VacuousSequentWarning,
                           formula_vars, parse_theory, pretty_print)

from helpers import (call_outcome, compile_style_text, enumerate_structures,
                     identity, is_homomorphism, morphisms_isomorphic,
                     random_signature, random_structure, random_theory,
                     reference_strengthen_theory)


TRANSITIVITY = parse_theory("""
sort V;
pred E : V * V;
rule E(u, v) & E(v, w) => E(u, w);
""")

MONOID = parse_theory("""
sort M;
func op : M * M -> M;
rule op(op(x, y), z)! & op(x, op(y, z))! => op(op(x, y), z) = op(x, op(y, z));
""")


class TestFlattening:
    def test_nested_term_flattening(self):
        sig = MONOID.signature
        rel_sig = relationalize(sig)
        s = MONOID.sequents[0]
        flat = flatten_sequent(s, rel_sig)
        printed = pretty_print(flat)
        assert printed == (
            "rule op(x, y, _u0) & op(_u0, z, _u1) & _u1! & "
            "op(y, z, _u2) & op(x, _u2, _u3) & _u3! "
            "=> op(x, y, _u4) & op(_u4, z, _u5) & "
            "op(y, z, _u6) & op(x, _u6, _u7) & _u5 = _u7;")

    def test_counter_shared_premise_first(self):
        sig = MONOID.signature
        flat = flatten_sequent(MONOID.sequents[0], relationalize(sig))
        premise_names = [v.name for v in formula_vars(flat.premise)
                         if v.name.startswith("_u")]
        conclusion_names = [v.name for v in formula_vars(flat.conclusion)
                            if v.name.startswith("_u")]
        assert premise_names == ["_u0", "_u1", "_u2", "_u3"]
        assert conclusion_names == ["_u4", "_u5", "_u6", "_u7"]

    def test_fresh_vars_skip_used_names(self):
        fresh = FreshVars({"_u0", "_u2"})
        assert fresh.next("V").name == "_u1"
        assert fresh.next("V").name == "_u3"

    def test_flatten_is_rhl(self):
        from horneq.syntax import is_rhl
        flat = flatten_theory(MONOID)
        assert is_rhl(flat)
        assert all(r.kind == "pred" for r in flat.signature.relations)

    def test_flatten_with_functionality(self):
        flat = flatten_theory(MONOID, with_functionality=True)
        assert len(flat.sequents) == 2
        func = flat.sequents[-1]
        assert pretty_print(func) == \
            "rule op(v1, v2, u0) & op(v1, v2, u1) => u0 = u1;"


class TestClassifyingStructures:
    def test_premise_structure(self):
        sig = TRANSITIVITY.signature
        s = TRANSITIVITY.sequents[0]
        x, interp = classifying_structure(s.premise, sig)
        assert x.element_count("V") == 3
        assert x.total_tuple_count() == 2
        u, v, w = formula_vars(s.premise)
        assert x.has_tuple("E", (interp[u], interp[v]))
        assert x.has_tuple("E", (interp[v], interp[w]))

    def test_equality_atoms_merge(self):
        sig = TRANSITIVITY.signature
        u, v = Var("u", "V"), Var("v", "V")
        f = Formula((RelAtom(sig.relation("E"), (u, v)), EqualAtom(u, v)))
        x, interp = classifying_structure(f, sig)
        assert x.element_count("V") == 1
        assert interp[u] == interp[v]

    def test_classifying_morphism_transitivity(self):
        sig = TRANSITIVITY.signature
        f = classifying_morphism(TRANSITIVITY.sequents[0], sig)
        assert f.dom.total_tuple_count() == 2
        assert f.cod.total_tuple_count() == 3
        assert f.is_injective() and f.is_surjective()
        assert is_homomorphism(f)

    def test_classifying_morphism_merges_on_equality_conclusion(self):
        t = parse_theory("sort V;\npred E : V * V;\n"
                         "rule E(u, v) & E(v, u) => u = v;\n")
        f = classifying_morphism(t.sequents[0], t.signature)
        assert f.dom.element_count("V") == 2
        assert f.cod.element_count("V") == 1
        assert not f.is_injective()

    def test_satisfaction_is_injectivity(self):
        rng = random.Random(11)
        from horneq.engine import satisfies
        from helpers import random_sequent
        for _ in range(60):
            sig = random_signature(rng)
            s = random_sequent(rng, sig)
            x = random_structure(rng, sig)
            f = classifying_morphism(s, sig)
            assert satisfies(x, s) == is_injective_to(x, f)


class TestSequentFromMorphism:
    def _round_trip(self, f):
        s = sequent_from_morphism(f)
        g = classifying_morphism(s, f.dom.sig)
        assert morphisms_isomorphic(f, g), s

    def test_round_trip_random(self):
        from horneq.oracle import enumerate_morphisms
        rng = random.Random(5)
        done = 0
        while done < 25:
            sig = random_signature(rng)
            a = random_structure(rng, sig, max_elements=2)
            b = random_structure(rng, sig, max_elements=2)
            ms = list(enumerate_morphisms(a, b))
            if not ms:
                continue
            self._round_trip(rng.choice(ms))
            done += 1

    def test_non_surjective_morphism(self):
        sig = TRANSITIVITY.signature
        a = Structure(sig)
        b = Structure(sig)
        p = b.add_element("V")
        q = b.add_element("V")
        b.add_tuple("E", (p, q))
        f = Morphism(a, b, {})
        s = sequent_from_morphism(f)
        assert formula_vars(s.premise) == []
        assert len(formula_vars(s.conclusion)) == 2
        self._round_trip(f)

    def test_identity_gives_trivial_conclusion(self):
        sig = TRANSITIVITY.signature
        x = random_structure(random.Random(1), sig)
        s = sequent_from_morphism(identity(x))
        assert s.conclusion.atoms == ()

    @pytest.mark.parametrize("text, printed", [
        ("sort V;\npred E : V * V;\nrule E(u, v) & E(v, w) => E(u, w);",
         "rule _e_V_0! & _e_V_1! & _e_V_2! & E(_e_V_0, _e_V_1) & "
         "E(_e_V_1, _e_V_2) => E(_e_V_0, _e_V_2);"),
        ("sort V;\npred E : V * V;\nrule E(u, v) & E(v, u) => u = v;",
         "rule _e_V_0! & _e_V_1! & E(_e_V_0, _e_V_1) & E(_e_V_1, _e_V_0) "
         "=> E(_e_V_0, _e_V_0) & _e_V_0 = _e_V_1;"),
        ("sort V;\nsort W;\npred E : V * W;\n"
         "rule E(u, v) => E(u, w) & E(x, v);",
         "rule _e_V_0! & _e_W_0! & E(_e_V_0, _e_W_0) => _n_V_1! & _n_W_1! & "
         "E(_e_V_0, _n_W_1) & E(_n_V_1, _e_W_0);"),
    ])
    def test_printed_classifying_morphism(self, text, printed):
        t = parse_theory(text)
        f = classifying_morphism(t.sequents[0], t.signature)
        assert pretty_print(sequent_from_morphism(f)) == printed

    def test_identity_on_long_path_is_fast(self):
        sig = TRANSITIVITY.signature
        x = Structure(sig)
        els = [x.add_element("V") for _ in range(2000)]
        for a, b in zip(els, els[1:]):
            x.add_tuple("E", (a, b))
        start = time.perf_counter()
        s = sequent_from_morphism(identity(x))
        assert time.perf_counter() - start < 1.0
        assert len(s.premise.atoms) == 2000 + 1999
        assert s.conclusion.atoms == ()


class TestClassification:
    def check(self, text, **expected):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VacuousSequentWarning)
            t = parse_theory(text)
        flags = classify_sequent(t.sequents[0])
        for key, value in expected.items():
            assert getattr(flags, key) == value, key

    def test_datalog(self):
        self.check("sort V;\npred E : V * V;\n"
                   "rule E(u, v) & E(v, w) => E(u, w);",
                   is_rhl=True, datalog=True, datalog_sortquant=True,
                   datalog_choice=True, surjective=True, injective=True,
                   epic_phl=True)

    def test_sortquant_not_datalog(self):
        self.check("sort V;\npred E : V * V;\nrule v! => E(v, v);",
                   datalog=False, datalog_sortquant=True, surjective=True)

    def test_choice_not_surjective(self):
        self.check("sort V;\npred E : V * V;\nrule v! => E(v, w);",
                   datalog_choice=True, datalog_sortquant=False,
                   surjective=False, epic_phl=False, injective=True)

    def test_equality_conclusion_not_injective(self):
        self.check("sort V;\npred E : V * V;\n"
                   "rule E(u, v) & E(v, u) => u = v;",
                   injective=False, surjective=True, datalog_choice=False)

    def test_phl_sequent_not_rhl(self):
        s = MONOID.sequents[0]
        flags = classify_sequent(s)
        assert not flags.is_rhl
        assert flags.epic_phl  # all conclusion variables occur in the premise

    def test_phl_conclusion_only_variable_not_epic(self):
        t = parse_theory("sort M;\nfunc f : M -> M;\npred P : M;\n"
                         "rule P(x) => P(y);")
        assert not classify_sequent(t.sequents[0]).epic_phl


class TestGeneratedSequents:
    def test_functionality(self):
        sig = MONOID.signature
        s = functionality_sequent(sig.relation("op"), relationalize(sig))
        assert pretty_print(s) == \
            "rule op(v1, v2, u0) & op(v1, v2, u1) => u0 = u1;"
        assert classify_sequent(s).surjective

    def test_functionality_theory_one_per_function(self):
        t = parse_theory("sort M;\nfunc f : M -> M;\nfunc c : -> M;\n"
                         "pred P : M;\nrule P(x) => P(x);")
        ft = functionality_theory(t.signature)
        assert len(ft.sequents) == 2
        assert pretty_print(ft.sequents[1]) == "rule c(u0) & c(u1) => u0 = u1;"

    def test_models_are_the_functional_structures(self):
        """A structure satisfies ``functionality_theory`` iff no two
        tuples of a graph share their arguments."""
        sig = parse_theory("sort M;\nfunc f : M -> M;\nfunc c : -> M;\n"
                           "func op : M * M -> M;").signature
        ft = functionality_theory(sig)
        rng = random.Random(31)
        seen = set()
        for _ in range(60):
            x = Structure(ft.signature)
            els = [x.add_element("M") for _ in range(rng.randint(1, 3))]
            for r in sig.functions():
                for _ in range(rng.randint(0, 3)):
                    x.add_tuple(r.name, tuple(rng.choice(els) for _ in
                                              range(len(r.arg_sorts) + 1)))
            functional = all(len({g[:-1] for g in x.rels[r.name]})
                             == len(x.rels[r.name]) for r in sig.functions())
            assert satisfies_theory(x, ft) == functional
            seen.add(functional)
        assert seen == {False, True}


class TestStrengthening:
    def test_surjective_theory_gets_trivial_extras(self):
        st = strengthen_theory(TRANSITIVITY)
        assert len(st.sequents) == 2
        assert st.sequents[1].conclusion.atoms == ()

    def test_models_equal_orthogonality_class(self):
        rng = random.Random(23)
        sig = Signature(("V",), (RelDecl("E", ("V", "V"), "pred"),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", VacuousSequentWarning)
            for _ in range(4):
                t = random_theory(rng, sig, max_sequents=2)
                st = strengthen_theory(t)
                fs = [classifying_morphism(s, sig) for s in t.sequents]
                for x in enumerate_structures(sig, 2):
                    lhs = satisfies_theory(x, st)
                    rhs = all(is_orthogonal_to(x, f) for f in fs)
                    assert lhs == rhs

    def test_rejects_phl(self):
        with pytest.raises(SignatureError):
            strengthen_theory(MONOID)


def _compile_style(rng: random.Random) -> Theory:
    """A compile-style theory over three sorts, declared out of
    alphabetical order."""
    text = compile_style_text(
        rng, ("Z", "A", "M"),
        [("f", ("A",), "Z"), ("g", ("Z", "A"), "A"), ("c", (), "A"),
         ("m", ("A", "Z"), "M")],
        [("P", ("A",)), ("Q", ("A", "Z")), ("R", ("Z", "M")), ("N", ())],
        {"Z": ["z", "y"], "A": ["a", "x"], "M": ["m0"]})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", VacuousSequentWarning)
        return parse_theory(text)


class TestStrengtheningDifferential:
    """``strengthen_theory`` prints the same bytes as the pushout route."""

    def _theories(self, rng: random.Random):
        for _ in range(400):
            sig = random_signature(rng, max_sorts=3)
            if rng.random() < 0.5:
                sig = Signature(tuple(reversed(sig.sorts)), sig.relations)
            yield random_theory(rng, sig, max_sequents=4,
                                surjective=rng.random() < 0.3)
        sig = Signature(("Z", "A"), (RelDecl("E", ("Z", "A")),
                                     RelDecl("F", ("A", "A")),
                                     RelDecl("G", ("Z",))))
        for _ in range(200):
            yield random_theory(rng, sig, max_sequents=4)
        for _ in range(100):
            yield flatten_theory(_compile_style(rng),
                                 with_functionality=rng.random() < 0.5)

    def test_equals_pushout_route(self):
        counts = dict.fromkeys(("non-injective", "existential",
                                "empty conclusion", "sequents"), 0)
        mismatches = []
        for t in self._theories(random.Random(2302)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", VacuousSequentWarning)
                got = strengthen_theory(t)
            want = reference_strengthen_theory(t)
            if pretty_print(got) != pretty_print(want):
                mismatches.append(pretty_print(t))
            for s, extra in zip(t.sequents, want.sequents[len(t.sequents):]):
                premise_vars = set(formula_vars(s.premise))
                counts["sequents"] += 1
                counts["non-injective"] += not classifying_morphism(
                    s, t.signature).is_injective()
                counts["existential"] += any(
                    v not in premise_vars for v in formula_vars(s.conclusion))
                counts["empty conclusion"] += not extra.conclusion.atoms
        assert mismatches == []
        assert counts["sequents"] > 1500
        assert counts["non-injective"] > 250
        assert counts["existential"] > 800
        assert counts["empty conclusion"] > 800

    def test_codiagonal_of_existential_rule(self):
        t = parse_theory("sort Z;\nsort A;\npred E : Z * A;\n"
                         "rule E(z, a) => E(y, a) & E(z, b);")
        extra = strengthen_theory(t).sequents[1]
        # The second copy of B's element i is numbered k + i, as in the
        # pushout; the equalities run in sorted El order, A before Z.
        assert pretty_print(extra) == (
            "rule _e_Z_0! & _e_Z_1! & _e_Z_3! & _e_A_0! & _e_A_1! & "
            "_e_A_3! & E(_e_Z_0, _e_A_0) & E(_e_Z_0, _e_A_1) & "
            "E(_e_Z_0, _e_A_3) & E(_e_Z_1, _e_A_0) & E(_e_Z_3, _e_A_0) "
            "=> _e_A_1 = _e_A_3 & _e_Z_1 = _e_Z_3;")


# op(x, y) = x & op(x, y) = y: flattened, op gets two results on (x, y).
_COLLAPSE = Formula(tuple(
    EqualAtom(App(MONOID.signature.relation("op"),
                  (Var("x", "M"), Var("y", "M"))), Var(v, "M"))
    for v in "xy"))


class TestPhlClassifying:
    """The classifying structure of a PHL formula: the classifying
    structure of its flattening, closed under ``functionality_theory``."""

    @staticmethod
    def _flat(f, rel_sig):
        """``f`` flattened, with fresh names that skip its variables'."""
        return flatten_formula(
            f, rel_sig, FreshVars({v.name for v in formula_vars(f)}))

    @staticmethod
    def _unit(flat, sig):
        """The unit from the classifying structure of ``flat`` to its
        closure, and the interpretation in its domain."""
        base, interp = classifying_structure(flat, relationalize(sig))
        _, unit, _ = evaluate(functionality_theory(sig), base, EvalConfig())
        return unit, interp

    @classmethod
    def _classify(cls, flat, sig):
        unit, interp = cls._unit(flat, sig)
        return unit.cod, {v: unit.apply(e) for v, e in interp.items()}

    def test_functionality_collapses_duplicate_results(self):
        sig = MONOID.signature
        op = sig.relation("op")
        x, y = Var("x", "M"), Var("y", "M")
        f = Formula((EqualAtom(App(op, (x, y)), x),
                     EqualAtom(App(op, (x, y)), y)))
        _, interp = self._classify(self._flat(f, relationalize(sig)), sig)
        assert interp[x] == interp[y]

    def test_classifying_morphism_phl_valid(self):
        sig = MONOID.signature
        flat = flatten_sequent(MONOID.sequents[0], relationalize(sig))
        dom, dom_interp = self._classify(flat.premise, sig)
        cod, cod_interp = self._classify(flat.premise & flat.conclusion, sig)
        f = Morphism(dom, cod,
                     {e: cod_interp[v] for v, e in dom_interp.items()})
        assert is_homomorphism(f)
        assert f.is_surjective()

    def test_closure_is_functional(self):
        """Flattening may give ``op`` two results on the same arguments;
        the closure satisfies ``functionality_theory``."""
        sig, rel_sig = MONOID.signature, relationalize(MONOID.signature)
        ft = functionality_theory(sig)
        s = MONOID.sequents[0]
        for f in (_COLLAPSE, s.premise & s.conclusion):
            unit, _ = self._unit(self._flat(f, rel_sig), sig)
            assert not satisfies_theory(unit.dom, ft)
            assert satisfies_theory(unit.cod, ft)

    def test_generic_models_of_the_monoid_sequent(self):
        """In the PHL oracle, the classifying structure of the premise
        fails the sequent, and that of premise & conclusion satisfies it."""
        sig, rel_sig = MONOID.signature, relationalize(MONOID.signature)
        s = MONOID.sequents[0]
        premise, _ = self._classify(self._flat(s.premise, rel_sig), sig)
        both, _ = self._classify(
            self._flat(s.premise & s.conclusion, rel_sig), sig)
        assert not satisfies_phl(premise, s)
        assert satisfies_phl(both, s)

    def test_functional_structures_are_orthogonal_to_the_unit(self):
        """The closure is the free functional structure on the classifying
        structure: into a structure that satisfies ``functionality_theory``
        every map extends along the unit in exactly one way."""
        sig, rel_sig = MONOID.signature, relationalize(MONOID.signature)
        ft = functionality_theory(sig)
        s = MONOID.sequents[0]
        units = [self._unit(self._flat(f, rel_sig), sig)[0]
                 for f in (_COLLAPSE, s.premise & s.conclusion)]
        rng = random.Random(29)
        for _ in range(30):
            x = Structure(rel_sig)
            els = [x.add_element("M") for _ in range(rng.randint(1, 2))]
            for a in els:
                for b in els:
                    if rng.random() < 0.7:
                        x.add_tuple("op", (a, b, rng.choice(els)))
            assert satisfies_theory(x, ft)
            for unit in units:
                assert is_orthogonal_to(x, unit)
        # Without functionality a map need not extend: op(a, b) is a and b.
        x = Structure(rel_sig)
        a, b = x.add_element("M"), x.add_element("M")
        x.add_tuple("op", (a, b, a))
        x.add_tuple("op", (a, b, b))
        assert not is_injective_to(x, units[0])


@pytest.mark.parametrize("call, want", [
    # The graph of ``op`` is a predicate: the function symbol is wanted.
    (lambda: functionality_sequent(
        relationalize(MONOID.signature).relation("op"),
        relationalize(MONOID.signature)),
     ("SignatureError", "op is not a function symbol")),
    # Built without the parser, so the sequent has no location to report.
    (lambda: strengthen_theory(Theory(MONOID.signature, (Sequent(
        MONOID.sequents[0].premise, MONOID.sequents[0].conclusion),))),
     ("SignatureError",
      "classifying structures are defined on RHL formulas")),
])
def test_classify_rejections(call, want):
    """The checks of ``classify`` that no other test reaches, each with
    its message."""
    assert call_outcome(call) == want


_SIG = Signature(("V", "W"), (RelDecl("E", ("V", "V")),
                              RelDecl("F", ("V", "W")),
                              RelDecl("f", ("V", "V"), "func")))
_E, _F, _f = (_SIG.relation(n) for n in ("E", "F", "f"))
_u, _v, _w, _q = Var("u", "V"), Var("v", "V"), Var("w", "W"), Var("q", "Q")


@pytest.mark.parametrize("premise, conclusion, message", [
    ((RelAtom(_E, (_u, _v)),), (RelAtom(RelDecl("G", ("V",)), (_u,)),),
     "unknown relation 'G'"),
    ((RelAtom(RelDecl("E", ("V",)), (_u,)),), (),
     "E: expected 2 components, got 1"),
    ((RelAtom(_E, (_u, _v)),), (RelAtom(_F, (_w, _u)),),
     "F: component of sort 'W', expected 'V'"),
    ((RelAtom(_F, (_u, _w)),), (EqualAtom(_u, _w),),
     "merging across sorts 'V'/'W'"),
    ((DefinedAtom(_u),), (RelAtom(_E, (_u, _q)),), "unknown sort 'Q'"),
    ((DefinedAtom(App(_f, (_u,))),), (),
     "classifying structures are defined on RHL formulas"),
    ((RelAtom(_f, (_u, _v)),), (),
     "classifying structures are defined on RHL formulas"),
    # Two faults: an unknown sort is found before any atom's fault, an
    # atom's fault in atom order, and a non-RHL atom before all else.
    ((RelAtom(RelDecl("E", ("V",)), (_u,)),), (DefinedAtom(_q),),
     "unknown sort 'Q'"),
    ((EqualAtom(_u, _w),), (RelAtom(RelDecl("G", ("V",)), (_u,)),),
     "merging across sorts 'V'/'W'"),
    ((DefinedAtom(_q),), (DefinedAtom(App(_f, (_u,))),),
     "classifying structures are defined on RHL formulas"),
])
@pytest.mark.parametrize("location", [None, (4, 2)])
def test_codiagonal_rejects_as_classifying_structure(premise, conclusion,
                                                     message, location):
    """``strengthen_theory`` raises the error of ``classifying_structure``
    on premise & conclusion, prefixed with the sequent's location."""
    s = Sequent(Formula(premise), Formula(conclusion), location=location)
    kind, want = call_outcome(
        lambda: classifying_structure(s.premise & s.conclusion, _SIG))
    assert (kind, want) == ("SignatureError", message)
    if location is not None:
        want = "4:2: " + want
    got = call_outcome(lambda: strengthen_theory(Theory(_SIG, (s,))))
    assert got == (kind, want)


def test_strengthening_builds_no_structure(monkeypatch):
    """A count fence: ``strengthen_theory`` makes no ``Structure`` and no
    ``merge``, where the pushout route makes both."""
    rng = random.Random(61)
    theories = [flatten_theory(_compile_style(rng), with_functionality=True)
                for _ in range(20)]
    counts = {"structures": 0, "merges": 0}
    init, merge = Structure.__init__, Structure.merge

    def counting_init(self, sig):
        counts["structures"] += 1
        init(self, sig)

    def counting_merge(self, a, b):
        counts["merges"] += 1
        return merge(self, a, b)

    monkeypatch.setattr(Structure, "__init__", counting_init)
    monkeypatch.setattr(Structure, "merge", counting_merge)
    for t in theories:
        strengthen_theory(t)
    assert counts == {"structures": 0, "merges": 0}
    for t in theories:  # the fence can fail: the reference trips it
        reference_strengthen_theory(t)
    assert counts["structures"] > 0 and counts["merges"] > 0
