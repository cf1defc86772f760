import random
import warnings

import pytest

from horneq.classify import (FreshVars, classify_sequent, classifying_morphism,
                             classifying_morphism_phl, classifying_structure,
                             classifying_structure_phl,
                             flatten_sequent, flatten_theory,
                             functionality_sequent, functionality_theory,
                             relationalize, sequent_from_morphism,
                             strengthen_theory, totality_sequent,
                             unflatten_formula)
from horneq.core import Morphism, RelDecl, Signature, SignatureError, Structure
from horneq.engine import satisfies_theory
from horneq.oracle import is_injective_to, is_orthogonal_to
from horneq.syntax import (App, DefinedAtom, EqualAtom, Formula, RelAtom,
                           Var, VacuousSequentWarning, formula_vars,
                           parse_theory, pretty_print)

from helpers import (enumerate_structures, morphisms_isomorphic,
                     random_signature, random_structure, random_theory)


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

    def test_unflatten_inverts_graph_atoms(self):
        sig = MONOID.signature
        rel_sig = relationalize(sig)
        op = sig.relation("op")
        x, y, r = Var("x", "M"), Var("y", "M"), Var("r", "M")
        flat = Formula((RelAtom(rel_sig.relation("op"), (x, y, r)),))
        back = unflatten_formula(flat, sig)
        assert back.atoms == (EqualAtom(App(op, (x, y)), r),)

    def test_flatten_unflatten_round_trip_shape(self):
        sig = MONOID.signature
        rel_sig = relationalize(sig)
        s = MONOID.sequents[0]
        flat = flatten_sequent(s, rel_sig)
        back = unflatten_formula(flat.premise, sig)
        assert all(isinstance(a, (EqualAtom, DefinedAtom))
                   for a in back.atoms)


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
        f.check_valid()

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
        s = sequent_from_morphism(Morphism.identity(x))
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

    def test_totality(self):
        sig = MONOID.signature
        s = totality_sequent(sig.relation("op"))
        assert pretty_print(s) == "rule v1! & v2! => op(v1, v2)!;"
        with pytest.raises(SignatureError):
            totality_sequent(RelDecl("P", ("M",), "pred"))


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


class TestPhlClassifying:
    def test_functionality_collapses_duplicate_results(self):
        sig = MONOID.signature
        op = sig.relation("op")
        x, y = Var("x", "M"), Var("y", "M")
        f = Formula((EqualAtom(App(op, (x, y)), x),
                     EqualAtom(App(op, (x, y)), y)))
        strct, interp = classifying_structure_phl(f, sig)
        assert interp[x] == interp[y]

    def test_classifying_morphism_phl_valid(self):
        f = classifying_morphism_phl(MONOID.sequents[0], MONOID.signature)
        f.check_valid()
        assert f.is_surjective()
