import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horneq.core import (El, Morphism, RelDecl, Signature, SignatureError,
                         Structure, coproduct, pushout, quotient_by_relation)
from horneq.oracle import (enumerate_morphisms, find_isomorphism,
                           is_total_function)

from helpers import (all_isomorphisms, full_scan_merge, random_signature,
                     random_structure)


SIG = Signature(("V",), (RelDecl("E", ("V", "V"), "pred"),))


def chain(n):
    x = Structure(SIG)
    els = [x.add_element("V") for _ in range(n)]
    for a, b in zip(els, els[1:]):
        x.add_tuple("E", (a, b))
    return x, els


class TestSignature:
    def test_duplicate_sorts_rejected(self):
        with pytest.raises(SignatureError):
            Signature(("V", "V"), ())

    def test_duplicate_relations_rejected(self):
        with pytest.raises(SignatureError):
            Signature(("V",), (RelDecl("E", ("V",), "pred"),
                               RelDecl("E", ("V",), "pred")))

    def test_unknown_sort_rejected(self):
        with pytest.raises(SignatureError):
            Signature(("V",), (RelDecl("E", ("W",), "pred"),))

    def test_function_arity_split(self):
        f = RelDecl("f", ("A", "B", "C"), "func")
        assert f.arg_sorts == ("A", "B")
        assert f.result_sort == "C"


class TestStructure:
    def test_merge_recanonicalizes_tuples(self):
        x, els = chain(3)
        x.merge(els[0], els[2])
        assert x.is_canonical()
        assert x.find(els[2]) == els[0]
        tuples = x.sorted_tuples("E")
        assert (els[0], els[1]) in tuples
        assert (els[1], els[0]) in tuples

    def test_merge_keeps_smaller_index(self):
        x = Structure(SIG)
        a, b = x.add_element("V"), x.add_element("V")
        assert x.merge(b, a) == a
        assert x.find(b) == a

    def test_merge_collapses_duplicate_tuples(self):
        x = Structure(SIG)
        a, b, c = (x.add_element("V") for _ in range(3))
        x.add_tuple("E", (a, c))
        x.add_tuple("E", (b, c))
        x.merge(a, b)
        assert x.total_tuple_count() == 1

    def test_add_tuple_wrong_sort(self):
        sig = Signature(("A", "B"), (RelDecl("R", ("A", "B"), "pred"),))
        x = Structure(sig)
        a = x.add_element("A")
        with pytest.raises(SignatureError):
            x.add_tuple("R", (a, a))

    def test_copy_is_independent(self):
        x, els = chain(2)
        y = x.copy()
        y.merge(els[0], els[1])
        assert x.find(els[1]) == els[1]
        assert y.find(els[1]) == els[0]

    def test_elements_are_canonical_and_ordered(self):
        x = Structure(SIG)
        els = [x.add_element("V") for _ in range(4)]
        x.merge(els[1], els[3])
        assert x.elements("V") == [els[0], els[1], els[2]]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    max_size=8),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_canonical_invariant_under_merges(self, edges, merges):
        x = Structure(SIG)
        els = [x.add_element("V") for _ in range(6)]
        for a, b in edges:
            x.add_tuple("E", (els[a], els[b]))
        for a, b in merges:
            x.merge(els[a], els[b])
        assert x.is_canonical()
        for t in x.rels["E"]:
            assert x.canonical(t) == t


class TestMergeDifferential:
    def test_use_list_merge_equals_full_scan(self):
        """Seeded random interleavings of add_element, add_tuple, merge and
        copy, each applied to a structure and to a twin that merges by full
        scan.  Tuples may name merged-away elements, and merges hit copies
        of merged structures (which start without use-lists) as well as
        merged structures after a copy was taken.  Each structure logs
        from its creation on: its logged tuples still stored are exactly
        the tuples stored since, and a merge logs what it rewrote."""
        merges_on_copies = merges_after_copy = 0

        def stored(x):
            return {(r, t) for r, ts in x.rels.items() for t in ts}

        for seed in range(300):
            rng = random.Random(seed)
            sig = random_signature(rng, max_sorts=2, max_rels=3)
            pairs = [(Structure(sig), Structure(sig))]
            pairs[0][0].log = []
            at_start = {id(pairs[0][0]): set()}
            merged, copies_of_merged, copied = set(), set(), set()
            for _ in range(50):
                x, ref = rng.choice(pairs)
                op = rng.random()
                if op < 0.2:
                    s = rng.choice(sig.sorts)
                    assert x.add_element(s) == ref.add_element(s)
                elif op < 0.55:
                    r = rng.choice(sig.relations)
                    if all(x.raw_count(s) for s in r.arity):
                        t = tuple(El(s, rng.randrange(x.raw_count(s)))
                                  for s in r.arity)
                        assert (x.add_tuple(r.name, t)
                                == ref.add_tuple(r.name, t))
                elif op < 0.9:
                    s = rng.choice(sig.sorts)
                    if x.raw_count(s):
                        a, b = (El(s, rng.randrange(x.raw_count(s)))
                                for _ in range(2))
                        if x.find(a) != x.find(b):
                            merges_on_copies += id(x) in copies_of_merged
                            merges_after_copy += id(x) in copied
                            merged.add(id(x))
                        n = len(x.log)
                        keep = x.merge(a, b)
                        want_keep, want = full_scan_merge(ref, a, b)
                        assert keep == want_keep
                        assert len(x.log) - n == len(want)
                        assert set(x.log[n:]) == want
                else:
                    y = x.copy()
                    assert y.log is None
                    y.log, at_start[id(y)] = [], stored(y)
                    if id(x) in merged:
                        copies_of_merged.add(id(y))
                        copied.add(id(x))
                    pairs.append((y, ref.copy()))
                assert x.rels == ref.rels
                assert x.is_canonical()
                assert ({(r, t) for r, t in x.log if t in x.rels[r]}
                        == stored(x) - at_start[id(x)])
        assert merges_on_copies > 100 and merges_after_copy > 100


class TestColimits:
    def test_coproduct_disjoint(self):
        x, _ = chain(2)
        y, _ = chain(3)
        z, (i, j) = coproduct([x, y])
        assert z.element_count("V") == 5
        assert z.total_tuple_count() == 3
        i.check_valid()
        j.check_valid()
        assert i.is_injective() and j.is_injective()

    def test_pushout_glues_along_span(self):
        a = Structure(SIG)
        pt = a.add_element("V")
        b, els_b = chain(2)
        c, els_c = chain(2)
        f = Morphism(a, b, {pt: els_b[1]})
        g = Morphism(a, c, {pt: els_c[0]})
        y, fb, gc = pushout(f, g)
        assert y.element_count("V") == 3
        assert y.total_tuple_count() == 2
        assert fb.compose(f).mapping == gc.compose(g).mapping
        fb.check_valid()
        gc.check_valid()

    def test_pushout_of_identity_is_identity(self):
        x, _ = chain(3)
        idm = Morphism.identity(x)
        y, a, b = pushout(idm, idm)
        assert a.mapping == b.mapping
        assert find_isomorphism(y, x) is not None

    def test_quotient_by_relation(self):
        x, els = chain(3)
        q, proj = quotient_by_relation(x, [(els[0], els[2])])
        assert q.element_count("V") == 2
        assert proj.apply(els[0]) == proj.apply(els[2])
        proj.check_valid()


class TestMorphisms:
    def test_enumeration_count_no_relations(self):
        sig = Signature(("V",), ())
        a, b = Structure(sig), Structure(sig)
        for _ in range(2):
            a.add_element("V")
        for _ in range(3):
            b.add_element("V")
        assert len(list(enumerate_morphisms(a, b))) == 9

    def test_enumeration_respects_tuples(self):
        x, _ = chain(2)  # one edge
        loop = Structure(SIG)
        p = loop.add_element("V")
        loop.add_tuple("E", (p, p))
        assert len(list(enumerate_morphisms(x, loop))) == 1
        assert len(list(enumerate_morphisms(loop, x))) == 0

    def test_enumeration_from_empty(self):
        empty = Structure(SIG)
        x, _ = chain(2)
        ms = list(enumerate_morphisms(empty, x))
        assert len(ms) == 1 and ms[0].mapping == {}

    def test_find_isomorphism_relabelled(self):
        x, _ = chain(3)
        y = Structure(SIG)
        els = [y.add_element("V") for _ in range(3)]
        y.add_tuple("E", (els[2], els[1]))
        y.add_tuple("E", (els[1], els[0]))
        iso = find_isomorphism(x, y)
        assert iso is not None
        iso.check_valid()
        assert iso.is_injective() and iso.is_surjective()

    def test_find_isomorphism_distinguishes(self):
        x, _ = chain(3)  # path
        y = Structure(SIG)
        els = [y.add_element("V") for _ in range(3)]
        y.add_tuple("E", (els[0], els[1]))
        y.add_tuple("E", (els[0], els[2]))  # fork
        assert find_isomorphism(x, y) is None

    def test_find_isomorphism_agrees_with_exhaustive(self):
        import random
        rng = random.Random(7)
        for _ in range(30):
            sig = random_signature(rng)
            x = random_structure(rng, sig)
            y = random_structure(rng, sig)
            fast = find_isomorphism(x, y) is not None
            slow = next(all_isomorphisms(x, y), None) is not None
            assert fast == slow

    def test_compose_and_identity(self):
        x, els = chain(2)
        idm = Morphism.identity(x)
        assert idm.compose(idm).mapping == idm.mapping


def test_is_total_function():
    sig = Signature(("V",), (RelDecl("f", ("V", "V"), "func"),))
    x = Structure(sig)
    a, b = x.add_element("V"), x.add_element("V")
    x.add_tuple("f", (a, b))
    assert not is_total_function(x, "f")
    x.add_tuple("f", (b, b))
    assert is_total_function(x, "f")
    nullary = Signature(("V",), (RelDecl("c", ("V",), "func"),))
    y = Structure(nullary)
    p = y.add_element("V")
    assert not is_total_function(y, "c")
    y.add_tuple("c", (p,))
    assert is_total_function(y, "c")
    with pytest.raises(SignatureError):
        is_total_function(x, "missing")
