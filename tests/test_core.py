import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horneq.core import (El, Morphism, RelDecl, Signature, SignatureError,
                         Structure, coproduct, pushout, quotient_by_relation)
from horneq.oracle import (enumerate_morphisms, find_isomorphism,
                           is_injective_to)

from helpers import (all_isomorphisms, call_outcome, compose,
                     full_scan_merge, identity, is_canonical, is_homomorphism,
                     random_signature, random_structure, raw_count)


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
        assert is_canonical(x)
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

    def test_find_and_merge_reject_negative_index(self):
        """``find``, and ``merge`` through it, reject a negative index
        instead of reading the parent list from its end."""
        x = Structure(SIG)
        a, b, c = (x.add_element("V") for _ in range(3))
        with pytest.raises(SignatureError):
            x.find(El("V", -1))
        with pytest.raises(SignatureError):
            x.merge(El("V", -3), b)
        assert x.elements("V") == [a, b, c]

    def test_find_and_merge_reject_out_of_range_index(self):
        """An index past either end of the parent list is rejected as "not
        in structure", as ``_check_tuple`` rejects it, not with an
        ``IndexError``."""
        x = Structure(SIG)
        a, b, c = (x.add_element("V") for _ in range(3))
        for call, bad in ((lambda: x.find(El("V", 3)), 3),
                          (lambda: x.merge(El("V", 7), a), 7),
                          (lambda: x.find(El("V", -9)), -9)):
            message = f"element {El('V', bad)} not in structure"
            with pytest.raises(SignatureError,
                               match=f"^{re.escape(message)}$"):
                call()
        assert x.elements("V") == [a, b, c]

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
        assert is_canonical(x)


class TestTupleChecks:
    """``add_tuple`` and ``has_tuple`` check a tuple and canonicalize it in
    one pass; the messages and the stored form are pinned here."""

    @pytest.mark.parametrize("rel, args, message", [
        ("S", (0, 1), "unknown relation 'S'"),
        ("R", (0,), "R: expected 2 components, got 1"),
        ("R", (0, 0), "R: component of sort 'A', expected 'B'"),
        ("R", (0, 2), "R: element El(sort='B', index=1) not in structure"),
    ])
    @pytest.mark.parametrize("method", ["add_tuple", "has_tuple"])
    def test_messages(self, method, rel, args, message):
        sig = Signature(("A", "B"), (RelDecl("R", ("A", "B"), "pred"),))
        x = Structure(sig)
        els = [x.add_element("A"), x.add_element("B"), El("B", 1)]
        with pytest.raises(SignatureError, match=f"^{re.escape(message)}$"):
            getattr(x, method)(rel, tuple(els[i] for i in args))
        assert x.total_tuple_count() == 0

    @pytest.mark.parametrize("index", [-1, -2])
    @pytest.mark.parametrize("method", ["add_tuple", "has_tuple"])
    def test_negative_index_rejected(self, method, index):
        """A negative index names no element, though a list would read it
        from the end."""
        x, els = chain(2)
        bad = El("V", index)
        message = f"E: element {bad} not in structure"
        with pytest.raises(SignatureError, match=f"^{re.escape(message)}$"):
            getattr(x, method)("E", (bad, els[0]))
        assert x.rels["E"] == {(els[0], els[1])}

    def test_merged_away_element_is_stored_canonical(self):
        x, els = chain(3)
        x.merge(els[0], els[2])
        assert x.add_tuple("E", (els[2], els[2]))
        assert (els[0], els[0]) in x.rels["E"]
        assert (els[2], els[2]) not in x.rels["E"]
        assert x.has_tuple("E", (els[2], els[0]))
        assert x.has_tuple("E", (els[1], els[2]))
        assert not x.add_tuple("E", (els[0], els[2]))
        assert is_canonical(x)


class TestMergeDifferential:
    def test_use_list_merge_equals_full_scan(self):
        """Seeded random interleavings of add_element, add_tuple, merge and
        copy, each applied to a structure and to a twin that merges by full
        scan.  Tuples may name merged-away elements, and merges hit copies
        of merged structures (which start without use-lists) as well as
        merged structures after a copy was taken.  Each structure logs
        every relation and carrier from its creation on.  After every
        operation each relation's log is exactly the tuples stored now
        that were not stored then, and each carrier's log is exactly the
        elements added since that are still canonical; what a merge newly
        logs lies within what it rewrote, all of which is logged."""
        merges_on_copies = merges_after_copy = 0

        def logged(x):
            return {(r, t) for r, ts in x.log.items() for t in ts}

        def log_all(x):
            x.log = {r.name: set() for r in x.sig.relations}
            x.log.update({(s,): set() for s in x.sig.sorts})
            return ({r: set(ts) for r, ts in x.rels.items()},
                    {s: raw_count(x, s) for s in x.sig.sorts})

        for seed in range(300):
            rng = random.Random(seed)
            sig = random_signature(rng, max_sorts=2, max_rels=3)
            pairs = [(Structure(sig), Structure(sig))]
            at_start = {id(pairs[0][0]): log_all(pairs[0][0])}
            merged, copies_of_merged, copied = set(), set(), set()
            for _ in range(50):
                x, ref = rng.choice(pairs)
                op = rng.random()
                if op < 0.2:
                    s = rng.choice(sig.sorts)
                    assert x.add_element(s) == ref.add_element(s)
                elif op < 0.55:
                    r = rng.choice(sig.relations)
                    if all(raw_count(x, s) for s in r.arity):
                        t = tuple(El(s, rng.randrange(raw_count(x, s)))
                                  for s in r.arity)
                        assert (x.add_tuple(r.name, t)
                                == ref.add_tuple(r.name, t))
                elif op < 0.9:
                    s = rng.choice(sig.sorts)
                    if raw_count(x, s):
                        a, b = (El(s, rng.randrange(raw_count(x, s)))
                                for _ in range(2))
                        if x.find(a) != x.find(b):
                            merges_on_copies += id(x) in copies_of_merged
                            merges_after_copy += id(x) in copied
                            merged.add(id(x))
                        before = logged(x)
                        keep = x.merge(a, b)
                        want_keep, want = full_scan_merge(ref, a, b)
                        assert keep == want_keep
                        assert logged(x) - before <= want <= logged(x)
                else:
                    y = x.copy()
                    assert y.log is None
                    at_start[id(y)] = log_all(y)
                    if id(x) in merged:
                        copies_of_merged.add(id(y))
                        copied.add(id(x))
                    pairs.append((y, ref.copy()))
                assert x.rels == ref.rels
                assert is_canonical(x)
                rels, counts = at_start[id(x)]
                for r, ts in x.rels.items():
                    assert x.log[r] == ts - rels[r]
                for s, n in counts.items():
                    assert x.log[(s,)] == {(e,) for e in x.elements(s)
                                           if e.index >= n}
        assert merges_on_copies > 100 and merges_after_copy > 100


class TestColimits:
    def test_coproduct_disjoint(self):
        x, _ = chain(2)
        y, _ = chain(3)
        z, (i, j) = coproduct([x, y])
        assert z.element_count("V") == 5
        assert z.total_tuple_count() == 3
        assert is_homomorphism(i) and is_homomorphism(j)
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
        assert compose(fb, f).mapping == compose(gc, g).mapping
        assert is_homomorphism(fb) and is_homomorphism(gc)

    def test_pushout_of_identity_is_identity(self):
        x, _ = chain(3)
        idm = identity(x)
        y, a, b = pushout(idm, idm)
        assert a.mapping == b.mapping
        assert find_isomorphism(y, x) is not None

    def test_quotient_by_relation(self):
        x, els = chain(3)
        q, proj = quotient_by_relation(x, [(els[0], els[2])])
        assert q.element_count("V") == 2
        assert proj.apply(els[0]) == proj.apply(els[2])
        assert is_homomorphism(proj)


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
        assert is_homomorphism(iso)
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


# Two sorts, and the same ``E`` on ``V`` as ``SIG``.
TWO_SORTS = Signature(("V", "W"), SIG.relations)


def points(n: int) -> Structure:
    x = Structure(SIG)
    for _ in range(n):
        x.add_element("V")
    return x


def one_of_each() -> tuple[Structure, El, El]:
    x = Structure(TWO_SORTS)
    return x, x.add_element("V"), x.add_element("W")


def merged_and_apart() -> tuple[Structure, Structure]:
    """Two points merged into one, and two points apart."""
    x = points(2)
    x.merge(El("V", 0), El("V", 1))
    return x, points(2)


@pytest.mark.parametrize("call, want", [
    (lambda: RelDecl("R", ("V",), "rel"),
     ("SignatureError", "bad relation kind 'rel'")),
    (lambda: RelDecl("c", (), "func"),
     ("SignatureError", "function c needs a result sort")),
    (lambda: SIG.relation("E").arg_sorts,
     ("SignatureError", "E is not a function symbol")),
    (lambda: SIG.relation("E").result_sort,
     ("SignatureError", "E is not a function symbol")),
    (lambda: Structure(SIG).add_element("W"),
     ("SignatureError", "unknown sort 'W'")),
    (lambda: Structure(SIG).find(El("W", 0)),
     ("SignatureError", "unknown sort 'W'")),
    (lambda: Structure.merge(*one_of_each()),
     ("SignatureError", "merging across sorts 'V'/'W'")),
    # A morphism refuses a key outside its domain and a value outside its
    # codomain.
    (lambda: Morphism(points(1), points(2), {El("V", 1): El("V", 0)}),
     ("SignatureError", "element El(sort='V', index=1) not in structure")),
    (lambda: Morphism(points(2), points(1), {El("V", 1): El("V", 1)}),
     ("SignatureError", "element El(sort='V', index=1) not in structure")),
    (lambda: Morphism(points(1), points(2),
                      {El("V", 0): El("V", 0)}).is_surjective(), False),
    (lambda: coproduct([]),
     ("SignatureError", "coproduct of [] needs an explicit signature")),
    (lambda: coproduct([Structure(SIG), Structure(TWO_SORTS)]),
     ("SignatureError", "coproduct over mismatched signatures")),
    (lambda: pushout(identity(Structure(SIG)), identity(Structure(TWO_SORTS))),
     ("SignatureError", "pushout legs must share a domain")),
    # Two domains over one signature: ``g`` would be read on ``f``'s.
    (lambda: pushout(identity(points(1)), identity(points(2))),
     ("SignatureError", "pushout legs must share a domain")),
    # A morphism keeps sorts: ``V`` goes to ``V`` and ``W`` to ``W``.
    (lambda: (lambda x, v, w: Morphism(x, x, {v: w, w: w}))(*one_of_each()),
     ("SignatureError", "morphism maps El(sort='V', index=0) to "
                        "El(sort='W', index=0) across sorts")),
    # A morphism maps each class to one class: two merged points may not
    # go to two points apart.
    (lambda: Morphism(*merged_and_apart(), {El("V", 0): El("V", 0),
                                             El("V", 1): El("V", 1)}),
     ("SignatureError", "morphism maps the class of El(sort='V', index=1) "
                        "to both El(sort='V', index=0) and "
                        "El(sort='V', index=1)")),
])
def test_core_rejections_and_refusals(call, want):
    """The checks of ``core`` that no other test reaches, each with its
    message."""
    assert call_outcome(call) == want


def test_reprs():
    """The reprs that a failed assertion shows: a structure's element
    counts and nonempty relations' sizes, and a morphism's sorted map."""
    assert repr(chain(3)[0]) == "Structure(elements={'V': 3}, tuples={'E': 2})"
    assert repr(one_of_each()[0]) == \
        "Structure(elements={'V': 1, 'W': 1}, tuples={})"
    f = Morphism(points(2), points(1), {El("V", 1): El("V", 0),
                                        El("V", 0): El("V", 0)})
    assert repr(f) == ("Morphism({El(sort='V', index=0): El(sort='V', "
                       "index=0), El(sort='V', index=1): El(sort='V', "
                       "index=0)})")


@pytest.mark.parametrize("call, want", [
    (lambda: list(enumerate_morphisms(Structure(SIG),
                                      Structure(TWO_SORTS))),
     ("SignatureError", "morphism enumeration over mismatched signatures")),
    # Two signatures, one element against two, one ``E`` tuple against
    # none.
    (lambda: find_isomorphism(points(1), Structure(TWO_SORTS)), None),
    (lambda: find_isomorphism(points(1), points(2)), None),
    (lambda: find_isomorphism(chain(2)[0], points(2)), None),
    # The lifting oracles take a structure over the morphism's signature.
    (lambda: is_injective_to(Structure(TWO_SORTS), identity(points(1))),
     ("SignatureError", "morphism enumeration over mismatched signatures")),
])
def test_oracle_rejections_and_refusals(call, want):
    """The checks of ``oracle`` that no other test reaches."""
    assert call_outcome(call) == want
