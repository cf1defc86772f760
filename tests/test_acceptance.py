"""End-to-end acceptance checks.

Each criterion prints one pass/fail verdict on the real stdout so the
lines survive pytest's output capture.  Expected values come from
independent brute-force oracles computed inside this file or in
``helpers``: reachability closure, exhaustive homomorphism and lift
enumeration, and vectorized enumeration of all partial operation tables
up to three elements.
"""

import itertools
import random
import sys
import time
from contextlib import contextmanager

import numpy as np

from horneq.classify import (classify_sequent, classifying_morphism,
                             flatten_sequent, flatten_theory, relationalize,
                             sequent_from_morphism, strengthen_theory)
from horneq.core import Morphism, RelDecl, Signature, Structure
from horneq.engine import evaluate, satisfies, satisfies_theory
from horneq.facts import model_names, serialize_model
from horneq.oracle import (enumerate_morphisms, find_isomorphism,
                           is_injective_to, is_orthogonal_to, satisfies_phl)
from horneq.syntax import (App, DefinedAtom, EqualAtom, Formula, RelAtom,
                           Sequent, Var, formula_vars, parse_theory)
from horneq.transform import (diagonal_embed, epic_transform, quotient_model,
                              setoid_transform, sparse_setoid_transform)

from helpers import (element_total, enumerate_structures, is_homomorphism,
                     morphisms_isomorphic, random_sequent, random_signature,
                     random_structure, random_theory, structure_from_edges,
                     transitive_closure)


@contextmanager
def criterion(num, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL", file=sys.__stdout__)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"{elapsed:.2f}s exceeds {budget}s budget"
    print(f"criterion {num} ({name}): PASS [{elapsed:.2f}s]",
          file=sys.__stdout__)


TRANSITIVITY = parse_theory("""
sort V;
pred E : V * V;
rule E(u, v) & E(v, w) => E(u, w);
""")

MONOID = parse_theory("""
sort M;
func op : M * M -> M;
func e : -> M;
rule op(op(x, y), z)! & op(x, op(y, z))! => op(op(x, y), z) = op(x, op(y, z));
rule op(e(), x)! => op(e(), x) = x;
rule op(x, e())! => op(x, e()) = x;
""")

POSET = parse_theory("""
sort P;
pred Le : P * P;
rule Le(u, v) & Le(v, u) => u = v;
rule Le(u, v) & Le(v, w) => Le(u, w);
""")

BINFUNC = parse_theory("""
sort A;
func g : A * A -> A;
""")


def _random_digraphs(count, max_vertices, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_vertices)
        edges = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 2 * n))}
        out.append((n, edges))
    return out


def _eval_closure(n, edges):
    x = structure_from_edges(TRANSITIVITY.signature, "E", n, edges)
    res, unit, rep = evaluate(TRANSITIVITY, x)
    return x, res, unit, rep


def test_criterion_01_transitive_closure():
    with criterion(1, "transitive closure vs reachability oracle", budget=1.0):
        for n, edges in _random_digraphs(50, 8, seed=101):
            _, res, _, rep = _eval_closure(n, edges)
            got = {(a.index, b.index) for a, b in res.rels["E"]}
            assert got == transitive_closure(n, edges)
            assert rep.fixed_point


def test_criterion_02_satisfaction_is_injectivity():
    with criterion(2, "satisfaction equals lifting against the classifying "
                      "morphism", budget=10.0):
        rng = random.Random(202)
        for _ in range(200):
            sig = random_signature(rng)
            s = random_sequent(rng, sig, max_atoms=3)
            x = random_structure(rng, sig, max_elements=3)
            f = classifying_morphism(s, sig)
            assert satisfies(x, s) == is_injective_to(x, f)


def test_criterion_03_sequent_morphism_round_trip():
    with criterion(3, "sequent/morphism round trip", budget=10.0):
        rng = random.Random(303)
        done = 0
        while done < 50:
            sig = random_signature(rng)
            a = random_structure(rng, sig, max_elements=3)
            b = random_structure(rng, sig, max_elements=3)
            ms = list(enumerate_morphisms(a, b))
            if not ms:
                continue
            f = rng.choice(ms)
            g = classifying_morphism(sequent_from_morphism(f), sig)
            assert morphisms_isomorphic(f, g)
            done += 1


# -- criterion 4: free-model universal property ----------------------------


def _partial_tables(k):
    """All (k x k)-tables with entries in {-1 (undefined), 0..k-1} as an
    (N, k, k) array."""
    cells = k * k
    if cells == 0:
        return np.zeros((1, 0, 0), dtype=np.int64)
    n = (k + 1) ** cells
    digits = (np.arange(n)[:, None]
              // (k + 1) ** np.arange(cells)[None, :]) % (k + 1)
    return digits.reshape(n, k, k).astype(np.int64) - 1


def _monoid_models(k):
    """All partial tables plus partial unit satisfying guarded
    associativity and guarded unit laws; returns (T, E) stacked arrays
    where E[m] is the unit element or -1."""
    T = _partial_tables(k)
    n = len(T)
    flat = T.reshape(n, -1)
    idx = np.arange(n)
    ok = np.ones(n, dtype=bool)
    for x in range(k):
        for y in range(k):
            xy = T[:, x, y]
            for z in range(k):
                yz = T[:, y, z]
                lhs = np.where(xy >= 0,
                               flat[idx, np.clip(xy, 0, None) * k + z], -1)
                rhs = np.where(yz >= 0,
                               flat[idx, x * k + np.clip(yz, 0, None)], -1)
                ok &= ~((lhs >= 0) & (rhs >= 0) & (lhs != rhs))
    parts_T, parts_E = [], []
    for e in range(-1, k):
        mask = ok.copy()
        if e >= 0:
            for x in range(k):
                ex, xe = T[:, e, x], T[:, x, e]
                mask &= ~((ex >= 0) & (ex != x))
                mask &= ~((xe >= 0) & (xe != x))
        parts_T.append(T[mask])
        parts_E.append(np.full(int(mask.sum()), e, dtype=np.int64))
    return np.concatenate(parts_T), np.concatenate(parts_E)


def _random_alg_input(rng, rel_sig, max_elements=3):
    sort = rel_sig.sorts[0]
    x = Structure(rel_sig)
    els = [x.add_element(sort) for _ in range(rng.randint(0, max_elements))]
    for r in rel_sig.relations:
        if not els:
            break
        for _ in range(rng.randint(0, 2)):
            x.add_tuple(r.name, tuple(rng.choice(els) for _ in r.arity))
    return x


def _check_table_factorization(rt, x, models_by_k, rel3, rel1):
    """For every enumerated model M and every morphism g : X -> M, exactly
    one h : F(X) -> M satisfies h . unit = g.  The free model's carrier is
    covered by the unit, so h is forced; existence and forcedness are both
    asserted vectorized over all models at once."""
    res, unit, rep = evaluate(rt, x)
    assert rep.fixed_point
    sort = rt.signature.sorts[0]
    fibers = {}
    for e in x.elements(sort):
        fibers.setdefault(unit.apply(e), []).append(e)
    res_els = res.elements(sort)
    assert all(e in fibers for e in res_els), "unit must be surjective here"
    xin = x.elements(sort)
    xi = {e: i for i, e in enumerate(xin)}
    ri = {e: i for i, e in enumerate(res_els)}
    x3 = [tuple(xi[e] for e in t) for t in x.sorted_tuples(rel3)]
    x1 = ([tuple(xi[e] for e in t) for t in x.sorted_tuples(rel1)]
          if rel1 else [])
    r3 = [tuple(ri[e] for e in t) for t in res.sorted_tuples(rel3)]
    r1 = ([tuple(ri[e] for e in t) for t in res.sorted_tuples(rel1)]
          if rel1 else [])
    groups = [[xi[e] for e in fibers[r]] for r in res_els]
    for k, (T, E) in models_by_k.items():
        if len(T) == 0:
            continue
        for a in itertools.product(range(k), repeat=len(xin)):
            valid_g = np.ones(len(T), dtype=bool)
            for i, j, l in x3:
                valid_g &= T[:, a[i], a[j]] == a[l]
            for (i,) in x1:
                valid_g &= E == a[i]
            if not valid_g.any():
                continue
            # the theory's identifications hold in every model, so any
            # actual morphism must be constant on unit fibers
            assert all(len({a[i] for i in grp}) == 1 for grp in groups)
            h = [a[grp[0]] for grp in groups]
            valid_h = np.ones(len(T), dtype=bool)
            for p, q, r in r3:
                valid_h &= T[:, h[p], h[q]] == h[r]
            for (p,) in r1:
                valid_h &= E == h[p]
            assert not (valid_g & ~valid_h).any()


def _poset_models(max_k):
    models = []
    for k in range(max_k + 1):
        pairs = list(itertools.product(range(k), repeat=2))
        for bits in range(2 ** len(pairs)):
            rel = {p for i, p in enumerate(pairs) if bits >> i & 1}
            if any((a, b) in rel and (b, a) in rel and a != b
                   for a, b in pairs):
                continue
            if any((a, b) in rel and (b, c) in rel and (a, c) not in rel
                   for a in range(k) for b in range(k) for c in range(k)):
                continue
            models.append(structure_from_edges(POSET.signature, "Le", k, rel))
    return models


def _check_poset_factorization(rt, x, models):
    res, unit, rep = evaluate(rt, x)
    assert rep.fixed_point
    sort = "P"
    res_els = res.elements(sort)
    for m in models:
        mels = m.elements(sort)
        for g in enumerate_morphisms(x, m):
            count = 0
            for images in itertools.product(mels, repeat=len(res_els)):
                h = Morphism(res, m, dict(zip(res_els, images)))
                if not is_homomorphism(h):
                    continue
                if all(h.apply(unit.apply(e)) == g.apply(e)
                       for e in x.elements(sort)):
                    count += 1
            assert count == 1
    return res


def test_criterion_04_free_model_universal_property():
    with criterion(4, "free models satisfy the universal property",
                   budget=60.0):
        rng = random.Random(404)

        monoid_rt = flatten_theory(MONOID, with_functionality=True)
        monoid_models = {k: _monoid_models(k) for k in range(4)}
        for _ in range(10):
            x = _random_alg_input(rng, monoid_rt.signature)
            _check_table_factorization(monoid_rt, x, monoid_models,
                                       "op", "e")

        binfunc_rt = flatten_theory(BINFUNC, with_functionality=True)
        binfunc_models = {k: (_partial_tables(k),
                              np.full(len(_partial_tables(k)), -1))
                          for k in range(4)}
        for _ in range(10):
            x = _random_alg_input(rng, binfunc_rt.signature)
            _check_table_factorization(binfunc_rt, x, binfunc_models,
                                       "g", None)

        poset_models = _poset_models(3)
        for _ in range(10):
            x = _random_alg_input(rng, POSET.signature)
            _check_poset_factorization(POSET, x, poset_models)


def test_criterion_05_surjective_termination():
    with criterion(5, "all-surjective theories terminate without fresh "
                      "elements"):
        rng = random.Random(505)
        for _ in range(100):
            sig = random_signature(rng)
            t = random_theory(rng, sig, surjective=True)
            assert all(classify_sequent(s).surjective for s in t.sequents)
            x = random_structure(rng, sig, max_elements=3)
            while element_total(x) > 6:
                x = random_structure(rng, sig, max_elements=3)
            res, _, rep = evaluate(t, x)  # no iteration bound applies
            assert rep.fixed_point
            assert sum(s.elements_created for s in rep.per_iteration) == 0
            assert element_total(res) <= element_total(x)


def test_criterion_06_setoid_pipeline_equivalence():
    with criterion(6, "setoid pipelines match direct evaluation",
                   budget=60.0):
        rng = random.Random(606)
        for _ in range(25):
            sig = random_signature(rng)
            t = random_theory(rng, sig, surjective=True)
            x = random_structure(rng, sig, max_elements=2)
            while element_total(x) > 5:
                x = random_structure(rng, sig, max_elements=2)
            direct, _, _ = evaluate(t, x)
            for fn in (setoid_transform, sparse_setoid_transform):
                out, _, _ = evaluate(fn(t), diagonal_embed(x))
                assert find_isomorphism(quotient_model(out),
                                        direct) is not None


# -- criterion 7: flattening soundness -------------------------------------


PHL_SIG = parse_theory("""
sort A;
func f : A -> A;
func g : A * A -> A;
pred P : A;
rule P(x) => P(x);
""").signature


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return Var(rng.choice("xy"), "A")
    if rng.random() < 0.5:
        return App(PHL_SIG.relation("f"), (_random_term(rng, depth - 1),))
    return App(PHL_SIG.relation("g"), (_random_term(rng, depth - 1),
                                       _random_term(rng, depth - 1)))


def _random_phl_atom(rng):
    roll = rng.random()
    if roll < 0.4:
        return RelAtom(PHL_SIG.relation("P"), (_random_term(rng, 2),))
    if roll < 0.7:
        return EqualAtom(_random_term(rng, 2), _random_term(rng, 2))
    return DefinedAtom(_random_term(rng, 2))


def _random_phl_sequent(rng):
    premise = Formula(tuple(_random_phl_atom(rng)
                            for _ in range(rng.randint(1, 2))))
    conclusion = Formula(tuple(_random_phl_atom(rng)
                               for _ in range(rng.randint(1, 2))))
    return Sequent(premise, conclusion)


def _random_functional_structure(rng, rel_sig):
    x = Structure(rel_sig)
    els = [x.add_element("A") for _ in range(rng.randint(1, 3))]
    for e in els:
        if rng.random() < 0.7:
            x.add_tuple("f", (e, rng.choice(els)))
    for e1 in els:
        for e2 in els:
            if rng.random() < 0.5:
                x.add_tuple("g", (e1, e2, rng.choice(els)))
    for e in els:
        if rng.random() < 0.5:
            x.add_tuple("P", (e,))
    return x


def test_criterion_07_flattening_soundness():
    with criterion(7, "flattening preserves satisfaction"):
        rng = random.Random(707)
        rel_sig = relationalize(PHL_SIG)
        for _ in range(100):
            s = _random_phl_sequent(rng)
            flat = flatten_sequent(s, rel_sig)
            x = _random_functional_structure(rng, rel_sig)
            assert satisfies_phl(x, s) == satisfies(x, flat)


def test_criterion_08_strengthening_is_orthogonality():
    with criterion(8, "strengthened models are the orthogonality class"):
        rng = random.Random(808)
        sig = Signature(("V",), (RelDecl("E", ("V", "V"), "pred"),))
        for _ in range(10):
            t = random_theory(rng, sig, max_sequents=2)
            st = strengthen_theory(t)
            fs = [classifying_morphism(s, sig) for s in t.sequents]
            for x in enumerate_structures(sig, 3):
                assert satisfies_theory(x, st) == \
                    all(is_orthogonal_to(x, f) for f in fs)


# -- criterion 9: epic transform -------------------------------------------


def _small_epic_candidate(rng, sig):
    """Random theory whose epic transform stays enumerable: at most one
    conclusion-only variable, introduced by a premise with at most two
    variables."""
    while True:
        t = random_theory(rng, sig, max_sequents=2)
        fresh_total = 0
        fine = True
        for s in t.sequents:
            pv = set(formula_vars(s.premise))
            fresh = [v for v in formula_vars(s.conclusion) if v not in pv]
            fresh_total += len(fresh)
            if fresh and len(formula_vars(s.premise)) > 2:
                fine = False
        if fine and fresh_total <= 1:
            return t


def _functional_models(asig, rt, max_k):
    """All structures over the relationalized signature with functional
    graphs, filtered to models of the flattened epic theory."""
    rel_sig = rt.signature
    sort = asig.sorts[0]
    for k in range(max_k + 1):
        spaces = []
        for r in asig.relations:
            if r.kind == "pred":
                cells = list(itertools.product(range(k), repeat=len(r.arity)))
                spaces.append([frozenset(c)
                               for n in range(len(cells) + 1)
                               for c in itertools.combinations(cells, n)])
            else:
                args = list(itertools.product(range(k),
                                              repeat=len(r.arg_sorts)))
                tables = itertools.product(range(-1, k), repeat=len(args))
                spaces.append([frozenset((aa + (v,))
                                         for aa, v in zip(args, tbl)
                                         if v >= 0)
                               for tbl in tables])
        for choice in itertools.product(*spaces):
            x = Structure(rel_sig)
            els = [x.add_element(sort) for _ in range(k)]
            for r, ts in zip(asig.relations, choice):
                for tp in sorted(ts):
                    x.add_tuple(r.name, tuple(els[i] for i in tp))
            if satisfies_theory(x, rt):
                yield x


def test_criterion_09_epic_transform():
    with criterion(9, "epic transform models are orthogonal reducts"):
        rng = random.Random(909)
        sig = Signature(("V",), (RelDecl("E", ("V", "V"), "pred"),))
        for _ in range(10):
            t = _small_epic_candidate(rng, sig)
            asig, out = epic_transform(t)
            for s in out.sequents:
                assert classify_sequent(s).epic_phl
            rt = flatten_theory(out, with_functionality=True)
            fs = [classifying_morphism(s, sig) for s in t.sequents]
            checked = 0
            for m in _functional_models(asig, rt, max_k=2):
                red = Structure(sig)
                mapping = {e: red.add_element("V")
                           for e in m.elements("V")}
                for tp in m.sorted_tuples("E"):
                    red.add_tuple("E", tuple(mapping[e] for e in tp))
                assert all(is_orthogonal_to(red, f) for f in fs)
                checked += 1
            assert checked > 0  # the empty model always qualifies


def test_criterion_10_determinism_and_idempotence():
    with criterion(10, "determinism and idempotence"):
        graphs = _random_digraphs(50, 8, seed=101)

        def run_all():
            outputs = []
            for n, edges in graphs:
                x, res, unit, _ = _eval_closure(n, edges)
                names = {f"v{e.index}": e for e in x.elements("V")}
                nm, merged = model_names(res, names, unit)
                outputs.append(serialize_model(res, nm, merged, fmt="json"))
            return outputs

        assert run_all() == run_all()

        for n, edges in graphs[:20]:
            _, res, _, _ = _eval_closure(n, edges)
            res2, unit2, rep2 = evaluate(TRANSITIVITY, res)
            assert rep2.iterations == 1
            assert rep2.fixed_point
            assert not rep2.per_iteration[0].changed
            assert unit2.is_injective() and unit2.is_surjective()
