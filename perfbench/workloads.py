"""Seeded inputs and independent oracles for the three benchmark workloads.

Each workload turns a seed into a fixed list of jobs.  A job is a list of
CLI steps plus an oracle that checks the steps' exit codes and outputs.
The generators and oracles here use only the standard library: they never
call into ``horneq``, except that the ``compile`` oracle re-parses outputs
with ``horneq.syntax.parse_theory`` because "the output parses" is the
property it checks.

Every job of a workload is drawn from one size class, so that the work per
job, and therefore the timing, depends little on the seed.  A generator
returns its jobs and the text of every input file; the files are written
later, so that drawing the inputs stays outside the timed set-up.
"""

from __future__ import annotations

import random
import re
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

JOBS_PER_LIST = 30


@dataclass
class Step:
    """One ``horneq`` invocation.  ``save_as`` names a file the step's
    standard output is written to, for a later step to read."""

    kind: str
    argv: list[str]
    save_as: str | None = None


@dataclass
class Job:
    id: int
    steps: list[Step]
    # oracle(exit codes, outputs) -> list of failure messages
    oracle: Callable[[list[int], list[str]], list[str]]


# A workload's jobs, and the text of each input file by path.
Inputs = tuple[list[Job], dict[Path, str]]


def _add(files: dict[Path, str], path: Path, text: str) -> str:
    """Record an input file; the benchmark writes it during set-up."""
    files[path] = text
    return str(path)


def _sub_seed(seed: int, workload: str, index: int) -> int:
    return random.Random(f"{workload}:{seed}:{index}").getrandbits(64)


# -- closure ---------------------------------------------------------------
#
# The README's preorder theory on random DAGs.  Each DAG is redrawn until
# it falls in one narrow size class: its closure size, its number of pairs
# at distance <= 2 (the relation after the first iteration), its number of
# two-step paths in the closure (the join size of the transitivity premise)
# and its diameter, which fixes the iteration count at 3.  The matcher
# scans the relation once per premise atom, so these sizes set the work.

PREORDER_THEORY = """\
sort V;
pred Le : V * V;
rule Le(u, v) & Le(v, w) => Le(u, w);
rule Le(u, v) & Le(v, u) => u = v;
"""

CLOSURE_NODES = 21
CLOSURE_EDGES = 42
CLOSURE_PATH = 5
CLOSURE_PAIRS = (91, 101)
CLOSURE_NEAR_PAIRS = (76, 84)
CLOSURE_TWO_STEP = (161, 197)
CLOSURE_DIAMETER = (3, 4)


def _random_dag(rng: random.Random) -> set[tuple[int, int]]:
    order = list(range(CLOSURE_NODES))
    rng.shuffle(order)
    on_path = sorted(rng.sample(range(CLOSURE_NODES), CLOSURE_PATH))
    edges = {(order[a], order[b]) for a, b in zip(on_path, on_path[1:])}
    while len(edges) < CLOSURE_EDGES:
        i, j = sorted(rng.sample(range(CLOSURE_NODES), 2))
        edges.add((order[i], order[j]))
    return edges


def _distances(edges: set[tuple[int, int]]) -> dict[int, dict[int, int]]:
    """BFS distances from every node to every node it reaches (not itself)."""
    succ: dict[int, list[int]] = {i: [] for i in range(CLOSURE_NODES)}
    for a, b in edges:
        succ[a].append(b)
    out = {}
    for s in succ:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in succ[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        del dist[s]
        out[s] = dist
    return out


def _in_class(dist: dict[int, dict[int, int]]) -> bool:
    pairs = sum(len(d) for d in dist.values())
    near = sum(1 for d in dist.values() for k in d.values() if k <= 2)
    indeg = [0] * CLOSURE_NODES
    for d in dist.values():
        for t in d:
            indeg[t] += 1
    two_step = sum(indeg[v] * len(dist[v]) for v in dist)
    diameter = max((max(d.values(), default=0) for d in dist.values()))
    return (CLOSURE_PAIRS[0] <= pairs <= CLOSURE_PAIRS[1]
            and CLOSURE_NEAR_PAIRS[0] <= near <= CLOSURE_NEAR_PAIRS[1]
            and CLOSURE_TWO_STEP[0] <= two_step <= CLOSURE_TWO_STEP[1]
            and CLOSURE_DIAMETER[0] <= diameter <= CLOSURE_DIAMETER[1])


_FACT_RE = re.compile(r"^(\w+)\((.*)\);$")


def _model_lines(text: str) -> tuple[list[str], dict[str, set], list[tuple]]:
    """Split ``eval`` text output into sort names, tuples per relation and
    the ``merged:`` list."""
    sort_names: list[str] = []
    rels: dict[str, set] = {}
    merged: list[tuple[str, str]] = []
    in_merged = False
    for line in text.splitlines():
        if line == "merged:":
            in_merged = True
        elif in_merged:
            old, new = line.strip().split(" -> ")
            merged.append((old, new))
        elif line.startswith("sort "):
            sort_names.extend(line.split(":", 1)[1].rstrip(";").split())
        else:
            m = _FACT_RE.match(line)
            if m is None:
                raise ValueError(f"unexpected output line {line!r}")
            rels.setdefault(m.group(1), set()).add(
                tuple(a.strip() for a in m.group(2).split(",")))
    return sort_names, rels, merged


def _closure_oracle(names: list[str], expected: set[tuple[str, str]]):
    def check(codes: list[int], outputs: list[str]) -> list[str]:
        errors = []
        if codes != [0, 0]:
            return [f"exit codes {codes}, expected [0, 0]"]
        try:
            sort_names, rels, merged = _model_lines(outputs[0])
        except ValueError as err:
            return [str(err)]
        if sorted(sort_names) != sorted(names):
            errors.append("eval output lost or renamed elements")
        if merged:
            errors.append(f"eval merged {len(merged)} names in a DAG")
        got = rels.get("Le", set())
        if got != expected:
            errors.append(f"Le has {len(got)} pairs, reachability has "
                          f"{len(expected)} ({len(got ^ expected)} differ)")
        if outputs[1].splitlines()[-1:] != ["all satisfied"]:
            errors.append("satisfies did not report 'all satisfied'")
        return errors
    return check


def closure_jobs(seed: int, work: Path) -> Inputs:
    files: dict[Path, str] = {}
    theory = _add(files, work / "preorder.hl", PREORDER_THEORY)
    names = [f"v{i}" for i in range(CLOSURE_NODES)]
    jobs = []
    for j in range(JOBS_PER_LIST):
        rng = random.Random(_sub_seed(seed, "closure", j))
        while True:
            edges = _random_dag(rng)
            dist = _distances(edges)
            if _in_class(dist):
                break
        facts = ["sort V: " + " ".join(names) + ";"]
        facts += [f"Le(v{a}, v{b});" for a, b in sorted(edges)]
        facts_path = _add(files, work / f"closure_{j}.hl",
                          "\n".join(facts) + "\n")
        model_path = str(work / f"closure_{j}.model.hl")
        expected = {(f"v{s}", f"v{t}") for s, d in dist.items() for t in d}
        jobs.append(Job(
            j,
            [Step("eval", ["eval", "--strategy", "seminaive", theory,
                           facts_path], save_as=model_path),
             Step("satisfies", ["satisfies", theory, model_path])],
            _closure_oracle(names, expected)))
    return jobs, files


# -- congruence -------------------------------------------------------------
#
# Injectivity of f plus an equality-generating E: merges on b's (from E
# chains) force merges on a's (through f).  The payload relation L is read
# by no rule, so its only cost is re-canonicalization on every merge.

CONGRUENCE_THEORY = """\
sort V;
func f : V -> V;
pred E : V * V;
pred L : V * V;
rule E(x, y) => x = y;
rule f(x) = f(y) => x = y;
"""

CONGRUENCE_N = 50
CONGRUENCE_GROUP = 5
CONGRUENCE_PAYLOAD = 1600


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _congruence_oracle(names, canon, f_pairs, e_pairs, l_pairs):
    def canon_set(pairs):
        return {(canon[a], canon[b]) for a, b in pairs}

    expected_sort = sorted(set(canon.values()))
    expected = {"f": canon_set(f_pairs), "E": canon_set(e_pairs),
                "L": canon_set(l_pairs)}
    expected_merged = sorted((n, canon[n]) for n in names if canon[n] != n)

    def check(codes: list[int], outputs: list[str]) -> list[str]:
        if codes != [0]:
            return [f"exit codes {codes}, expected [0]"]
        try:
            sort_names, rels, merged = _model_lines(outputs[0])
        except ValueError as err:
            return [str(err)]
        errors = []
        if sorted(sort_names) != expected_sort:
            errors.append("surviving elements differ from the union-find "
                          "prediction")
        for rel, want in expected.items():
            got = rels.get(rel, set())
            if got != want:
                errors.append(f"{rel}: {len(got ^ want)} tuples differ")
        if merged != expected_merged:
            errors.append("merged: list differs from the union-find "
                          "prediction")
        return errors
    return check


def congruence_jobs(seed: int, work: Path) -> Inputs:
    files: dict[Path, str] = {}
    n = CONGRUENCE_N
    theory = _add(files, work / "congruence.hl", CONGRUENCE_THEORY)
    names = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    jobs = []
    for j in range(JOBS_PER_LIST):
        rng = random.Random(_sub_seed(seed, "congruence", j))
        f_pairs = [(f"a{i}", f"b{i}") for i in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        e_pairs = []
        uf = _UnionFind(2 * n)  # index = declaration order: a's, then b's
        for g in range(0, n, CONGRUENCE_GROUP):
            chain = perm[g:g + CONGRUENCE_GROUP]
            for x, y in zip(chain, chain[1:]):
                e_pairs.append((f"b{x}", f"b{y}"))
                uf.union(n + x, n + y)
        for i in range(n):  # injectivity: a_i ~ a_k iff b_i ~ b_k
            uf.union(i, uf.find(n + i) - n)
        canon = {name: names[uf.find(k)] for k, name in enumerate(names)}
        l_pairs = set()
        while len(l_pairs) < CONGRUENCE_PAYLOAD:
            l_pairs.add((rng.choice(names), rng.choice(names)))
        facts = ["sort V: " + " ".join(names) + ";"]
        facts += [f"f({a}, {b});" for a, b in f_pairs]
        facts += [f"E({a}, {b});" for a, b in e_pairs]
        facts += [f"L({a}, {b});" for a, b in sorted(l_pairs)]
        facts_path = _add(files, work / f"congruence_{j}.hl",
                            "\n".join(facts) + "\n")
        jobs.append(Job(
            j,
            [Step("eval", ["eval", "--strategy", "seminaive", theory,
                           facts_path])],
            _congruence_oracle(names, canon, f_pairs, e_pairs, l_pairs)))
    return jobs, files


# -- compile ----------------------------------------------------------------
#
# Generated theories with nested function terms.  Only the front end and the
# theory compilers run here; the evaluator does no work.

COMPILE_RULES = 30
COMPILE_SORTS = ("A", "B", "C")
COMPILE_FUNCS = (("f", ("A",), "B"), ("g", ("B",), "A"),
                 ("h", ("A", "B"), "C"), ("k", ("C",), "A"),
                 ("m", ("C", "C"), "B"))
COMPILE_PREDS = (("P", ("A",)), ("Q", ("A", "B")), ("R", ("B", "C")),
                 ("S", ("C",)), ("T", ("A", "A")), ("U", ("B", "B", "C")))
TERM_DEPTH = 2
TRANSFORMS = ("setoid", "sparse-setoid", "epic", "strengthen")


def _random_theory(rng: random.Random) -> str:
    by_result = {s: [f for f in COMPILE_FUNCS if f[2] == s]
                 for s in COMPILE_SORTS}
    lines = [f"sort {s};" for s in COMPILE_SORTS]
    lines += [f"func {n} : {' * '.join(a)} -> {r};" for n, a, r in COMPILE_FUNCS]
    lines += [f"pred {n} : {' * '.join(a)};" for n, a in COMPILE_PREDS]
    for _ in range(COMPILE_RULES):
        used: set[str] = set()

        def term(sort, depth, pool, force_app=False):
            if depth and by_result[sort] and (force_app or rng.random() < 0.45):
                name, args, _ = rng.choice(by_result[sort])
                return f"{name}({', '.join(term(a, depth - 1, pool) for a in args)})"
            v = rng.choice(pool[sort])
            used.add(v)
            return v

        def atom(pool):
            r = rng.random()
            if r < 0.75:
                name, args = rng.choice(COMPILE_PREDS)
                return f"{name}({', '.join(term(a, TERM_DEPTH, pool) for a in args)})"
            # An application on the left gives every variable a sort.
            sort = rng.choice(COMPILE_SORTS)
            lhs = term(sort, TERM_DEPTH, pool, force_app=True)
            if r < 0.9:
                return f"{lhs} = {term(sort, TERM_DEPTH, pool)}"
            return f"{lhs}!"

        pool = {s: [f"{s.lower()}{i}" for i in range(3)] for s in COMPILE_SORTS}
        premise = [atom(pool) for _ in range(rng.randint(1, 3))]
        # The conclusion reuses premise variables, or one conclusion-only
        # variable per sort when the premise has none of that sort.
        concl_pool = {s: [v for v in pool[s] if v in used] or [f"{s.lower()}9"]
                      for s in COMPILE_SORTS}
        conclusion = [atom(concl_pool) for _ in range(rng.randint(1, 2))]
        lines.append(f"rule {' & '.join(premise)} => {' & '.join(conclusion)};")
    return "\n".join(lines) + "\n"


_IDENT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(\()?")


def _side_vars(text: str) -> set[str]:
    return {m.group(1) for m in _IDENT_RE.finditer(text)
            if m.group(2) is None and m.group(1) != "true"}


def _flat_counts(flat: str) -> dict[str, int]:
    """Rule counts the transforms must produce, read off the text of the
    flattened theory and the transforms' definitions."""
    sorts = sum(1 for ln in flat.splitlines() if ln.startswith("sort "))
    rels = sum(1 for ln in flat.splitlines()
               if ln.startswith(("pred ", "func ")))
    rules = [ln for ln in flat.splitlines() if ln.startswith("rule ")]
    epic = 0
    for ln in rules:
        premise, conclusion = ln[len("rule "):].rstrip(";").split("=>")
        fresh = len(_side_vars(conclusion) - _side_vars(premise))
        epic += 1 + fresh + (1 if fresh else 0)
    return {"setoid": 3 * sorts + rels + len(rules),
            "sparse-setoid": 3 * sorts + len(rules),
            "epic": epic, "strengthen": 2 * len(rules)}


def _compile_oracle(n_rules: int):
    def check(codes: list[int], outputs: list[str]) -> list[str]:
        from horneq.syntax import ParseError, parse_theory

        if codes != [0] * len(codes):
            return [f"exit codes {codes}, expected all 0"]
        errors = []
        verdicts = [ln for ln in outputs[0].splitlines()
                    if ln.startswith("sequent ")]
        if len(verdicts) != n_rules:
            errors.append(f"check classified {len(verdicts)} of {n_rules} "
                          "rules")
        want = {"flatten": n_rules, **_flat_counts(outputs[1])}
        kinds = ["flatten", *TRANSFORMS]
        for kind, text in zip(kinds, outputs[1:]):
            try:
                with warnings.catch_warnings():
                    # strengthen emits codiagonal sequents with empty
                    # conclusions, which the parser flags as vacuous
                    warnings.simplefilter("ignore")
                    got = len(parse_theory(text).sequents)
            except ParseError as err:
                errors.append(f"{kind} output does not parse: {err}")
                continue
            if got != want[kind]:
                errors.append(f"{kind} gave {got} rules, expected "
                              f"{want[kind]}")
        return errors
    return check


def compile_jobs(seed: int, work: Path) -> Inputs:
    files: dict[Path, str] = {}
    jobs = []
    for j in range(JOBS_PER_LIST):
        rng = random.Random(_sub_seed(seed, "compile", j))
        theory = _add(files, work / f"compile_{j}.hl", _random_theory(rng))
        flat = str(work / f"compile_{j}.flat.hl")
        steps = [Step("check", ["check", theory]),
                 Step("flatten", ["flatten", theory], save_as=flat)]
        steps += [Step(kind, ["transform", kind, flat]) for kind in TRANSFORMS]
        jobs.append(Job(j, steps, _compile_oracle(COMPILE_RULES)))
    return jobs, files


WORKLOADS = {
    "closure": closure_jobs,
    "congruence": congruence_jobs,
    "compile": compile_jobs,
}
