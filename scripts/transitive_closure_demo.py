#!/usr/bin/env python3
"""Compute the free model of a random digraph under a transitivity rule.

Generates a random edge relation, closes it under
``E(u, v) & E(v, w) => E(u, w)``, and prints the input, the result, and
the per-iteration evaluation statistics for both the default semi-naive
(delta-driven) strategy and the naive reference strategy.
"""

import argparse
import random

from horneq import EvalConfig, Structure, evaluate, parse_theory

THEORY = """
sort V;
pred E : V * V;
rule E(u, v) & E(v, w) => E(u, w);
"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=8)
    ap.add_argument("--edges", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t = parse_theory(THEORY)
    x = Structure(t.signature)
    els = [x.add_element("V") for _ in range(args.nodes)]
    for _ in range(args.edges):
        x.add_tuple("E", (rng.choice(els), rng.choice(els)))

    print(f"input: {args.nodes} nodes, {x.total_tuple_count()} edges")
    for strategy in ("seminaive", "naive"):
        res, unit, report = evaluate(t, x, EvalConfig(strategy=strategy))
        print(f"\nstrategy={strategy}: closed to "
              f"{res.total_tuple_count()} edges in "
              f"{report.iterations} iterations "
              f"(fixed point: {report.fixed_point})")
        for i, st in enumerate(report.per_iteration):
            print(f"  iteration {i}: {st.matches} rule firings, "
                  f"{st.tuples_added} tuples added")
        assert unit.is_injective() and unit.is_surjective()


if __name__ == "__main__":
    main()
