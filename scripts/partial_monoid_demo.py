#!/usr/bin/env python3
"""Evaluate a theory with partial functions by flattening it first.

Takes the involution law ``f(f(x)) = x`` over a partial unary function,
flattens composite terms into graph atoms (with the single-valuedness
rule for the function graph), and closes a small structure.  Elements
that the law forces together are merged, which the unit morphism
reports.
"""

from horneq import (Structure, evaluate, flatten_theory, parse_theory,
                    pretty_print)

THEORY = """
sort M;
func f : M -> M;
rule f(f(x))! => f(f(x)) = x;
"""


def main() -> None:
    t = parse_theory(THEORY)
    flat = flatten_theory(t, with_functionality=True)
    print("flattened rules:")
    for s in flat.sequents:
        print(f"  {pretty_print(s)}")

    # a, b, c with f(a) = b, f(b) = c: the involution forces c = a
    x = Structure(flat.signature)
    a, b, c = (x.add_element("M") for _ in range(3))
    x.add_tuple("f", (a, b))
    x.add_tuple("f", (b, c))

    res, unit, report = evaluate(flat, x)
    print(f"\ninput elements: 3, result elements: {res.element_count('M')}")
    print(f"unit injective: {unit.is_injective()} "
          f"(c was merged into a: {unit.apply(c) == unit.apply(a)})")
    print(f"iterations: {report.iterations}, "
          f"fixed point: {report.fixed_point}")
    assert unit.apply(c) == unit.apply(a)


if __name__ == "__main__":
    main()
