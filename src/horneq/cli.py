"""Command-line front-end.

Subcommands: check (classify sequents), eval (compute the free model of a
facts file), flatten, transform (setoid | sparse-setoid | epic |
strengthen), satisfies.  Exit codes: 0 ok, 1 unsatisfied, 2 input error,
3 iteration budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Optional

from . import classify, engine, facts, transform
from .core import SignatureError, Structure
from .syntax import ParseError, Theory, is_rhl, parse_theory, pretty_print

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


def _load_theory(path: str) -> Theory:
    with open(path, "r", encoding="utf-8") as f:
        return parse_theory(f.read())


def _load_facts(path: str, sig) -> tuple[Structure, dict]:
    with open(path, "r", encoding="utf-8") as f:
        return facts.parse_facts(f.read(), sig)


def _prepare(t: Theory) -> tuple[Theory, bool]:
    """Flatten a theory whose signature has function symbols and append
    their functionality sequents; reports whether every original sequent
    was epic."""
    all_epic = all(classify.classify_sequent(s).epic_phl for s in t.sequents)
    if is_rhl(t) and not t.signature.functions():
        return t, all_epic
    return classify.flatten_theory(t, with_functionality=True), all_epic


def cmd_check(args) -> int:
    t = _load_theory(args.theory)
    flags = [classify.classify_sequent(s) for s in t.sequents]
    for i, (s, f) in enumerate(zip(t.sequents, flags)):
        names = f.names()
        print(f"sequent {i}: " + (", ".join(names) if names else "(none)"))
    print(f"all surjective: {all(f.surjective for f in flags)}")
    print(f"all epic: {all(f.epic_phl for f in flags)}")
    print(f"pure datalog: {all(f.datalog for f in flags)}")
    return EXIT_OK


def _eval_config(args, epic_origin: bool) -> engine.EvalConfig:
    return engine.EvalConfig(
        max_iterations=args.max_iterations,
        strategy=args.strategy,
        strictness="error" if args.strict else "warn",
        epic_origin=epic_origin,
    )


def cmd_eval(args) -> int:
    t = _load_theory(args.theory)
    rt, epic_origin = _prepare(t)
    x, input_names = _load_facts(args.facts, rt.signature)
    cfg = _eval_config(args, epic_origin)
    try:
        result, unit, report = engine.evaluate(rt, x, cfg)
    except engine.EvaluationBudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        if args.emit_partial:
            names, merged = facts.model_names(err.partial, input_names,
                                              err.unit)
            rep = facts.report_dict(err.report) if args.report else None
            sys.stdout.write(facts.serialize_model(err.partial, names, merged,
                                                   args.format, rep))
        return EXIT_BUDGET
    names, merged = facts.model_names(result, input_names, unit)
    rep = facts.report_dict(report) if args.report else None
    sys.stdout.write(facts.serialize_model(result, names, merged,
                                           args.format, rep))
    return EXIT_OK


def cmd_flatten(args) -> int:
    t = _load_theory(args.theory)
    sys.stdout.write(pretty_print(classify.flatten_theory(t)))
    return EXIT_OK


def cmd_transform(args) -> int:
    t = _load_theory(args.theory)
    if args.kind == "setoid":
        out = transform.setoid_transform(t)
    elif args.kind == "sparse-setoid":
        out = transform.sparse_setoid_transform(t)
    elif args.kind == "epic":
        _, out = transform.epic_transform(t)
    else:
        out = classify.strengthen_theory(t)
    sys.stdout.write(pretty_print(out))
    return EXIT_OK


def cmd_satisfies(args) -> int:
    t = _load_theory(args.theory)
    rt, _ = _prepare(t)
    x, input_names = _load_facts(args.facts, rt.signature)
    # The first name of an element wins: declared names precede aliases.
    rev = {e: n for n, e in reversed(input_names.items())}
    ok = True
    for i, s in enumerate(rt.sequents):
        m = engine.counterexample(x, s)
        if m is None:
            print(f"sequent {i}: satisfied")
        else:
            ok = False
            # Sorted as (variable, element) pairs, so x comes before x1.
            witness = sorted((v.name, rev[e]) for v, e in m.items())
            binding = ", ".join(f"{k}: {v}" for k, v in witness)
            print(f"sequent {i}: FAILED at {{{binding}}}")
    print("all satisfied" if ok else "unsatisfied")
    return EXIT_OK if ok else EXIT_UNSATISFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horneq",
        description="Horn-logic-with-equality engine: classify theories, "
                    "compute free models, and compile theories into "
                    "restricted fragments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify each sequent of a theory")
    p.add_argument("theory")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="compute the free model of a facts file")
    p.add_argument("theory")
    p.add_argument("facts")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--strategy", choices=["naive", "seminaive"],
                   default="seminaive")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--report", action="store_true")
    p.add_argument("--emit-partial", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("flatten",
                       help="compile function symbols into graph relations")
    p.add_argument("theory")
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("transform", help="apply a theory transformation")
    p.add_argument("kind",
                   choices=["setoid", "sparse-setoid", "epic", "strengthen"])
    p.add_argument("theory")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("satisfies",
                       help="check a facts file against a theory")
    p.add_argument("theory")
    p.add_argument("facts")
    p.set_defaults(func=cmd_satisfies)

    return parser


def _show_warning(message, category, filename, lineno, file=None,
                  line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ParseError, SignatureError, transform.PreconditionError,
                OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
