"""Command-line front-end.

Subcommands: check (classify sequents), eval (compute the free model of a
facts file), flatten, transform (setoid | sparse-setoid | epic |
strengthen), satisfies.  Exit codes: 0 ok, 1 unsatisfied, 2 input error,
3 iteration budget exhausted, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from typing import Optional

from . import classify, engine, facts, transform
from .core import SignatureError, Structure
from .syntax import Theory, is_rhl, parse_theory, pretty_print

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _load_theory(path: str) -> Theory:
    with open(path, "r", encoding="utf-8") as f:
        return parse_theory(f.read())


def _load_facts(path: str, sig) -> tuple[Structure, dict]:
    with open(path, "r", encoding="utf-8") as f:
        return facts.parse_facts(f.read(), sig)


def _prepare(t: Theory) -> Theory:
    """Flatten a theory whose signature has function symbols and append
    their functionality sequents."""
    if is_rhl(t) and not t.signature.functions():
        return t
    return classify.flatten_theory(t, with_functionality=True)


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


def cmd_eval(args) -> int:
    t = _load_theory(args.theory)
    rt = _prepare(t)
    x, input_names = _load_facts(args.facts, rt.signature)
    cfg = engine.EvalConfig(max_iterations=args.max_iterations,
                            strategy=args.strategy)
    # A sequent that is not epic keeps a conclusion-only variable when
    # flattened; a flattened epic PHL theory has a free model.
    if not all(classify.classify_sequent(s).epic_phl for s in t.sequents):
        message = ("a rule has a conclusion variable that its premise "
                   "lacks; the result is only weakly free")
        if args.strict:
            raise SignatureError(message)
        warnings.warn(message)
    code = EXIT_OK
    try:
        result, unit, report = engine.evaluate(rt, x, cfg)
    except engine.EvaluationBudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        if not args.emit_partial:
            return EXIT_BUDGET
        result, unit, report = err.partial, err.unit, err.report
        code = EXIT_BUDGET
    names, merged = facts.model_names(result, input_names, unit)
    rep = facts.report_dict(report) if args.report else None
    sys.stdout.write(facts.serialize_model(result, names, merged,
                                           args.format, rep))
    return code


def cmd_flatten(args) -> int:
    t = _load_theory(args.theory)
    sys.stdout.write(pretty_print(classify.flatten_theory(t)))
    return EXIT_OK


def cmd_transform(args) -> int:
    compile_ = {"setoid": transform.setoid_transform,
                "sparse-setoid": transform.sparse_setoid_transform,
                "epic": lambda t: transform.epic_transform(t)[1],
                "strengthen": classify.strengthen_theory}[args.kind]
    # The input theory is not kept while the output is printed.
    out = compile_(_load_theory(args.theory))
    sys.stdout.write(pretty_print(out))
    return EXIT_OK


def cmd_satisfies(args) -> int:
    t = _load_theory(args.theory)
    rt = _prepare(t)
    x, input_names = _load_facts(args.facts, rt.signature)
    # The first name of an element wins: declared names precede aliases.
    rev = {e: n for n, e in reversed(input_names.items())}
    # Every verdict first, so a plan error comes before any output.
    found = [engine.counterexample(x, s) for s in rt.sequents]
    ok = True
    for i, m in enumerate(found):
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every ``main`` call, built on the first; callers
    share it and must not change it."""
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
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        # ``ParseError``, ``SignatureError`` and ``PreconditionError`` are
        # ``ValueError``s.
        except (OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        except Exception as err:  # a fault of horneq, not of the input
            print(f"error: internal: {type(err).__name__}: {err}",
                  file=sys.stderr)
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
