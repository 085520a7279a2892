"""Command-line entry point: parse / check / reduce / graph / probe / suite / corpus.

Exit codes: 0 success or confirmed, 1 refutation or type error,
2 inconclusive (fuel, node cap or reduct depth), 64 usage or malformed input.
The commands raise the library's errors; main maps each to its exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import behavior, metatheory
from .reduction import (
    DEFAULT_FUEL, DEFAULT_NODE_CAP, FuelExhausted, ReductTooDeep, normalize,
    reduction_graph,
)
from .syntax import ParseError, parse_formula, parse_term, print_formula, print_term
from .terms import Term, free_variables, substitute
from .typecheck import TypeCheckError, check, derivation_to_json, infer

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
_VERDICT_EXIT = {"confirmed": EXIT_OK, "refuted": EXIT_FAIL}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(low: int):
    """An argparse type for integers no smaller than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports "invalid int value: ..."
    return parse


_POSITIVE = _int_at_least(1)
_NATURAL = _int_at_least(0)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lambdamu", description=__doc__)
    parser.add_argument("--seed", type=_NATURAL, default=0,
                        help="seed for fresh-name generation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--term", help="inline term or canonical name "
                                      "(T, C1, C2, W, Wprime, Tvar)")
        p.add_argument("file", nargs="?", help="file containing a term")
        p.add_argument("--open", dest="open_vars", default="",
                       help="comma-separated free variables and mu-names "
                            "to allow")

    p = sub.add_parser("parse", help="parse and print back, binder names "
                                     "kept as written")
    add_input(p)

    p = sub.add_parser("check", help="type-check a closed term")
    add_input(p)
    p.add_argument("--type", help="expected type (checking mode)")
    p.add_argument("--derivation", action="store_true",
                   help="print the derivation tree as JSON")

    p = sub.add_parser("reduce", help="normalize a term")
    add_input(p)
    p.add_argument("--fuel", type=_NATURAL, default=DEFAULT_FUEL)
    p.add_argument("--trace", action="store_true",
                   help="print the JSON-lines trace")

    p = sub.add_parser("graph", help="explore the reduction graph")
    add_input(p)
    p.add_argument("--node-cap", type=_POSITIVE, default=DEFAULT_NODE_CAP)
    p.add_argument("--dot", action="store_true", help="Graphviz output")

    p = sub.add_parser("probe", help="run a behavior probe")
    add_input(p)
    p.add_argument("--law", choices=["efq", "peirce", "lem"], required=True)
    p.add_argument("--n-args", type=_NATURAL, default=1)
    p.add_argument("--seq-len", type=_NATURAL, default=1)
    p.add_argument("--max-m", type=_NATURAL, default=8)
    p.add_argument("--node-cap", type=_POSITIVE, default=DEFAULT_NODE_CAP)

    p = sub.add_parser("suite", help="run the metatheory oracles")
    p.add_argument("--max-size", type=_POSITIVE, default=10)
    p.add_argument("--max-formula-size", type=_POSITIVE,
                   default=metatheory.DEFAULT_MAX_FORMULA_SIZE)
    p.add_argument("--node-cap", type=_POSITIVE, default=DEFAULT_NODE_CAP)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("corpus", help="dump the enumerated corpus")
    p.add_argument("--max-size", type=_POSITIVE, default=10)
    p.add_argument("--max-formula-size", type=_POSITIVE,
                   default=metatheory.DEFAULT_MAX_FORMULA_SIZE)
    p.add_argument("--target", help="only inhabitants of this formula")

    return parser


def _load_term(args) -> Term:
    if args.term is not None and args.file:
        raise UsageError("give either --term or a file, not both")
    if args.term is not None:
        text = args.term
    elif args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read input file: {exc}") from None
    else:
        raise UsageError("no input term (use --term or a file)")
    term = parse_term(text)
    open_vars = {v for v in args.open_vars.split(",") if v}
    # substitute canonical names for free variables; library terms are closed
    library = behavior.canonical_terms()
    free_lam, free_mu = free_variables(term)
    for name in sorted(free_lam):
        if name in library and name not in open_vars:
            term = substitute(term, name, library[name][0])
    stray = (free_lam - library.keys() | free_mu) - open_vars
    if stray:
        raise UsageError(
            f"term has free variables {sorted(stray)}; declare them with --open")
    return term


def _run(args) -> int:
    if args.command == "parse":
        print(print_term(_load_term(args)))
        return EXIT_OK

    if args.command == "check":
        term = _load_term(args)
        if args.derivation:
            d = infer({}, {}, term)
            formula = d.conclusion.formula
        else:
            formula = check({}, {}, term)
        if args.type is not None:
            expected = parse_formula(args.type)
            if formula != expected:
                print(f"type mismatch: expected {print_formula(expected)}, "
                      f"found {print_formula(formula)}", file=sys.stderr)
                return EXIT_FAIL
        if args.derivation:
            print(json.dumps(derivation_to_json(d), indent=2))
        else:
            print(print_formula(formula))
        return EXIT_OK

    if args.command == "reduce":
        try:
            nf, trace = normalize(_load_term(args), args.fuel)
        except FuelExhausted as exc:
            nf, trace = None, exc.trace
        else:
            print(print_term(nf))
        if args.trace:
            for line in trace.to_json_lines():
                print(json.dumps(line))
        if nf is None:
            print(f"fuel exhausted after {len(trace.steps)} steps",
                  file=sys.stderr)
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    if args.command == "graph":
        graph = reduction_graph(_load_term(args), args.node_cap)
        if args.dot:
            print(graph.to_dot())
        else:
            print(json.dumps(graph.to_json(), indent=2))
        return EXIT_OK if graph.complete else EXIT_INCONCLUSIVE

    if args.command == "probe":
        term = _load_term(args)
        if args.law == "efq":
            report = behavior.probe_exfalso(
                term, n_args=args.n_args, node_cap=args.node_cap,
                seed=args.seed)
        elif args.law == "peirce":
            report = behavior.probe_peirce(
                term, n_args=args.n_args, node_cap=args.node_cap,
                max_m=args.max_m, seed=args.seed)
        else:
            report = behavior.probe_tertium(
                term, seq_len=args.seq_len, node_cap=args.node_cap,
                max_m=args.max_m, seed=args.seed)
        print(json.dumps(report.to_json(), indent=2))
        return _VERDICT_EXIT.get(report.verdict, EXIT_INCONCLUSIVE)

    if args.command == "suite":
        corpus = metatheory.enumerate_typed_terms(
            args.max_size, max_formula_size=args.max_formula_size)
        failed = False
        for report in metatheory.run_suite(corpus, args.node_cap):
            if args.json:
                print(json.dumps(report.to_json()))
            else:
                status = "ok" if report.ok else "FAIL"
                print(f"{report.property}: {status} "
                      f"({report.checked} checked, "
                      f"{len(report.failures)} failures, "
                      f"{len(report.incomplete)} incomplete)")
            failed = failed or not report.ok
        return EXIT_FAIL if failed else EXIT_OK

    if args.command == "corpus":
        target = parse_formula(args.target) if args.target else None
        corpus = metatheory.enumerate_typed_terms(
            args.max_size, target=target,
            max_formula_size=args.max_formula_size)
        for entry in corpus.entries:
            print(f"{print_term(entry.term)} : {print_formula(entry.formula)}")
        return EXIT_OK

    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TypeCheckError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ReductTooDeep as exc:
        print(exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
