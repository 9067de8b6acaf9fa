"""Command-line interface: solve, verify, generate.

All results go to stdout as UTF-8 JSON; diagnostics go to stderr.  Exit
codes: 0 success, 1 failed verification, 2 input rejected, 3 internal
invariant failure.  ``main`` alone maps an exception to a code, by its
type: the input layer raises ``FormatError`` (a file that cannot be read,
decoded or parsed, a malformed document, an output that cannot be
written) or ``InvalidMarketError`` (a market that violates a
precondition), which exit 2; any other error is a bug and exits 3.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import re
import sys
from fractions import Fraction

from .descend import solve_max_revenue
from .errors import FormatError, InvalidMarketError, InvariantError
from .exact import _to_int
from .market import Market
from .minrev import min_revenue
from .serialize import (
    equilibrium_from_doc,
    equilibrium_to_doc,
    market_from_doc,
    market_to_doc,
    trace_to_ndjson,
)
from .verify import verify

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_MALFORMED = 2
EXIT_INTERNAL = 3


def generate_market(buyers, goods, max_value, seed, linear=False):
    """Deterministic pseudo-random integer market.

    Every buyer values at least one good and every good is valued by at
    least one buyer; the linear flag makes every cap unbounded.
    """
    if buyers < 1 or goods < 1 or max_value < 1:
        raise ValueError("need buyers >= 1, goods >= 1, max value >= 1")
    rng = random.Random(seed)
    budgets = [Fraction(rng.randint(1, max_value)) for _ in range(buyers)]
    caps = []
    for _ in range(buyers):
        if linear or rng.random() < 0.5:
            caps.append(None)
        else:
            caps.append(Fraction(rng.randint(1, max_value)))
    utilities = [
        [Fraction(rng.randint(0, max_value)) for _ in range(goods)]
        for _ in range(buyers)
    ]
    for i in range(buyers):
        if all(u == 0 for u in utilities[i]):
            utilities[i][rng.randrange(goods)] = Fraction(rng.randint(1, max_value))
    for j in range(goods):
        if all(utilities[i][j] == 0 for i in range(buyers)):
            utilities[rng.randrange(buyers)][j] = Fraction(rng.randint(1, max_value))
    return Market(tuple(budgets), tuple(caps), tuple(map(tuple, utilities)))


_INTEGER_RE = re.compile(r"\s*[+-]?\d+\s*")


def _integer(text):
    """``int`` for an argument of any length: ``int`` itself refuses digits
    past the interpreter's int <-> str limit, ``exact`` reads them."""
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return _to_int(text)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as bad:  # decode, nesting
        raise FormatError(f"cannot read {path}: {bad}") from None


def _print_json(doc, **options):
    """Write ``doc`` to stdout as JSON and flush it, so that a failed write
    is reported here and not at interpreter exit."""
    try:
        json.dump(doc, sys.stdout, indent=2, **options)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except OSError as bad:
        raise FormatError(f"cannot write stdout: {bad.strerror}") from None


def _cmd_solve(args):
    market = market_from_doc(_load_json(args.instance))
    # An unwritable --trace path is bad input: found before the solve.
    trace = contextlib.nullcontext()
    if args.trace:
        try:
            trace = open(args.trace, "w", encoding="utf-8")
        except OSError as bad:
            raise FormatError(f"cannot write {args.trace}: {bad.strerror}") from None
    with trace:
        result = solve_max_revenue(market)
        equilibrium = result.equilibrium
        if args.objective == "min-revenue":
            equilibrium = min_revenue(market, equilibrium)
        if args.trace:
            try:
                trace.write(trace_to_ndjson(result.trace))
                trace.close()
            except OSError as bad:
                raise FormatError(f"cannot write {args.trace}: {bad.strerror}") from None
    _print_json(equilibrium_to_doc(equilibrium))
    return EXIT_OK


def _cmd_verify(args):
    market = market_from_doc(_load_json(args.instance))
    equilibrium = equilibrium_from_doc(_load_json(args.equilibrium), market)
    report = verify(market, equilibrium)
    _print_json(
        {
            "is_equilibrium": report.is_equilibrium,
            "is_modest": report.is_modest,
            "is_mbb": report.is_mbb,
            "kkt_ok": report.kkt_ok,
            "violations": [list(v) for v in report.violations],
        }
    )
    return EXIT_OK if report.ok else EXIT_FAILED


def _cmd_generate(args):
    try:
        market = generate_market(
            args.buyers, args.goods, args.max_value, args.seed, args.linear
        )
    except ValueError as bad:
        raise FormatError(str(bad)) from None
    _print_json(market_to_doc(market), sort_keys=True)
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fisheq",
        description="Exact equilibrium solver for Fisher markets with "
        "budget-additive utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a market equilibrium")
    solve.add_argument("instance", help="instance JSON file")
    solve.add_argument(
        "--objective",
        choices=["max-revenue", "min-revenue"],
        default="max-revenue",
    )
    solve.add_argument("--trace", help="write the event trace to this file")
    solve.set_defaults(handler=_cmd_solve)

    check = sub.add_parser("verify", help="verify an equilibrium file")
    check.add_argument("instance", help="instance JSON file")
    check.add_argument("--equilibrium", required=True, help="equilibrium JSON file")
    check.set_defaults(handler=_cmd_verify)

    gen = sub.add_parser("generate", help="emit a pseudo-random instance")
    gen.add_argument("--buyers", type=int, required=True)
    gen.add_argument("--goods", type=int, required=True)
    gen.add_argument("--max-value", type=_integer, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--linear", action="store_true", help="all caps unbounded")
    gen.set_defaults(handler=_cmd_generate)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FormatError, InvalidMarketError) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_MALFORMED
    except Exception as bug:  # the input was accepted, so the program is at fault
        name = "" if isinstance(bug, InvariantError) else f"{type(bug).__name__}: "
        where = ""
        if getattr(bug, "phase", None) is not None:
            where = (
                f" (phase {bug.phase}, iteration {bug.iteration},"
                f" S {list(bug.S)}, event {bug.event})"
            )
        print(f"internal invariant failure: {name}{bug}{where}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
