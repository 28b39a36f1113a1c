"""Command-line front end.

Subcommands: compute a character, print Betti numbers, sweep the length
analysis, run a verification suite, or manage the disk cache.  Exit codes:
0 success, 1 usage error, 2 verification failure, 3 cache corruption or a
failed cache read or write, and 141 (128 + SIGPIPE) when stdout closes
before the output is written.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from .lengths import length_bound, length_theorem_report
from .moduli import CacheError, CharacterCalculator, cache_files, character_json
from .render import latex, text
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_CACHE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool stopped by a closed pipe

_FORMATS = ("text", "latex", "json")
_PRINTERS = {"text": text, "latex": latex}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _dumps(payload) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=False)


def _cache_dir(args):
    raw = args.cache or os.environ.get("EQUICHAR_CACHE")
    return Path(raw) if raw else None


def _calculator(args) -> CharacterCalculator:
    return CharacterCalculator(cache_dir=_cache_dir(args))


def _require_n(n: int, flag: str = "--n") -> None:
    if n < 3:
        raise ValueError(f"{flag} must be at least 3")


def cmd_compute(args) -> int:
    _require_n(args.n)
    calc = _calculator(args)
    value = calc.character(args.n, args.k, args.l)
    if args.format == "json":
        print(character_json((args.n, args.k, args.l), value))
    else:
        print(_PRINTERS[args.format](value))
    return EXIT_OK


def cmd_betti(args) -> int:
    _require_n(args.n)
    calc = _calculator(args)
    poly = calc.poincare_polynomial(args.n)
    coeffs = [int(poly.coeff(i)) for i in range(poly.degree + 1)]
    if args.format == "json":
        print(_dumps({"n": args.n, "poincare": poly.to_json_dict(), "betti": coeffs}))
    else:
        print(_PRINTERS[args.format](poly))
        print(",".join(str(c) for c in coeffs))
    return EXIT_OK


def cmd_length_table(args) -> int:
    _require_n(args.n_max, "--n-max")
    calc = _calculator(args)
    reports = [length_theorem_report(n, calc) for n in range(3, args.n_max + 1)]
    all_ok = all(report.ok for report in reports)
    if args.format == "json":
        payload = {"ok": all_ok, "reports": [r.to_json_dict() for r in reports]}
        print(_dumps(payload))
    else:
        for report in reports:
            for row in report.rows:
                bound = length_bound(report.n, row.i)
                fields = [
                    f"n={report.n}",
                    f"i={row.i}",
                    f"length={row.length}",
                    f"bound={bound}",
                    f"match={'yes' if row.length == bound else 'NO'}",
                    "w=(" + ",".join(str(a) for a in row.w) + ")",
                    f"star={'yes' if row.star_holds else 'no'}",
                    f"lambda_mult={row.lambda_mult if row.lambda_mult is not None else '-'}",
                ]
                print(" ".join(fields))
        print("all rows match" if all_ok else "MISMATCH FOUND")
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_verify(args) -> int:
    if args.n_max is not None:  # without it, each suite keeps its own default
        _require_n(args.n_max, "--n-max")
    calc = _calculator(args)
    result = run_suite(args.suite, calc, args.n_max)
    print(_dumps(result.to_json_dict()))
    return EXIT_OK if result.ok else EXIT_VERIFY


def cmd_cache(args) -> int:
    directory = _cache_dir(args)
    if directory is None:
        raise ValueError("no cache directory: pass --cache or set EQUICHAR_CACHE")
    files, leftovers = cache_files(directory)
    if args.clear:
        # Another clear or a writer's rename may remove a file first.
        for path in files + leftovers:
            path.unlink(missing_ok=True)
        print(f"removed {len(files)} cache files from {directory}")
    else:
        print(f"cache directory: {directory}")
        print(f"cache files: {len(files)}")
    return EXIT_OK


def _add_common(sub, formats=_FORMATS) -> None:
    sub.add_argument("--cache", metavar="DIR", default=None,
                     help="cache directory (default: $EQUICHAR_CACHE)")
    if formats:
        sub.add_argument("--format", choices=formats, default="text")


def build_parser() -> _Parser:
    parser = _Parser(prog="equichar",
                     description="Exact equivariant Poincare-Serre polynomials "
                                 "of weighted pointed rational curve spaces.")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("compute", help="compute one character E(n,k,l)")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, default=0)
    sub.add_argument("--l", type=int, default=1)
    _add_common(sub)
    sub.set_defaults(func=cmd_compute)

    sub = commands.add_parser("betti", help="Betti numbers of the full space")
    sub.add_argument("--n", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(func=cmd_betti)

    sub = commands.add_parser("length-table",
                              help="length analysis of every graded piece, 3 <= n <= n-max")
    sub.add_argument("--n-max", type=int, default=8)
    _add_common(sub, ("text", "json"))
    sub.set_defaults(func=cmd_length_table)

    sub = commands.add_parser("verify", help="run a self-verification suite")
    sub.add_argument("--suite", required=True, choices=SUITES)
    sub.add_argument("--n-max", type=int, help="largest n (default: the suite's own)")
    _add_common(sub, ())
    sub.set_defaults(func=cmd_verify)

    sub = commands.add_parser("cache", help="inspect or clear the disk cache")
    sub.add_argument("--clear", action="store_true")
    _add_common(sub, ())
    sub.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so the interpreter's final flush stays
        # quiet (the "Note on SIGPIPE" of the `signal` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CacheError as exc:
        print(f"equichar: cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except ArithmeticError as exc:  # a computed character failed its check
        print(f"equichar: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"equichar: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
