"""Command line front end.

Each subcommand hands one document to _emit, the one place a result is
printed, which builds only the configured format (text, JSON or CSV).
`dims --out FILE` runs the same _emit into the file, so the file holds the
bytes stdout would have held, and stdout gets `wrote FILE`.

Each command imports the layer modules it runs (`from . import layer`),
so that building the parser loads none and `series` loads three of nine.

Exit codes: 0 success, 2 usage or parse error, 3 verification failure,
4 resource cap exceeded, 5 stdout closed early by its reader (never 0: the
verdict may not have been reached).  Output depends only on the effective
options (flags override QBRACKETS_* environment variables, which override
the built-in defaults).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import (TYPE_CHECKING, Callable, Iterable, List, Optional,
                    Sequence, Tuple)

from .config import FORMATS, SPACES, TABLE_KINDS, Config, ResourceCap, \
    _environment_values, set_config

if TYPE_CHECKING:
    from .words import OnePolynomial, WordSum

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4
EXIT_PIPE = 5


def parse_parts(text: str) -> Tuple[int, ...]:
    """A composition: comma-separated integers, leftmost first; the library
    checks that the parts are positive."""
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise ValueError(f"composition {text!r} is not a comma-separated "
                         f"list of integers") from None


# ---------------------------------------------------------------------------
# the one output path


def _emit(cfg: Config, doc: Callable[[], object],
          csv: Callable[[], List[str]], text: Callable[[], List[str]]) -> None:
    """Print a command's output in the configured format, building only
    that one: the JSON document, or the csv or text lines."""
    fmt = cfg.output_format
    if fmt == "json":
        print(json.dumps(doc(), indent=2))
    else:
        print("\n".join(csv() if fmt == "csv" else text()))


def _emit_checked(cfg: Config, command: str, result: WordSum | OnePolynomial,
                  csv_rows: Callable[[], List[str]], order: int, ok: bool,
                  check_text: str) -> None:
    """A result with the verdict of its check through q^order; csv_rows
    (header included) are the result's own csv lines."""
    verdict = "pass" if ok else "FAIL"
    _emit(cfg,
          lambda: {"command": command, "result": result.to_json(),
                   "check": {"order": order, "pass": ok}},
          lambda: csv_rows() + [f"check,{order},{verdict}"],
          lambda: [result.to_text(),
                   f"check: {check_text} through q^{order}: {verdict}"])


def _terms_csv(header: str, sums: Iterable[Tuple[str, WordSum]]) -> List[str]:
    """One row per term of each (key, sum): the key, the word's letters
    separated by spaces, and the coefficient."""
    return [header] + [f"{key}{' '.join(map(str, t))},{c}"
                       for key, s in sums for t, c in s.terms()]


def _emit_rows(cfg: Config, header: Tuple[str, str, str],
               rows: List[Tuple[str, bool, str]],
               text: Callable[[], List[str]]) -> None:
    """(name, flag, free text) rows; in csv the text's commas become
    semicolons, so that each row keeps three fields."""
    _emit(cfg, lambda: [dict(zip(header, row)) for row in rows],
          lambda: [",".join(header)] + [
              f"{name},{str(flag).lower()},{free.replace(',', ';')}"
              for name, flag, free in rows],
          text)


def _order(args, cfg: Config) -> int:
    return args.order if args.order is not None else cfg.default_order


# ---------------------------------------------------------------------------
# subcommands


def cmd_series(args, cfg: Config) -> int:
    from . import brackets
    parts = parse_parts(args.parts)
    series = brackets.bracket_series(parts, _order(args, cfg))
    _emit(cfg,
          lambda: {"composition": list(parts), "series": series.to_json()},
          lambda: ["n,coefficient"] + [f"{n},{series.coefficient(n)}"
                                       for n in range(series.order + 1)],
          lambda: [series.to_text()])
    return EXIT_OK


def cmd_product(args, cfg: Config) -> int:
    from . import brackets, words
    w, v = parse_parts(args.left), parse_parts(args.right)
    order = _order(args, cfg)
    result = words.quasi_shuffle(words.word(*w), words.word(*v))
    ok = words.evaluate(result, order) == \
        brackets.bracket_series(w, order) * brackets.bracket_series(v, order)
    _emit_checked(cfg, "product", result,
                  lambda: _terms_csv("word,coefficient", [("", result)]),
                  order, ok, "quasi-shuffle matches the series product")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_derive(args, cfg: Config) -> int:
    from . import derivation
    parts = parse_parts(args.parts)
    order = _order(args, cfg)
    # d_general's own check is the verdict: it raises (exit 3) on a mismatch
    result = derivation.d_general(parts, verify_order=order)
    _emit_checked(cfg, "derive", result,
                  lambda: _terms_csv("word,coefficient", [("", result)]),
                  order, True, "expression matches q d/dq of the series")
    return EXIT_OK


def cmd_decompose(args, cfg: Config) -> int:
    from . import brackets, words
    parts = parse_parts(args.parts)
    order = _order(args, cfg)
    poly = words.decompose_in_one(words.word(*parts))
    ok = poly.substitute_one(order) == brackets.bracket_series(parts, order)
    _emit_checked(cfg, "decompose", poly,
                  lambda: _terms_csv("power,word,coefficient",
                                     ((f"{j},", p)
                                      for j, p in enumerate(poly.powers))),
                  order, ok, "substituting the series [1] for T reproduces "
                  "the bracket")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_dims(args, cfg: Config) -> int:
    from . import linalg
    table = linalg.dimension_table(args.space, args.max_weight, args.order,
                                   kind=args.kind)
    emit = functools.partial(
        _emit, cfg, lambda: {"space": table.space, "kind": table.kind,
                 "cells": [{"k": k, "l": l, "value": table.value(k, l),
                            "certainty": table.certainty(k, l)}
                           for (k, l) in sorted(table.cells)]},
        lambda: table.to_csv().splitlines(),
        lambda: table.to_text().splitlines())
    if not args.out:
        emit()
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8") as handle, \
                contextlib.redirect_stdout(handle):
            emit()
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_relations(args, cfg: Config) -> int:
    from . import linalg
    rels = linalg.relation_search(args.space, args.weight, args.length,
                                  args.order)
    _emit(cfg,
          lambda: {"space": args.space, "weight": args.weight,
                   "length": args.length,
                   "relations": [r.to_json() for r in rels]},
          lambda: _terms_csv("relation,word,coefficient",
                             ((f"{i},", r.body) for i, r in enumerate(rels))),
          lambda: [f"0 = {r.body.to_text()}   ({r.status}, zero through "
                   f"q^{r.verified_order})" for r in rels]
          or [f"no relations among the generators of weight <= "
              f"{args.weight}, length <= {args.length}"])
    return EXIT_OK


def cmd_verify(args, cfg: Config) -> int:
    from . import checks
    if args.list:
        _emit_rows(cfg, ("name", "quick", "description"),
                   [(c.name, c.quick, c.description) for c in checks.REGISTRY],
                   lambda: [f"{'quick' if c.quick else 'full '} {c.name:<28} "
                            f"{c.description}" for c in checks.REGISTRY])
        return EXIT_OK
    names = args.only.split(",") if args.only is not None else None
    results = checks.run_suite(names=names, quick=args.quick)
    _emit_rows(cfg, ("name", "pass", "detail"),
               [(r.name, r.passed, r.detail) for r in results],
               lambda: [r.line() for r in results])
    failed = checks.first_failure(results)
    if failed is not None:
        print(f"first failure: {failed.name} ({failed.detail})",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbrackets",
        description="Exact arithmetic for generating functions of multiple "
                    "divisor sums.")
    parser.add_argument("--format", choices=FORMATS, dest="output_format",
                        help="output format (default from QBRACKETS_FORMAT "
                             "or text)")
    parser.add_argument("--max-cells", type=int, dest="max_cells",
                        help="any command exits 4 before a series sweep that "
                             "would hold more than this many cells (prefix "
                             "rows x order)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="q-expansion of one bracket")
    p.add_argument("parts", help="composition, e.g. 4,2")
    p.add_argument("--order", type=int, help="truncation order")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("product", help="quasi-shuffle product of two brackets")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--order", type=int, help="verification order")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("derive", help="apply q d/dq to a bracket")
    p.add_argument("parts")
    p.add_argument("--order", type=int, help="verification order")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("decompose",
                       help="rewrite a bracket as a polynomial in [1] with "
                            "admissible coefficients")
    p.add_argument("parts")
    p.add_argument("--order", type=int, help="verification order")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("dims", help="dimension lower-bound table")
    p.add_argument("--space", choices=SPACES, default="mda")
    p.add_argument("--max-weight", type=int, required=True, dest="max_weight")
    p.add_argument("--order", type=int, help="coefficients per generator")
    p.add_argument("--kind", choices=TABLE_KINDS, default="fil")
    p.add_argument("--out", help="write the table to this file")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("relations", help="kernel relations among generators")
    p.add_argument("--space", choices=SPACES, default="mda")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--order", type=int, help="coefficients per generator")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("verify", help="run the named identity checks")
    p.add_argument("--quick", action="store_true",
                   help="fast subset of the suite")
    p.add_argument("--only", help="comma-separated check names")
    p.add_argument("--list", action="store_true",
                   help="list the registered checks and exit")
    p.set_defaults(func=cmd_verify)
    return parser


def _effective_config(args) -> Config:
    """The environment's values with the global flags that were given laid
    over them, in one Config, which range-checks the values from both
    sources."""
    flags = {field: getattr(args, field)
             for field in ("output_format", "max_cells")
             if getattr(args, field) is not None}
    return Config(**{**_environment_values(os.environ), **flags})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        cfg = _effective_config(args)
        set_config(cfg)
        code = args.func(args, cfg)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nothing more can reach the reader; send what is still buffered to
        # devnull so that the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ResourceCap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
