"""Command line front end.

Exit codes: 0 success, 2 usage or parse error, 3 verification failure,
4 resource cap exceeded.  Output depends only on the effective options
(flags override QBRACKETS_* environment variables, which override the
built-in defaults).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .brackets import bracket_series
from .checks import REGISTRY, first_failure, run_suite
from .config import FORMATS, Config, ResourceCap, load_config, set_config
from .derivation import d_general
from .linalg import SPACES, TABLE_KINDS, dimension_table, relation_search
from .words import OnePolynomial, WordSum, decompose_in_one, evaluate, \
    quasi_shuffle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4


def parse_parts(text: str) -> Tuple[int, ...]:
    """A composition: comma-separated integers, leftmost first; the library
    checks that the parts are positive."""
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise ValueError(f"composition {text!r} is not a comma-separated "
                         f"list of integers") from None


def _rat(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _word_label(w: Tuple[int, ...]) -> str:
    return " ".join(map(str, w))


# ---------------------------------------------------------------------------
# per-format rendering


def _series_lines(parts, series, fmt: str) -> List[str]:
    if fmt == "json":
        doc = {"composition": list(parts), "series": series.to_json()}
        return [json.dumps(doc, indent=2)]
    if fmt == "csv":
        lines = ["n,coefficient", f"0,{_rat(series.constant)}"]
        lines += [f"{n},{_rat(series.coefficient(n))}"
                  for n in range(1, series.order + 1)]
        return lines
    return [series.to_text()]


def _word_sum_csv(w: WordSum) -> List[str]:
    return ["word,coefficient"] + [f"{_word_label(t)},{_rat(c)}"
                                   for t, c in w.terms()]


def _expression_lines(command: str, result: WordSum, fmt: str,
                      order: int, ok: bool, check_text: str) -> List[str]:
    if fmt == "json":
        doc = {"command": command, "result": result.to_json(),
               "check": {"order": order, "pass": ok}}
        return [json.dumps(doc, indent=2)]
    if fmt == "csv":
        return _word_sum_csv(result) + [f"check,{order},{'pass' if ok else 'FAIL'}"]
    return [result.to_text(),
            f"check: {check_text} through q^{order}: "
            f"{'pass' if ok else 'FAIL'}"]


def _polynomial_lines(poly: OnePolynomial, fmt: str,
                      order: int, ok: bool) -> List[str]:
    if fmt == "json":
        doc = {"command": "decompose", "result": poly.to_json(),
               "check": {"order": order, "pass": ok}}
        return [json.dumps(doc, indent=2)]
    if fmt == "csv":
        lines = ["power,word,coefficient"]
        for j in range(poly.degree() + 1):
            for t, c in poly.coefficient(j).terms():
                lines.append(f"{j},{_word_label(t)},{_rat(c)}")
        lines.append(f"check,{order},{'pass' if ok else 'FAIL'}")
        return lines
    return [poly.to_text(),
            f"check: substituting the series [1] for T reproduces the "
            f"bracket through q^{order}: {'pass' if ok else 'FAIL'}"]


# ---------------------------------------------------------------------------
# subcommands


def cmd_series(args, cfg: Config) -> int:
    parts = parse_parts(args.parts)
    order = args.order if args.order is not None else cfg.default_order
    series = bracket_series(parts, order)
    for line in _series_lines(parts, series, cfg.output_format):
        print(line)
    return EXIT_OK


def cmd_product(args, cfg: Config) -> int:
    w = parse_parts(args.left)
    v = parse_parts(args.right)
    order = args.order if args.order is not None else cfg.default_order
    result = quasi_shuffle(WordSum.of(w), WordSum.of(v))
    ok = evaluate(result, order) == bracket_series(w, order) * bracket_series(v, order)
    for line in _expression_lines("product", result, cfg.output_format, order,
                                  ok, "quasi-shuffle matches the series product"):
        print(line)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_derive(args, cfg: Config) -> int:
    parts = parse_parts(args.parts)
    order = args.order if args.order is not None else cfg.default_order
    result = d_general(parts).expression
    ok = evaluate(result, order) == bracket_series(parts, order).q_d_dq()
    for line in _expression_lines("derive", result, cfg.output_format, order,
                                  ok, "expression matches q d/dq of the series"):
        print(line)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_decompose(args, cfg: Config) -> int:
    parts = parse_parts(args.parts)
    order = args.order if args.order is not None else cfg.default_order
    poly = decompose_in_one(WordSum.of(parts))
    ok = poly.substitute_one(order) == bracket_series(parts, order)
    for line in _polynomial_lines(poly, cfg.output_format, order, ok):
        print(line)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_dims(args, cfg: Config) -> int:
    table = dimension_table(args.space, args.max_weight, args.order,
                            kind=args.kind)
    if cfg.output_format == "json":
        doc = {"space": table.space, "kind": table.kind,
               "cells": [{"k": k, "l": l,
                          "value": table.value(k, l),
                          "certainty": table.certainty(k, l)}
                         for (k, l) in sorted(table.cells)]}
        text = json.dumps(doc, indent=2) + "\n"
    elif cfg.output_format == "csv":
        text = table.to_csv()
    else:
        text = table.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_relations(args, cfg: Config) -> int:
    rels = relation_search(args.space, args.weight, args.length, args.order)
    if cfg.output_format == "json":
        print(json.dumps({"space": args.space, "weight": args.weight,
                          "length": args.length,
                          "relations": [r.to_json() for r in rels]}, indent=2))
    elif cfg.output_format == "csv":
        lines = ["relation,word,coefficient"]
        for i, rel in enumerate(rels):
            for t, c in rel.normalized().terms():
                lines.append(f"{i},{_word_label(t)},{_rat(c)}")
        print("\n".join(lines))
    else:
        if not rels:
            print(f"no relations among the generators of weight <= "
                  f"{args.weight}, length <= {args.length}")
        for rel in rels:
            print(f"0 = {rel.normalized().to_text()}   "
                  f"({rel.status}, zero through q^{rel.verified_order})")
    return EXIT_OK


def cmd_verify(args, cfg: Config) -> int:
    if args.list:
        for check in REGISTRY:
            kind = "quick" if check.quick else "full "
            print(f"{kind} {check.name:<28} {check.description}")
        return EXIT_OK
    names = args.only.split(",") if args.only else None
    results = run_suite(names=names, quick=args.quick)
    if cfg.output_format == "json":
        print(json.dumps([{"name": r.name, "pass": r.passed,
                           "detail": r.detail}
                          for r in results], indent=2))
    elif cfg.output_format == "csv":
        print("name,pass,detail")
        for r in results:
            detail = r.detail.replace(",", ";")
            print(f"{r.name},{str(r.passed).lower()},{detail}")
    else:
        for r in results:
            print(r.line())
    failed = first_failure(results)
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
                             "would hold more than this many cells (suffix "
                             "rows x order)")
    parser.add_argument("--mzv-target-error", type=float,
                        dest="mzv_target_error",
                        help="requested bound for zeta value evaluations")
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
    """The environment's config with the global flags that were given laid
    over it; Config itself range-checks the values from both sources."""
    overrides = {field: getattr(args, field)
                 for field in ("output_format", "max_cells", "mzv_target_error")
                 if getattr(args, field) is not None}
    return dataclasses.replace(load_config(), **overrides)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        cfg = _effective_config(args)
        set_config(cfg)
        return args.func(args, cfg)
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
