"""Command line front end.

Exit codes: 0 success, 2 usage or parse error, 3 verification failure,
4 resource cap exceeded, 5 stdout closed early by its reader (never 0: the
verdict may not have been reached).  Output depends only on the effective
options (flags override QBRACKETS_* environment variables, which override
the built-in defaults).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .brackets import bracket_series
from .checks import REGISTRY, first_failure, run_suite
from .config import FORMATS, Config, ResourceCap, load_config, set_config
from .derivation import d_general
from .linalg import SPACES, TABLE_KINDS, dimension_table, relation_search
from .words import OnePolynomial, WordSum, decompose_in_one, evaluate, \
    quasi_shuffle, word

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


def _word_label(w: Tuple[int, ...]) -> str:
    return " ".join(map(str, w))


# ---------------------------------------------------------------------------
# per-format rendering


def _series_lines(parts, series, fmt: str) -> List[str]:
    if fmt == "json":
        doc = {"composition": list(parts), "series": series.to_json()}
        return [json.dumps(doc, indent=2)]
    if fmt == "csv":
        return ["n,coefficient"] + [f"{n},{series.coefficient(n)}"
                                    for n in range(series.order + 1)]
    return [series.to_text()]


def _word_sum_csv(w: WordSum) -> List[str]:
    return ["word,coefficient"] + [f"{_word_label(t)},{c}"
                                   for t, c in w.terms()]


def _checked_lines(command: str, result: WordSum | OnePolynomial,
                   csv_rows: List[str], fmt: str, order: int, ok: bool,
                   check_text: str) -> List[str]:
    """A result with the verdict of its check through q^order; csv_rows
    (header included) are the result's own csv lines."""
    verdict = "pass" if ok else "FAIL"
    if fmt == "json":
        doc = {"command": command, "result": result.to_json(),
               "check": {"order": order, "pass": ok}}
        return [json.dumps(doc, indent=2)]
    if fmt == "csv":
        return csv_rows + [f"check,{order},{verdict}"]
    return [result.to_text(),
            f"check: {check_text} through q^{order}: {verdict}"]


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
    result = quasi_shuffle(word(*w), word(*v))
    ok = evaluate(result, order) == bracket_series(w, order) * bracket_series(v, order)
    for line in _checked_lines("product", result, _word_sum_csv(result),
                               cfg.output_format, order, ok,
                               "quasi-shuffle matches the series product"):
        print(line)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_derive(args, cfg: Config) -> int:
    parts = parse_parts(args.parts)
    order = args.order if args.order is not None else cfg.default_order
    # d_general's own check is the verdict: it raises (exit 3) on a mismatch
    result = d_general(parts, verify_order=order)
    for line in _checked_lines("derive", result, _word_sum_csv(result),
                               cfg.output_format, order, True,
                               "expression matches q d/dq of the series"):
        print(line)
    return EXIT_OK


def cmd_decompose(args, cfg: Config) -> int:
    parts = parse_parts(args.parts)
    order = args.order if args.order is not None else cfg.default_order
    poly = decompose_in_one(word(*parts))
    ok = poly.substitute_one(order) == bracket_series(parts, order)
    rows = ["power,word,coefficient"]
    rows += [f"{j},{_word_label(t)},{c}"
             for j, p in enumerate(poly.powers) for t, c in p.terms()]
    for line in _checked_lines("decompose", poly, rows, cfg.output_format,
                               order, ok, "substituting the series [1] for T "
                               "reproduces the bracket"):
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
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
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
            for t, c in rel.body.normalized().terms():
                lines.append(f"{i},{_word_label(t)},{c}")
        print("\n".join(lines))
    else:
        if not rels:
            print(f"no relations among the generators of weight <= "
                  f"{args.weight}, length <= {args.length}")
        for rel in rels:
            print(f"0 = {rel.body.normalized().to_text()}   "
                  f"({rel.status}, zero through q^{rel.verified_order})")
    return EXIT_OK


def cmd_verify(args, cfg: Config) -> int:
    if args.list:
        if cfg.output_format == "json":
            print(json.dumps([{"name": c.name, "quick": c.quick,
                               "description": c.description}
                              for c in REGISTRY], indent=2))
        elif cfg.output_format == "csv":
            print("name,quick,description")
            for c in REGISTRY:
                print(f"{c.name},{str(c.quick).lower()},{c.description}")
        else:
            for c in REGISTRY:
                kind = "quick" if c.quick else "full "
                print(f"{kind} {c.name:<28} {c.description}")
        return EXIT_OK
    names = args.only.split(",") if args.only is not None else None
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
                 for field in ("output_format", "max_cells")
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
