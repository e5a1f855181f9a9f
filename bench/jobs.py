"""The three workloads: their job lists, the seeded inputs, and the checks
of each job's output against references the program did not produce.

A check runs in the parent, after the timed span, and raises
OutputMismatch.  References are the published tables and counts in
expected.json, the independent series algorithm (bracket_series_oracle),
and identities that must hold exactly.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("tables", "identities", "deep")

# Fixed sizes.  See README.md for why these and not larger ones.
HOMOMORPHISM_MAX_WEIGHT = 4      # all 120 pairs of compositions of weight <= 4
HOMOMORPHISM_ORDER = 60
CORPUS_WEIGHT = 6
DEEP_FIXED = ((4, 4, 4), 1000)
DEEP_DRAWN = (10, 5, 600)        # weight, length, order of the seeded series
PARTITION_ORDER = 200
SERIES_SAMPLES = 8
HOMOMORPHISM_SAMPLES = 3
ZETA_TOLERANCE = 1e-6


class OutputMismatch(Exception):
    """A job's output disagrees with its reference."""


@dataclass(frozen=True)
class Job:
    name: str
    spec: dict                          # what child.py runs
    check: Callable[[str, object], None]  # (output, package) -> None


@lru_cache(maxsize=None)
def expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OutputMismatch(message)


# ---------------------------------------------------------------------------
# seeded inputs


def _compositions(weight: int, length: int) -> List[Tuple[int, ...]]:
    """All compositions of weight into length positive parts, in
    lexicographic order.  Kept here so the inputs do not depend on the
    program under test."""
    if length == 1:
        return [(weight,)]
    return [(first,) + rest for first in range(1, weight - length + 2)
            for rest in _compositions(weight - first, length - 1)]


def _up_to(max_weight: int) -> List[Tuple[int, ...]]:
    return [c for k in range(1, max_weight + 1) for l in range(1, k + 1)
            for c in _compositions(k, l)]


def homomorphism_pairs(rng: random.Random) -> List[List[List[int]]]:
    """One pair per unordered pair of compositions of weight <= 4, each
    side redrawn among the compositions of its own weight and length.

    The shapes, and with them the amount of work, stay those of the full
    120-pair family; the words themselves change with the seed."""
    comps = _up_to(HOMOMORPHISM_MAX_WEIGHT)
    pairs = []
    for i, left in enumerate(comps):
        for right in comps[i:]:
            pairs.append([list(rng.choice(_compositions(sum(c), len(c))))
                          for c in (left, right)])
    return pairs


def _samples(rng: random.Random, order: int, count: int) -> List[int]:
    return sorted(rng.sample(range(1, order + 1), count))


# ---------------------------------------------------------------------------
# reference series


@lru_cache(maxsize=None)
def _oracle(qb, comps: Tuple[Tuple[int, ...], ...], order: int) -> Dict:
    return qb.bracket_series_oracle_many(comps, order)


def _oracle_coefficients(qb, parts, order: int) -> Sequence[Fraction]:
    """Coefficients q^0..q^order of the bracket by the independent
    algorithm."""
    series = _oracle(qb, (tuple(parts),), order)[tuple(parts)]
    return [series.coefficient(n) for n in range(order + 1)]


# ---------------------------------------------------------------------------
# checks, one per job kind


def _cli_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise OutputMismatch(f"output is not JSON: {exc}") from None


def check_dims(space: str, max_weight: int):
    """Every cell's value equals the published one where the paper proves
    it, and the recorded one elsewhere.  Extra fields are allowed."""
    def check(text: str, qb) -> None:
        doc = _cli_json(text)
        _require(doc.get("space") == space, f"space is {doc.get('space')}")
        got = {f"{c['k']},{c['l']}": c["value"] for c in doc["cells"]}
        ref = expected()
        recorded = ref["dims"][f"{space}-{max_weight}"]
        _require(set(got) == set(recorded),
                 f"cells {sorted(set(got) ^ set(recorded))} differ")
        for cell, value in got.items():
            published = ref["published_dims"][space].get(cell)
            if published is not None:
                _require(value == published,
                         f"cell {cell}: {value}, published {published}")
            _require(value == recorded[cell],
                     f"cell {cell}: {value}, recorded {recorded[cell]}")
    return check


def check_relations(weight: int, length: int):
    """The relation count matches, and every printed relation vanishes
    through its stated order when evaluated with the oracle series."""
    def check(text: str, qb) -> None:
        doc = _cli_json(text)
        rels = doc["relations"]
        want = expected()["relation_counts"][f"mda-{weight}-{length}"]
        _require(len(rels) == want, f"{len(rels)} relations, expected {want}")
        bodies = [[(tuple(t["parts"]), Fraction(t["coeff"]))
                   for t in rel["terms"]] for rel in rels]
        words = tuple(sorted({w for body in bodies for w, _ in body}))
        top = max((rel["verified_order"] for rel in rels), default=1)
        series = _oracle(qb, words, top)
        for i, (rel, terms) in enumerate(zip(rels, bodies)):
            for n in range(1, rel["verified_order"] + 1):
                total = sum(c * series[w].coefficient(n) for w, c in terms)
                _require(total == 0, f"relation {i} is {total} at q^{n}")
    return check


def check_series(parts: Sequence[int], order: int, sample: Sequence[int]):
    """Seeded coefficients equal the oracle's."""
    def check(text: str, qb) -> None:
        doc = _cli_json(text)
        _require(doc["composition"] == list(parts),
                 f"composition {doc['composition']}")
        _require(doc["series"]["order"] == order,
                 f"order {doc['series']['order']}")
        ref = _oracle_coefficients(qb, parts, order)
        for n in sample:
            got = Fraction(doc["series"]["coeffs"][n - 1])
            _require(got == ref[n], f"q^{n}: {got}, oracle {ref[n]}")
    return check


def check_verify(text: str, qb) -> None:
    doc = _cli_json(text)
    names = [r["name"] for r in doc]
    _require(names == expected()["verify_quick"], f"checks run: {names}")
    failed = [r["name"] for r in doc if not r["pass"]]
    _require(not failed, f"failed checks: {failed}")


def check_homomorphism(pairs, order: int, sample: Sequence[int]):
    """Each pair reports equality, and the sampled coefficients of the
    evaluated quasi-shuffle equal those of the oracle series product."""
    def check(text: str, qb) -> None:
        doc = _cli_json(text)
        _require(len(doc) == len(pairs), f"{len(doc)} pairs reported")
        comps = tuple(sorted({tuple(c) for pair in pairs for c in pair}))
        series = _oracle(qb, comps, order)
        for row, (left, right) in zip(doc, pairs):
            _require(row["pair"] == [left, right], f"pair {row['pair']}")
            _require(row["equal"] is True, f"{left} * {right} differs")
            a, b = series[tuple(left)], series[tuple(right)]
            for n, got in zip(sample, row["sample"]):
                want = sum(a.coefficient(i) * b.coefficient(n - i)
                           for i in range(n + 1))
                _require(Fraction(got) == want,
                         f"{left} * {right} at q^{n}: {got}, oracle {want}")
    return check


def check_corpus(text: str, qb) -> None:
    """Graded relation counts match the published low cells and the recorded
    rest; every proven relation maps to zero under Z_k."""
    doc = _cli_json(text)
    ref = expected()
    _require(doc["relations"] == ref["corpus"]["relations"],
             f"{doc['relations']} relations, expected "
             f"{ref['corpus']['relations']}")
    for cell, want in ref["published_relation_counts"].items():
        _require(doc["counts"].get(cell) == want,
                 f"cell {cell}: {doc['counts'].get(cell)}, published {want}")
    _require(doc["counts"] == ref["corpus"]["counts"],
             f"graded counts {doc['counts']}")
    _require(len(doc["max_abs"]) == doc["relations"], "one image per relation")
    worst = max(doc["max_abs"], default=0.0)
    _require(worst < ZETA_TOLERANCE, f"a Z_k image reaches {worst:.3e}")


def check_partitions(text: str, qb) -> None:
    _require(_cli_json(text) == {"holds": True}, "partition identity fails")


# ---------------------------------------------------------------------------
# workloads


def _cli(name: str, argv: List[str], check) -> Job:
    return Job(name, {"kind": "cli", "argv": ["--format", "json"] + argv},
               check)


def workload(name: str, seed: int) -> List[Job]:
    """The jobs of one workload, in run order, with inputs drawn from the
    seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "tables":
        return [
            _cli("dims-mda-8", ["dims", "--space", "mda", "--max-weight", "8"],
                 check_dims("mda", 8)),
            _cli("dims-md-6", ["dims", "--space", "md", "--max-weight", "6"],
                 check_dims("md", 6)),
            _cli("relations-7-7", ["relations", "--weight", "7",
                                   "--length", "7"], check_relations(7, 7)),
        ]
    if name == "identities":
        pairs = homomorphism_pairs(rng)
        sample = _samples(rng, HOMOMORPHISM_ORDER, HOMOMORPHISM_SAMPLES)
        return [
            _cli("verify-quick", ["verify", "--quick"], check_verify),
            Job("homomorphism", {"kind": "homomorphism", "args": {
                "pairs": pairs, "order": HOMOMORPHISM_ORDER,
                "sample": sample}},
                check_homomorphism(pairs, HOMOMORPHISM_ORDER, sample)),
            Job(f"corpus-{CORPUS_WEIGHT}",
                {"kind": "corpus", "args": {"weight": CORPUS_WEIGHT}},
                check_corpus),
        ]
    if name == "deep":
        weight, length, order = DEEP_DRAWN
        drawn = rng.choice(_compositions(weight, length))
        jobs = []
        for parts, n in (DEEP_FIXED, (drawn, order)):
            text = ",".join(map(str, parts))
            jobs.append(_cli(f"series-{text}-{n}",
                             ["series", text, "--order", str(n)],
                             check_series(parts, n,
                                          _samples(rng, n, SERIES_SAMPLES))))
        jobs.append(Job(f"partitions-{PARTITION_ORDER}",
                        {"kind": "partitions",
                         "args": {"order": PARTITION_ORDER}},
                        check_partitions))
        return jobs
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
