"""One benchmark job in a fresh interpreter.

    python3 bench/child.py '<job spec as JSON>'

The spec names the source tree, a file for the import timestamp and the
host-speed samples (speed.py; untraced jobs only, so the probe adds to no
span) and, when traced, a file for the spans.  The job's output goes to
stdout; the parent checks it after the timed span.  Library jobs print one
JSON document.
"""

import json
import sys
import time


def homomorphism(qb, pairs, order, sample):
    """[w]*[v] evaluated through the quasi-shuffle equals the series
    product, for every pair; reports the sampled coefficients too."""
    out = []
    for left, right in pairs:
        product = qb.quasi_shuffle(qb.word(*left), qb.word(*right))
        lhs = qb.evaluate(product, order)
        rhs = qb.bracket_series(left, order) * qb.bracket_series(right, order)
        out.append({"pair": [left, right], "terms": len(product),
                    "equal": lhs == rhs,
                    "sample": [str(lhs.coefficient(n)) for n in sample]})
    return out


def corpus(qb, weight):
    """Proven relations, their graded counts, and the largest coefficient of
    each relation's image under the weight-k zeta map."""
    relations = qb.proven_relation_corpus(weight)
    counts = qb.graded_relation_counts(weight, relations=relations)
    images = [qb.Z_k_alg(r.body, r.weight).max_abs() for r in relations]
    return {"relations": len(relations),
            "counts": {f"{k},{l}": n for (k, l), n in sorted(counts.items())},
            "max_abs": images}


def partitions(qb, order):
    return {"holds": qb.partition_identity_check(order)}


def main() -> int:
    spec = json.loads(sys.argv[1])
    probe = None
    if spec.get("probe"):
        import speed
        probe = speed.Probe()
        probe.start()
    sys.path.insert(0, spec["src"])
    import qbrackets  # the imports are what setup time measures
    import qbrackets.cli
    import_done = time.monotonic()
    setup_samples = len(probe.samples) if probe else 0
    recorder = None
    if spec.get("spans"):
        import tracer
        recorder = tracer.install(qbrackets)
    try:
        kind = spec["kind"]
        if kind == "import":
            return 0
        if kind == "cli":
            return qbrackets.cli.main(spec["argv"])
        job = {"homomorphism": homomorphism, "corpus": corpus,
               "partitions": partitions}[kind]
        print(json.dumps(job(qbrackets, **spec["args"]), indent=1))
        return 0
    finally:
        sys.stdout.flush()
        if probe is not None:
            probe.stop()
        with open(spec["meta"], "w", encoding="utf-8") as handle:
            json.dump({"import_done": import_done,
                       "setup_samples": setup_samples,
                       "samples": probe.samples if probe else []}, handle)
        if recorder is not None:
            recorder.dump(spec["spans"])


if __name__ == "__main__":
    sys.exit(main())
