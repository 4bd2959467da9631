#!/usr/bin/env python3
"""Compare two result sets of the jungle benchmark.

    benchmark/compare.py <set-A> <set-B> [--layers]

A result set is a directory of the documents `jungle-benchmark` writes
(`<workload>.json`, `<workload>.traced.json`; several runs of one
workload may sit side by side under any file names). A is the parent,
B the change.

For every workload and end-to-end metric one row is printed: the value
of each side (the median over its runs) with the quartiles of its
samples, the bound from BENCHMARK.json, and

    ok          B's value is no worse than A's by more than the bound
    regressed   it is worse by more than the bound
    unresolved  the spread (quartile distance over median) of A's or
                B's samples is wider than the bound, and not every
                sample of B is better than every sample of A

Samples are the values of the runs when a set holds several runs of a
workload, and the per-pass samples inside the one document otherwise
(a run reports the fastest of its passes, so its value sits at the low
end of its own per-pass samples).
`fail_frac` regresses on any increase. Count-type per-layer metrics
of traced runs with equal seeds are listed when they differ: a count
repeats exactly for a seed, so a difference is a change of behaviour.
`--layers` also prints every other per-layer metric side by side.

Exit status: 1 if any row is `regressed`, 2 on unusable input, else 0.
Standard library only.
"""
import json
import os
import statistics
import sys

SCHEMA = "jungle-benchmark/1"


def load_set(path):
    """{(workload, traced): [document, ...]}"""
    docs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json") or name.endswith(".trace.json"):
            continue
        try:
            with open(os.path.join(path, name)) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict) and doc.get("schema") == SCHEMA:
            docs.setdefault((doc["workload"], bool(doc["traced"])), []).append(doc)
    return docs


def samples(docs, metric):
    """(the set's value, the samples its spread is judged by)"""
    per_run = [d["end_to_end"][metric]["value"] for d in docs if metric in d["end_to_end"]]
    if not per_run:
        return None, []
    value = statistics.median(per_run)
    if len(per_run) == 1 and metric in docs[0].get("samples", {}):
        return value, docs[0]["samples"][metric]
    return value, per_run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def judge(val_a, val_b, a, b, better, bound):
    """(status, how much worse B's value is, as a share of A's)."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (val_b - val_a) / val_a if val_a else 0.0
    if max(spread(a), spread(b)) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("ok" if all_better else "unresolved"), worse
    return ("regressed" if worse > bound else "ok"), worse


def fmt(x):
    return f"{x:.4g}"


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    layers = "--layers" in argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        contract = json.load(f)
    set_a, set_b = load_set(args[0]), load_set(args[1])
    if not set_a or not set_b:
        print("no result documents found", file=sys.stderr)
        return 2

    regressed = 0
    print(f"{'workload':<17} {'metric':<12} {'A value [q1 med q3]':<36} {'B value [q1 med q3]':<36} "
          f"{'worse':>7} {'bound':>6}  status")
    for w in [w["name"] for w in contract["workloads"]]:
        a_docs, b_docs = set_a.get((w, False)), set_b.get((w, False))
        if not a_docs or not b_docs:
            print(f"{w:<17} (missing from {'A' if not a_docs else 'B'})")
            continue
        for m in contract["end_to_end"]:
            (val_a, a), (val_b, b) = samples(a_docs, m["name"]), samples(b_docs, m["name"])
            if not a or not b:
                continue
            status, worse = judge(val_a, val_b, a, b, m["better"], m["bound"])
            regressed += status == "regressed"
            qa = fmt(val_a) + " [" + " ".join(fmt(x) for x in quartiles(a)) + "]"
            qb = fmt(val_b) + " [" + " ".join(fmt(x) for x in quartiles(b)) + "]"
            print(f"{w:<17} {m['name']:<12} {qa:<36} {qb:<36} {worse:>+7.1%} {m['bound']:>6.0%}  {status}")
        frac = [sum(d["failed"] for d in ds) / sum(d["attempted"] for d in ds) for ds in (a_docs, b_docs)]
        status = "regressed" if frac[1] > frac[0] else "ok"
        regressed += status == "regressed"
        print(f"{w:<17} {'fail_frac':<12} {fmt(frac[0]):<36} {fmt(frac[1]):<36} {'':>7} {'any':>6}  {status}")

    print()
    for w in [w["name"] for w in contract["workloads"]]:
        a_docs, b_docs = set_a.get((w, True)), set_b.get((w, True))
        if not a_docs or not b_docs:
            continue
        a, b = a_docs[0], b_docs[0]
        same_seed = a["seed"] == b["seed"]
        differ = 0
        for name, va in a["per_layer"].items():
            vb = b["per_layer"].get(name)
            if vb is None:
                continue
            if va["unit"] == "count":
                if same_seed and va["value"] != vb["value"]:
                    differ += 1
                    print(f"{w:<17} count {name:<40} {va['value']} -> {vb['value']}")
            elif layers:
                rel = (vb["value"] - va["value"]) / va["value"] if va["value"] else 0.0
                print(f"{w:<17} layer {name:<40} {fmt(va['value']):>12} {fmt(vb['value']):>12} "
                      f"{va['unit']:<6} {rel:>+7.1%}")
        if same_seed:
            print(f"{w:<17} counts: {'identical' if differ == 0 else f'{differ} differ'} (seed {a['seed']})")
        else:
            print(f"{w:<17} counts: not compared (seeds {a['seed']} and {b['seed']})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
