#!/usr/bin/env python3
"""Compare two bench_e2e reports: A (the parent) against B (the change).

    bench/e2e/compare.py A.json B.json [--aa]
    bench/e2e/compare.py --aa AA.json

A and B are results/BENCH_e2e.json files written by run.sh with the same
settings. One row per (metric, workload) gives each side's median with its
quartiles and run count, B's change against A (positive = worse), the
metric's bound and a verdict:

  better      B won at least 9 of every 10 pairs (A[i], B[i]) of runs,
              with at least 10 pairs (ties count for neither side), and
              the medians differ by more than A's inter-quartile range;
  worse       B's median is worse than A's by more than the bound;
  unresolved  not worse, but a side's inter-quartile range is wider than
              the bound and not every run of B beat every run of A;
  same        otherwise.

The exit status is 1 when any row is "worse". With --aa (A and B measured
on the same commit) a "better" row also fails, and so does a
deterministic metric (accuracy, modularity, alignment) whose values are
not identical across every run of both files. Given one report, --aa
compares its even-numbered runs against its odd-numbered ones: run.sh
runs every workload once per rep, so the two halves interleave and slow
drift on the host falls on both alike.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

SCHEMA = 1
MIN_PAIRS = 10
WIN_SHARE = 0.9


def validate(doc: dict) -> None:
    """Raises ValueError when `doc` is not a bench_e2e report."""
    if doc.get("schema") != SCHEMA or not isinstance(doc.get("workloads"),
                                                     dict):
        raise ValueError("not a bench_e2e report (schema 1 with workloads)")
    for w, entry in doc["workloads"].items():
        for name, m in entry.get("metrics", {}).items():
            where = f"{w}/{name}"
            if m.get("better") not in ("lower", "higher"):
                raise ValueError(f"{where}: better must be lower or higher")
            if m.get("bound_kind") not in ("rel", "abs") or not isinstance(
                    m.get("bound"), (int, float)):
                raise ValueError(f"{where}: needs a rel or abs bound")
            values = m.get("values")
            if not values or m.get("n") != len(values):
                raise ValueError(f"{where}: n must count the values")
            for key in ("median", "q1", "q3"):
                if not isinstance(m.get(key), (int, float)):
                    raise ValueError(f"{where}: {key} is missing")


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's values."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "values": list(values)}


def split_runs(doc: dict) -> tuple[dict, dict]:
    """One report's even-numbered and odd-numbered runs, as two reports."""
    validate(doc)
    halves = []
    for start in (0, 1):
        half = {"schema": SCHEMA, "workloads": {}}
        for w, entry in doc["workloads"].items():
            metrics = {}
            for name, m in entry["metrics"].items():
                values = m["values"][start::2]
                if not values:
                    raise ValueError(f"{w}/{name}: splitting needs at least "
                                     "two runs")
                metrics[name] = dict(m, **summarize(values))
            half["workloads"][w] = {"metrics": metrics}
        halves.append(half)
    return halves[0], halves[1]


def verdict(a: dict, b: dict) -> tuple[str, float]:
    """Verdict for one metric row, and B's relative change (+ = worse)."""
    sign = 1.0 if a["better"] == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"])
    scale = abs(a["median"])
    allowed = a["bound"] * scale if a["bound_kind"] == "rel" else a["bound"]
    change = worse_by / scale if scale > 0 else (0.0 if worse_by == 0
                                                 else float("inf"))

    def beats(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    pairs = list(zip(a["values"], b["values"]))
    wins = sum(beats(bv, av) for av, bv in pairs)
    iqr_a = a["q3"] - a["q1"]
    iqr_b = b["q3"] - b["q1"]
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and worse_by < 0 and -worse_by > iqr_a):
        return "better", change
    if worse_by > allowed:
        return "worse", change
    every_b_wins = all(beats(bv, av) for bv in b["values"]
                       for av in a["values"])
    if max(iqr_a, iqr_b) > allowed and not every_b_wins:
        return "unresolved", change
    return "same", change


def compare(a_doc: dict, b_doc: dict, aa: bool) -> tuple[list[dict], list[str]]:
    """All rows, plus the reasons the comparison fails (empty = pass)."""
    validate(a_doc)
    validate(b_doc)
    rows = []
    problems = []
    for w, a_entry in a_doc["workloads"].items():
        b_entry = b_doc["workloads"].get(w)
        if b_entry is None:
            problems.append(f"{w}: missing from B")
            continue
        for name, a in a_entry["metrics"].items():
            b = b_entry["metrics"].get(name)
            if b is None:
                problems.append(f"{w}/{name}: missing from B")
                continue
            v, change = verdict(a, b)
            rows.append({"metric": name, "workload": w, "a": a, "b": b,
                         "verdict": v, "change": change})
            if v == "worse":
                problems.append(f"{w}/{name}: worse by {100 * change:.1f}%")
            if aa and v == "better":
                problems.append(f"{w}/{name}: an A/A pair claims a gain")
            if aa and a.get("deterministic") and \
                    len(set(a["values"]) | set(b["values"])) > 1:
                problems.append(f"{w}/{name}: deterministic output differs "
                                "between runs")
    return rows, problems


def format_side(m: dict) -> str:
    return f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}] n={m['n']}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="parent report (BENCH_e2e.json)")
    parser.add_argument("b", nargs="?",
                        help="change report; with --aa it may be omitted")
    parser.add_argument("--aa", action="store_true",
                        help="both reports come from the same commit")
    args = parser.parse_args(argv)
    if args.b is None and not args.aa:
        parser.error("B is required unless --aa splits one report")
    docs = []
    for path in filter(None, (args.a, args.b)):
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    try:
        a_doc, b_doc = docs if len(docs) == 2 else split_runs(docs[0])
        rows, problems = compare(a_doc, b_doc, args.aa)
    except ValueError as err:
        print(f"compare: {err}", file=sys.stderr)
        return 2
    print(f"{'metric':22s} {'workload':17s} {'A median [q1, q3]':34s} "
          f"{'B median [q1, q3]':34s} {'change':>8s} {'bound':>7s}  verdict")
    for r in rows:
        bound = r["a"]["bound"]
        bound_text = (f"{100 * bound:.1f}%" if r["a"]["bound_kind"] == "rel"
                      else f"{bound:g}")
        print(f"{r['metric']:22s} {r['workload']:17s} "
              f"{format_side(r['a']):34s} {format_side(r['b']):34s} "
              f"{100 * r['change']:+7.1f}% {bound_text:>7s}  {r['verdict']}")
    for p in problems:
        print(f"FAIL {p}")
    if args.aa:
        print("A/A: " + ("pass" if not problems else "fail"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
