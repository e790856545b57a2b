#!/usr/bin/env python3
"""bench_e2e: build DarkVec in Release, set up each workload, time it, check it.

One measurement, for automated comparisons:

    bench/e2e/run.sh --workload month_batch --seed 7 --seconds 20 --trace 0

builds bench/e2e/build-e2e if needed, generates the workload's input from
the seed, runs the program on it for the given seconds and prints, as the
last line of stdout, {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). It exits nonzero when any check failed.

A report (what a person runs):

    bench/e2e/run.sh [--workloads a,b] [--seed S] [--reps R] [--trace] [--smoke]

runs every workload R times, interleaved, each in a fresh process, prints
`metric workload value unit` for every end-to-end metric, and writes
bench/e2e/results/BENCH_e2e.json (median, quartiles and n per metric, an
environment block, and with --trace one per-layer table per workload).
--smoke runs the three workloads at tiny scale, traced and untraced, and
checks the result schema. README.md explains every number.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

from compare import summarize, validate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = HERE / "build-e2e"
WORK = HERE / ".work"
RESULTS = HERE / "results"
PROGRAM = BUILD / "bench_e2e"

# Metrics reported next to BENCHMARK.json's end-to-end set in reports and
# artifacts. They are not in the result line: failure_share is 0 when all
# is well and the other two exist on one workload only.
EXTRA_METRICS = {
    "failure_share": {"unit": "ratio", "better": "lower", "bound": 0.0,
                      "bound_kind": "abs"},
    "windows_per_s": {"unit": "1/s", "better": "higher",
                      "bound_like": "job_s"},
    "alignment_similarity": {"unit": "ratio", "better": "higher",
                             "bound_like": "modularity"},
}
# Outputs that depend only on the seed: an A/A pair must match exactly.
DETERMINISTIC = {"loo_accuracy", "modularity", "alignment_similarity"}


class BenchError(Exception):
    """The benchmark could not measure (build, set-up or protocol failure).

    `code` is the exit status: 2 when the program refused this build (not
    Release, contracts not throwing, or a sanitizer on), else 1.
    """

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_checked(cmd: list[str], timeout: float, what: str) -> str:
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{what} timed out after {timeout:.0f}s") from err
    if done.returncode != 0:
        log(done.stdout[-4000:] + done.stderr[-4000:])
        raise BenchError(f"{what} failed with exit code {done.returncode}")
    return done.stdout


def build() -> None:
    """Configures (once) and builds the Release benchmark program."""
    if not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"], 600, "cmake configure")
    jobs = str(min(os.cpu_count() or 1, 4))
    run_checked(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                 "-j", jobs], 900, "cmake build")


def program_json(cmd: list[str], timeout: float, what: str) -> tuple[dict, int]:
    """Runs the program; returns its last stdout line as JSON and its code."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{what} timed out after {timeout:.0f}s") from err
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), done.returncode
    except (IndexError, json.JSONDecodeError) as err:
        log(done.stderr[-4000:])
        raise BenchError(f"{what} printed no result "
                         f"(exit code {done.returncode})",
                         2 if done.returncode == 2 else 1) from err


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                           "--dirty", "--abbrev=7"], capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, chrome_out: Path | None = None) -> dict:
    """One run: set up the workload's input, then time it in a fresh process."""
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir", str(work),
              "--smoke", "1" if smoke else "0"]
    try:
        gen, _ = program_json([str(PROGRAM), "gen", *common], 300,
                              f"{workload} set-up")
        cmd = [str(PROGRAM), "run", *common, "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
        if chrome_out is not None:
            cmd += ["--chrome-out", str(chrome_out)]
        run, code = program_json(cmd, seconds + 150, f"{workload} run")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(run["metrics"])
    prep_s = metrics.pop("prep_s", {"value": 0.0})["value"]
    metrics["setup_s"] = {"value": gen["setup_s"] + prep_s, "unit": "s"}
    metrics["sim.run_s"] = {"value": gen["sim_s"], "unit": "s"}
    metrics["net.write_csv_s"] = {"value": gen["write_s"], "unit": "s"}
    env = dict(run["env"], git_rev=git_rev())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": bool(run["correct"]) and code == 0,
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "failures": run["failures"],
        "metrics": metrics,
        "layers": run["layers"],
        "env": env,
    }


def result_line(record: dict, spec: dict) -> dict:
    """The result line: exactly BENCHMARK.json's metrics for this mode."""
    wanted = spec["per_layer" if record["trace"] else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            raise BenchError(f"{record['workload']}: metric {m['name']} "
                             "missing or not finite")
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: program reports unit "
                             f"{got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# Reports.

def metric_table(spec: dict) -> dict:
    """Every metric a report carries, with its unit, direction and bound."""
    table = {m["name"]: {"unit": m["unit"], "better": m["better"],
                         "bound": m["bound"], "bound_kind": "rel"}
             for m in spec["end_to_end"]}
    for name, m in EXTRA_METRICS.items():
        row = {k: v for k, v in m.items() if k != "bound_like"}
        if "bound_like" in m:
            row.update(bound=table[m["bound_like"]]["bound"],
                       bound_kind="rel")
        table[name] = row
    for name, row in table.items():
        row["deterministic"] = name in DETERMINISTIC
    return table


def report(args: argparse.Namespace, spec: dict) -> int:
    workloads = args.workloads.split(",")
    known = {w["name"] for w in spec["workloads"]}
    unknown = [w for w in workloads if w not in known]
    if unknown:
        raise BenchError(f"unknown workload(s): {', '.join(unknown)}")
    table = metric_table(spec)
    records: dict[str, list[dict]] = {w: [] for w in workloads}
    # Interleaved, so slow drift on the host spreads over every workload.
    for rep in range(args.reps):
        for w in workloads:
            log(f"[{rep + 1}/{args.reps}] {w}")
            records[w].append(measure(w, args.seed, args.seconds, False,
                                      args.smoke))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    traced: dict[str, dict] = {}
    if args.trace:
        for w in workloads:
            log(f"[trace] {w}")
            traced[w] = measure(w, args.seed, args.seconds, True, args.smoke,
                                out.parent / f"{w}.trace.json")

    doc = {"schema": 1, "benchmark": "bench_e2e",
           "created": datetime.datetime.now(datetime.timezone.utc)
           .isoformat(timespec="seconds"),
           "seed": args.seed, "reps": args.reps, "seconds": args.seconds,
           "smoke": args.smoke, "env": None, "workloads": {}}
    ok = True
    print(f"{'metric':24s} {'workload':18s} {'value':>14s} unit")
    for w in workloads:
        runs = records[w]
        doc["env"] = doc["env"] or {k: v for k, v in runs[0]["env"].items()
                                    if k != "params"}
        metrics = {}
        for name, row in table.items():
            values = [r["metrics"][name]["value"] for r in runs
                      if name in r["metrics"]]
            if not values:
                continue
            metrics[name] = dict(row, **summarize(values))
            print(f"{name:24s} {w:18s} {metrics[name]['median']:14.6g} "
                  f"{row['unit']}")
        entry = {
            "why": next(x["why"] for x in spec["workloads"]
                        if x["name"] == w),
            "params": runs[0]["env"]["params"],
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted",
                                        "failed", "failures")}
                     for r in runs],
            "metrics": metrics,
        }
        for r in runs + ([traced[w]] if w in traced else []):
            if not r["correct"]:
                ok = False
                log(f"FAILED {w} (trace={int(r['trace'])}): "
                    f"{r['failed']}/{r['attempted']} operations; "
                    + "; ".join(r["failures"][:5]))
        if w in traced:
            t = traced[w]
            entry["trace"] = {
                "correct": t["correct"],
                "metrics": dict(sorted(t["metrics"].items())),
                "layers": t["layers"],
            }
            print_layers(w, t)
        doc["workloads"][w] = entry
    if doc["env"] is not None:
        doc["env"]["python"] = sys.version.split()[0]
    out.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"wrote {out}")
    if args.smoke:
        validate(doc)
        for t in traced.values():
            result_line(t, spec)
        for w in workloads:
            result_line(records[w][0], spec)
        log("smoke: schema and result lines OK")
    return 0 if ok else 1


def print_layers(workload: str, record: dict) -> None:
    layers = record["layers"]
    m = record["metrics"]
    print(f"\nper-layer self time, traced pass of {workload} "
          f"({layers['wall_s']:.3f}s wall, tracing overhead "
          f"{100 * m['bench.trace_overhead']['value']:+.1f}%)")
    phases = [p for p in ("prep", "job", "post") if p in layers["phases"]]
    print(f"  {'layer':8s}" + "".join(f"{p:>12s}" for p in phases)
          + f"{'pass':>12s}{'share':>8s}")
    total = layers["phases"]["pass"]
    for layer in sorted(total["self_s"], key=lambda k: -total["self_s"][k]):
        cells = "".join(
            f"{layers['phases'][p]['self_s'].get(layer, 0.0):12.4f}"
            for p in phases)
        share = total["self_s"][layer] / layers["wall_s"]
        print(f"  {layer:8s}{cells}{total['self_s'][layer]:12.4f}"
              f"{100 * share:7.1f}%")
    print()


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one measurement of this "
                        "workload; prints the result line")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed loop length (default: run_seconds of "
                             "BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None,
                        help="report artifact (default results/BENCH_e2e.json"
                             ", or .work/smoke.json with --smoke)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1 if args.smoke else spec["run_seconds"]
    if args.out is None:
        args.out = str(WORK / "smoke.json" if args.smoke
                       else RESULTS / "BENCH_e2e.json")
    if args.smoke:
        args.trace = 1
    try:
        build()
        if args.workload is not None:
            record = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke)
            line = result_line(record, spec)
            if not record["correct"]:
                log(f"FAILED: {record['failed']}/{record['attempted']} "
                    "operations; " + "; ".join(record["failures"][:5]))
            print(json.dumps(line))
            return 0 if record["correct"] else 1
        return report(args, spec)
    except BenchError as err:
        log(f"bench_e2e: {err}")
        return err.code


if __name__ == "__main__":
    sys.exit(main())
