#!/usr/bin/env python3
"""Bench spine runner: one command, four workloads, one schema.

Two ways to call it, both from the repository root:

``run.py --workload W --seed S --seconds N --trace 0|1``
    Run one workload in this process (the contract in BENCHMARK.json).
    Prints every metric by name with its unit and, as the last line, one
    JSON object ``{correct, attempted, failed, metrics}``: the
    end-to-end metrics with ``--trace 0``, the per-layer ones with
    ``--trace 1``.

``run.py [--seed S] [--seconds N] [--trace 1] [--aa N] [--quick] [--out F]``
    Run every workload, each in a fresh subprocess of the first form (so
    ``peak_rss_mb`` and caches are per workload): ``--aa`` untraced sets
    and, with ``--trace 1``, one traced pass.  Writes the merged result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sqlite3
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

SPINE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SPINE))
OUT_DIR = os.path.join(SPINE, "out")
SCHEMA = "bench-spine-v1"


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def pin_environment() -> None:
    """One load shape on every host: no ambient JoinBoost switches, one
    BLAS/OpenMP thread.  Must run before numpy is imported."""
    for name in list(os.environ):
        if name.startswith("JOINBOOST_"):
            del os.environ[name]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def environment(seed: int) -> Dict[str, object]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "seed": seed,
    }


def with_units(values: Dict[str, float], per_layer: List[dict]) -> Dict[str, dict]:
    """Every per-layer metric of the contract, 0 where the workload left
    the layer idle; a name the contract does not list is a bug here."""
    unknown = set(values) - {m["name"] for m in per_layer}
    if unknown:
        raise KeyError(f"layers not in BENCHMARK.json per_layer: {sorted(unknown)}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in per_layer
    }


def print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    if metrics:
        print(f"  {title}")
    for name, m in metrics.items():
        print(f"    {name:<34} {m['value']:>16.6f} {m['unit']}")


# ---------------------------------------------------------------------------
# One workload, this process
# ---------------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"run.py: no program to measure: {source}/repro is missing",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, source)
    import workloads

    contract = load_contract()
    record = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    record["env"] = environment(args.seed)
    if args.trace:
        record["layers"] = with_units(record["layers"], contract["per_layer"])
    spans = record.pop("spans", None)
    if spans is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"trace_{args.workload}.json"), "w") as f:
            json.dump(spans, f)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"traced={int(bool(args.trace))} quick={int(args.quick)}")
    print_metrics("end_to_end", record["end_to_end"])
    print_metrics("tail (reported, not gated)", record["tail"])
    print_metrics("layers", record["layers"])
    print(f"  ops attempted={record['ops_attempted']} failed={record['ops_failed']} "
          f"model_digest={record['model_digest'][:16]}")
    for error in record["errors"]:
        print(f"  FAILED {error}")

    source_metrics = record["layers"] if args.trace else record["end_to_end"]
    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    print(json.dumps({
        "correct": record["ops_failed"] == 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {m["name"]: source_metrics[m["name"]] for m in wanted},
    }))
    return 0


# ---------------------------------------------------------------------------
# All workloads, one subprocess each
# ---------------------------------------------------------------------------
def run_child(name: str, args: argparse.Namespace, traced: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"record_{name}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(traced)), "--out", out,
    ] + (["--quick"] if args.quick else [])
    subprocess.run(command, cwd=ROOT, check=True)
    with open(out) as f:
        record = json.load(f)
    os.remove(out)
    return record


def merge_sets(sets: List[dict]) -> dict:
    """Median of each end-to-end metric over the A/A sets, with the
    relative spread ``(max - min) / median`` beside it; everything else
    comes from the first set.  A digest that differs between sets of one
    checkout is a failed operation."""
    merged = dict(sets[0])
    merged["end_to_end"] = {}
    for name, first in sets[0]["end_to_end"].items():
        values = [s["end_to_end"][name]["value"] for s in sets]
        middle = statistics.median(values)
        merged["end_to_end"][name] = {
            "value": middle,
            "unit": first["unit"],
            "aa_values": values,
            "aa_spread": (max(values) - min(values)) / middle,
        }
    merged["ops_attempted"] = sum(s["ops_attempted"] for s in sets)
    merged["ops_failed"] = sum(s["ops_failed"] for s in sets)
    if len({s["model_digest"] for s in sets}) > 1:
        merged["ops_failed"] += 1
        merged["errors"] = merged["errors"] + ["model_digest differs between A/A sets"]
    return merged


def run_all(args: argparse.Namespace) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    result = {
        "schema": SCHEMA,
        "claim": None,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "aa_sets": args.aa,
        "workloads": {},
    }
    sets: Dict[str, List[dict]] = {name: [] for name in names}
    for _ in range(args.aa):
        for name in names:
            sets[name].append(run_child(name, args, traced=False))
    for name in names:
        merged = merge_sets(sets[name])
        if args.trace:
            traced = run_child(name, args, traced=True)
            merged["layers"] = traced["layers"]
            merged["layers"]["trace_overhead_ratio"] = {
                "value": traced["counts"]["measured_wall_s"]
                / sets[name][0]["counts"]["measured_wall_s"] - 1.0,
                "unit": "ratio",
            }
            merged["ops_attempted"] += traced["ops_attempted"]
            merged["ops_failed"] += traced["ops_failed"]
            merged["errors"] = merged["errors"] + traced["errors"]
            if traced["model_digest"] != merged["model_digest"]:
                merged["ops_failed"] += 1
                merged["errors"].append("model_digest differs under TimingConnector")
        result["workloads"][name] = merged
    result["env"] = result["workloads"][names[0]]["env"]

    out = args.out or os.path.join(OUT_DIR, "result.json")
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"\n== bench spine: seed={args.seed} seconds={args.seconds} "
          f"sets={args.aa} -> {os.path.relpath(out, ROOT)}")
    failed = 0
    for name, record in result["workloads"].items():
        failed += record["ops_failed"]
        print(f"{name}: ops {record['ops_attempted']} failed {record['ops_failed']}")
        for metric, m in record["end_to_end"].items():
            print(f"    {metric:<20} {m['value']:>14.4f} {m['unit']:<4} "
                  f"A/A spread {m['aa_spread']:.3f}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]],
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=7,
                        help="drives favorita(seed=...) and the request-key draws")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="work to measure, in seconds on the reference host")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: wrap the connector in TimingConnector, report layers")
    parser.add_argument("--aa", type=int, default=2,
                        help="untraced sets of the same checkout (all-workloads mode)")
    parser.add_argument("--quick", action="store_true",
                        help="2 000-row / 2-tree / 20-request sizes (smoke test)")
    parser.add_argument("--out", help="write the result JSON here")
    args = parser.parse_args(argv)
    if args.aa < 1:
        parser.error("--aa must be at least 1")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
