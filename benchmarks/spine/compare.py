#!/usr/bin/env python3
"""Compare two bench-spine results: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first A/A set), B the candidate.
One row per (workload, end-to-end metric) with both medians, the ratio
B/A, the bound from BENCHMARK.json and a verdict:

* ``regressed`` / ``improved`` -- B is worse / better than A by more than
  the bound;
* ``unresolved`` -- the A/A spread recorded in either file is wider than
  the bound, so the two cannot be told apart on this metric;
* ``ok`` -- within the bound.

Then one row per workload for the failed share and the model digest, and
per-layer deltas when both files carry a traced pass.  Exits 1 on any
``regressed`` row or a larger failed share.
"""

from __future__ import annotations

import json
import sys
from typing import List

from run import load_contract


def verdict(a: float, b: float, better: str, bound: float, spread: float) -> str:
    worse = (b - a) / a if better == "lower" else (a - b) / a
    if spread > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "ok"


def compare(a: dict, b: dict, contract: dict) -> List[str]:
    """Print the comparison; returns the reasons to exit non-zero."""
    problems: List[str] = []
    print(f"A: sha={a['env']['git_sha']} seed={a['seed']} seconds={a['seconds']} sets={a['aa_sets']}")
    print(f"B: sha={b['env']['git_sha']} seed={b['seed']} seconds={b['seconds']} sets={b['aa_sets']}")
    print(f"\n{'workload':<24}{'metric':<18}{'A':>12}{'B':>12}  {'B/A (base A)':<13}"
          f"{'bound':>6}{'A/A':>7}  verdict")
    for workload in a["workloads"]:
        for spec in contract["end_to_end"]:
            ma = a["workloads"][workload]["end_to_end"][spec["name"]]
            mb = b["workloads"][workload]["end_to_end"][spec["name"]]
            spread = max(ma.get("aa_spread", 0.0), mb.get("aa_spread", 0.0))
            word = verdict(ma["value"], mb["value"], spec["better"], spec["bound"], spread)
            if word == "regressed":
                problems.append(f"{workload}.{spec['name']} regressed")
            print(f"{workload:<24}{spec['name']:<18}{ma['value']:>12.4f}{mb['value']:>12.4f}"
                  f"  {mb['value'] / ma['value']:<13.4f}{spec['bound']:>6.2f}{spread:>7.3f}  {word}")

    print(f"\n{'workload':<24}{'failed share A':>16}{'failed share B':>16}  model_digest")
    for workload, ra in a["workloads"].items():
        rb = b["workloads"][workload]
        share_a = ra["ops_failed"] / ra["ops_attempted"]
        share_b = rb["ops_failed"] / rb["ops_attempted"]
        if share_b > share_a:
            problems.append(f"{workload} failed share grew")
        if a["seed"] != b["seed"] or a["quick"] != b["quick"]:
            digest = "not comparable (different inputs)"
        elif ra["model_digest"] == rb["model_digest"]:
            digest = "same"
        else:
            digest = f"CHANGED {ra['model_digest'][:12]} -> {rb['model_digest'][:12]}"
        print(f"{workload:<24}{share_a:>16.4f}{share_b:>16.4f}  {digest}")

    for workload, ra in a["workloads"].items():
        la, lb = ra["layers"], b["workloads"][workload]["layers"]
        if not la or not lb:
            continue
        print(f"\n{workload} layers{'':<22}{'A':>14}{'B':>14}{'B - A':>14}")
        for name, ma in la.items():
            if name in lb and (ma["value"] or lb[name]["value"]):
                mb = lb[name]
                print(f"  {name:<32}{ma['value']:>14.6f}{mb['value']:>14.6f}"
                      f"{mb['value'] - ma['value']:>+14.6f} {ma['unit']}")
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        a = json.load(f)
    with open(argv[1]) as f:
        b = json.load(f)
    problems = compare(a, b, load_contract())
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
