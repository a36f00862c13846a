#!/usr/bin/env python3
"""The repo's canonical benchmark: one command, named metrics, checked answers.

Driver form (one workload per run, the contract in ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ladder; the last line of standard output is one JSON object.  Without
``--workload`` every workload runs untraced, then one traced ladder, and
every metric is printed by name with its unit (``--smoke`` shrinks that to a
self-check, ``--out FILE`` keeps the full result and the ladder's spans).
Any wrong answer makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

# Siblings import by bare name: the script's directory is sys.path[0].
from harness import HERE, ROOT, SRC, Profile, WrongAnswer, run_end_to_end
from workloads import WORKLOADS

def load_json(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def declared(spec: Dict[str, object], trace: int) -> Dict[str, str]:
    """name → unit of the metrics a run with this ``--trace`` must print."""
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def split_measured(result: Dict[str, object], units: Dict[str, str]) -> None:
    """An untraced run measures more than may gate: what ``BENCHMARK.json``
    declares end-to-end becomes ``metrics``, the rest ``diag.<name>``."""
    measured = result.pop("measured")
    result["metrics"] = {name: value for name, value in measured.items()
                         if name in units}
    result["diag"] = {f"diag.{name}": value for name, value in measured.items()
                      if name not in units}


def is_correct(result: Dict[str, object]) -> bool:
    """No wrong or failed operation, and the server stopped without residue."""
    hygiene = result["hygiene"]
    return not (result["failed"] or hygiene["leaked_shm"] or hygiene["orphan_procs"])


def contract_line(result: Dict[str, object], units: Dict[str, str]) -> str:
    """The driver's last line; refuses to print an undeclared or missing name."""
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics printed and metrics declared in BENCHMARK.json differ: "
            f"undeclared {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}")
    return json.dumps({
        "correct": is_correct(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: ({"value": metrics[name], "unit": unit}
                           if not isinstance(metrics[name], dict)
                           else {**metrics[name], "unit": unit})
                    for name, unit in units.items()},
    })


def print_table(result: Dict[str, object], units: Dict[str, str]) -> None:
    label = f"{result['workload']} (seed {result['seed']}, trace {result['trace']})"
    print(f"== {label}: attempted {result['attempted']}, failed {result['failed']}")
    for name in units:
        value = result["metrics"][name]
        if isinstance(value, dict):
            print(f"  {name:44s} {'null':>14s} {units[name]:8s} ({value['reason']})")
        else:
            print(f"  {name:44s} {value:14.4f} {units[name]}")
    for name, value in result.get("diag", {}).items():
        print(f"# {name:44s} {value:14.4f}")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="default: default_seed of spec.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one 1 s window: a self-check, not a measurement")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full result (and ladder spans) as JSON")
    parser.add_argument("--selftest-corrupt", action="store_true",
                        help="flip one oracle answer; the command must then fail")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the ladder's in-process rungs import the program
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seed = args.seed if args.seed is not None else load_json(
        os.path.join(HERE, "spec.json"))["default_seed"]
    seconds = 1.0 if args.smoke else (
        args.seconds if args.seconds is not None else float(spec["run_seconds"]))
    profile = Profile(seconds, smoke=args.smoke)
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    results: List[Dict[str, object]] = []
    line = ""
    try:
        if args.workload:
            plan = [(args.workload, args.trace)]
        else:
            plan = [(name, 0) for name in WORKLOADS] + [("point_lookup", 1)]
        for name, trace in plan:
            units = declared(spec, trace)
            if trace:
                from ladder import run_traced

                result = run_traced(name, seed, profile, work_dir, set(units),
                                    keep_spans=bool(args.out))
            else:
                result = run_end_to_end(name, seed, profile, work_dir,
                                        corrupt=args.selftest_corrupt)
                split_measured(result, units)
            line = contract_line(result, units)
            results.append(result)
            print_table(result, units)
    except WrongAnswer as exc:
        print(f"run.py: WRONG ANSWER: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": seed, "smoke": args.smoke,
                       "seconds": seconds, "runs": results}, handle, indent=1)
    if args.workload:
        print(line)
    return 0 if all(is_correct(result) for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
