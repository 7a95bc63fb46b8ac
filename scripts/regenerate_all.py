#!/usr/bin/env python3
"""Regenerate the full evaluation and write results/experiments.json.

Usage:  python scripts/regenerate_all.py [--jobs N] [--check]

``--jobs N`` shards the sweeps across N worker processes (default: all
cores); the output is identical to a serial run.  ``--check`` recomputes
the evaluation and compares it with the committed file instead of
writing it: it exits 1 and names every key that differs.
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.harness.export import evaluation_to_json, run_full_evaluation
from repro.harness.parallel import default_jobs

_MISSING = object()


def diff_keys(old, new, path: str = ""):
    """Dotted paths (``[i]`` for list items) whose values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from diff_keys(old.get(key, _MISSING),
                                 new.get(key, _MISSING),
                                 f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from diff_keys(a, b, f"{path}[{i}]")
    elif old != new:
        yield path or "<root>"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=default_jobs(),
                        help="worker processes for the sweeps "
                             "(1 = serial; default: all cores)")
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed file instead "
                             "of writing it; exit 1 on any difference")
    args = parser.parse_args()
    t0 = time.time()
    evaluation = run_full_evaluation(jobs=args.jobs)
    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    out = results / "experiments.json"
    stale = False
    if args.check:
        text = json.dumps(evaluation, indent=2, sort_keys=True)
        committed = out.read_text() if out.exists() else ""
        if text != committed:
            stale = True
            old = json.loads(committed) if committed else {}
            keys = list(diff_keys(old, json.loads(text))) or ["<format>"]
            print(f"{out} differs from the code in {len(keys)} "
                  f"value(s):")
            for key in keys:
                print(f"  {key}")
        else:
            print(f"{out} matches the code ({time.time() - t0:.1f}s)")
    else:
        results.mkdir(exist_ok=True)
        evaluation_to_json(evaluation, out)
        print(f"wrote {out} in {time.time() - t0:.1f}s")
    failed = [c for c in evaluation["claims"] if not c["pass"]]
    for claim in evaluation["claims"]:
        mark = "PASS" if claim["pass"] else "FAIL"
        print(f"  [{mark}] {claim['claim']}: {claim['paper']}")
    return 1 if failed or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
