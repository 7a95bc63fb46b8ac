#!/usr/bin/env python3
"""Regenerate the full evaluation under results/.

Usage:  python scripts/regenerate_all.py [--jobs N] [--check]

Writes ``results/experiments.json`` and the text artifacts that render
the same records: ``table4.txt`` to ``table7.txt``, ``figure4.txt``,
``figure5.txt``, ``figure5_points.tsv`` and ``figure6.txt``.
``--jobs N`` shards the sweeps across N worker processes (default: all
cores); the output is identical to a serial run.  ``--check`` recomputes
the evaluation and compares it with the committed files instead of
writing them: it exits 1, names every key of ``experiments.json`` that
differs, and names every text file that differs with its first
differing line.
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


def first_difference(old: str, new: str) -> tuple[int, str, str]:
    """1-based number of the first differing line, and both lines."""
    a, b = old.splitlines(), new.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    end = "<end of file>"
    return i + 1, a[i] if i < len(a) else end, b[i] if i < len(b) else end


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
    evaluation, texts = run_full_evaluation(jobs=args.jobs)
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
        for name, text in texts.items():
            path = results / name
            committed = path.read_text() if path.exists() else ""
            if text != committed:
                stale = True
                line, was, now = first_difference(committed, text)
                print(f"{path} differs from the code at line {line}:")
                print(f"  committed: {was}")
                print(f"  code:      {now}")
        if not stale:
            print(f"{out} and {len(texts)} text artifacts match the code "
                  f"({time.time() - t0:.1f}s)")
    else:
        results.mkdir(exist_ok=True)
        evaluation_to_json(evaluation, out)
        for name, text in texts.items():
            (results / name).write_text(text)
        print(f"wrote {out} and {len(texts)} text artifacts in "
              f"{time.time() - t0:.1f}s")
    failed = [c for c in evaluation["claims"] if not c["pass"]]
    for claim in evaluation["claims"]:
        mark = "PASS" if claim["pass"] else "FAIL"
        print(f"  [{mark}] {claim['claim']}: {claim['paper']}")
    return 1 if failed or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
