"""Benchmark runner: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eval --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run of the same op list with spans around
every layer's entry points, and prints the per-layer metrics instead.
Every run checks every output; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  A detailed record
(drift samples, tail percentile, per-op latencies, spans) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("eval", "sweep-pool", "serve")
#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: The end-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: The per-layer metrics (``--trace 1``) and their units.  A layer a
#: workload does not exercise reports 0.
PER_LAYER = {
    "compiler.compile_ms": "ms/op",
    "compiler.kernels": "count/op",
    "harness.build_ms": "ms/op",
    "gpu.exec_ms": "ms/op",
    "fpx.probe_ms": "ms/op",
    "binfpe.probe_ms": "ms/op",
    "fpx.init_ms": "ms/op",
    "fpx.report_ms": "ms/op",
    "gpu.device_init_ms": "ms/op",
    "sass.assemble_ms": "ms/op",
    "nvbit.run_ms": "ms/op",
    "nvbit.megabatch_fallbacks": "count",
    "telemetry.job_merge_ms": "ms/op",
    "serve.post_ms": "ms",
    "serve.get_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.busy_ratio": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "serve.stacked_ratio": "ratio",
    "serve.batch_members": "count",
    "serve.late_p99_ms": "ms",
    "serve.late_max_ms": "ms",
    "harness.pool.spinup_s": "s",
    "harness.pool.unit_ms": "ms",
    "harness.pool.dispatch_ms": "ms/unit",
    "harness.pool.warm_build_ratio": "ratio",
    "harness.pool.arena_bytes": "bytes",
    "harness.pool.inline_fallbacks": "count",
    "harness.pool.retries": "count",
    "nvbit.launches": "count",
    "gpu.warp_instrs": "count",
    "fpx.channel_messages": "count",
    "binfpe.channel_messages": "count",
    "trace.ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def _prepare() -> None:
    """Put the checkout's sources on the path; keep temp files inside
    the checkout.  Exits 2 when the checkout holds no sources."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full "
              "checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None


def make_workload(name: str, seed: int, seconds: int, tracer=None):
    if name == "eval":
        from perfbench.eval_wl import EvalWorkload as cls
    elif name == "sweep-pool":
        from perfbench.sweep_wl import SweepPoolWorkload as cls
    else:
        from perfbench.serve_wl import ServeWorkload as cls
    return cls(seed, seconds, tracer)


def _argv(args, **override) -> list[str]:
    opts = {"--workload": args.workload, "--seed": args.seed,
            "--seconds": args.seconds, "--trace": args.trace}
    opts.update(override)
    argv = [sys.executable, str(Path(__file__).resolve())]
    for flag, value in opts.items():
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv += [flag, str(value)]
    return argv


def setup_samples(args) -> list[float]:
    """Seconds from starting a fresh interpreter until the system is
    ready for the workload's first op (imports, registry, pool spin-up,
    server start), :data:`SETUP_PROBES` times.  The benchmark's own
    input generation (``prepare``) is not part of it."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_argv(args, **{"--setup-probe": True}),
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "READY":
            raise RuntimeError(f"set-up probe failed (rc "
                               f"{proc.returncode}, {line.strip()!r})")
    return samples


def _record_path(args, trace: int) -> Path:
    return OUT / (f"{args.workload}-seed{args.seed}-s{args.seconds}"
                  f"-trace{trace}.json")


def source_digest() -> str:
    """SHA-256 over the system's and the benchmark's sources, stored in
    every record so a record is only reused by the code that wrote it."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files += sorted(HERE.glob("*.py")) + sorted((HERE / "data").glob("*"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def untraced_record(args, source: str) -> dict:
    """The untraced record of this workload and seed, written by these
    sources: the one on disk if it matches and passed its checks, else a
    fresh untraced run in a subprocess."""
    path = _record_path(args, 0)

    def load() -> dict | None:
        if not path.is_file():
            return None
        record = json.loads(path.read_text())
        if record.get("source") != source or not record["correct"]:
            return None
        return record

    record = load()
    if record is None:
        subprocess.run(_argv(args, **{"--trace": 0}), check=True,
                       stdout=subprocess.DEVNULL, timeout=600)
        record = load()
    if record is None:
        raise RuntimeError("the untraced run of this seed failed its "
                           "checks; no tracing overhead to report")
    return record


def result_doc(ops, problems: list[str], metrics: dict,
               units: dict[str, str]) -> dict:
    """The result line: every metric of ``units`` with its unit; a
    failed op or a failed whole-run check makes the run incorrect."""
    failed = sum(1 for op in ops if not op.ok)
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare()

    from perfbench.common import (arena_names, child_pids, drift_sample,
                                  ms, peak_rss_mb, stop_resource_tracker,
                                  tail)
    from perfbench.tracing import Tracer

    if args.setup_probe:
        workload = make_workload(args.workload, args.seed, args.seconds)
        workload.setup()
        print("READY", flush=True)
        workload.teardown()
        stop_resource_tracker()
        return 0

    source = source_digest()
    drift_before = drift_sample()
    arenas_before = arena_names()
    tracer = Tracer() if args.trace else None
    workload = make_workload(args.workload, args.seed, args.seconds, tracer)
    problems: list[str] = []
    workload.prepare()
    try:
        workload.setup()
        setup_in_process = time.perf_counter() - T_START
        if tracer is not None:
            tracer.install()
        gc.collect()
        t0 = time.perf_counter()
        try:
            ops = workload.run()
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
    finally:
        workload.teardown()
        stop_resource_tracker()
    rss = peak_rss_mb()
    leftover = child_pids()
    if leftover:
        problems.append(f"child processes outlive the run: {leftover}")
    leaked = arena_names() - arenas_before
    if leaked:
        problems.append(f"/dev/shm arenas outlive the run: {sorted(leaked)}")
    problems += workload.check(ops)

    latencies = [op.latency for op in ops]
    tail_s, tail_pct, beyond = tail(latencies)
    ops_per_s = len(ops) / wall
    if args.trace:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(workload.layers(ops, wall))
        metrics.update(workload.counts())
        metrics["trace.ops_per_s"] = ops_per_s
        base = untraced_record(args, source)["metrics"]["ops_per_s"]
        metrics["trace.overhead_ratio"] = 1.0 - ops_per_s / base["value"]
        units = PER_LAYER
        tracer.dump(_record_path(args, 1).with_suffix(".spans.jsonl"))
    else:
        setup = setup_samples(args)
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": ops_per_s,
            "op_p50_ms": ms(statistics.median(latencies)),
            "op_tail_ms": ms(tail_s),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
    drift_after = drift_sample()

    result = result_doc(ops, problems, metrics, units)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  source=source, wall_s=wall,
                  setup_in_process_s=setup_in_process,
                  tail={"percentile": tail_pct, "beyond": beyond,
                        "samples": len(ops)},
                  drift={"before": drift_before, "after": drift_after},
                  problems=problems,
                  failures=[(op.key, op.error) for op in ops if not op.ok],
                  latencies_ms=[round(ms(x), 3) for x in latencies])
    if not args.trace:
        detail["setup_samples_s"] = setup
    _record_path(args, args.trace).write_text(json.dumps(detail, indent=1))

    for problem in problems:
        print(f"check failed: {problem}")
    for key, error in detail["failures"][:20]:
        print(f"failed op {key}: {error}")
    print(f"{args.workload}: {len(ops)} ops in {wall:.3f} s, "
          f"tail = p{tail_pct:.1f} ({beyond} samples beyond), "
          f"steal jiffies {drift_before['steal_jiffies']}->"
          f"{drift_after['steal_jiffies']}, spin "
          f"{drift_before['spin_s']:.3f}/{drift_after['spin_s']:.3f} s")
    for name, entry in result["metrics"].items():
        print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
