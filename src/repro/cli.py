"""Command-line front end — the analogue of GPU-FPX's LD_PRELOAD wrapper.

Usage::

    python -m repro.cli [--version] [-v|-q] COMMAND ...
    python -m repro.cli list [--suite SUITE]
    python -m repro.cli run PROGRAM [--tool detector|analyzer|binfpe]
                               [--fast-math] [--freq-redn-factor K]
                               [--no-gt] [--host-check]
                               [--whitelist K1,K2] [--report-lines N]
                               [--json] [SHARED...]
    python -m repro.cli diagnose PROGRAM [SHARED...]
    python -m repro.cli table {4,5,6,7} [SHARED...]
    python -m repro.cli figure {4,5,6} [SHARED...]
    python -m repro.cli serve [--port P] [--host H] [--cache-size C]
                               [--queue-depth D] [--duration S]
    python -m repro.cli telemetry summarize trace.json [SHARED...]
    python -m repro.cli telemetry serve snapshots.jsonl [--port P]
                               [--host H] [--duration S]
    python -m repro.cli profile hotspots PROGRAM [--top K]
                               [--flame out.folded] [SHARED...]
    python -m repro.cli conformance fuzz [--cases N] [--seed S]
                               [--save-corpus DIR] [--no-shrink]
                               [--mutate FLAG] [SHARED...]
    python -m repro.cli conformance replay [PATH...] [SHARED...]
    python -m repro.cli conformance shrink CASE.json [--out PATH]
                               [--mutate FLAG] [SHARED...]

Every subcommand accepts the same SHARED option group::

    --jobs N           worker processes for sweeps (default: all cores)
    --trace out.json   export a Chrome/Perfetto trace-event file
    --events out.jsonl export a JSONL structured event log
    --metrics          print telemetry counters/histograms afterwards
    --serve-metrics P  serve live /metrics, /healthz, /flight on port P
    --no-decode-cache  legacy per-instruction interpreter
    --no-warp-batch    serial per-warp engine (no cohort batching)
    --no-megabatch     serial member loop for run_batch (no stacking)
    --shadow           shadow-precision execution: re-run FP ops at
                       higher precision and report silent divergence
    --shadow-ulps N    shadow divergence threshold in ULPs (implies
                       --shadow; default 16)

``run`` executes one benchmark program under the chosen tool and prints
the exception report (Listing 6 format) plus the modeled slowdown;
``table``/``figure`` regenerate a paper artifact over the full set,
sharded across ``--jobs`` worker processes (``--jobs 1`` is the legacy
serial path — output is byte-identical either way).  ``--json`` emits
the report + stats as one JSON object.  ``telemetry summarize`` renders
a per-phase breakdown of a saved trace.  ``conformance`` drives the
differential engine: ``fuzz`` generates and checks seeded cases across
all five execution paths, ``replay`` re-runs the checked-in regression
corpus, ``shrink`` minimises a diverging case file.  ``serve`` runs the
async exception-checking job service (``POST /v1/jobs``; see
``docs/SERVICE.md``).  All runs go through :class:`repro.api.Session`.

Exit codes (stable contract, enforced by ``tests/test_cli.py``):

- ``0`` — success;
- ``1`` — a tool/run error (a sweep failed, an unexpected exception);
- ``2`` — usage error (bad flags, unknown program/table/figure/trace).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys

from .compiler import CompileOptions
from .fpx import AnalyzerConfig, DetectorConfig
from .harness.runner import (
    run_analyzer,
    run_baseline,
    run_binfpe,
    run_detector,
    stats_json,
)
from .telemetry import (
    get_telemetry,
    metrics_snapshot,
    telemetry_session,
    write_chrome_trace,
    write_events_jsonl,
)

log = logging.getLogger("repro.cli")


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:  # not installed; fall back to the source tree
        from . import __version__
        return __version__


def configure_logging(verbose: int = 0, quiet: int = 0) -> None:
    """Map -v/-q counts onto the ``repro`` logger hierarchy.

    Default WARNING; each ``-v`` lowers one level (INFO, DEBUG), each
    ``-q`` raises one (ERROR, CRITICAL).
    """
    level = logging.WARNING + 10 * (quiet - verbose)
    level = min(max(level, logging.DEBUG), logging.CRITICAL)
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )


def _options(args) -> CompileOptions:
    return CompileOptions.fast_math() if args.fast_math \
        else CompileOptions.precise()


def _shadow_arg(args):
    """The ``shadow=`` value the shared flags ask for (``None`` = off).

    ``--shadow-ulps N`` implies ``--shadow`` with threshold ``N``;
    subcommands without the shared group (``serve``) yield ``None`` —
    the service takes its shadow knob per job, never from the process.
    """
    ulps = getattr(args, "shadow_ulps", None)
    if ulps is not None:
        return ulps
    return True if getattr(args, "shadow", False) else None


def cmd_list(args) -> int:
    from .workloads import all_programs, kind_of
    for p in all_programs():
        if args.suite and p.suite != args.suite:
            continue
        flag = "E" if p.expected else " "
        print(f"{flag} {p.suite:<16} {p.name:<32} [{kind_of(p)}] "
              f"{p.description}")
    return 0


# -- run --------------------------------------------------------------------


def _print_metrics(tel) -> None:
    snap = metrics_snapshot(tel)
    print("# telemetry metrics")
    for name, value in snap["counters"].items():
        print(f"counter   {name} = {value}")
    for name, value in snap["gauges"].items():
        print(f"gauge     {name} = {value}")
    for name, hist in snap["histograms"].items():
        print(f"histogram {name} count={hist['count']} "
              f"mean={hist['mean']}")


def _telemetry_scope(args):
    """(wanted, context manager) for the telemetry-consuming flags.

    Any of ``--trace``/``--events``/``--metrics`` turns the layer on;
    the simulator itself never checks — it always reports into the
    active (by default null) registry.  ``--serve-metrics PORT`` also
    enables the registry (there would be nothing to scrape otherwise)
    and runs a live exposition server for the scope's duration.
    """
    want = bool(args.trace or args.events or args.metrics)
    serve = getattr(args, "serve_metrics", None)
    return want, _telemetry_cm(want, serve)


@contextlib.contextmanager
def _telemetry_cm(want: bool, serve: int | None):
    enable = want or serve is not None
    with (telemetry_session() if enable
          else contextlib.nullcontext(get_telemetry())) as tel:
        if serve is None:
            yield tel
            return
        from .telemetry.server import MetricsServer
        with MetricsServer(port=serve) as server:
            log.info("serving live telemetry on %s/metrics", server.url)
            yield tel


def _export_telemetry(args, tel) -> None:
    """Honor ``--trace``/``--events`` after a telemetry-enabled run."""
    if args.trace:
        n = write_chrome_trace(tel, args.trace)
        log.info("wrote %d span events to %s", n, args.trace)
    if args.events:
        n = write_events_jsonl(tel, args.events)
        log.info("wrote %d event lines to %s", n, args.events)


def cmd_run(args) -> int:
    from .workloads import program_by_name
    try:
        program = program_by_name(args.program)
    except KeyError:
        log.error("unknown program %r; try 'list'", args.program)
        return 2
    options = _options(args)

    want_telemetry, scope = _telemetry_scope(args)

    payload: dict = {"program": program.name, "suite": program.suite,
                     "tool": args.tool, "fast_math": args.fast_math}
    decode_cache = not args.no_decode_cache
    warp_batch = not args.no_warp_batch
    shadow = _shadow_arg(args)
    if args.profile_pcs:
        from .harness.profile import profile_pcs
        profile_cm = profile_pcs()
    else:
        profile_cm = contextlib.nullcontext(None)
    with scope as tel, profile_cm as ptable:
        base = run_baseline(program, options=options,
                            decode_cache=decode_cache,
                            warp_batch=warp_batch)
        analyzer = None
        if args.tool == "binfpe":
            report, stats = run_binfpe(program, options=options,
                                       decode_cache=decode_cache,
                                       warp_batch=warp_batch,
                                       shadow=shadow)
        elif args.tool == "analyzer":
            analyzer, stats = run_analyzer(program, options=options,
                                           config=AnalyzerConfig(),
                                           decode_cache=decode_cache,
                                           warp_batch=warp_batch,
                                           shadow=shadow)
            report = None
        else:
            whitelist = frozenset(args.whitelist.split(",")) \
                if args.whitelist else None
            config = DetectorConfig(
                use_gt=not args.no_gt,
                on_device_check=not args.host_check,
                freq_redn_factor=args.freq_redn_factor,
                kernel_whitelist=whitelist)
            report, stats = run_detector(program, options=options,
                                         config=config,
                                         decode_cache=decode_cache,
                                         warp_batch=warp_batch,
                                         shadow=shadow)

    _export_telemetry(args, tel)

    if args.json:
        payload["stats"] = stats_json(stats, base)
        if report is not None:
            payload["report"] = report.to_json()
        if analyzer is not None:
            payload["analyzer"] = analyzer.to_json()
        if want_telemetry:
            payload["telemetry"] = metrics_snapshot(tel)
        if ptable is not None:
            payload["hotspots"] = [
                {"kernel": k, "pc": pc, "opcode": op, "count": cnt,
                 "cycles": cyc, "wall": wall, "exceptions": exc}
                for k, pc, op, cnt, cyc, wall, exc in ptable.hotspots(20)]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if analyzer is not None:
        print(f"# analyzer: {len(analyzer.events)} flow events")
        for line in analyzer.report_lines(last=args.report_lines):
            print(line)
        summary = analyzer.flow_summary()
        print("# states:", {s.value: c for s, c in summary.items()})
        print(f"# modeled slowdown: {stats.slowdown(base):.2f}x")
        if ptable is not None:
            from .harness.profile import render_hotspots
            print(render_hotspots(ptable))
        if args.metrics:
            _print_metrics(tel)
        return 0

    for line in report.lines():
        print(line)
    print(f"# {report.total()} unique exception records; "
          f"{report.summary()}")
    if report.shadow is not None:
        for line in report.shadow.lines():
            print(line)
        print(f"# shadow: {report.shadow.total()} divergence sites "
              f"({report.shadow.divergences()} lanes) over "
              f"{report.shadow.checks} checks at threshold "
              f"{report.shadow.threshold} ULP")
    print(f"# modeled time {stats.total_seconds:.3f}s "
          f"(baseline {base.total_seconds:.3f}s, "
          f"slowdown {stats.slowdown(base):.2f}x)"
          + ("  [HUNG]" if stats.hung else ""))
    if ptable is not None:
        from .harness.profile import render_hotspots
        print(render_hotspots(ptable))
    if args.metrics:
        _print_metrics(tel)
    return 0


def cmd_diagnose(args) -> int:
    from .fpx.diagnosis import diagnose
    from .workloads import program_by_name, strategy_for
    program = program_by_name(args.program)
    paper_name = program.name.split(" (")[0] \
        if program.name.startswith("Sw4lite") else program.name
    diag = diagnose(program, strategy_for(paper_name))
    print(f"program:   {diag.program}")
    print(f"diagnosed: {diag.diagnosed}")
    print(f"matters:   {diag.matters}")
    print(f"fixed:     {diag.fixed}")
    print(f"severe records: {diag.severe_records}; output NaNs: "
          f"{diag.output_nans}, INFs: {diag.output_infs}")
    for note in diag.notes:
        print(f"  - {note}")
    return 0


def cmd_workflow(args) -> int:
    """The Figure 2 pipeline over a suite (or everything)."""
    from .harness.workflow import screen_then_analyze
    from .workloads import all_programs
    programs = [p for p in all_programs()
                if not args.suite or p.suite == args.suite]
    outcome = screen_then_analyze(programs)
    print(outcome.render())
    return 0


def cmd_profile(args) -> int:
    from .harness.profile import profile_program
    from .workloads import program_by_name
    if args.program == "hotspots":
        return _cmd_profile_hotspots(args)
    prof = profile_program(program_by_name(args.program))
    print(f"program:        {prof.name} ({prof.suite})")
    print(f"kernels:        {prof.kernels}")
    print(f"launches:       {prof.launches}")
    print(f"warp instrs:    {prof.warp_instrs}")
    print(f"thread instrs:  {prof.thread_instrs}")
    print(f"fp density:     {prof.fp_density:.1%}")
    print("category mix:   " + " ".join(
        f"{k}={v:.1%}" for k, v in
        sorted(prof.category_mix.items(), key=lambda kv: -kv[1])))
    print("top opcodes:    " + " ".join(
        f"{op}x{n}" for op, n in prof.top_opcodes))
    return 0


def _cmd_profile_hotspots(args) -> int:
    """``profile hotspots PROGRAM``: per-pc cycles under the detector."""
    from .harness.profile import profile_pcs, render_hotspots
    from .workloads import program_by_name
    if not args.extra:
        log.error("usage: profile hotspots PROGRAM")
        return 2
    try:
        program = program_by_name(args.extra)
    except KeyError:
        log.error("unknown program %r; try 'list'", args.extra)
        return 2
    _, scope = _telemetry_scope(args)
    with scope, profile_pcs() as table:
        run_detector(program,
                     decode_cache=not args.no_decode_cache,
                     warp_batch=not args.no_warp_batch)
    print(render_hotspots(table, top=args.top))
    if args.flame:
        from .telemetry.flame import write_collapsed
        n = write_collapsed(table, args.flame)
        print(f"# wrote {n} collapsed stacks to {args.flame}")
    return 0


def _report_sweep_error(exc) -> int:
    log.error("%s", exc)
    return 1


def cmd_table(args) -> int:
    from .harness.parallel import SweepError
    from .harness.tables import table4, table5, table6, table7
    from .workloads import EXCEPTION_PROGRAMS, exception_programs
    n, jobs = args.number, args.jobs
    knobs = dict(decode_cache=not args.no_decode_cache,
                 warp_batch=not args.no_warp_batch)
    _, scope = _telemetry_scope(args)
    with scope as tel:
        try:
            if n == 4:
                print(table4(exception_programs(), jobs=jobs,
                             **knobs).render())
            elif n == 5:
                print(table5(exception_programs(), jobs=jobs,
                             **knobs).render())
            elif n == 6:
                print(table6(exception_programs(), jobs=jobs,
                             **knobs).render())
            elif n == 7:
                programs = {p.name: p
                            for p in EXCEPTION_PROGRAMS.values()}
                print(table7(programs, jobs=jobs).render())
            else:
                log.error("tables: 4, 5, 6 or 7")
                return 2
        except SweepError as exc:
            return _report_sweep_error(exc)
    _export_telemetry(args, tel)
    if args.metrics:
        _print_metrics(tel)
    return 0


def cmd_figure(args) -> int:
    from .harness.figures import figure4, figure5, figure6
    from .harness.parallel import SweepError
    from .workloads import all_programs, program_by_name
    n, jobs = args.number, args.jobs
    knobs = dict(decode_cache=not args.no_decode_cache,
                 warp_batch=not args.no_warp_batch)
    _, scope = _telemetry_scope(args)
    with scope as tel:
        try:
            if n == 4:
                print(figure4(all_programs(), jobs=jobs, **knobs).render())
            elif n == 5:
                print(figure5(all_programs(), jobs=jobs, **knobs).render())
            elif n == 6:
                progs = [program_by_name(p) for p in
                         ("CuMF-Movielens", "SRU-Example", "myocyte",
                          "backprop")]
                print(figure6(progs, jobs=jobs, **knobs).render())
            else:
                log.error("figures: 4, 5 or 6")
                return 2
        except SweepError as exc:
            return _report_sweep_error(exc)
    _export_telemetry(args, tel)
    if args.metrics:
        _print_metrics(tel)
    return 0


def cmd_telemetry_summarize(args) -> int:
    from .telemetry import summarize_trace_file
    try:
        summary = summarize_trace_file(args.trace_file)
    except FileNotFoundError:
        log.error("no such trace file: %s", args.trace_file)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        log.error("%s: not a Chrome trace-event file (%s)",
                  args.trace_file, exc)
        return 2
    if not summary.phases:
        log.warning("%s contains no span events", args.trace_file)
        return 0
    print(summary.render())
    return 0


def cmd_telemetry_serve(args) -> int:
    """Expose a snapshot JSONL file as a live ``/metrics`` endpoint."""
    import time
    from .telemetry.server import FileSnapshotSource, MetricsServer
    server = MetricsServer(FileSnapshotSource(args.snapshot_file),
                           port=args.port, host=args.host)
    server.start()
    print(f"# serving {args.snapshot_file} on {server.url}/metrics "
          f"(also /healthz, /flight)", flush=True)
    deadline = time.monotonic() + args.duration \
        if args.duration is not None else None
    try:
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_serve(args) -> int:
    """Run the async exception-checking job service until interrupted."""
    import time
    from .serve import JobService, ServeConfig, ServeServer
    service = JobService(ServeConfig(
        cache_size=args.cache_size,
        queue_depth=args.queue_depth)).start()
    server = ServeServer(service, port=args.port, host=args.host).start()
    print(f"# repro serve listening on {server.url}/v1/jobs "
          f"(live telemetry on /metrics, /healthz, /flight)", flush=True)
    deadline = time.monotonic() + args.duration \
        if args.duration is not None else None
    try:
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()               # stop accepting connections first,
        service.shutdown(drain=True)  # then drain in-flight jobs
    return 0


def cmd_conformance_fuzz(args) -> int:
    from .conformance import fuzz, generate_case, save_case, shrink_case
    from .conformance.mutation import mutation
    _, scope = _telemetry_scope(args)
    skip = ("megabatch",) if args.no_megabatch else ()
    with scope as tel:
        result = fuzz(args.cases, args.seed, jobs=args.jobs,
                      mutations=tuple(args.mutate), skip_paths=skip,
                      shadow=_shadow_arg(args))
    _export_telemetry(args, tel)
    print(f"conformance fuzz: {result.summary()}")
    if args.metrics:
        _print_metrics(tel)
    if result.ok:
        return 0
    for failure in result.failures:
        print(f"DIVERGED {failure['name']}:")
        for line in failure["divergences"]:
            print(f"  {line}")
    if args.save_corpus and not args.no_shrink:
        with mutation(*args.mutate):
            for failure in result.failures:
                if "index" not in failure:
                    continue
                case = generate_case(args.seed, failure["index"])
                shrunk = shrink_case(case)
                path = save_case(shrunk, args.save_corpus,
                                 note=failure["divergences"][0])
                print(f"shrunk reproducer ({len(shrunk.ops)} body ops) "
                      f"-> {path}")
    return 1


def _iter_corpus_paths(paths):
    from pathlib import Path
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.glob("*.json"))
        else:
            yield p


def cmd_conformance_replay(args) -> int:
    from .api import EXECUTION_PATHS
    from .conformance import default_corpus_dir, load_case, run_case
    from .conformance.mutation import mutation
    paths = list(_iter_corpus_paths(args.paths or [default_corpus_dir()]))
    if not paths:
        log.error("no corpus cases found")
        return 2
    compare = {name: knobs for name, knobs in EXECUTION_PATHS.items()
               if not (args.no_megabatch and name == "megabatch")}
    failed = 0
    _, scope = _telemetry_scope(args)
    with scope as tel, mutation(*args.mutate):
        for path in paths:
            try:
                case = load_case(json.loads(path.read_text()))
            except (OSError, ValueError, KeyError,
                    json.JSONDecodeError) as exc:
                log.error("%s: not a corpus case (%s)", path, exc)
                return 2
            outcome = run_case(case, compare)
            status = "ok" if outcome.ok else "DIVERGED"
            print(f"{status:>8}  {case.name}  ({len(case.ops)} body ops)")
            for line in outcome.divergences:
                print(f"          {line}")
            failed += 0 if outcome.ok else 1
    _export_telemetry(args, tel)
    if args.metrics:
        _print_metrics(tel)
    print(f"conformance replay: {len(paths) - failed}/{len(paths)} ok")
    return 1 if failed else 0


def cmd_conformance_shrink(args) -> int:
    from pathlib import Path
    from .conformance import dump_case, load_case, shrink_case
    from .conformance.mutation import mutation
    path = Path(args.case_file)
    try:
        case = load_case(json.loads(path.read_text()))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        log.error("%s: not a corpus case (%s)", path, exc)
        return 2
    with mutation(*args.mutate):
        try:
            shrunk = shrink_case(case)
        except ValueError as exc:   # the case does not diverge
            log.error("%s", exc)
            return 1
    out = Path(args.out) if args.out else path
    out.write_text(json.dumps(
        dump_case(shrunk, note=f"shrunk from {case.name}"),
        indent=2) + "\n")
    print(f"shrunk {case.name}: {len(case.ops)} -> {len(shrunk.ops)} "
          f"body ops, {len(case.inputs)} -> {len(shrunk.inputs)} inputs "
          f"-> {out}")
    return 0


def shared_parser() -> argparse.ArgumentParser:
    """The option group every subcommand accepts (argparse parent)."""
    shared = argparse.ArgumentParser(add_help=False)
    g = shared.add_argument_group("shared options")
    g.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for sweeps (1 = serial; "
                        "default: all cores; output is identical "
                        "either way)")
    g.add_argument("--trace", metavar="PATH",
                   help="export a Chrome/Perfetto trace-event JSON file")
    g.add_argument("--events", metavar="PATH",
                   help="export a JSONL structured event log")
    g.add_argument("--metrics", action="store_true",
                   help="print telemetry counters/histograms afterwards")
    g.add_argument("--serve-metrics", type=int, default=None,
                   metavar="PORT",
                   help="serve live /metrics, /healthz and /flight on "
                        "this port for the command's duration (0 = "
                        "ephemeral; implies an enabled registry)")
    g.add_argument("--no-decode-cache", action="store_true",
                   help="bypass the decoded-program cache and run the "
                        "legacy per-instruction interpreter")
    g.add_argument("--no-warp-batch", action="store_true",
                   help="force the serial per-warp engine instead of "
                        "the warp-cohort batched executor")
    g.add_argument("--no-megabatch", action="store_true",
                   help="serial member loop for Session.run_batch (no "
                        "launch stacking); conformance commands drop "
                        "the megabatch path from the comparison")
    g.add_argument("--shadow", action="store_true",
                   help="shadow-precision execution: re-run FP32 ops in "
                        "binary64 (FP64 in exact arithmetic) and report "
                        "results that silently drift past the ULP "
                        "threshold")
    g.add_argument("--shadow-ulps", type=int, default=None, metavar="N",
                   help="shadow divergence threshold in ULPs (implies "
                        "--shadow; default 16)")
    return shared


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="GPU-FPX reproduction command-line interface")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_package_version()}")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more logging (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less logging (-q errors only)")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = [shared_parser()]

    p = sub.add_parser("list", parents=shared,
                       help="list the 151 benchmark programs")
    p.add_argument("--suite", help="filter by suite")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("run", parents=shared,
                       help="run one program under a tool")
    p.add_argument("program")
    p.add_argument("--tool", choices=["detector", "analyzer", "binfpe"],
                   default="detector")
    p.add_argument("--fast-math", action="store_true",
                   help="compile with --use_fast_math")
    p.add_argument("--freq-redn-factor", type=int, default=0,
                   help="instrument once every K invocations")
    p.add_argument("--no-gt", action="store_true",
                   help="disable the GT dedup table")
    p.add_argument("--host-check", action="store_true",
                   help="check on the host (BinFPE-style ablation)")
    p.add_argument("--whitelist",
                   help="comma-separated kernel white-list")
    p.add_argument("--report-lines", type=int, default=20,
                   help="analyzer report lines to print")
    p.add_argument("--json", action="store_true",
                   help="emit the report + stats as one JSON object")
    p.add_argument("--profile-pcs", action="store_true",
                   help="profile per-pc modeled cycles and print the "
                        "hotspot table afterwards")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("diagnose", parents=shared,
                       help="run the §5 diagnosis workflow")
    p.add_argument("program")
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("workflow", parents=shared,
                       help="run the Figure 2 screen-then-analyze pipeline")
    p.add_argument("--suite", help="restrict to one suite")
    p.set_defaults(fn=cmd_workflow)

    p = sub.add_parser("profile", parents=shared,
                       help="characterise one program, or 'hotspots "
                            "PROGRAM' for the per-pc cycle profile")
    p.add_argument("program",
                   help="program name, or the literal 'hotspots'")
    p.add_argument("extra", nargs="?", metavar="PROGRAM",
                   help="program name (with 'hotspots')")
    p.add_argument("--top", type=int, default=10,
                   help="hotspot rows to print (default 10)")
    p.add_argument("--flame", metavar="PATH",
                   help="also write a collapsed-stack flamegraph file")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("table", parents=shared,
                       help="regenerate a paper table")
    p.add_argument("number", type=int)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("figure", parents=shared,
                       help="regenerate a paper figure")
    p.add_argument("number", type=int)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("serve",
                       help="run the async exception-checking job "
                            "service (POST /v1/jobs)")
    p.add_argument("--port", type=int, default=0,
                   help="port to bind (default 0 = ephemeral; the "
                        "resolved URL is printed)")
    p.add_argument("--host", default="127.0.0.1",
                   help="address to bind (default 127.0.0.1)")
    p.add_argument("--cache-size", type=int, default=64,
                   help="result-cache entries (0 disables caching)")
    p.add_argument("--queue-depth", type=int, default=32,
                   help="bounded queue depth; beyond it submissions "
                        "get HTTP 429")
    p.add_argument("--duration", type=float, default=None,
                   metavar="SECONDS",
                   help="serve for this long then drain and exit "
                        "(default: until interrupted)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("telemetry", help="telemetry utilities")
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    ps = tsub.add_parser(
        "summarize", parents=shared,
        help="per-phase time/cycle breakdown of a saved trace")
    ps.add_argument("trace_file", metavar="trace",
                    help="trace file written by run --trace")
    ps.set_defaults(fn=cmd_telemetry_summarize)
    pv = tsub.add_parser(
        "serve", parents=shared,
        help="serve a snapshot JSONL file as a live /metrics endpoint")
    pv.add_argument("snapshot_file", metavar="SNAPSHOTS.jsonl",
                    help="file of registry snapshots (one JSON per "
                         "line), re-read on every scrape")
    pv.add_argument("--port", type=int, default=0,
                    help="port to bind (default 0 = ephemeral)")
    pv.add_argument("--host", default="127.0.0.1",
                    help="address to bind (default 127.0.0.1)")
    pv.add_argument("--duration", type=float, default=None,
                    metavar="SECONDS",
                    help="serve for this long then exit (default: "
                         "until interrupted)")
    pv.set_defaults(fn=cmd_telemetry_serve)

    p = sub.add_parser("conformance",
                       help="differential conformance engine")
    csub = p.add_subparsers(dest="conformance_command", required=True)

    def mutate_arg(sp):
        sp.add_argument("--mutate", action="append", default=[],
                        metavar="FLAG",
                        help="enable an executor fault-injection flag "
                             "(for exercising the engine itself)")

    pf = csub.add_parser(
        "fuzz", parents=shared,
        help="generate seeded cases and run them on all four "
             "execution paths")
    pf.add_argument("--cases", type=int, default=200,
                    help="number of generated cases (default 200)")
    pf.add_argument("--seed", type=int, default=0,
                    help="generation seed (cases are keyed on "
                         "(seed, index), independent of --jobs)")
    pf.add_argument("--save-corpus", metavar="DIR",
                    help="shrink divergences and append reproducers "
                         "to this corpus directory")
    pf.add_argument("--no-shrink", action="store_true",
                    help="report divergences without shrinking")
    mutate_arg(pf)
    pf.set_defaults(fn=cmd_conformance_fuzz)

    pr = csub.add_parser(
        "replay", parents=shared,
        help="re-run corpus case files (default: tests/corpus)")
    pr.add_argument("paths", nargs="*",
                    help="case files or corpus directories")
    mutate_arg(pr)
    pr.set_defaults(fn=cmd_conformance_replay)

    pk = csub.add_parser(
        "shrink", parents=shared,
        help="minimise a diverging case file")
    pk.add_argument("case_file", metavar="CASE.json")
    pk.add_argument("--out", metavar="PATH",
                    help="write the shrunk case here (default: in place)")
    mutate_arg(pk)
    pk.set_defaults(fn=cmd_conformance_shrink)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    shadow = _shadow_arg(args)
    if shadow is not None:
        # Process-wide default: subcommands that build Sessions deep in
        # the harness (table, figure, diagnose, replay...) inherit it
        # without explicit threading.
        from .gpu.shadow import set_default_shadow
        set_default_shadow(shadow)
    try:
        return args.fn(args)
    except KeyboardInterrupt:  # pragma: no cover
        raise
    except Exception as exc:  # tool/run errors map to exit code 1
        log.error("%s", exc)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
